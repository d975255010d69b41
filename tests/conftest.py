"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import strategies as st

from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.data.workloads import WorkloadSpec
from repro.order.builders import airline_preference_dag, paper_example_dag
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import encode_domain
from repro.order.lattice import lattice_domain


# --------------------------------------------------------------------- #
# Paper examples
# --------------------------------------------------------------------- #
@pytest.fixture
def example_dag() -> PartialOrderDAG:
    """The 9-node DAG of Figure 2(a) (values a..i)."""
    return paper_example_dag()


@pytest.fixture
def example_encoding(example_dag):
    return encode_domain(example_dag)


@pytest.fixture
def airline_dag() -> PartialOrderDAG:
    """The airline preference DAG of the introduction (Table I, first row)."""
    return airline_preference_dag()


@pytest.fixture
def flight_schema(airline_dag) -> Schema:
    return Schema(
        [
            TotalOrderAttribute("price"),
            TotalOrderAttribute("stops"),
            PartialOrderAttribute("airline", airline_dag),
        ]
    )


@pytest.fixture
def flight_dataset(flight_schema) -> Dataset:
    """The 10-ticket dataset of Figure 1(a); record id i corresponds to ticket p(i+1)."""
    rows = [
        (1800, 0, "a"),
        (2000, 0, "a"),
        (1800, 0, "b"),
        (1200, 1, "b"),
        (1400, 1, "a"),
        (1000, 1, "b"),
        (1000, 1, "d"),
        (1800, 1, "c"),
        (500, 2, "d"),
        (1200, 2, "c"),
    ]
    return Dataset(flight_schema, rows)


# --------------------------------------------------------------------- #
# Small synthetic workloads
# --------------------------------------------------------------------- #
@pytest.fixture
def small_workload():
    """A small mixed TO/PO workload with a modest lattice domain."""
    spec = WorkloadSpec(
        name="unit",
        distribution="independent",
        cardinality=200,
        num_total_order=2,
        num_partial_order=1,
        dag_height=4,
        dag_density=0.8,
        to_domain_size=60,
        seed=11,
    )
    return spec.build()


@pytest.fixture
def small_anticorrelated_workload():
    spec = WorkloadSpec(
        name="unit-anti",
        distribution="anticorrelated",
        cardinality=200,
        num_total_order=2,
        num_partial_order=2,
        dag_height=3,
        dag_density=0.7,
        to_domain_size=40,
        seed=5,
    )
    return spec.build()


# --------------------------------------------------------------------- #
# Record-path reference
# --------------------------------------------------------------------- #
@contextlib.contextmanager
def record_path():
    """Run bare-dataset sTSS/SFS/LESS calls through their record walk.

    With NumPy importable those calls encode the dataset into a frame first;
    without it they walk the records.  Hiding NumPy from that probe lets one
    process compare the columnar path against the record reference.
    """
    import repro.core.mapping
    import repro.skyline.less
    import repro.skyline.sfs

    with contextlib.ExitStack() as stack:
        for module in (repro.core.mapping, repro.skyline.sfs, repro.skyline.less):
            stack.enter_context(mock.patch.object(module, "numpy_available", lambda: False))
        yield


# --------------------------------------------------------------------- #
# Frame backings
# --------------------------------------------------------------------- #
FRAME_BACKINGS = ("numpy", "tuple")


@contextlib.contextmanager
def frame_backing_of(name: str):
    """Encode frames with the named backing inside the block.

    The engine and executor run on one data path, an :class:`EncodedFrame`
    held in NumPy arrays when NumPy imports and in tuples otherwise.
    ``"tuple"`` hides NumPy from the frame plane and from the store reader
    (stores opened in the block struct-unpack their sections instead of
    mapping them), so one process covers the fallback backing too;
    ``"numpy"`` skips when NumPy is missing.
    """
    import repro.data.columns as columns
    import repro.store.reader as reader

    if name == "numpy":
        if not columns.numpy_available():
            pytest.skip("NumPy-backed frames need NumPy")
        yield
        return
    with (
        mock.patch.object(columns, "_numpy_or_none", lambda: None),
        mock.patch.object(reader, "_numpy_or_none", lambda: None),
    ):
        yield


@pytest.fixture(params=FRAME_BACKINGS)
def frame_backing(request):
    """Run the test once per frame backing (see :func:`frame_backing_of`)."""
    with frame_backing_of(request.param):
        yield request.param


def assert_backing(frame, backing: str) -> None:
    assert frame.uses_numpy == (backing == "numpy"), repr(frame)


# --------------------------------------------------------------------- #
# Hypothesis strategies
# --------------------------------------------------------------------- #
def random_dag_strategy(max_values: int = 10) -> st.SearchStrategy[PartialOrderDAG]:
    """Random small DAGs: a random permutation plus forward edges."""

    @st.composite
    def build(draw):
        size = draw(st.integers(min_value=1, max_value=max_values))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        probability = draw(st.floats(min_value=0.0, max_value=0.9))
        rng = random.Random(seed)
        labels = [f"v{i}" for i in range(size)]
        order = labels[:]
        rng.shuffle(order)
        edges = [
            (order[i], order[j])
            for i in range(size)
            for j in range(i + 1, size)
            if rng.random() < probability
        ]
        return PartialOrderDAG(labels, edges)

    return build()


def mixed_dataset_strategy(
    max_rows: int = 40,
    max_to: int = 3,
    max_po: int = 2,
    max_dag_values: int = 6,
    min_to: int = 1,
) -> st.SearchStrategy[Dataset]:
    """Small random datasets over random mixed TO/PO schemas.

    ``min_to=0`` additionally generates PO-only schemas (zero TO columns),
    a supported configuration the columnar block helpers must handle.
    """

    @st.composite
    def build(draw):
        num_to = draw(st.integers(min_value=min_to, max_value=max_to))
        num_po = draw(st.integers(min_value=1, max_value=max_po))
        dags = [draw(random_dag_strategy(max_dag_values)) for _ in range(num_po)]
        attributes = [TotalOrderAttribute(f"to{i}") for i in range(num_to)]
        attributes += [PartialOrderAttribute(f"po{i}", dag) for i, dag in enumerate(dags)]
        schema = Schema(attributes)
        num_rows = draw(st.integers(min_value=1, max_value=max_rows))
        rows = []
        for _ in range(num_rows):
            to_values = [draw(st.integers(min_value=0, max_value=8)) for _ in range(num_to)]
            po_values = [
                dag.values[draw(st.integers(min_value=0, max_value=len(dag.values) - 1))]
                for dag in dags
            ]
            rows.append(tuple(to_values) + tuple(po_values))
        return Dataset(schema, rows)

    return build()


@pytest.fixture
def tiny_lattice() -> PartialOrderDAG:
    return lattice_domain(3, 1.0, seed=0)
