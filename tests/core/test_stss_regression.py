"""Regression pins for the sTSS query path.

* The t-dominance hot path works on integer interval-set masks only: once
  the domain encodings exist, an sTSS run builds no
  :class:`~repro.order.intervals.IntervalSet` object on either kernel.
* A golden run pins the skyline (ids in discovery order) and the work
  counters for one fixed seeded dataset under one preference override, per
  kernel.  The values were recorded before the interval layer moved to
  masks and re-pinned once when the best-first heap began breaking mindist
  ties by the low corner (same skyline set); any change to them is a
  behaviour change.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest

from repro.core.stss import stss_skyline
from repro.data.dataset import Dataset
from repro.data.workloads import WorkloadSpec
from repro.kernels import available_kernels
from repro.order.dag import PartialOrderDAG
from repro.order.encoding import encode_domain
from repro.order.intervals import IntervalSet

GOLDEN_SKYLINE = [
    1501, 715, 1993, 995, 1079, 39, 1052, 1019, 1150, 371, 1570, 1596, 1510,
    1968, 844, 1102, 1016, 1638, 713, 58, 632, 1589, 876, 142, 887, 738, 1605,
    1032, 1418, 1101, 1889, 1359, 35, 1749, 1392, 635, 112, 435, 723, 1999,
    247, 617, 201, 1451, 643, 1625, 1955,
]  # fmt: skip

#: kernel -> (dominance_checks, points_examined, nodes_expanded).
GOLDEN_COUNTERS = {
    "purepython": (32639, 1250, 43),
    "numpy": (58215, 1250, 43),
}


def _golden_dataset() -> Dataset:
    """2,000 independent rows (1 TO + 2 lattice PO attributes), with ``po1``
    re-specified by a seeded random DAG over its own values."""
    spec = WorkloadSpec(
        name="golden",
        distribution="independent",
        cardinality=2000,
        num_total_order=1,
        num_partial_order=2,
        dag_height=4,
        dag_density=0.8,
        seed=3,
    )
    schema, dataset = spec.build()
    rng = random.Random(11)
    values = list(schema.partial_order_attributes[0].dag.values)
    ranking = values[:]
    rng.shuffle(ranking)
    edges = [
        (ranking[i], ranking[j])
        for i in range(len(ranking))
        for j in range(i + 1, len(ranking))
        if rng.random() < 0.15
    ]
    effective = schema.replace_partial_order({"po1": PartialOrderDAG(values, edges)})
    return Dataset(effective, [record.values for record in dataset])


@pytest.fixture(scope="module")
def golden_dataset() -> Dataset:
    return _golden_dataset()


@pytest.mark.parametrize("kernel", available_kernels())
def test_stss_builds_no_interval_sets(golden_dataset, kernel):
    encodings = [
        encode_domain(attribute.dag)
        for attribute in golden_dataset.schema.partial_order_attributes
    ]
    original = IntervalSet.__init__
    built = []

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    with mock.patch.object(IntervalSet, "__init__", counting_init):
        result = stss_skyline(golden_dataset, encodings=encodings, kernel=kernel)
    assert result.skyline_ids == GOLDEN_SKYLINE
    assert not built


@pytest.mark.parametrize("kernel", available_kernels())
def test_golden_skyline_and_counters(golden_dataset, kernel):
    result = stss_skyline(golden_dataset, kernel=kernel)
    stats = result.stats
    assert result.skyline_ids == GOLDEN_SKYLINE
    assert (
        stats.dominance_checks,
        stats.points_examined,
        stats.nodes_expanded,
    ) == GOLDEN_COUNTERS[kernel]
