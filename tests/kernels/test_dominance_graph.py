"""The TO-dominance graph primitives against their definition, on every kernel.

:meth:`~repro.kernels.base.DominanceKernel.to_dominance_graph` must list
exactly the ordered pairs of rows in different PO-code combinations where
the first is no worse than the second on every TO attribute (raw ``<=``, so
infinities and rounding ties stay exact), with each target's pairs
contiguous, and give up past its pair budget.
:meth:`~repro.kernels.base.DominanceKernel.graph_dominated` must flag a row
iff one of its pairs passes the preferred-or-equal test on every PO
attribute.  Runs on the NumPy-backed blocks and on tuple rows.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import PreferenceTable, available_kernels, get_kernel
from repro.kernels.base import graph_plan
from repro.order.builders import random_dag
from tests.conftest import INFINITE_TO_VALUES, ROUNDING_TIE_TO_VALUES

KERNELS = available_kernels()
#: A pair or comparison budget no test block reaches.
NO_BOUND = 10**9
TO_VALUE_SETS = {
    "integers": (0.0, 1.0, 2.0, 3.0),
    "infinite": INFINITE_TO_VALUES,
    "rounding-ties": ROUNDING_TIE_TO_VALUES,
}


def _block(seed: int, rows: int, dims: int, cardinalities: list[int], values):
    rng = random.Random(seed)
    to = [tuple(rng.choice(values) for _ in range(dims)) for _ in range(rows)]
    codes = [tuple(rng.randrange(size) for size in cardinalities) for _ in range(rows)]
    return to, codes


#: (kernel, backing of the blocks it is handed): the NumPy kernel also
#: serves tuple-backed frames.
CASES = [(kernel, "tuple") for kernel in KERNELS] + [
    (kernel, "numpy") for kernel in KERNELS if kernel == "numpy"
]


def _as_blocks(backing: str, to, codes, dims: int, num_po: int):
    """The blocks as a frame of that backing hands them out."""
    if backing != "numpy":
        return to, codes
    import numpy as np

    return (
        np.asarray(to, dtype=np.float64).reshape(len(to), dims),
        np.asarray(codes, dtype=np.int32).reshape(len(codes), num_po),
    )


def _definition(to, codes) -> set[tuple[int, int]]:
    return {
        (i, j)
        for i in range(len(to))
        for j in range(len(to))
        if codes[i] != codes[j] and all(a <= b for a, b in zip(to[i], to[j]))
    }


def _pairs(graph) -> list[tuple[int, ...]]:
    """Every pair as (src, dst, pair codes...), as plain ints, sorted."""
    columns = [graph.src, graph.dst, *graph.pair_codes]
    return sorted(zip(*[[int(value) for value in column] for column in columns]))


@pytest.mark.parametrize(("kernel", "backing"), CASES)
@pytest.mark.parametrize("values", sorted(TO_VALUE_SETS))
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    rows=st.integers(min_value=0, max_value=140),
    dims=st.integers(min_value=0, max_value=3),
    cardinalities=st.lists(st.integers(min_value=1, max_value=4), max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_graph_lists_exactly_the_cross_group_weak_pairs(
    kernel, backing, values, seed, rows, dims, cardinalities
):
    to, codes = _block(seed, rows, dims, cardinalities, TO_VALUE_SETS[values])
    blocks = _as_blocks(backing, to, codes, dims, len(cardinalities))
    build = get_kernel(kernel).to_dominance_graph
    graph = build(*blocks, cardinalities, NO_BOUND, NO_BOUND)
    expected = _definition(to, codes)
    pairs = _pairs(graph)
    assert {(src, dst) for src, dst, *_ in pairs} == expected
    assert len(pairs) == len(expected) == len(graph)
    for src, dst, *pair_codes in pairs:
        assert pair_codes == [
            codes[src][a] * size + codes[dst][a] for a, size in enumerate(cardinalities)
        ]
    # Each target's pairs are contiguous and start where ``starts`` says.
    dst = [int(target) for target in graph.dst]
    starts = [int(start) for start in graph.starts]
    assert starts == [k for k in range(len(dst)) if k == 0 or dst[k] != dst[k - 1]]
    assert len({dst[start] for start in starts}) == len(starts)
    assert graph.num_rows == rows
    assert graph.nbytes == 4 * (len(expected) * (2 + len(cardinalities)) + len(starts))
    # One pair over the budget gives up; exactly at it still builds.
    if expected:
        assert build(*blocks, cardinalities, len(expected) - 1, NO_BOUND) is None
        assert len(build(*blocks, cardinalities, len(expected), NO_BOUND)) == len(expected)


@pytest.mark.parametrize(("kernel", "backing"), CASES)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    rows=st.integers(min_value=0, max_value=100),
    dims=st.integers(min_value=0, max_value=3),
    cardinalities=st.lists(st.integers(min_value=1, max_value=5), max_size=2),
    probability=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=40, deadline=None)
def test_graph_dominated_matches_definition(
    kernel, backing, seed, rows, dims, cardinalities, probability
):
    to, codes = _block(seed, rows, dims, cardinalities, INFINITE_TO_VALUES)
    backend = get_kernel(kernel)
    graph = backend.to_dominance_graph(
        *_as_blocks(backing, to, codes, dims, len(cardinalities)),
        cardinalities,
        NO_BOUND,
        NO_BOUND,
    )
    prefs = [
        PreferenceTable.from_dag(random_dag(size, edge_probability=probability, seed=seed + a))
        for a, size in enumerate(cardinalities)
    ]
    expected = [False] * rows
    for i, j in _definition(to, codes):
        if all(table.pref_or_equal[codes[i][a]][codes[j][a]] for a, table in enumerate(prefs)):
            expected[j] = True

    class Counter:
        dominance_checks = 0

    counter = Counter()
    assert backend.graph_dominated(graph, prefs, counter) == expected
    assert counter.dominance_checks == len(graph)


@pytest.mark.parametrize(("kernel", "backing"), CASES)
@pytest.mark.parametrize("dims", [0, 1, 2])
def test_comparison_budget_gives_up_on_a_dominant_group(kernel, backing, dims):
    """With no TO attribute, or ones on which every row ties, each cell
    takes every row as a member: a group much larger than the others costs
    rows x rows comparisons for few pairs, and the build gives up past
    ``max_comparisons`` however few pairs it found (checked up front with
    at most one TO attribute, cell by cell with more)."""
    codes = [(0,)] * 290 + [(1,)] * 10
    rows = len(codes)
    to = [(5.0,) * dims] * rows
    blocks = _as_blocks(backing, to, codes, dims, 1)
    build = get_kernel(kernel).to_dominance_graph
    pairs = 2 * 290 * 10
    assert len(build(*blocks, [2], pairs, rows * rows)) == pairs
    assert build(*blocks, [2], pairs, rows * rows - 1) is None
    assert build(*blocks, [2], pairs - 1, rows * rows) is None


@pytest.mark.parametrize("dims", [0, 1])
def test_one_dimensional_plan_gives_up_before_any_cell(dims):
    """With at most one TO attribute a cell's members are all the rows
    below its reach, so a plan over the comparison budget visits no cell."""
    rows = 300
    visited = []

    def members_of(high, reach):
        visited.append(reach)
        return range(reach)

    def plan(max_comparisons):
        return graph_plan(
            [[5.0] * rows] * dims, rows, members_of, lambda cell, members: 0, 0, max_comparisons
        )

    assert plan(rows * rows - 1) is None
    assert visited == []
    assert plan(rows * rows) == []
    assert visited and set(visited) == {rows}
