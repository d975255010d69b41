"""NumPy and pure-Python t-dominance stores against a scalar reference.

The NumPy store answers PO preference by taking columns from the members'
rows of the boolean preferred-or-equal matrices, over target chunks bounded
by ``_BLOCK_MASK_ELEMENTS``: all members in one pass for a block of at most
``SINGLE_PASS_PAIRS`` pairs, up to ``MEMBER_CHUNK`` at a time in the sorted
sweep that answers larger blocks.  These
cases pin the verdicts of both stores to a scan of ``pref_or_equal`` and
their charged checks to each backend's contract (the reference charges the
comparisons it reaches, the batched backend the whole block) across:

* PO domains of 1, 7, 63, 64, 65 and 130 values;
* 0-3 TO and 0-2 PO attributes;
* store sizes on both sides of one and two member chunks;
* target chunks split by a small element budget.

The ``sweep_every_block`` cases force the sweep on small blocks and pin it
at the edges of its TO-sum bound: member sums equal to target sums,
negative and infinite values, rows holding both +inf and -inf (a NaN sum),
and a store whose only dominator comes last in sum order.

The NumPy record block test shares the column take; its wide-domain
verdicts are checked here too.  Both backends read the tables' row bitmasks:
the NumPy matrices (one ``unpackbits`` per table) and the decoded
``pref_or_equal`` the scan uses are pinned to the scalar DAG and encoding
relations on the same domain sizes.
"""

from __future__ import annotations

import random

import pytest

from repro.kernels import PreferenceTable, RecordTables, TDominanceTables, get_kernel
from repro.order.builders import random_dag
from repro.order.encoding import encode_domain
from repro.skyline.base import SkylineStats

pytest.importorskip("numpy")

from repro.kernels import numpy_kernel  # noqa: E402

PURE = get_kernel("purepython")
NUMPY = get_kernel("numpy")
MEMBER_CHUNK = numpy_kernel.NumpyTDominanceStore.MEMBER_CHUNK

#: Store positions made strong (low TO values), so targets that only they
#: dominate are settled by a late member chunk.
STRONG_POSITIONS = (0, 254, 255, 256, 257, 511, 512)


def _dag(size: int, seed: int):
    # About three edges per value keeps the closures neither empty nor full.
    return random_dag(size, edge_probability=min(1.0, 3 / size), seed=seed)


def _tables(num_to: int, domain_sizes, seed: int = 0) -> TDominanceTables:
    encodings = [
        encode_domain(_dag(size, seed + index)) for index, size in enumerate(domain_sizes)
    ]
    return TDominanceTables.from_encodings(num_to, encodings)


def _rows(rng, tables, count: int, low: int, high: int, strong=()):
    """``count`` random (TO rows, code rows); TO values in ``[low, high]``,
    or in ``[0, 2]`` at the ``strong`` positions."""
    strong = set(strong)
    to_rows = [
        tuple(
            float(rng.randint(0, 2) if index in strong else rng.randint(low, high))
            for _ in range(tables.num_total_order)
        )
        for index in range(count)
    ]
    code_rows = [
        tuple(rng.randrange(table.cardinality) for table in tables.attributes)
        for _ in range(count)
    ]
    return to_rows, code_rows


def _weakly_dominates(tables, member, target) -> bool:
    (member_to, member_codes), (target_to, target_codes) = member, target
    return all(a <= b for a, b in zip(member_to, target_to)) and all(
        table.pref_or_equal[p][q]
        for table, p, q in zip(tables.attributes, member_codes, target_codes)
    )


def _first_dominator(tables, members, target) -> int | None:
    for index, member in enumerate(members):
        if _weakly_dominates(tables, member, target):
            return index
    return None


def _check_store(tables, members, targets) -> None:
    """Both stores against the scan, verdicts and charged checks."""
    member_pairs = list(zip(*members))
    target_pairs = list(zip(*targets))
    firsts = [_first_dominator(tables, member_pairs, target) for target in target_pairs]
    verdicts = [first is not None for first in firsts]
    # The reference stops at the first dominator; the batch charges it all.
    reached = sum(len(member_pairs) if first is None else first + 1 for first in firsts)
    full = len(member_pairs) * len(target_pairs)
    for kernel, block_checks in ((PURE, reached), (NUMPY, full)):
        store = kernel.tdominance_store(tables)
        store.extend(*members)
        assert len(store) == len(member_pairs)
        stats = SkylineStats()
        assert store.block_weakly_dominated(*targets, counter=stats) == verdicts, kernel.name
        assert stats.dominance_checks == block_checks, kernel.name
        stats = SkylineStats()
        singles = [store.any_weakly_dominates(*target, counter=stats) for target in target_pairs]
        assert singles == verdicts, kernel.name
        assert stats.dominance_checks == block_checks, kernel.name


def _check_mbb_candidates(rng, tables, members) -> None:
    member_pairs = list(zip(*members))
    stores = []
    for kernel in (PURE, NUMPY):
        store = kernel.tdominance_store(tables)
        store.extend(*members)
        stores.append(store)
    for _ in range(8):
        to_low = [float(rng.randint(0, 9)) for _ in range(tables.num_total_order)]
        ordinal_low, range_mbis = [], []
        for po_index, table in enumerate(tables.attributes):
            code = rng.randrange(table.cardinality)
            ordinal_low.append(float(rng.randint(code + 1, table.cardinality)))
            range_mbis.append(
                (tables.mbi_low[po_index][code], tables.mbi_high[po_index][code])
                if rng.random() < 0.7
                else (float("inf"), float("-inf"))
            )
        expected = [
            index
            for index, (member_to, member_codes) in enumerate(member_pairs)
            if all(a <= b for a, b in zip(member_to, to_low))
            and all(
                code + 1 <= ordinal_low[p]
                and tables.mbi_low[p][code] <= range_mbis[p][0]
                and tables.mbi_high[p][code] >= range_mbis[p][1]
                for p, code in enumerate(member_codes)
            )
        ]
        for store in stores:
            stats = SkylineStats()
            assert store.mbb_candidates(to_low, ordinal_low, range_mbis, counter=stats) == expected
            assert stats.dominance_checks == len(member_pairs)


DOMAIN_SIZES = (1, 7, 63, 64, 65, 130)


@pytest.mark.parametrize("domain_size", DOMAIN_SIZES)
def test_bitmask_matrices_match_the_scalar_relations(domain_size):
    """Both tables' NumPy matrices and decoded ``pref_or_equal`` equal the
    scalar relations, across one-, two- and three-word domains."""
    dag = _dag(domain_size, domain_size)
    encoding = encode_domain(dag)
    truth = PreferenceTable.from_dag(dag)
    assert truth.pref_or_equal == tuple(
        tuple(dag.is_preferred_or_equal(x, y) for y in dag.values) for x in dag.values
    )
    for tables in (
        TDominanceTables.from_encodings(1, [encoding]),
        RecordTables.from_encodings(1, [encoding]),
    ):
        table = tables.attributes[0]
        matrix = numpy_kernel._pref_matrices(tables)[0]
        assert matrix.dtype == bool and matrix.shape == (domain_size, domain_size)
        assert matrix.flags.c_contiguous  # the stores gather whole rows
        expected = [
            [
                truth.pref_or_equal[truth.code_of[x]][truth.code_of[y]]
                for y in table.values
            ]
            for x in table.values
        ]
        assert matrix.tolist() == expected
        assert [list(row) for row in table.pref_or_equal] == expected
        assert expected == [
            [encoding.t_prefers_or_equal(x, y) for y in table.values]
            for x in table.values
        ]


@pytest.mark.parametrize("store_size", [255, 256, 257, 513])
@pytest.mark.parametrize("domain_size", DOMAIN_SIZES)
def test_wide_domains_across_member_chunks(domain_size, store_size):
    rng = random.Random(domain_size * 1000 + store_size)
    tables = _tables(2, [domain_size])
    members = _rows(rng, tables, store_size, 3, 9, strong=STRONG_POSITIONS)
    targets = _rows(rng, tables, 120, 0, 6)
    _check_store(tables, members, targets)
    _check_mbb_candidates(rng, tables, members)


@pytest.mark.parametrize("num_po", [0, 1, 2])
@pytest.mark.parametrize("num_to", [0, 1, 2, 3])
def test_attribute_counts(num_to, num_po):
    rng = random.Random(num_to * 10 + num_po)
    tables = _tables(num_to, [65, 9][:num_po], seed=num_to)
    members = _rows(rng, tables, MEMBER_CHUNK + 1, 3, 9, strong=STRONG_POSITIONS)
    targets = _rows(rng, tables, 80, 0, 6)
    _check_store(tables, members, targets)
    _check_mbb_candidates(rng, tables, members)


def test_empty_store_and_empty_targets():
    tables = _tables(2, [64])
    for kernel in (PURE, NUMPY):
        store = kernel.tdominance_store(tables)
        stats = SkylineStats()
        assert store.block_weakly_dominated([(1.0, 1.0)], [(0,)], counter=stats) == [False]
        assert not store.any_weakly_dominates((1.0, 1.0), (0,), counter=stats)
        store.extend([(1.0, 1.0)], [(0,)])
        assert store.block_weakly_dominated([], [], counter=stats) == []
        assert stats.dominance_checks == 0


@pytest.fixture
def sweep_every_block(monkeypatch):
    """Send every NumPy block test through the sorted sweep."""
    monkeypatch.setattr(numpy_kernel.NumpyTDominanceStore, "SINGLE_PASS_PAIRS", 0)


INF = float("inf")


@pytest.mark.usefixtures("sweep_every_block")
class TestSortedSweep:
    def test_equal_sums_and_equal_rows(self):
        tables = _tables(2, [9])
        code = (0,)
        # (1, 1) is the only dominator of the target (1, 1) and sorts first:
        # retiring targets whose sum *equals* the first member's would lose
        # it.  (0, 2) and (2, 0) share the sum and dominate neither.
        members = ([(1.0, 1.0), (0.0, 2.0), (2.0, 0.0), (3.0, 3.0)], [code] * 4)
        targets = (
            [(1.0, 1.0), (0.0, 2.0), (2.0, 0.0), (1.5, 0.5), (0.5, 1.5), (1.0, 2.0)],
            [code] * 6,
        )
        _check_store(tables, members, targets)

    def test_only_dominator_last_in_sum_order(self):
        """Above two member chunks, the target's one dominator is an equal
        row whose sum is the largest: the sweep must reach the last chunk."""
        tables = _tables(2, [9])
        # (x, 9 - x) sums to 9 and dominates (5, 5) only for x in {4, 5}.
        fillers = [(float(x), 9.0 - x) for x in range(-300, 300) if x not in (4, 5)]
        assert len(fillers) > 2 * MEMBER_CHUNK
        members = ([*fillers, (5.0, 5.0)], [(0,)] * (len(fillers) + 1))
        targets = ([(5.0, 5.0), (6.0, 5.0), (5.0, 4.5), (-301.0, 400.0)], [(0,)] * 4)
        store = NUMPY.tdominance_store(tables)
        store.extend(*members)
        assert store.block_weakly_dominated(*targets) == [True, True, False, False]
        _check_store(tables, members, targets)

    @pytest.mark.parametrize("store_size", [1, 17, MEMBER_CHUNK + 40, 3 * MEMBER_CHUNK])
    @pytest.mark.parametrize("num_to", [1, 2, 3])
    def test_negative_infinite_and_nan_sum_rows(self, num_to, store_size):
        """Values from {-inf, -2, -1, 0, 1, inf}: many equal sums, and rows
        holding both infinities, whose sum is NaN."""
        rng = random.Random(num_to * 1000 + store_size)
        tables = _tables(num_to, [5], seed=store_size)
        values = (-INF, -2.0, -1.0, 0.0, 1.0, INF)

        def block(count):
            to_rows = [(INF, -INF, 0.0)[:num_to], (-INF, INF, 1.0)[:num_to]][:count]
            to_rows += [
                tuple(rng.choice(values) for _ in range(num_to))
                for _ in range(count - len(to_rows))
            ]
            return to_rows, [(rng.randrange(5),) for _ in range(count)]

        _check_store(tables, block(store_size), block(150))

    @pytest.mark.parametrize("store_size", [255, 257, 700])
    def test_random_blocks_match_the_reference(self, store_size):
        rng = random.Random(store_size)
        tables = _tables(3, [65, 9])
        members = _rows(rng, tables, store_size, 3, 9, strong=STRONG_POSITIONS)
        targets = _rows(rng, tables, 200, 0, 9)
        _check_store(tables, members, targets)


def test_small_element_budget_splits_targets(monkeypatch):
    monkeypatch.setattr(numpy_kernel, "_BLOCK_MASK_ELEMENTS", 2_000)
    rng = random.Random(7)
    tables = _tables(2, [130, 9])
    assert len(list(numpy_kernel._target_chunks(MEMBER_CHUNK, 2, 150))) > 1
    members = _rows(rng, tables, 2 * MEMBER_CHUNK + 1, 3, 9, strong=STRONG_POSITIONS)
    targets = _rows(rng, tables, 150, 0, 6)
    _check_store(tables, members, targets)


@pytest.mark.parametrize("budget", [None, 500])
@pytest.mark.parametrize("domain_size", [7, 63, 64, 65, 130])
def test_record_block_test_on_wide_domains(domain_size, budget, monkeypatch):
    """The record block test (BBS+/SDC cross-examination, the merge window)
    matches the reference on wide domains, with and without split targets."""
    if budget is not None:
        monkeypatch.setattr(numpy_kernel, "_BLOCK_MASK_ELEMENTS", budget)
    rng = random.Random(domain_size)
    dags = [_dag(domain_size, 1), _dag(5, 2)]
    tables = RecordTables.from_encodings(2, [encode_domain(dag) for dag in dags])
    # Few TO values, so PO preference decides many pairs.
    to_rows = [(float(rng.randint(0, 3)), float(rng.randint(0, 3))) for _ in range(300)]
    code_rows = [
        (rng.randrange(domain_size), rng.randrange(5)) for _ in range(300)
    ]
    dominators = (to_rows[:120], code_rows[:120])
    masks = [
        kernel.record_block_dominated_columns(tables, *dominators, to_rows, code_rows)
        for kernel in (PURE, NUMPY)
    ]
    assert masks[0] == masks[1]
    assert 0 < sum(masks[0]) < len(to_rows)
    windows = []
    for kernel in (PURE, NUMPY):
        window = kernel.record_store(tables)
        window.extend(*dominators)
        windows.append(window.block_dominated_columns(to_rows, code_rows))
    assert windows[0] == windows[1] == masks[0]
