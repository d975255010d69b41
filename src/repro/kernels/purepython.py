"""The reference dominance kernel: plain Python loops, no dependencies.

Semantics-defining backend: every other backend must agree with this one on
all verdicts (the property tests in ``tests/kernels`` assert exactly that).
Queries early-exit where possible, so the ``counter`` records the number of
member comparisons actually reached.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from operator import le

from repro.index.geometry import sweep_key
from repro.kernels.base import (
    DominanceKernel,
    RecordStore,
    TDominanceStore,
    TODominanceGraph,
    VectorStore,
    charge,
    graph_plan,
)
from repro.kernels.tables import PreferenceTable, RecordTables, TDominanceTables


def _dominates(p: Sequence[float], q: Sequence[float]) -> bool:
    strictly = False
    for a, b in zip(p, q):
        if a > b:
            return False
        if a < b:
            strictly = True
    return strictly


def _record_dominates(
    tables: RecordTables,
    p_to: Sequence[float],
    p_codes: Sequence[int],
    q_to: Sequence[float],
    q_codes: Sequence[int],
) -> bool:
    strictly = False
    for a, b in zip(p_to, q_to):
        if a > b:
            return False
        if a < b:
            strictly = True
    for table, code_p, code_q in zip(tables.attributes, p_codes, q_codes):
        if code_p == code_q:
            continue
        if table.pref_or_equal[code_p][code_q]:
            strictly = True
        else:
            return False
    return strictly


class PureVectorStore(VectorStore):
    def __init__(self, dimensions: int) -> None:
        self.dimensions = dimensions
        self._rows: list[tuple[float, ...]] = []

    def append(self, vector: Sequence[float]) -> None:
        self._rows.append(tuple(vector))

    def __len__(self) -> int:
        return len(self._rows)

    def compress(self, keep: Sequence[bool]) -> None:
        self._rows = [row for row, flag in zip(self._rows, keep) if flag]

    def any_dominates(self, candidate: Sequence[float], counter=None) -> bool:
        checks = 0
        try:
            for row in self._rows:
                checks += 1
                if _dominates(row, candidate):
                    return True
            return False
        finally:
            charge(counter, checks)

    def any_weakly_dominates(
        self,
        corner: Sequence[float],
        counter=None,
        *,
        exclude_equal: bool = False,
    ) -> bool:
        corner = tuple(corner)
        checks = 0
        try:
            for row in self._rows:
                checks += 1
                if all(a <= b for a, b in zip(row, corner)) and (
                    not exclude_equal or row != corner
                ):
                    return True
            return False
        finally:
            charge(counter, checks)


class PureRecordStore(RecordStore):
    def __init__(self, tables: RecordTables) -> None:
        self.tables = tables
        self._rows: list[tuple[tuple[float, ...], tuple[int, ...]]] = []

    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None:
        self._rows.append((tuple(to_values), tuple(po_codes)))

    def __len__(self) -> int:
        return len(self._rows)

    def compress(self, keep: Sequence[bool]) -> None:
        self._rows = [row for row, flag in zip(self._rows, keep) if flag]

    def any_dominates(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> bool:
        checks = 0
        try:
            for row_to, row_codes in self._rows:
                checks += 1
                if _record_dominates(self.tables, row_to, row_codes, to_values, po_codes):
                    return True
            return False
        finally:
            charge(counter, checks)

    def dominance_masks(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> tuple[bool, list[bool]]:
        dominated = False
        evicted: list[bool] = []
        checks = 0
        for row_to, row_codes in self._rows:
            checks += 1
            if not dominated and _record_dominates(
                self.tables, row_to, row_codes, to_values, po_codes
            ):
                dominated = True
            checks += 1
            evicted.append(
                _record_dominates(self.tables, to_values, po_codes, row_to, row_codes)
            )
        charge(counter, checks)
        return dominated, evicted


class PureTDominanceStore(TDominanceStore):
    def __init__(self, tables: RecordTables | TDominanceTables) -> None:
        self.tables = tables
        self._rows: list[tuple[tuple[float, ...], tuple[int, ...]]] = []
        # Per attribute, per candidate code: its pref_or_equal column.
        self._columns = [tuple(zip(*table.pref_or_equal)) for table in tables.attributes]

    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None:
        self._rows.append((tuple(to_values), tuple(po_codes)))

    def __len__(self) -> int:
        return len(self._rows)

    def any_weakly_dominates(
        self,
        to_values: Sequence[float],
        po_codes: Sequence[int],
        counter=None,
    ) -> bool:
        columns = [column[code] for column, code in zip(self._columns, po_codes)]
        checks = 0
        try:
            for row_to, row_codes in self._rows:
                checks += 1
                for a, b in zip(row_to, to_values):
                    if a > b:
                        break
                else:
                    for column, code in zip(columns, row_codes):
                        if not column[code]:
                            break
                    else:
                        return True
            return False
        finally:
            charge(counter, checks)

    def mbb_candidates(
        self,
        to_low: Sequence[float],
        ordinal_low: Sequence[float],
        range_mbis: Sequence[tuple[float, float]],
        counter=None,
    ) -> list[int]:
        tables = self.tables
        survivors: list[int] = []
        checks = 0
        for index, (row_to, row_codes) in enumerate(self._rows):
            checks += 1
            if any(a > b for a, b in zip(row_to, to_low)):
                continue
            # The member's ordinal (== code + 1) must not exceed the MBB's low
            # ordinal, and its interval set's MBI must contain the range MBI.
            ok = True
            for po_index, code in enumerate(row_codes):
                if code + 1 > ordinal_low[po_index]:
                    ok = False
                    break
                mbi_low, mbi_high = range_mbis[po_index]
                if (
                    tables.mbi_low[po_index][code] > mbi_low
                    or tables.mbi_high[po_index][code] < mbi_high
                ):
                    ok = False
                    break
            if ok:
                survivors.append(index)
        charge(counter, checks)
        return survivors


class PurePythonKernel(DominanceKernel):
    """Loop-based reference backend (always available)."""

    name = "purepython"

    def vector_store(self, dimensions: int) -> VectorStore:
        return PureVectorStore(dimensions)

    def record_store(self, tables: RecordTables) -> RecordStore:
        return PureRecordStore(tables)

    def tdominance_store(self, tables: RecordTables | TDominanceTables) -> TDominanceStore:
        return PureTDominanceStore(tables)

    def pareto_mask(self, rows: Sequence[Sequence[float]]) -> list[bool]:
        # Python floats: NumPy scalars would warn on inf + -inf.
        vectors = [tuple(map(float, row)) for row in rows]
        order = sorted(range(len(vectors)), key=lambda i: sweep_key(vectors[i]))
        kept: list[tuple[float, ...]] = []
        mask = [False] * len(vectors)
        for index in order:
            vector = vectors[index]
            if not any(_dominates(resident, vector) for resident in kept):
                kept.append(vector)
                mask[index] = True
        return mask

    def record_block_dominated_mask(
        self,
        tables: RecordTables,
        dominators: Sequence[tuple[Sequence[float], Sequence[int]]],
        targets: Sequence[tuple[Sequence[float], Sequence[int]]],
        counter=None,
    ) -> list[bool]:
        mask: list[bool] = []
        checks = 0
        for target_to, target_codes in targets:
            dominated = False
            for dom_to, dom_codes in dominators:
                checks += 1
                if _record_dominates(tables, dom_to, dom_codes, target_to, target_codes):
                    dominated = True
                    break
            mask.append(dominated)
        charge(counter, checks)
        return mask

    def to_dominance_graph(
        self,
        to_rows,
        code_rows,
        cardinalities: Sequence[int],
        max_pairs: int,
        max_comparisons: int,
    ) -> TODominanceGraph | None:
        to = [tuple(map(float, row)) for row in to_rows]
        codes = [tuple(map(int, row)) for row in code_rows]
        rows = len(to)
        dims = len(to[0]) if rows else 0
        order = sorted(range(rows), key=lambda i: to[i][0]) if dims else list(range(rows))
        # Rows by position in the dimension-0 order, as :func:`graph_plan`
        # names them.
        to_at = [to[i] for i in order]
        codes_at = [codes[i] for i in order]
        src, dst, starts = array("i"), array("i"), array("i")

        def members_of(high, reach):
            return [i for i in range(reach) if all(map(le, to_at[i], high))]

        def count_pairs(cell, members):
            found = len(dst)
            for j in cell:
                to_j, codes_j = to_at[j], codes_at[j]
                first = len(dst)
                for i in members:
                    if codes_at[i] != codes_j and all(map(le, to_at[i], to_j)):
                        src.append(order[i])
                        dst.append(order[j])
                if len(dst) > first:
                    starts.append(first)
            return len(dst) - found

        columns = [[row[dim] for row in to_at] for dim in range(dims)]
        if graph_plan(columns, rows, members_of, count_pairs, max_pairs, max_comparisons) is None:
            return None
        pair_codes = tuple(
            array("i", [codes[i][a] * size + codes[j][a] for i, j in zip(src, dst)])
            for a, size in enumerate(cardinalities)
        )
        return TODominanceGraph(rows, src, dst, pair_codes, starts)

    def graph_dominated(
        self,
        graph: TODominanceGraph,
        prefs: Sequence[PreferenceTable],
        counter=None,
    ) -> list[bool]:
        flat = [[flag for row in table.pref_or_equal for flag in row] for table in prefs]
        dominated = [False] * graph.num_rows
        stops = [*graph.starts[1:], len(graph)]
        for start, stop in zip(graph.starts, stops):
            dominated[graph.dst[start]] = any(
                all(matrix[codes[k]] for matrix, codes in zip(flat, graph.pair_codes))
                for k in range(start, stop)
            )
        charge(counter, len(graph))
        return dominated
