"""The vectorized dominance kernel: NumPy block tests.

Stores keep their members in amortized-doubling arrays, so appends are O(1)
and every query is a handful of vectorized comparisons over the whole block
instead of a Python-level loop.  Preference / t-preference matrices are
unpacked from the tables' row bitmasks into boolean ``ndarray`` once per
:class:`~repro.kernels.tables` object and cached in its ``scratch`` dict, so
all stores sharing the tables share the arrays.

This module imports :mod:`numpy` at import time; the registry in
:mod:`repro.kernels` only loads it when NumPy is installed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.columns import sweep_sums
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

_INITIAL_CAPACITY = 16

#: Bound on ``members x target-chunk x dims`` of one block comparison (see
#: :func:`_target_chunks`); keeps the temporaries of huge cross-examinations
#: around 32 MB.
_BLOCK_MASK_ELEMENTS = 32_000_000


class GrowableMatrix:
    """A row-appendable 2-D array with amortized-doubling storage.

    Appends never move rows already in the buffer (a regrowth copies them to
    a new one), so an owner that only appends may hand out ``view`` slices
    as fixed snapshots; :meth:`compress` rewrites rows in place.
    """

    __slots__ = ("_buffer", "_size")

    def __init__(self, columns: int, dtype) -> None:
        self._buffer = np.empty((_INITIAL_CAPACITY, columns), dtype=dtype)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    @property
    def view(self) -> np.ndarray:
        return self._buffer[: self._size]

    def append(self, row: Sequence[float]) -> None:
        if self._size == len(self._buffer):
            self._grow(self._size + 1)
        self._buffer[self._size] = row
        self._size += 1

    def extend(self, block: np.ndarray) -> None:
        """Bulk-append a whole (rows, columns) block in one copy."""
        needed = self._size + len(block)
        if needed > len(self._buffer):
            self._grow(needed)
        self._buffer[self._size : needed] = block
        self._size = needed

    def _grow(self, needed: int) -> None:
        capacity = len(self._buffer)
        while capacity < needed:
            capacity *= 2
        grown = np.empty((capacity, self._buffer.shape[1]), dtype=self._buffer.dtype)
        grown[: self._size] = self.view
        self._buffer = grown

    def compress(self, keep: np.ndarray) -> None:
        kept = self.view[keep]
        self._size = len(kept)
        self._buffer[: self._size] = kept


def _pref_matrix(table: PreferenceTable) -> np.ndarray:
    """The boolean preferred-or-equal matrix of one table: its row masks as
    little-endian bytes, one ``unpackbits`` into a bit per column, and one
    take of the codes' column bits (any domain width, no per-pair work)."""
    masks, bits = table.row_masks, table.column_bits
    # Every set bit of a row stands for some code, so the highest column bit
    # bounds the row width.
    row_bytes = max(bits, default=0) // 8 + 1
    packed = np.frombuffer(
        b"".join(mask.to_bytes(row_bytes, "little") for mask in masks), dtype=np.uint8
    ).reshape(len(masks), row_bytes)
    unpacked = np.unpackbits(packed, axis=1, bitorder="little")
    # A take keeps the rows C-contiguous (``[:, bits]`` gives Fortran order),
    # so the stores' row gathers read whole rows.
    return unpacked.take(np.asarray(bits, dtype=np.intp), axis=1).view(bool)


def _pref_matrices(tables: RecordTables | TDominanceTables) -> list[np.ndarray]:
    """Boolean preferred-or-equal matrices, cached on the tables object."""
    cached = tables.scratch.get("numpy_pref")
    if cached is None:
        cached = [_pref_matrix(table) for table in tables.attributes]
        tables.scratch["numpy_pref"] = cached
    return cached


def _block_dominated(
    prefs: list[np.ndarray],
    dom_to: np.ndarray,
    dom_codes: np.ndarray,
    tgt_to: np.ndarray,
    tgt_codes: np.ndarray,
) -> np.ndarray:
    """Per target: dominated by any dominator?

    One ``(dominators, targets)`` comparison per TO dimension, and per PO
    attribute one column take from the dominators' preferred-or-equal rows
    (gathered once), in target chunks from :func:`_target_chunks`.
    """
    num_to = dom_to.shape[1]
    pref_rows = [
        prefs[po_index][dom_codes[:, po_index]] for po_index in range(len(prefs))
    ]
    out = np.zeros(len(tgt_to), dtype=bool)
    for low, high in _target_chunks(len(dom_to), num_to, len(tgt_to)):
        weak = np.ones((len(dom_to), high - low), dtype=bool)
        strict = np.zeros_like(weak)
        for dim in range(num_to):
            dom_values = dom_to[:, dim, None]
            tgt_values = tgt_to[None, low:high, dim]
            weak &= dom_values <= tgt_values
            strict |= dom_values < tgt_values
        for po_index, rows in enumerate(pref_rows):
            target_codes = tgt_codes[low:high, po_index]
            preferred = np.take(rows, target_codes, axis=1)
            weak &= preferred
            strict |= preferred & (dom_codes[:, po_index, None] != target_codes)
        out[low:high] = (weak & strict).any(axis=0)
    return out


def _mbi_arrays(tables: TDominanceTables) -> tuple[list[np.ndarray], list[np.ndarray]]:
    cached = tables.scratch.get("numpy_mbi")
    if cached is None:
        cached = (
            [np.array(low, dtype=np.int64) for low in tables.mbi_low],
            [np.array(high, dtype=np.int64) for high in tables.mbi_high],
        )
        tables.scratch["numpy_mbi"] = cached
    return cached


def _as_to_block(rows, num_to: int) -> np.ndarray:
    # The explicit row count matters when num_to == 0 (PO-only schemas):
    # reshape(-1, 0) cannot infer it from a size-0 array.
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), num_to)


def _target_chunks(members: int, dims: int, targets: int):
    """``(low, high)`` target slices keeping ``members x chunk x dims`` within
    the :data:`_BLOCK_MASK_ELEMENTS` budget, so the ``(members, chunk)``
    masks a block test builds per dimension stay bounded."""
    chunk = max(1, _BLOCK_MASK_ELEMENTS // max(1, members * max(1, dims)))
    for low in range(0, targets, chunk):
        yield low, min(low + chunk, targets)


def _strictly_dominates(members: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``(members, targets)`` mask: the member is no worse on every dimension
    and strictly better on one.  One 2-D comparison per dimension, not a
    ``(members, targets, dims)`` cube reduced over its short last axis."""
    weak = np.ones((len(members), len(targets)), dtype=bool)
    strict = np.zeros_like(weak)
    for dim in range(members.shape[1]):
        member_values = members[:, dim, None]
        target_values = targets[None, :, dim]
        weak &= member_values <= target_values
        strict |= member_values < target_values
    return weak & strict


def _as_code_block(rows, num_po: int, length: int) -> np.ndarray:
    if num_po:
        return np.asarray(rows, dtype=np.int64).reshape(-1, num_po)
    return np.zeros((length, 1), dtype=np.int64)


class NumpyVectorStore(VectorStore):
    def __init__(self, dimensions: int) -> None:
        self.dimensions = dimensions
        self._rows = GrowableMatrix(dimensions, dtype=np.float64)

    def append(self, vector: Sequence[float]) -> None:
        self._rows.append(vector)

    def __len__(self) -> int:
        return len(self._rows)

    def compress(self, keep: Sequence[bool]) -> None:
        self._rows.compress(np.asarray(keep, dtype=bool))

    def any_dominates(self, candidate: Sequence[float], counter=None) -> bool:
        block = self._rows.view
        charge(counter, len(block))
        if not len(block):
            return False
        q = np.asarray(candidate, dtype=np.float64)
        le = block <= q
        return bool(np.any(le.all(axis=1) & (block < q).any(axis=1)))

    def any_weakly_dominates(
        self,
        corner: Sequence[float],
        counter=None,
        *,
        exclude_equal: bool = False,
    ) -> bool:
        block = self._rows.view
        charge(counter, len(block))
        if not len(block):
            return False
        q = np.asarray(corner, dtype=np.float64)
        weak = (block <= q).all(axis=1)
        if exclude_equal:
            weak &= (block != q).any(axis=1)
        return bool(weak.any())


class NumpyRecordStore(RecordStore):
    def __init__(self, tables: RecordTables) -> None:
        self.tables = tables
        self._pref = _pref_matrices(tables)
        self._to = GrowableMatrix(tables.num_total_order, dtype=np.float64)
        self._codes = GrowableMatrix(max(1, tables.num_partial_order), dtype=np.int64)
        self._num_po = tables.num_partial_order

    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None:
        self._to.append(to_values)
        self._codes.append(po_codes if self._num_po else (0,))

    def extend(self, to_rows, code_rows) -> None:
        to_block = _as_to_block(to_rows, self.tables.num_total_order)
        self._to.extend(to_block)
        self._codes.extend(_as_code_block(code_rows, self._num_po, len(to_block)))

    def __len__(self) -> int:
        return len(self._to)

    def compress(self, keep: Sequence[bool]) -> None:
        mask = np.asarray(keep, dtype=bool)
        self._to.compress(mask)
        self._codes.compress(mask)

    def _masks_against(self, to_values, po_codes) -> tuple[np.ndarray, np.ndarray]:
        """(members dominate candidate, candidate dominates members)."""
        block_to = self._to.view
        block_codes = self._codes.view
        q_to = np.asarray(to_values, dtype=np.float64)
        to_weak_fwd = (block_to <= q_to).all(axis=1)
        to_strict_fwd = (block_to < q_to).any(axis=1)
        to_weak_bwd = (block_to >= q_to).all(axis=1)
        to_strict_bwd = (block_to > q_to).any(axis=1)
        po_ok_fwd = np.ones(len(block_to), dtype=bool)
        po_strict_fwd = np.zeros(len(block_to), dtype=bool)
        po_ok_bwd = np.ones(len(block_to), dtype=bool)
        po_strict_bwd = np.zeros(len(block_to), dtype=bool)
        for po_index in range(self._num_po):
            matrix = self._pref[po_index]
            codes = block_codes[:, po_index]
            q_code = int(po_codes[po_index])
            fwd = matrix[codes, q_code]
            bwd = matrix[q_code, codes]
            differs = codes != q_code
            po_ok_fwd &= fwd
            po_ok_bwd &= bwd
            po_strict_fwd |= fwd & differs
            po_strict_bwd |= bwd & differs
        forward = to_weak_fwd & po_ok_fwd & (to_strict_fwd | po_strict_fwd)
        backward = to_weak_bwd & po_ok_bwd & (to_strict_bwd | po_strict_bwd)
        return forward, backward

    def any_dominates(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> bool:
        charge(counter, len(self))
        if not len(self):
            return False
        forward, _ = self._masks_against(to_values, po_codes)
        return bool(forward.any())

    def dominance_masks(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> tuple[bool, list[bool]]:
        charge(counter, 2 * len(self))
        if not len(self):
            return False, []
        forward, backward = self._masks_against(to_values, po_codes)
        return bool(forward.any()), backward.tolist()

    def block_dominated_columns(self, to_rows, code_rows, counter=None) -> list[bool]:
        tgt_to = _as_to_block(to_rows, self.tables.num_total_order)
        charge(counter, len(self) * len(tgt_to))
        if not len(self) or not len(tgt_to):
            return [False] * len(tgt_to)
        mask = _block_dominated(
            self._pref[: self._num_po],
            self._to.view,
            self._codes.view,
            tgt_to,
            _as_code_block(code_rows, self._num_po, len(tgt_to)),
        )
        return mask.tolist()


class NumpyTDominanceStore(TDominanceStore):
    """Weak t-dominance over the boolean preferred-or-equal matrices.

    A block test gathers each member chunk's matrix rows once per PO
    attribute (members x domain size) and then takes one column per target:
    a 1-D take, several times cheaper per pair than a 2-D gather.

    A block larger than :data:`SINGLE_PASS_PAIRS` members x targets is swept
    in TO-sum order, the order BBS and SFS visit points in: weak TO dominance
    implies a sum no larger than the target's (float rounding is monotone
    and every row is summed left to right), so a member is only compared
    with the open targets whose sum is at least its own, and a target leaves
    the sweep once the members reach a larger sum.  Verdicts are those of
    the full comparison; the charge is still every member x target pair.
    """

    #: Largest members x targets block answered in one comparison pass;
    #: larger blocks take the sorted sweep.  Measured on anticorrelated
    #: |TO|=3 blocks, the sweep costs about 1.3x the single pass at this
    #: size, breaks even near twice it, and wins 1.5x at four times it; below
    #: it, its sorting and bookkeeping cost 2-5x the pass.
    SINGLE_PASS_PAIRS = 65_536
    #: Members of the sweep's first chunk; each further chunk doubles, up to
    #: :data:`MEMBER_CHUNK`, so the many targets the strongest members
    #: dominate leave after a few pairs.
    FIRST_MEMBER_CHUNK = 16
    #: Members per comparison pass of the sorted sweep.
    MEMBER_CHUNK = 256

    def __init__(self, tables: RecordTables | TDominanceTables) -> None:
        self.tables = tables
        self._pref = _pref_matrices(tables)
        self._to = GrowableMatrix(tables.num_total_order, dtype=np.float64)
        self._codes = GrowableMatrix(max(1, tables.num_partial_order), dtype=np.int64)
        self._num_po = tables.num_partial_order
        # Member indices in ascending TO-sum order and their sums, covering
        # the first len(self._by_sum) members; merged up lazily by the sweep.
        self._by_sum = np.empty(0, dtype=np.intp)
        self._sorted_sums = np.empty(0, dtype=np.float64)

    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None:
        self._to.append(to_values)
        self._codes.append(po_codes if self._num_po else (0,))

    def extend(self, to_rows, code_rows) -> None:
        to_block = _as_to_block(to_rows, self.tables.num_total_order)
        self._to.extend(to_block)
        self._codes.extend(_as_code_block(code_rows, self._num_po, len(to_block)))

    def __len__(self) -> int:
        return len(self._to)

    def block_weakly_dominated(self, to_rows, code_rows, counter=None) -> list[bool]:
        tgt_to = _as_to_block(to_rows, self.tables.num_total_order)
        charge(counter, len(self) * len(tgt_to))
        if not len(self) or not len(tgt_to):
            return [False] * len(tgt_to)
        tgt_codes = _as_code_block(code_rows, self._num_po, len(tgt_to))
        if len(self) * len(tgt_to) <= self.SINGLE_PASS_PAIRS:
            return self._chunk_dominates(slice(None), tgt_to, tgt_codes).tolist()
        return self._sorted_sweep(tgt_to, tgt_codes).tolist()

    def _sorted_sweep(self, tgt_to, tgt_codes) -> np.ndarray:
        """Per target: weakly t-dominated by a member?  Members in ascending
        TO-sum chunks against the open targets, kept in ascending sum order.

        Sums are :func:`~repro.data.columns.sweep_sums` on both sides.
        """
        by_sum, member_sums = self._members_by_sum()
        tgt_sums = sweep_sums(tgt_to)
        open_rows = np.argsort(tgt_sums, kind="stable")
        open_sums = tgt_sums[open_rows]
        out = np.zeros(len(tgt_to), dtype=bool)
        start, chunk = 0, self.FIRST_MEMBER_CHUNK
        while start < len(by_sum):
            # Targets below the chunk's smallest sum are below every later
            # member's too: no member left can dominate them.
            retired = np.searchsorted(open_sums, member_sums[start], side="left")
            open_rows, open_sums = open_rows[retired:], open_sums[retired:]
            if not len(open_rows):
                break
            # Members above the largest open sum dominate no open target.
            stop = min(
                start + chunk,
                int(np.searchsorted(member_sums, open_sums[-1], side="right")),
            )
            hit = self._chunk_dominates(
                by_sum[start:stop], tgt_to[open_rows], tgt_codes[open_rows]
            )
            out[open_rows[hit]] = True
            open_rows, open_sums = open_rows[~hit], open_sums[~hit]
            start, chunk = stop, min(2 * chunk, self.MEMBER_CHUNK)
        return out

    def _members_by_sum(self) -> tuple[np.ndarray, np.ndarray]:
        """Member indices in ascending TO-sum order (ties in append order),
        and their sums; merges in members appended since the last call."""
        known = len(self._by_sum)
        if known < len(self):
            sums = sweep_sums(self._to.view[known:])
            order = np.argsort(sums, kind="stable")
            sums = sums[order]
            at = np.searchsorted(self._sorted_sums, sums, side="right")
            self._by_sum = np.insert(self._by_sum, at, order + known)
            self._sorted_sums = np.insert(self._sorted_sums, at, sums)
        return self._by_sum, self._sorted_sums

    def _chunk_dominates(self, members, tgt_to, tgt_codes) -> np.ndarray:
        """Per target: weakly t-dominated by a member in ``members`` (a slice
        or an index array)?"""
        block_to = self._to.view[members]
        block_codes = self._codes.view[members]
        pref_rows = [
            self._pref[po_index][block_codes[:, po_index]]
            for po_index in range(self._num_po)
        ]
        out = np.zeros(len(tgt_to), dtype=bool)
        dims = self.tables.num_total_order
        for low, high in _target_chunks(len(block_to), dims, len(tgt_to)):
            # One (members, targets) comparison per dimension: reducing a
            # (members, targets, dims) cube over its short last axis is
            # several times slower for the usual two or three dimensions.
            weak = np.ones((len(block_to), high - low), dtype=bool)
            for dim in range(dims):
                weak &= block_to[:, dim, None] <= tgt_to[None, low:high, dim]
            for po_index, rows in enumerate(pref_rows):
                weak &= np.take(rows, tgt_codes[low:high, po_index], axis=1)
            out[low:high] = weak.any(axis=0)
        return out

    def any_weakly_dominates(
        self,
        to_values: Sequence[float],
        po_codes: Sequence[int],
        counter=None,
    ) -> bool:
        block_to = self._to.view
        charge(counter, len(block_to))
        if not len(block_to):
            return False
        block_codes = self._codes.view
        mask = (block_to <= np.asarray(to_values, dtype=np.float64)).all(axis=1)
        for po_index in range(self._num_po):
            if not mask.any():
                return False
            mask &= self._pref[po_index][block_codes[:, po_index], int(po_codes[po_index])]
        return bool(mask.any())

    def mbb_candidates(
        self,
        to_low: Sequence[float],
        ordinal_low: Sequence[float],
        range_mbis: Sequence[tuple[float, float]],
        counter=None,
    ) -> list[int]:
        block_to = self._to.view
        charge(counter, len(block_to))
        if not len(block_to):
            return []
        block_codes = self._codes.view
        member_low, member_high = _mbi_arrays(self.tables)
        mask = (block_to <= np.asarray(to_low, dtype=np.float64)).all(axis=1)
        for po_index in range(self._num_po):
            codes = block_codes[:, po_index]
            mbi_low, mbi_high = range_mbis[po_index]
            mask &= codes + 1 <= ordinal_low[po_index]
            mask &= member_low[po_index][codes] <= mbi_low
            mask &= member_high[po_index][codes] >= mbi_high
        return np.flatnonzero(mask).tolist()


class NumpyKernel(DominanceKernel):
    """Vectorized backend (requires NumPy)."""

    name = "numpy"

    def vector_store(self, dimensions: int) -> VectorStore:
        return NumpyVectorStore(dimensions)

    def record_store(self, tables: RecordTables) -> RecordStore:
        return NumpyRecordStore(tables)

    def tdominance_store(self, tables: RecordTables | TDominanceTables) -> TDominanceStore:
        return NumpyTDominanceStore(tables)

    #: Points processed per vectorized step of :meth:`pareto_mask`.
    PARETO_CHUNK = 512
    #: Kept-front rows compared per sub-step.  Small on purpose: the front is
    #: kept in sum order, so most points are killed by its first rows and the
    #: shrinking-active-set loop regains the early-exit a scalar scan enjoys.
    PARETO_KEPT_CHUNK = 64

    def pareto_mask(self, rows: Sequence[Sequence[float]]) -> list[bool]:
        matrix = np.asarray(rows, dtype=np.float64)
        if matrix.ndim != 2 or not len(matrix):
            return [True] * len(matrix)
        if matrix.shape[1] == 1:
            # One dimension: exactly the minima survive (duplicates included).
            return (matrix[:, 0] == matrix[:, 0].min()).tolist()
        if matrix.shape[1] == 2:
            return self._pareto_mask_2d(matrix)
        # Sweep in monotone order: coordinate sum, ties broken
        # lexicographically.  Dominance implies a sum no larger (rounding is
        # monotone) and, on a tie, a lexicographically smaller row, so a
        # point can only be dominated by an earlier one.  Chunks are resolved
        # with two dominance tests — chunk vs the kept front, and chunk vs
        # itself (upper triangle; transitivity makes testing against
        # dominated chunk members harmless).
        order = np.lexsort((*matrix.T[::-1], sweep_sums(matrix)))
        ordered = matrix[order]
        total = len(ordered)
        kept_rows = np.empty_like(matrix)
        num_kept = 0
        mask = np.zeros(total, dtype=bool)
        for start in range(0, total, self.PARETO_CHUNK):
            chunk = ordered[start : start + self.PARETO_CHUNK]
            size = len(chunk)
            dominated = np.zeros(size, dtype=bool)
            active = np.arange(size)
            for kept_start in range(0, num_kept, self.PARETO_KEPT_CHUNK):
                if not len(active):
                    break
                block = kept_rows[kept_start : min(kept_start + self.PARETO_KEPT_CHUNK, num_kept)]
                newly = _strictly_dominates(block, chunk[active]).any(axis=0)
                dominated[active[newly]] = True
                active = active[~newly]
            # Within-chunk pass over the points the front did not kill.  A
            # chunk member dominated by the front cannot create new verdicts:
            # anything it dominates is dominated by its dominator too.
            undominated = np.flatnonzero(~dominated)
            if len(undominated) > 1:
                sub = chunk[undominated]
                within = _strictly_dominates(sub, sub)
                # Only earlier members (smaller sum, or equal sum and
                # lexicographically smaller) can be dominators; the triangle
                # restriction also removes self-pairs.
                within &= np.tri(len(sub), len(sub), -1, dtype=bool).T
                dominated[undominated[within.any(axis=0)]] = True
            survivors = chunk[~dominated]
            kept_rows[num_kept : num_kept + len(survivors)] = survivors
            num_kept += len(survivors)
            mask[start : start + size] = ~dominated
        result = np.zeros(total, dtype=bool)
        result[order] = mask
        return result.tolist()

    @staticmethod
    def _pareto_mask_2d(matrix: np.ndarray) -> list[bool]:
        """Two dimensions: one lexicographic sort, no pairwise comparisons.

        After sorting by ``(x, y)``, a point is dominated iff some earlier
        ``x``-run reaches a ``y`` no larger than its own (x strictly better),
        or its own ``x``-run starts at a strictly smaller ``y`` (y strictly
        better).  Exact duplicates survive together, matching the reference
        semantics.
        """
        order = np.lexsort((matrix[:, 1], matrix[:, 0]))
        x = matrix[order, 0]
        y = matrix[order, 1]
        run_starts = np.empty(len(x), dtype=bool)
        run_starts[0] = True
        np.not_equal(x[1:], x[:-1], out=run_starts[1:])
        run_ids = np.cumsum(run_starts) - 1
        # y is ascending within an x-run, so each run's minimum is its first y.
        run_min_y = y[run_starts]
        best_y_upto = np.minimum.accumulate(run_min_y)
        # NaN for the first run, which has no earlier one: an inf sentinel
        # would read as a dominator of a y of +inf.
        best_y_before = np.empty_like(best_y_upto)
        best_y_before[0] = np.nan
        best_y_before[1:] = best_y_upto[:-1]
        dominated = (best_y_before[run_ids] <= y) | (run_min_y[run_ids] < y)
        result = np.empty(len(x), dtype=bool)
        result[order] = ~dominated
        return result.tolist()

    def record_block_dominated_mask(
        self,
        tables: RecordTables,
        dominators: Sequence[tuple[Sequence[float], Sequence[int]]],
        targets: Sequence[tuple[Sequence[float], Sequence[int]]],
        counter=None,
    ) -> list[bool]:
        charge(counter, len(dominators) * len(targets))
        if not dominators or not targets:
            return [False] * len(targets)
        num_to = tables.num_total_order
        num_po = tables.num_partial_order
        prefs = _pref_matrices(tables)
        dom_to = np.array([d[0] for d in dominators], dtype=np.float64).reshape(
            len(dominators), num_to
        )
        tgt_to = np.array([t[0] for t in targets], dtype=np.float64).reshape(
            len(targets), num_to
        )
        dom_codes = np.array(
            [d[1] if num_po else (0,) for d in dominators], dtype=np.int64
        ).reshape(len(dominators), max(1, num_po))
        tgt_codes = np.array(
            [t[1] if num_po else (0,) for t in targets], dtype=np.int64
        ).reshape(len(targets), max(1, num_po))
        out = _block_dominated(prefs[:num_po], dom_to, dom_codes, tgt_to, tgt_codes)
        return out.tolist()

    def record_block_dominated_columns(
        self,
        tables: RecordTables,
        dominator_to,
        dominator_codes,
        target_to,
        target_codes,
        counter=None,
    ) -> list[bool]:
        num_po = tables.num_partial_order
        dom_to = _as_to_block(dominator_to, tables.num_total_order)
        tgt_to = _as_to_block(target_to, tables.num_total_order)
        charge(counter, len(dom_to) * len(tgt_to))
        if not len(dom_to) or not len(tgt_to):
            return [False] * len(tgt_to)
        out = _block_dominated(
            _pref_matrices(tables)[:num_po],
            dom_to,
            _as_code_block(dominator_codes, num_po, len(dom_to)),
            tgt_to,
            _as_code_block(target_codes, num_po, len(tgt_to)),
        )
        return out.tolist()

    def to_dominance_graph(
        self,
        to_rows,
        code_rows,
        cardinalities: Sequence[int],
        max_pairs: int,
        max_comparisons: int,
    ) -> TODominanceGraph | None:
        rows = len(to_rows)
        num_po = len(cardinalities)
        if not rows or not num_po:
            # With no PO attribute every row is in one group: no pairs.
            empty = np.empty(0, dtype=np.int32)
            return TODominanceGraph(rows, empty, empty, (empty,) * num_po, empty)
        to = np.asarray(to_rows, dtype=np.float64)
        codes = np.asarray(code_rows, dtype=np.int32).reshape(rows, num_po)
        dims = to.shape[1]
        # Everything below works on positions in the dimension-0 order: one
        # contiguous column per TO dimension and per PO attribute.
        order = (np.argsort(to[:, 0]) if dims else np.arange(rows)).astype(np.int32)
        columns = [np.ascontiguousarray(to[order, dim]) for dim in range(dims)]
        code_columns = [np.ascontiguousarray(codes[order, a]) for a in range(num_po)]

        def members_of(high, reach):
            if dims < 2:
                return np.arange(reach)
            near = columns[1][:reach] <= high[1]
            for dim in range(2, dims):
                near &= columns[dim][:reach] <= high[dim]
            return np.flatnonzero(near)

        def cell_pairs(cell, members):
            """The (members, cell) mask of the pairs: no worse on every TO
            dimension, codes different somewhere (pairs inside one group
            are skipped)."""
            cell = np.asarray(cell)
            pairs = code_columns[0][members, None] != code_columns[0][None, cell]
            for column in code_columns[1:]:
                pairs |= column[members, None] != column[None, cell]
            for column in columns:
                pairs &= column[members, None] <= column[None, cell]
            return pairs

        # Counting pass: no pair is held, so a block over a budget gives up
        # without memory; the filling pass recomputes each cell's members
        # and mask into exact-size arrays.
        plan = graph_plan(
            [column.tolist() for column in columns],
            rows,
            members_of,
            lambda cell, members: int(np.count_nonzero(cell_pairs(cell, members))),
            max_pairs,
            max_comparisons,
        )
        if plan is None:
            return None
        found = sum(count for *_, count in plan)
        src = np.empty(found, dtype=np.int32)
        dst = np.empty(found, dtype=np.int32)
        at = 0
        for cell, high, reach, count in plan:
            members = members_of(high, reach)
            # The mask read out transposed, so each target's pairs come out
            # contiguous.
            flat = np.flatnonzero(cell_pairs(cell, members).T)
            cell_at, member_at = np.divmod(flat, len(members))
            src[at : at + count] = order[members[member_at]]
            dst[at : at + count] = order[np.asarray(cell)[cell_at]]
            at += count
        pair_codes = []
        for a, size in enumerate(cardinalities):
            pair_code = codes[src, a]
            pair_code *= size
            pair_code += codes[dst, a]
            pair_codes.append(pair_code)
        first = np.ones(len(dst), dtype=bool)
        first[1:] = dst[1:] != dst[:-1]
        starts = np.flatnonzero(first).astype(np.int32)
        return TODominanceGraph(rows, src, dst, tuple(pair_codes), starts)

    def graph_dominated(
        self,
        graph: TODominanceGraph,
        prefs: Sequence[PreferenceTable],
        counter=None,
    ) -> list[bool]:
        charge(counter, len(graph))
        dominated = np.zeros(graph.num_rows, dtype=bool)
        if not len(graph):
            return dominated.tolist()
        passing = np.ones(len(graph), dtype=bool)
        for table, codes in zip(prefs, graph.pair_codes):
            passing &= _pref_matrix(table).ravel().take(codes)
        # One OR per target over its contiguous pairs.
        starts = graph.starts
        dominated[graph.dst[starts[np.logical_or.reduceat(passing, starts)]]] = True
        return dominated.tolist()
