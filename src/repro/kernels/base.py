"""The :class:`DominanceKernel` interface and its store abstractions.

A kernel answers the dominance-shaped questions that sit on the hot path of
every skyline algorithm in this library:

* **vector dominance** — classical componentwise ``<=`` / ``<`` tests between
  numeric vectors (BBS, SaLSa, the baselines' m-dominance);
* **record dominance** — ground-truth dominance over mixed TO/PO schemas via
  precomputed preference matrices (BNL, SFS, LESS, cross-examination);
* **t-dominance** — the paper's exact relation over TSS mapped points via
  t-preference matrices and minimum-bounding-interval prefilters (sTSS,
  dTSS); the exact interval-set containment of the survivors is a mask test
  left to :class:`~repro.core.tdominance.TDominanceChecker`.

Kernels expose *stores* — growing collections queried against one candidate
at a time (the universal access pattern of skyline loops: a skyline/window
list grows while candidates stream past it) — plus a few stateless batch
operations.  Two backends implement the interface:
:class:`~repro.kernels.purepython.PurePythonKernel` (reference, always
available) and :class:`~repro.kernels.numpy_kernel.NumpyKernel`
(vectorized).

Every query takes an optional ``counter`` (any object with a
``dominance_checks`` attribute, usually a
:class:`~repro.skyline.base.SkylineStats`); it is charged one check per
member comparison the query logically performs.  Batched backends charge the
full block size because they evaluate all comparisons at once, while the
reference backend charges only the comparisons it reaches before an early
exit — callers must therefore treat the counter as an upper-bound work
measure, not an exact trace.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from collections.abc import Callable, Sequence, Sized
from dataclasses import dataclass

from repro.kernels.tables import PreferenceTable, RecordTables, TDominanceTables

#: Rows per k-d cell of :func:`graph_plan`.
GRAPH_CELL_ROWS = 64


def graph_plan(
    columns: Sequence[Sequence[float]],
    rows: int,
    members_of: Callable[[list[float], int], Sized],
    count_pairs: Callable[[list[int], Sized], int],
    max_pairs: int,
    max_comparisons: int,
) -> list[tuple[list[int], list[float], int, int]] | None:
    """The k-d tiling of :meth:`DominanceKernel.to_dominance_graph`.

    ``columns`` holds a block's TO columns as lists, its ``rows`` rows in
    ascending dimension-0 order; rows are named by position in that order.
    The rows are tiled into cells of :data:`GRAPH_CELL_ROWS`: strips of
    consecutive positions (about as many strips as cells per strip), each
    sorted on dimension 1 and cut into cells.  A cell's *members* are the
    rows no worse than its high corner: positions below its ``reach`` (the
    rows whose dimension-0 value is at most the corner's), which the
    backend's ``members_of(high, reach)`` filters on the other dimensions.
    ``count_pairs(cell, members)`` returns how many pairs the cell's rows
    take from its members (a backend may record them as it goes).

    Strips and the cells in a strip go from the last one down, so the cells
    with the most members come first and a block far over a budget gives
    up after a few cells.
    Returns ``(cell, high, reach, count)`` per cell with pairs, in visiting
    order, or ``None`` as soon as the cells' members x rows comparisons
    pass ``max_comparisons`` (checked before the cell's pairs are counted;
    with at most one dimension a cell's members are all ``reach`` rows, so
    the total is checked before any cell is visited) or their pairs pass
    ``max_pairs``.
    """
    dims = len(columns)
    strip = GRAPH_CELL_ROWS * max(1, math.ceil(math.sqrt(rows / GRAPH_CELL_ROWS)))
    cells = []
    for start in reversed(range(0, rows, strip)):
        strip_at = list(range(start, min(start + strip, rows)))
        if dims > 1:
            strip_at.sort(key=columns[1].__getitem__)
        for low in reversed(range(0, len(strip_at), GRAPH_CELL_ROWS)):
            cell = strip_at[low : low + GRAPH_CELL_ROWS]
            high = [max(map(column.__getitem__, cell)) for column in columns]
            reach = bisect_right(columns[0], high[0]) if dims else rows
            cells.append((cell, high, reach))
    if dims < 2 and sum(len(cell) * reach for cell, _, reach in cells) > max_comparisons:
        return None
    plan = []
    pairs = comparisons = 0
    for cell, high, reach in cells:
        members = members_of(high, reach)
        comparisons += len(members) * len(cell)
        if comparisons > max_comparisons:
            return None
        count = count_pairs(cell, members)
        if count:
            pairs += count
            if pairs > max_pairs:
                return None
            plan.append((cell, high, reach, count))
    return plan


@dataclass(frozen=True)
class TODominanceGraph:
    """Cross-group weak TO dominance among a block of rows, as pair lists.

    Pair ``k`` says row ``src[k]`` is no worse than row ``dst[k]`` on every
    TO attribute and the two rows' PO codes differ on some attribute.
    ``pair_codes[a][k]`` is ``code_src * C + code_dst`` on PO attribute
    ``a`` with ``C`` values: the pair's cell in that attribute's flattened
    ``C x C`` preference matrix.  The pairs of one
    target are contiguous, and ``starts`` holds the index of each target's
    first pair.  Every list is int32 (an ``array.array`` or an ``ndarray``,
    by backend).
    """

    #: Rows of the block the pairs index.
    num_rows: int
    src: Sequence[int]
    dst: Sequence[int]
    pair_codes: tuple[Sequence[int], ...]
    starts: Sequence[int]

    def __len__(self) -> int:
        return len(self.dst)

    @property
    def nbytes(self) -> int:
        """Bytes the pair lists hold."""
        columns = (self.src, self.dst, self.starts, *self.pair_codes)
        return sum(len(column) * column.itemsize for column in columns)


def charge(counter, checks: int) -> None:
    """Add ``checks`` dominance checks to ``counter`` (no-op when ``None``)."""
    if counter is not None and checks:
        counter.dominance_checks += checks


class VectorStore(ABC):
    """A growing block of numeric vectors (smaller is better everywhere)."""

    @abstractmethod
    def append(self, vector: Sequence[float]) -> None: ...

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def compress(self, keep: Sequence[bool]) -> None:
        """Drop members whose ``keep`` flag is false (window eviction)."""

    @abstractmethod
    def any_dominates(self, candidate: Sequence[float], counter=None) -> bool:
        """Does any member strictly dominate ``candidate``?"""

    @abstractmethod
    def any_weakly_dominates(
        self,
        corner: Sequence[float],
        counter=None,
        *,
        exclude_equal: bool = False,
    ) -> bool:
        """Does any member weakly dominate ``corner``?

        Used to prune MBBs; with ``exclude_equal`` a member equal to
        ``corner`` does not count.
        """


class RecordStore(ABC):
    """A growing block of records under ground-truth TO/PO dominance.

    Members are ``(to_values, po_codes)`` pairs; encode PO values once with
    :meth:`~repro.kernels.tables.RecordTables.encode_po`.
    """

    @abstractmethod
    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None: ...

    def extend(self, to_rows, code_rows) -> None:
        """Bulk-append pre-encoded rows (column blocks or row sequences).

        The reference implementation loops :meth:`append`; vectorized
        backends override it with one block copy per column group.
        """
        for to_values, po_codes in zip(to_rows, code_rows):
            self.append(to_values, po_codes)

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def compress(self, keep: Sequence[bool]) -> None:
        """Drop members whose ``keep`` flag is false (window eviction)."""

    @abstractmethod
    def any_dominates(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> bool:
        """Does any member dominate the candidate record?"""

    @abstractmethod
    def dominance_masks(
        self, to_values: Sequence[float], po_codes: Sequence[int], counter=None
    ) -> tuple[bool, list[bool]]:
        """BNL's two-way window test in one pass.

        Returns ``(candidate_is_dominated, dominated_by_candidate)`` where the
        second element flags every member the candidate dominates (evictees).
        """

    def block_dominated_columns(self, to_rows, code_rows, counter=None) -> list[bool]:
        """Per target: is it dominated by any *member* of this store?

        The merge-window primitive of the sort-merge cross-shard merge: the
        store is the growing window of confirmed global-skyline records, and
        each incoming chunk of the key-ordered stream is tested against the
        whole window in one call.  Targets arrive as parallel column blocks
        (one TO row block, one code row block — e.g. slices of an
        :class:`~repro.data.columns.EncodedFrame`).  The reference
        implementation loops :meth:`any_dominates` (keeping its early exits);
        vectorized backends answer the whole block with one comparison.
        """
        return [
            self.any_dominates(to_values, po_codes, counter=counter)
            for to_values, po_codes in zip(to_rows, code_rows)
        ]


class TDominanceStore(ABC):
    """A growing skyline of TSS mapped points under exact t-dominance."""

    @abstractmethod
    def append(self, to_values: Sequence[float], po_codes: Sequence[int]) -> None: ...

    def extend(self, to_rows, code_rows) -> None:
        """Bulk-append pre-encoded mapped points (see :meth:`RecordStore.extend`)."""
        for to_values, po_codes in zip(to_rows, code_rows):
            self.append(to_values, po_codes)

    def block_weakly_dominated(self, to_rows, code_rows, counter=None) -> list[bool]:
        """Per row: is it weakly t-dominated by any member (columnar blocks)?

        The reference loops :meth:`any_weakly_dominates` and charges the
        comparisons it reaches.  The NumPy store answers a large block by a
        sweep in TO-sum order (weak TO dominance implies a sum no larger, so
        pairs whose sums rule it out are skipped) and charges every member x
        row pair, as if none were skipped.
        """
        return [
            self.any_weakly_dominates(to_values, po_codes, counter=counter)
            for to_values, po_codes in zip(to_rows, code_rows)
        ]

    @abstractmethod
    def __len__(self) -> int: ...

    @abstractmethod
    def any_weakly_dominates(
        self,
        to_values: Sequence[float],
        po_codes: Sequence[int],
        counter=None,
    ) -> bool:
        """Is the candidate weakly t-dominated by any member?

        Weak t-dominance (at least as good on TO, t-preferred-or-equal on PO)
        is exact strict t-dominance for distinct value combinations, which the
        duplicate grouping of :class:`~repro.core.mapping.TSSMapping`
        guarantees.
        """

    @abstractmethod
    def mbb_candidates(
        self,
        to_low: Sequence[float],
        ordinal_low: Sequence[float],
        range_mbis: Sequence[tuple[float, float]],
        counter=None,
    ) -> list[int]:
        """Indices of the members that may t-dominate an MBB.

        A member survives the necessary conditions when it is at least as
        good as the MBB's best corner on every TO dimension, its ordinal does
        not exceed the MBB's low ordinal per PO attribute, and its interval
        set's minimum bounding interval contains the MBB range set's MBI per
        PO attribute (``range_mbis`` holds one ``(low, high)`` pair per
        attribute; pass ``(inf, -inf)`` to disable the MBI condition for an
        attribute).  The exact interval-set containment verdict on the
        survivors is left to the caller.
        """


class DominanceKernel(ABC):
    """Factory for dominance stores plus stateless batch operations."""

    #: Registry name of the backend (``"purepython"`` / ``"numpy"``).
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Store factories
    # ------------------------------------------------------------------ #
    @abstractmethod
    def vector_store(self, dimensions: int) -> VectorStore: ...

    @abstractmethod
    def record_store(self, tables: RecordTables) -> RecordStore: ...

    @abstractmethod
    def tdominance_store(self, tables: RecordTables | TDominanceTables) -> TDominanceStore:
        """A store over sTSS's :class:`TDominanceTables`, or over bare
        preference tables (:class:`RecordTables`) where
        :meth:`TDominanceStore.mbb_candidates` is never called."""

    # ------------------------------------------------------------------ #
    # Stateless batch operations
    # ------------------------------------------------------------------ #
    @abstractmethod
    def pareto_mask(self, rows: Sequence[Sequence[float]]) -> list[bool]:
        """Skyline membership mask of a block of numeric vectors.

        ``mask[i]`` is true iff no other row strictly dominates row ``i``
        (duplicates all survive).
        """

    @abstractmethod
    def record_block_dominated_mask(
        self,
        tables: RecordTables,
        dominators: Sequence[tuple[Sequence[float], Sequence[int]]],
        targets: Sequence[tuple[Sequence[float], Sequence[int]]],
        counter=None,
    ) -> list[bool]:
        """Per target: is it dominated by any dominator (ground truth)?

        Used by the baselines' cross-examination, where ``dominators`` and
        ``targets`` may be the same block (strictness makes self-comparison
        harmless for distinct value combinations).
        """

    @abstractmethod
    def to_dominance_graph(
        self,
        to_rows,
        code_rows,
        cardinalities: Sequence[int],
        max_pairs: int,
        max_comparisons: int,
    ) -> TODominanceGraph | None:
        """Every ordered pair of rows of different PO-code combinations
        where the first is no worse than the second on every TO attribute.

        ``to_rows`` / ``code_rows`` are parallel column blocks; codes lie in
        ``range(cardinalities[a])`` per PO attribute.  Values compare with
        ``<=`` as they are, so infinities stay exact.  Both backends walk the
        k-d cells of :func:`graph_plan` and supply only the member filter
        and the pair test; past ``max_pairs`` pairs or ``max_comparisons``
        member x row comparisons the build gives up and returns ``None``.
        """

    @abstractmethod
    def graph_dominated(
        self,
        graph: TODominanceGraph,
        prefs: Sequence[PreferenceTable],
        counter=None,
    ) -> list[bool]:
        """Per row of ``graph``: does some pair ``(i, row)`` pass ``prefs``?

        ``prefs`` holds one preferred-or-equal relation per PO attribute, in
        the graph's code space; a pair passes when its source code is
        preferred over or equal to its target code on every attribute.
        Charges one check per pair.
        """

    def record_block_dominated_columns(
        self,
        tables: RecordTables,
        dominator_to,
        dominator_codes,
        target_to,
        target_codes,
        counter=None,
    ) -> list[bool]:
        """Columnar twin of :meth:`record_block_dominated_mask`.

        Both blocks arrive as parallel TO/code column blocks (e.g.
        :class:`~repro.data.columns.EncodedFrame` slices); the reference
        implementation pairs the rows up, vectorized backends consume the
        blocks directly.
        """
        return self.record_block_dominated_mask(
            tables,
            list(zip(dominator_to, dominator_codes)),
            list(zip(target_to, target_codes)),
            counter=counter,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"
