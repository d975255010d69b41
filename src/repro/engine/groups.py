"""Group-at-a-time skylines over the prefilter's per-PO-group fronts.

The engine's candidate rows are the per-group local skylines of Section V-B:
rows with one PO-code combination tie on every PO attribute under every
query, and the prefilter already dropped the strictly TO-dominated ones, so
no row is ever dominated by a row of its own group.  The
:class:`~repro.delta.candidates.BaseCandidateTracker` keeps those fronts
(across inserts and deletes).  A query changes only the PO preferences
(Section V), so two paths answer it over the fronts:

* **The TO-dominance graph** (:func:`build_graph`, once per candidate set).
  Which candidate is no worse than which on every TO attribute does not
  depend on the query, so the graph lists every ordered pair ``(i, j)`` of
  candidates in *different* groups where ``i`` weakly TO-dominates ``j``
  (:meth:`~repro.kernels.base.DominanceKernel.to_dominance_graph`).  A
  query marks ``j`` dominated iff some pair ``(i, j)`` passes its
  preferred-or-equal test on every PO attribute
  (:meth:`~repro.kernels.base.DominanceKernel.graph_dominated`): one
  lookup per pair and attribute in the query DAGs' closure bits, which
  index the frame's codes (:func:`query_tables`).  The pairs
  suffice: a live row that dominates a candidate is a front row or is
  strictly TO-dominated by one of its own group, which then dominates the
  candidate too; and for rows of different groups weak TO dominance plus
  preferred-or-equal everywhere is dominance, since the codes differ
  somewhere.  Pairs inside one group are left out: the fronts keep exact
  duplicates, which would otherwise knock each other out.
* **The level sweep** (:func:`skyline_rows`), when the graph would exceed
  :data:`GRAPH_PAIRS_PER_CANDIDATE` pairs per candidate or its build
  :data:`GRAPH_COMPARISONS_PER_CANDIDATE` comparisons.  A group's level
  is the sum, over the PO attributes, of its value's depth (longest
  preference path from a root) in the query's DAG.  If group ``i``
  dominates group ``j`` — ``i``'s value is preferred-or-equal to ``j``'s on
  every PO attribute, and the keys differ — every depth is at most ``j``'s
  and one is smaller, so ``i`` sits on a strictly lower level: groups on one
  level are mutually incomparable, and every dominator group is final
  before its level is visited.  The rows kept on the lower levels form one
  growing t-dominance store over the same closure tables as the graph, and
  a level keeps the rows that no stored row weakly t-dominates — one
  :meth:`~repro.kernels.base.TDominanceStore.block_weakly_dominated` call
  per level, over a slice of the frame's TO and PO-code rows, gathered once
  in level order.  The NumPy store sweeps a large level in TO-sum order;
  the call is still charged every stored row x level row pair, as
  ``dominance_checks``.  Weak t-dominance by a stored row is exact
  dominance here, for the same reason as on the graph.  Checking kept rows
  only loses nothing: a dominated row is dominated by a kept row of a
  group that dominates *its* group, and that group dominates the row's
  group too (dominance between groups is transitive).

With no PO attributes every candidate is in one group, the graph is empty
and the answer is the single front; with no TO attributes every
candidate is compared with every other, so a set of more than
:data:`GRAPH_COMPARISONS_PER_CANDIDATE` candidates keeps the level sweep.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.data.columns import EncodedFrame
from repro.delta.candidates import GroupKey
from repro.kernels.base import TODominanceGraph
from repro.kernels.tables import PreferenceTable, RecordTables
from repro.order.dag import PartialOrderDAG
from repro.skyline.base import SkylineStats

#: Most graph pairs per candidate before the engine keeps the level sweep.
#: Measured per query on 20k-row anticorrelated and independent lattice
#: shapes (|TO| 2-4, |PO| 1-2, h 4-6), the graph beats the sweep 6-17x at
#: 8-80 pairs per candidate, 2-3.5x at 120-160, and breaks even near
#: 350-440.  The bound sits well below that crossover because a shape over
#: it pays the graph's counting pass at open, in proportion to the bound:
#: at 64 the 50k-row |PO|=2, h=8 anticorrelated shape (2,872 pairs per
#: candidate) gives up after 25-40 ms of a 0.4-0.5 s open, and a graph
#: within it holds about 64 x (8 + 4 x |PO|) bytes per candidate at most.
GRAPH_PAIRS_PER_CANDIDATE = 64

#: Most member x row comparisons per candidate the graph build makes before
#: the engine keeps the level sweep.  The k-d cells make about 330 per
#: candidate on 7,400 anticorrelated |TO|=3 candidates and 140 on 1,300
#: |TO|=2 ones; without a bound, cells that take many members but few
#: pairs (|TO|=0, or a large group whose rows tie on TO) would compare
#: every candidate with every other.  1,024 is less than one level-sweep
#: query charges per candidate on the 7,400-candidate set (about 1,360).
GRAPH_COMPARISONS_PER_CANDIDATE = 1024


@dataclass(frozen=True)
class CandidateGraph:
    """The TO-dominance graph of one candidate set."""

    #: The candidate frame rows, ascending; graph row ``k`` is ``rows[k]``.
    rows: list[int]
    pairs: TODominanceGraph


def build_graph(frame: EncodedFrame, rows: list[int], kernel) -> CandidateGraph | None:
    """The TO-dominance graph of the candidate ``rows`` (ascending frame
    rows, the union of the group fronts), or ``None`` past its bound.

    The bound is :data:`GRAPH_PAIRS_PER_CANDIDATE` pairs per candidate; a
    query's flattened preference matrices (one cell per pair of domain
    values) count against it too.  The build also gives up past
    :data:`GRAPH_COMPARISONS_PER_CANDIDATE` comparisons per candidate.
    """
    budget = GRAPH_PAIRS_PER_CANDIDATE * len(rows)
    cardinalities = [len(domain) for domain in frame.codec.domains]
    if sum(size * size for size in cardinalities) > budget:
        return None
    pairs = kernel.to_dominance_graph(
        frame.gather_to(rows),
        frame.remap_codes(frame.codec.code_of, rows),
        cardinalities,
        budget,
        GRAPH_COMPARISONS_PER_CANDIDATE * len(rows),
    )
    return None if pairs is None else CandidateGraph(rows, pairs)


def query_tables(frame: EncodedFrame, dags: Sequence[PartialOrderDAG]) -> RecordTables:
    """The closure bits of ``dags`` (the query's resolved DAG per PO
    attribute): the tables both paths read.  A resolved DAG lists its
    attribute's domain in the domain's order, which is ``frame``'s code
    order, so its closure bits index the frame's codes as they are."""
    tables = tuple(PreferenceTable.from_dag(dag) for dag in dags)
    return RecordTables(frame.num_total_order, tables)


def graph_skyline_rows(
    frame: EncodedFrame,
    graph: CandidateGraph,
    dags: Sequence[PartialOrderDAG],
    kernel,
    stats: SkylineStats,
) -> list[int]:
    """Ascending ``frame`` rows of the skyline of ``graph`` under ``dags``.

    ``dags`` holds the query's preference DAG per PO attribute.  ``stats``
    is charged every graph pair as ``dominance_checks`` and every candidate
    as ``points_examined``.
    """
    prefs = query_tables(frame, dags).attributes
    dominated = kernel.graph_dominated(graph.pairs, prefs, stats)
    stats.points_examined += len(graph.rows)
    return [row for row, drop in zip(graph.rows, dominated) if not drop]


def _levels(
    frame: EncodedFrame,
    fronts: Mapping[GroupKey, list[int]],
    dags: Sequence[PartialOrderDAG],
) -> list[list[int]]:
    """The front rows bucketed by their group's level, lowest first."""
    depths = [
        [depth_of[value] for value in domain]
        for depth_of, domain in zip((dag.depths() for dag in dags), frame.codec.domains)
    ]
    by_level: dict[int, list[int]] = {}
    for key, rows in fronts.items():
        level = sum(depth[code] for depth, code in zip(depths, key))
        by_level.setdefault(level, []).extend(rows)
    return [by_level[level] for level in sorted(by_level)]


def skyline_rows(
    frame: EncodedFrame,
    fronts: Mapping[GroupKey, list[int]],
    dags: Sequence[PartialOrderDAG],
    kernel,
    stats: SkylineStats,
) -> list[int]:
    """Ascending ``frame`` rows of the skyline of ``fronts`` under ``dags``.

    ``fronts`` maps each PO-code combination to its group's front rows;
    ``dags`` holds the query's preference DAG per PO attribute.  ``stats``
    is charged the kernel's dominance checks and, as ``points_examined``,
    every front row.
    """
    store = kernel.tdominance_store(query_tables(frame, dags))
    levels = _levels(frame, fronts, dags)
    order = [row for rows in levels for row in rows]
    to_block = frame.gather_to(order)
    code_block = frame.remap_codes(frame.codec.code_of, order)
    kept: list[int] = []
    start = 0
    for rows in levels:
        stop = start + len(rows)
        stats.points_examined += len(rows)
        level_to, level_codes = to_block[start:stop], code_block[start:stop]
        start = stop
        if len(store):
            dominated = store.block_weakly_dominated(level_to, level_codes, stats)
            survivors = [index for index, drop in enumerate(dominated) if not drop]
            rows = [rows[index] for index in survivors]
            level_to = EncodedFrame.take_rows(level_to, survivors)
            level_codes = EncodedFrame.take_rows(level_codes, survivors)
        store.extend(level_to, level_codes)
        kept.extend(rows)
    kept.sort()
    return kept
