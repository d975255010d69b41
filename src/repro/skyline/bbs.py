"""Branch-and-Bound Skyline (BBS) on an R-tree.

BBS (Papadias et al., TODS 2005) performs a best-first traversal of an R-tree
in ascending order of L1 mindist to the origin.  Entries (points or MBBs)
that are dominated by an already-found skyline point are pruned; every
non-dominated point popped from the heap is immediately a skyline point
(precedence holds because any potential dominator has a strictly smaller
mindist).  BBS is IO-optimal and optimally progressive.

Two entry points are provided:

* :func:`run_bbs` — the generic traversal loop, parameterized by the
  dominance predicates for points and rectangles.  sTSS, dTSS and the SDC
  baselines all reuse this loop with their own (t- or m-) dominance checks.
* :func:`bbs_skyline` — classical BBS for a dataset whose schema is entirely
  totally ordered, using a plain skyline-list dominance check.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable

from repro.data.dataset import Dataset
from repro.exceptions import SchemaError
from repro.index.pager import DiskSimulator
from repro.index.rtree import NodeRef, RTree, RTreeEntry
from repro.kernels import resolve_kernel
from repro.skyline.base import RunClock, SkylineResult, SkylineStats

Payload = Hashable
Point = tuple[float, ...]


def run_bbs(
    tree: RTree,
    *,
    dominated_point: Callable[[Point, Payload], bool],
    dominated_rect: Callable[[Point, Point], bool],
    on_result: Callable[[Point, Payload], None],
    stats: SkylineStats,
    clock: RunClock | None = None,
) -> list[Payload]:
    """The generic BBS loop over one R-tree.

    Parameters
    ----------
    tree:
        The R-tree to traverse (points indexed in a space where smaller
        coordinates are better on every dimension).
    dominated_point:
        Predicate deciding whether a data point is dominated by the results
        found so far.  It must update ``stats.dominance_checks`` itself if it
        performs pairwise checks.
    dominated_rect:
        Predicate deciding whether an MBB (given by its low/high corners) is
        dominated, i.e. whether *every* point inside it would be dominated.
    on_result:
        Callback invoked for every new skyline point (e.g. to insert virtual
        points into the main-memory R-tree).
    stats / clock:
        Work counters; ``clock.record_result()`` is called per result when a
        clock is supplied.

    Returns
    -------
    list
        Payloads of the skyline points in the order they were reported.
    """
    results: list[Payload] = []
    traversal = tree.best_first()
    while traversal:
        _, item = traversal.pop()
        if isinstance(item, NodeRef):
            if dominated_rect(item.rect.low, item.rect.high):
                continue
            stats.nodes_expanded += 1
            traversal.expand(item)
            continue
        entry: RTreeEntry = item
        stats.points_examined += 1
        point = entry.rect.low
        if dominated_point(point, entry.payload):
            continue
        on_result(point, entry.payload)
        results.append(entry.payload)
        if clock is not None:
            clock.record_result()
    return results


def bbs_skyline(
    dataset: Dataset,
    *,
    max_entries: int = 32,
    disk: DiskSimulator | None = None,
    tree: RTree | None = None,
    kernel=None,
) -> SkylineResult:
    """Classical BBS for a totally ordered dataset.

    The dataset's schema must not contain PO attributes; use
    :func:`repro.core.stss.stss_skyline` for mixed schemas.  The skyline-list
    scans run through the block-dominance kernel (see :mod:`repro.kernels`).
    """
    schema = dataset.schema
    if schema.num_partial_order:
        raise SchemaError("bbs_skyline handles TO-only schemas; use sTSS for PO attributes")

    stats = SkylineStats()
    if tree is None:
        entries = [
            (schema.canonical_to_values(record.values), record.id)
            for record in dataset.records
        ]
        tree = RTree.bulk_load(
            schema.num_total_order, entries, max_entries=max_entries, disk=disk
        )
    clock = RunClock(stats, disk)

    skyline_store = resolve_kernel(kernel).vector_store(schema.num_total_order)

    def dominated_point(point: Point, payload: Payload) -> bool:
        return skyline_store.any_dominates(point, counter=stats)

    def dominated_rect(low: Point, high: Point) -> bool:
        # A resident equal to the MBB's best corner must not prune it: the
        # corner point itself could still be an (equal, thus undominated)
        # skyline member inside the subtree.
        return skyline_store.any_weakly_dominates(low, counter=stats, exclude_equal=True)

    def on_result(point: Point, payload: Payload) -> None:
        skyline_store.append(point)

    ordered = run_bbs(
        tree,
        dominated_point=dominated_point,
        dominated_rect=dominated_rect,
        on_result=on_result,
        stats=stats,
        clock=clock,
    )
    clock.finish()
    return SkylineResult(skyline_ids=[int(p) for p in ordered], stats=stats, progress=clock.progress)
