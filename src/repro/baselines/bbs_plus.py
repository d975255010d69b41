"""BBS+ : BBS over the transformed space with final false-hit elimination.

BBS+ (Chan et al., SIGMOD 2005; Section II-C of the paper) runs plain BBS in
the incomplete ``(minpost, post)`` interval space.  Because m-dominance misses
preferences that only follow non-tree edges, the set of non-m-dominated points
is a superset of the skyline.  BBS+ therefore keeps every such point in an
intermediate list and, once the traversal finishes, cross-examines the list
with *actual* dominance to delete false hits.  The algorithm is consequently
not progressive: nothing can be reported before the very end.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.transform import BaselineMapping, BaselinePoint
from repro.data.dataset import Dataset
from repro.index.pager import DiskSimulator
from repro.index.rtree import RTree
from repro.kernels import RecordTables, resolve_kernel
from repro.order.encoding import DomainEncoding
from repro.skyline.base import RunClock, SkylineResult, SkylineStats
from repro.skyline.bbs import run_bbs


def bbs_plus_skyline(
    dataset: Dataset,
    *,
    encodings: Sequence[DomainEncoding] | None = None,
    mapping: BaselineMapping | None = None,
    tree: RTree | None = None,
    max_entries: int = 32,
    disk: DiskSimulator | None = None,
    kernel=None,
) -> SkylineResult:
    """Compute the skyline with BBS+ (m-dominance BBS + final cross-examination)."""
    if mapping is None:
        mapping = BaselineMapping(dataset, encodings)
    if tree is None:
        tree = mapping.build_rtree(max_entries=max_entries, disk=disk)

    stats = SkylineStats()
    clock = RunClock(stats, disk)
    kernel = resolve_kernel(kernel)

    # m-dominance is plain vector dominance in the transformed space, so the
    # candidate list is mirrored into a kernel vector store.
    candidates: list[BaselinePoint] = []
    candidate_store = kernel.vector_store(mapping.dimensions)

    def dominated_point(point, payload) -> bool:
        candidate = mapping.point(int(payload))
        return candidate_store.any_dominates(candidate.coords, counter=stats)

    def dominated_rect(low, high) -> bool:
        return candidate_store.any_weakly_dominates(low, counter=stats)

    def on_result(point, payload) -> None:
        candidate = mapping.point(int(payload))
        candidates.append(candidate)
        candidate_store.append(candidate.coords)

    run_bbs(
        tree,
        dominated_point=dominated_point,
        dominated_rect=dominated_rect,
        on_result=on_result,
        stats=stats,
        clock=None,  # BBS+ is not progressive: no per-result events until the end.
    )

    # Cross-examination: eliminate candidates actually dominated by another
    # candidate.  Any true dominator of a false hit is itself represented in
    # the candidate list (transitively), so this filter is complete.  Distinct
    # value combinations make strict dominance immune to self-comparison, so
    # the whole list can be cross-examined in one batched kernel call.
    tables = RecordTables.from_encodings(mapping.num_total_order, mapping.encodings)
    encoded = [
        (p.to_values, tables.encode_po(p.po_values)) for p in candidates
    ]
    dominated_mask = kernel.record_block_dominated_mask(
        tables, encoded, encoded, counter=stats
    )
    skyline_points: list[BaselinePoint] = []
    for candidate, dominated in zip(candidates, dominated_mask):
        if dominated:
            stats.false_hits_removed += 1
        else:
            skyline_points.append(candidate)
            clock.record_result()

    clock.finish()
    skyline_ids = mapping.record_ids_for([p.index for p in skyline_points])
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)
