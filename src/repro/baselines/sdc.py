"""SDC: Stratification by Dominance Classification (two strata).

SDC (Chan et al., SIGMOD 2005; Section II-C of the paper) improves the
progressiveness of BBS+ by exploiting the fact that m-dominance is *exact*
for points whose PO values are all *completely covered* (every incoming path
consists of tree edges only).  During the m-dominance BBS traversal:

* a non-m-dominated, completely covered point is guaranteed to be a skyline
  point and is reported immediately;
* a non-m-dominated, partially covered point may be a false hit and is only
  resolved by cross-examination at the end.

The candidate list holds both kinds; false hits among the partially covered
candidates are eliminated with actual dominance once the traversal finishes.
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


def sdc_skyline(
    dataset: Dataset,
    *,
    encodings: Sequence[DomainEncoding] | None = None,
    mapping: BaselineMapping | None = None,
    tree: RTree | None = None,
    max_entries: int = 32,
    disk: DiskSimulator | None = None,
    kernel=None,
) -> SkylineResult:
    """Compute the skyline with SDC (two strata: completely / partially covered)."""
    if mapping is None:
        mapping = BaselineMapping(dataset, encodings)
    if tree is None:
        tree = mapping.build_rtree(max_entries=max_entries, disk=disk)

    stats = SkylineStats()
    clock = RunClock(stats, disk)
    kernel = resolve_kernel(kernel)

    candidates: list[BaselinePoint] = []
    candidate_store = kernel.vector_store(mapping.dimensions)
    confirmed: list[BaselinePoint] = []  # completely covered, reported early
    unresolved: list[BaselinePoint] = []  # partially covered, resolved at the end

    def dominated_point(point, payload) -> bool:
        candidate = mapping.point(int(payload))
        return candidate_store.any_dominates(candidate.coords, counter=stats)

    def dominated_rect(low, high) -> bool:
        return candidate_store.any_weakly_dominates(low, counter=stats)

    def on_result(point, payload) -> None:
        candidate = mapping.point(int(payload))
        candidates.append(candidate)
        candidate_store.append(candidate.coords)
        if candidate.completely_covered:
            confirmed.append(candidate)
            clock.record_result()
        else:
            unresolved.append(candidate)

    run_bbs(
        tree,
        dominated_point=dominated_point,
        dominated_rect=dominated_rect,
        on_result=on_result,
        stats=stats,
        clock=None,
    )

    # Resolve the partially covered stratum with actual dominance checks, in
    # one batched kernel call (strictness makes self-comparison harmless for
    # distinct value combinations).
    tables = RecordTables.from_encodings(mapping.num_total_order, mapping.encodings)
    dominators = [(p.to_values, tables.encode_po(p.po_values)) for p in candidates]
    targets = [(p.to_values, tables.encode_po(p.po_values)) for p in unresolved]
    dominated_mask = kernel.record_block_dominated_mask(
        tables, dominators, targets, counter=stats
    )
    survivors: list[BaselinePoint] = []
    for candidate, dominated in zip(unresolved, dominated_mask):
        if dominated:
            stats.false_hits_removed += 1
        else:
            survivors.append(candidate)
            clock.record_result()

    clock.finish()
    ordered = confirmed + survivors
    skyline_ids = mapping.record_ids_for([p.index for p in ordered])
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)
