"""SDC+ : stratification by uncovered level with per-stratum R-trees.

SDC+ (Chan et al., SIGMOD 2005; Section II-C of the paper) partitions the
data into strata by the *uncovered level* of their PO values (the maximum
number of non-tree edges on any incoming path) and builds one R-tree per
stratum.  Strata are processed in increasing level order — points of a level
can never be dominated by points of a higher level — and the algorithm
maintains:

* a **global list** of confirmed skyline points (from finished strata), and
* a **local list** per stratum that may temporarily contain false hits.

MBBs are pruned with m-dominance against both lists.  When a leaf entry is
de-heaped it is checked with *actual* dominance against the local list; if it
survives, local-list members it dominates are evicted (on-the-fly false-hit
elimination) and the point is finally checked against the global list.  When
a stratum's traversal finishes its local list contains only true skyline
points, which are reported and appended to the global list — hence SDC+ is
progressive per stratum, but not optimally progressive.
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


def sdc_plus_skyline(
    dataset: Dataset,
    *,
    encodings: Sequence[DomainEncoding] | None = None,
    mapping: BaselineMapping | None = None,
    stratum_trees: dict[int, RTree] | None = None,
    max_entries: int = 32,
    disk: DiskSimulator | None = None,
    kernel=None,
) -> SkylineResult:
    """Compute the skyline with SDC+ (strata by uncovered level).

    ``stratum_trees`` may supply pre-built per-stratum R-trees (keyed by
    uncovered level); otherwise they are bulk-loaded here, charged to
    ``disk`` if one is given.  The per-item dominance tests run against
    *two* windows (local and global lists), one of which is evicted
    mid-traversal.
    """
    if mapping is None:
        mapping = BaselineMapping(dataset, encodings)
    strata = mapping.strata()
    if stratum_trees is None:
        stratum_trees = {
            level: mapping.build_rtree(
                [p.index for p in points], max_entries=max_entries, disk=disk
            )
            for level, points in strata.items()
        }

    stats = SkylineStats()
    clock = RunClock(stats, disk)
    kernel = resolve_kernel(kernel)
    tables = RecordTables.from_encodings(mapping.num_total_order, mapping.encodings)

    def encode(point: BaselinePoint) -> tuple[tuple[float, ...], tuple[int, ...]]:
        return point.to_values, tables.encode_po(point.po_values)

    # Actual dominance runs through kernel record stores; m-dominance MBB
    # pruning through kernel vector stores over the transformed coordinates.
    global_record_store = kernel.record_store(tables)
    global_vector_store = kernel.vector_store(mapping.dimensions)
    ordered_results: list[BaselinePoint] = []

    for level in sorted(strata):
        tree = stratum_trees[level]
        local_list: list[BaselinePoint] = []
        local_record_store = kernel.record_store(tables)
        local_vector_store = kernel.vector_store(mapping.dimensions)

        def dominated_point(
            point,
            payload,
            local_list=local_list,
            local_record_store=local_record_store,
            local_vector_store=local_vector_store,
        ) -> bool:
            candidate = mapping.point(int(payload))
            encoded = encode(candidate)
            # Actual dominance against the local list (same stratum), fused
            # with the reverse direction: evict local residents the surviving
            # candidate actually dominates (they were false hits).
            dominated, evicted = local_record_store.dominance_masks(
                *encoded, counter=stats
            )
            if dominated:
                return True
            if any(evicted):
                keep = [not flag for flag in evicted]
                local_record_store.compress(keep)
                local_vector_store.compress(keep)
                local_list[:] = [p for p, k in zip(local_list, keep) if k]
                stats.false_hits_removed += len(keep) - sum(keep)
            # Actual dominance against the global list (previous strata).
            return global_record_store.any_dominates(*encoded, counter=stats)

        def dominated_rect(
            low, high, local_vector_store=local_vector_store
        ) -> bool:
            if global_vector_store.any_weakly_dominates(low, counter=stats):
                return True
            return local_vector_store.any_weakly_dominates(low, counter=stats)

        def on_result(
            point,
            payload,
            local_list=local_list,
            local_record_store=local_record_store,
            local_vector_store=local_vector_store,
        ) -> None:
            candidate = mapping.point(int(payload))
            local_list.append(candidate)
            local_record_store.append(*encode(candidate))
            local_vector_store.append(candidate.coords)

        run_bbs(
            tree,
            dominated_point=dominated_point,
            dominated_rect=dominated_rect,
            on_result=on_result,
            stats=stats,
            clock=None,
        )

        # The stratum is finished: its local list now holds only true skyline
        # points; report them and promote them to the global list.
        for resident in local_list:
            ordered_results.append(resident)
            clock.record_result()
            global_record_store.append(*encode(resident))
            global_vector_store.append(resident.coords)

    clock.finish()
    skyline_ids = mapping.record_ids_for([p.index for p in ordered_results])
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)
