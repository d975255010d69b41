"""sTSS: the static Topologically-Sorted Skyline algorithm (Section IV).

sTSS is BBS run in the TSS mapped space (canonical TO values plus one
topological ordinal per PO attribute) with the exact t-dominance check:

1. Build the :class:`~repro.core.mapping.TSSMapping` (topological sort +
   interval encoding per PO attribute, duplicate grouping, mapped points) and
   bulk-load the data R-tree over the mapped points.
2. Traverse the R-tree best-first by L1 mindist.  Because the topological
   sort preserves every preference edge, any point that could dominate the
   head entry has a strictly smaller mindist and has therefore already been
   examined (*precedence*).
3. Check each de-heaped entry for t-dominance against the skyline found so
   far — either by scanning the skyline list or, with the optimizations of
   Section IV-B enabled, through the dyadic-range cache and the main-memory
   R-tree of virtual points.  Because the check is *exact*, a non-dominated
   entry is immediately a true skyline point and is reported (optimal
   progressiveness); a dominated MBB prunes its entire subtree.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.mapping import TSSMapping
from repro.core.tdominance import TDominanceChecker
from repro.core.virtual_rtree import VirtualPointIndex
from repro.data.dataset import Dataset
from repro.index.pager import DiskSimulator
from repro.index.rtree import RTree
from repro.order.encoding import DomainEncoding
from repro.order.intervals import IntervalSet
from repro.skyline.base import RunClock, SkylineResult, SkylineStats
from repro.skyline.bbs import run_bbs


def stss_skyline(
    dataset: Dataset | None = None,
    *,
    encodings: Sequence[DomainEncoding] | None = None,
    mapping: TSSMapping | None = None,
    tree: RTree | None = None,
    frame=None,
    schema=None,
    use_virtual_rtree: bool = False,
    use_dyadic_cache: bool = True,
    max_entries: int = 32,
    disk: DiskSimulator | None = None,
    kernel=None,
) -> SkylineResult:
    """Compute the static skyline of a mixed TO/PO dataset with sTSS.

    Parameters
    ----------
    dataset:
        Input relation; its schema must contain at least one PO attribute
        (plain BBS covers the TO-only case).  May be ``None`` when ``frame``
        (or a pre-built ``mapping``) is supplied — sharded workers run sTSS
        over shipped column blocks without ever materializing records.
    encodings / mapping / tree:
        Pre-built artefacts may be supplied to amortize their construction
        across runs (the benchmark harness does this); by default everything
        is derived from the dataset.
    frame / schema:
        Columnar inputs: an :class:`~repro.data.columns.EncodedFrame` to map
        (``schema`` supplies the effective preference DAGs when it differs
        from the frame's own); see :class:`~repro.core.mapping.TSSMapping`.
    use_virtual_rtree:
        Enable the main-memory R-tree of virtual points for t-dominance
        checks (Section IV-B, second optimization).  It cuts the number of
        pairwise checks by orders of magnitude, but in this pure-Python
        implementation a plain skyline-list scan has smaller constants at
        laptop scale, so the optimization is off by default (the paper's
        experiments also run TSS without it "for fairness").
    use_dyadic_cache:
        Enable the dyadic-range pre-computation of MBB interval sets
        (Section IV-B, first optimization).
    max_entries:
        R-tree fanout used when the data R-tree is built here.
    disk:
        Optional simulated disk for IO accounting (the paper charges 5 ms per
        node access).
    kernel:
        Dominance kernel backend for the skyline-list t-dominance checks
        (instance, name or ``None`` for the process default); see
        :mod:`repro.kernels`.

    Returns
    -------
    SkylineResult
        Skyline record ids (in discovery order, expanded from duplicate
        groups), work counters and the progressiveness log.
    """
    if mapping is None:
        mapping = TSSMapping(dataset, encodings, schema=schema, frame=frame)
    if tree is None:
        tree = mapping.build_rtree(max_entries=max_entries, disk=disk)

    stats = SkylineStats()
    clock = RunClock(stats, disk)
    checker = TDominanceChecker(mapping, use_dyadic_cache=use_dyadic_cache, kernel=kernel)
    skyline_store = checker.make_skyline_store()

    virtual_index: VirtualPointIndex | None = None
    if use_virtual_rtree:
        virtual_index = VirtualPointIndex(mapping.num_total_order, mapping.encodings)

    offset = mapping.to_offset

    def dominated_point(point, payload) -> bool:
        candidate = mapping.point(int(payload))
        if virtual_index is not None:
            stats.dominance_checks += 1
            return virtual_index.dominates_candidate_point(
                candidate.to_values, candidate.po_values
            )
        return checker.store_dominates_point(skyline_store, candidate, counter=stats)

    def dominated_rect(low, high) -> bool:
        if virtual_index is not None:
            range_sets = [
                IntervalSet.from_mask(
                    checker.range_interval_set(
                        po_index, int(low[offset + po_index]), int(high[offset + po_index])
                    )
                )
                for po_index in range(mapping.num_partial_order)
            ]
            stats.dominance_checks += 1
            return virtual_index.dominates_candidate_mbb(low, high, range_sets)
        return checker.store_dominates_mbb(skyline_store, low, high, counter=stats)

    def on_result(point, payload) -> None:
        mapped = mapping.point(int(payload))
        skyline_store.append(mapped)
        if virtual_index is not None:
            virtual_index.insert_mapped_point(mapped)

    ordered_points = run_bbs(
        tree,
        dominated_point=dominated_point,
        dominated_rect=dominated_rect,
        on_result=on_result,
        stats=stats,
        clock=clock,
    )
    clock.finish()

    skyline_ids = mapping.record_ids_for([int(p) for p in ordered_points])
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)
