"""dTSS: dynamic Topologically-Sorted Skylines (Section V).

A dynamic skyline query specifies the partial order of every PO attribute.
dTSS keeps the per-group structures of :class:`~repro.dynamic.groups.GroupedDataset`
untouched across queries and, per query, only

1. topologically sorts the query DAGs and computes their interval encodings
   (cheap: proportional to the PO domain sizes, not to the data),
2. visits the groups in topological order of their PO values — which
   establishes *precedence* across groups, while BBS's mindist order
   establishes it within a group — and
3. checks every candidate for t-dominance against the skyline found so far,
   held in the kernel's :class:`~repro.kernels.base.TDominanceStore` (or in
   the global main-memory R-tree ``Tm`` of virtual skyline points), which
   gives *exactness*.

A non-dominated point is therefore reported immediately.  A whole group whose
R-tree root is t-dominated is skipped without reading any of its nodes —
exactly the behaviour of the paper's example (group ``Gc`` in Figure 5).

Section V-B's optimizations are both supported: per-group local-skyline
pre-computation (only local skyline points can ever be global skyline points,
because group members share all their PO values) and caching of past query
results (:mod:`repro.dynamic.cache`).
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.core.virtual_rtree import VirtualPointIndex
from repro.data.dataset import Dataset
from repro.dynamic.groups import GroupedDataset, GroupPoint, require_dataset
from repro.engine.encodings import QuerySpec, resolve_query_dags
from repro.index.geometry import SweepKey, sweep_key
from repro.index.pager import DiskSimulator
from repro.kernels import TDominanceTables, resolve_kernel
from repro.order.encoding import DomainEncoding, encode_domain
from repro.skyline.base import RunClock, SkylineResult, SkylineStats
from repro.skyline.bbs import run_bbs

Value = Hashable


class DTSSIndex:
    """Reusable dTSS structures: group partitioning plus per-group R-trees,
    built once over a record :class:`Dataset` and shared by every query."""

    def __init__(
        self,
        dataset: Dataset,
        *,
        max_entries: int = 32,
        disk: DiskSimulator | None = None,
        precompute_local_skylines: bool = False,
    ) -> None:
        self.grouped = GroupedDataset(
            dataset,
            max_entries=max_entries,
            disk=disk,
            precompute_local_skylines=precompute_local_skylines,
        )
        self.dataset = self.grouped.dataset
        self.disk = disk

    # ------------------------------------------------------------------ #
    # Query processing
    # ------------------------------------------------------------------ #
    def query(
        self,
        partial_orders: QuerySpec,
        *,
        use_virtual_rtree: bool = False,
        use_local_skylines: bool = False,
    ) -> SkylineResult:
        """Answer one dynamic skyline query.

        Parameters
        ----------
        partial_orders:
            The query's preference specification, read by
            :func:`~repro.engine.encodings.resolve_query_dags`: a mapping
            from PO attribute name to its :class:`PartialOrderDAG` (omitted
            attributes keep the schema's DAG), or a sequence of DAGs in
            schema order.
        use_virtual_rtree:
            Use the global main-memory R-tree ``Tm`` for t-dominance checks;
            otherwise test candidates against the process-default kernel's
            t-dominance store, which charges one ``dominance_checks`` per
            stored point compared.  The R-tree dramatically reduces pairwise
            checks but has larger constants in pure Python, so the store is
            the default (it is also the paper's "no main-memory R-tree"
            fairness setting).
        use_local_skylines:
            Use the pre-computed per-group local skylines (Section V-B)
            instead of traversing the per-group R-trees.
        """
        encodings = tuple(
            encode_domain(dag)
            for dag in resolve_query_dags(
                self.grouped.schema.partial_order_attributes, partial_orders
            )
        )
        grouped = self.grouped
        num_total_order = grouped.num_total_order

        stats = SkylineStats()
        clock = RunClock(stats, self.disk)

        tables = TDominanceTables.from_encodings(num_total_order, encodings)
        store = resolve_kernel(None).tdominance_store(tables)
        virtual_index: VirtualPointIndex | None = None
        if use_virtual_rtree:
            virtual_index = VirtualPointIndex(num_total_order, encodings)

        results: list[int] = []

        def dominated(to_values, key: tuple[Value, ...], codes: tuple[int, ...]) -> bool:
            if virtual_index is None:
                return store.any_weakly_dominates(to_values, codes, stats)
            stats.dominance_checks += 1
            return virtual_index.dominates_candidate_point(to_values, key)

        def report(point: GroupPoint, codes: tuple[int, ...]) -> None:
            results.append(point.index)
            if virtual_index is None:
                store.append(point.to_values, codes)
            else:
                virtual_index.insert_skyline_point(point.to_values, point.po_values, point.index)
            clock.record_result()

        for key in self._group_order(encodings):
            codes = tables.encode_po(key)
            if use_local_skylines:
                for point in grouped.ensure_local_skylines()[key]:
                    stats.points_examined += 1
                    if not dominated(point.to_values, key, codes):
                        report(point, codes)
                continue

            # A point, or an MBR's best corner, tested as a point of group key.
            def dominated_corner(corner, _, key=key, codes=codes) -> bool:
                return dominated(corner, key, codes)

            def on_result(point, payload, codes=codes) -> None:
                report(grouped.point(int(payload)), codes)

            run_bbs(
                grouped.group_trees[key],
                dominated_point=dominated_corner,
                dominated_rect=dominated_corner,
                on_result=on_result,
                stats=stats,
                clock=None,  # report() records progress itself
            )

        clock.finish()
        skyline_ids = grouped.record_ids_for(results)
        return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _group_order(self, encodings: Sequence[DomainEncoding]) -> list[tuple[Value, ...]]:
        """Groups sorted so that any potential dominator group comes first.

        If one group's PO values are preferred-or-equal to another's on every
        PO attribute (and differ somewhere), its vector of topological
        ordinals is no larger anywhere and smaller somewhere, so ordering
        groups by the :func:`~repro.index.geometry.sweep_key` of that vector
        guarantees cross-group precedence.
        """

        def sort_key(key: tuple[Value, ...]) -> SweepKey:
            return sweep_key(
                [encoding.ordinal(value) for encoding, value in zip(encodings, key)]
            )

        return sorted(self.grouped.groups, key=sort_key)


def dtss_skyline(
    dataset: Dataset,
    partial_orders: QuerySpec,
    *,
    index: DTSSIndex | None = None,
    max_entries: int = 32,
    disk: DiskSimulator | None = None,
    use_virtual_rtree: bool = False,
    use_local_skylines: bool = False,
) -> SkylineResult:
    """One-shot dTSS: build (or reuse) the group index and answer one query."""
    require_dataset(dataset)
    if index is None:
        index = DTSSIndex(
            dataset,
            max_entries=max_entries,
            disk=disk,
            precompute_local_skylines=use_local_skylines,
        )
    return index.query(
        partial_orders,
        use_virtual_rtree=use_virtual_rtree,
        use_local_skylines=use_local_skylines,
    )
