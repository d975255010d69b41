"""dTSS: dynamic Topologically-Sorted Skylines (Section V).

A dynamic skyline query specifies the partial order of every PO attribute.
dTSS keeps the per-group structures of :class:`~repro.dynamic.groups.GroupedDataset`
untouched across queries and, per query, only

1. topologically sorts the query DAGs and computes their interval encodings
   (cheap: proportional to the PO domain sizes, not to the data),
2. visits the groups in topological order of their PO values — which
   establishes *precedence* across groups, while BBS's mindist order
   establishes it within a group — and
3. checks every candidate for t-dominance against the global main-memory
   R-tree ``Tm`` of virtual skyline points (or a plain skyline list), which
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
from repro.dynamic.cache import QuerySpec, resolve_partial_orders
from repro.dynamic.groups import GroupedDataset, GroupPoint, require_dataset
from repro.exceptions import QueryError
from repro.index.pager import DiskSimulator
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
            The query's preference specification: either a mapping from PO
            attribute name to its :class:`PartialOrderDAG`, or a sequence of
            DAGs in schema order.  Every PO value present in the data must
            belong to the corresponding DAG.
        use_virtual_rtree:
            Use the global main-memory R-tree ``Tm`` for t-dominance checks;
            otherwise scan the global skyline list.  The R-tree dramatically
            reduces pairwise checks but has larger constants in pure Python,
            so the list scan is the default (it is also the paper's
            "no main-memory R-tree" fairness setting).
        use_local_skylines:
            Use the pre-computed per-group local skylines (Section V-B)
            instead of traversing the per-group R-trees.
        """
        encodings = self._encode_query(partial_orders)
        grouped = self.grouped
        schema = grouped.schema

        stats = SkylineStats()
        clock = RunClock(stats, self.disk)

        virtual_index: VirtualPointIndex | None = None
        skyline_list: list[GroupPoint] = []
        if use_virtual_rtree:
            virtual_index = VirtualPointIndex(schema.num_total_order, encodings)

        results: list[int] = []

        def candidate_dominated(to_values: tuple[float, ...], po_values: tuple[Value, ...]) -> bool:
            stats.dominance_checks += 1
            if virtual_index is not None:
                return virtual_index.dominates_candidate_point(to_values, po_values)
            for resident in skyline_list:
                if all(a <= b for a, b in zip(resident.to_values, to_values)) and all(
                    encoding.t_prefers_or_equal(rv, cv)
                    for encoding, rv, cv in zip(encodings, resident.po_values, po_values)
                ):
                    return True
            return False

        def report(point: GroupPoint) -> None:
            results.append(point.index)
            skyline_list.append(point)
            if virtual_index is not None:
                virtual_index.insert_skyline_point(point.to_values, point.po_values, point.index)
            clock.record_result()

        for key in self._group_order(encodings):
            if use_local_skylines:
                for point in grouped.ensure_local_skylines()[key]:
                    stats.points_examined += 1
                    if not candidate_dominated(point.to_values, point.po_values):
                        report(point)
                continue

            tree = grouped.group_trees[key]

            def dominated_point(point, payload, key=key) -> bool:
                candidate = grouped.point(int(payload))
                return candidate_dominated(candidate.to_values, candidate.po_values)

            def dominated_rect(low, high, key=key) -> bool:
                return candidate_dominated(tuple(low), key)

            def on_result(point, payload, key=key) -> None:
                report(grouped.point(int(payload)))

            run_bbs(
                tree,
                dominated_point=dominated_point,
                dominated_rect=dominated_rect,
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
    def _encode_query(self, partial_orders: QuerySpec) -> tuple[DomainEncoding, ...]:
        po_attributes = self.grouped.schema.partial_order_attributes
        dags = resolve_partial_orders(partial_orders, [a.name for a in po_attributes])
        encodings = []
        for po_index, (attribute, dag) in enumerate(zip(po_attributes, dags)):
            data_values = {po_values[po_index] for po_values in self.grouped.groups}
            unknown = {value for value in data_values if value not in dag}
            if unknown:
                raise QueryError(
                    f"query partial order for {attribute.name!r} is missing data values: "
                    f"{sorted(map(repr, unknown))}"
                )
            encodings.append(encode_domain(dag))
        return tuple(encodings)

    def _group_order(self, encodings: Sequence[DomainEncoding]) -> list[tuple[Value, ...]]:
        """Groups sorted so that any potential dominator group comes first.

        If one group's PO values are preferred-or-equal to another's on every
        PO attribute (and differ somewhere), the sum of its topological
        ordinals is strictly smaller, so ordering groups by that sum
        guarantees cross-group precedence.
        """

        def sort_key(key: tuple[Value, ...]) -> tuple[float, ...]:
            total = sum(encoding.ordinal(value) for encoding, value in zip(encodings, key))
            ordinals = tuple(encoding.ordinal(value) for encoding, value in zip(encodings, key))
            return (float(total),) + tuple(float(o) for o in ordinals)

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
