"""Sort-Filter-Skyline (SFS) computation.

SFS (Chomicki et al., ICDE 2003) presorts the input by a monotone preference
function (here the sum of canonical TO values, optionally extended with a PO
"depth" score).  Presorting establishes the *precedence* property discussed in
Section III-A of the paper: once a record has been compared against all
earlier records it is guaranteed to be a skyline record, so SFS is optimally
progressive and its candidate list only ever contains true skyline records.

For mixed TO/PO schemas, the sort key must be monotone with respect to
ground-truth dominance.  We use the sum of canonical TO values plus, for each
PO attribute, the value's depth in its preference DAG (length of the longest
path from a root), which can only grow along preference edges.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable

from repro.data.columns import EncodedFrame, numpy_available, ordered_rows
from repro.data.dataset import Dataset, Record
from repro.data.schema import Schema
from repro.exceptions import DatasetError
from repro.kernels import resolve_kernel
from repro.kernels.tables import RecordTables
from repro.order.dag import PartialOrderDAG
from repro.order.toposort import topological_sort
from repro.skyline.base import RunClock, SkylineResult, SkylineStats
from repro.skyline.dominance import record_store_for

Value = Hashable


def monotone_sort_key(schema: Schema) -> Callable[[Record], float]:
    """A preference function that is monotone w.r.t. ground-truth dominance.

    If record ``a`` dominates record ``b`` then ``key(a) < key(b)``; hence
    sorting by the key guarantees no record is preceded by a record it
    dominates.
    """
    depth_maps = [
        _depth_map(attribute.dag) for attribute in schema.partial_order_attributes
    ]
    po_positions = schema.partial_order_positions

    def key(record: Record) -> float:
        score = sum(schema.canonical_to_values(record.values))
        for depth_map, position in zip(depth_maps, po_positions):
            score += depth_map[record.values[position]]
        return score

    return key


def _depth_map(dag: PartialOrderDAG) -> dict[Value, int]:
    """Longest distance of every value from a root (monotone along edges)."""
    depth = {value: 0 for value in dag.values}
    for node in topological_sort(dag, strategy="kahn"):
        for child in dag.successors(node):
            depth[child] = max(depth[child], depth[node] + 1)
    return depth


def depth_columns(schema: Schema, frame: EncodedFrame) -> list[list[int]]:
    """Per PO attribute: DAG depth of every frame-canonical code.

    The columnar form of the :func:`monotone_sort_key` depth maps, indexed by
    the frame's code space so :meth:`EncodedFrame.monotone_keys
    <repro.data.columns.EncodedFrame.monotone_keys>` can gather them.
    """
    return [
        [
            _depth_map(attribute.dag)[value]
            for value in frame.codec.domains[attr_index]
        ]
        for attr_index, attribute in enumerate(schema.partial_order_attributes)
    ]


def _sfs_frame(schema: Schema, frame: EncodedFrame, kernel, rows=None) -> SkylineResult:
    """Columnar SFS: presort via ``argsort`` on the monotone key vector.

    The candidate scan is the same sequence of store queries as the record
    path — identical verdicts, discovery order and dominance-check counts —
    but the per-record encode step is gone: rows stream out of the frame.
    ``rows`` restricts the scan to a row subset without materializing a
    reduced frame; result ids are then positions within ``rows``, exactly as
    a ``frame.take(rows)`` run would number them.
    """
    stats = SkylineStats()
    clock = RunClock(stats)
    tables = RecordTables.from_schema(schema)
    codes = frame.remap_codes([table.code_of for table in tables.attributes], rows)
    keys = frame.monotone_keys(depth_columns(schema, frame), rows)
    order = ordered_rows(keys, uses_numpy=frame.uses_numpy)
    store = resolve_kernel(kernel).record_store(tables)
    to = frame.gather_to(rows)
    skyline_ids: list[int] = []
    for row in order:
        stats.points_examined += 1
        if not store.any_dominates(to[row], codes[row], counter=stats):
            store.append(to[row], codes[row])
            skyline_ids.append(row)
            clock.record_result()
    clock.finish()
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)


def sfs_skyline(
    dataset: Dataset | None = None,
    *,
    dominates: Callable[[Record, Record], bool] | None = None,
    key: Callable[[Record], float] | None = None,
    kernel=None,
    frame: EncodedFrame | None = None,
    rows=None,
) -> SkylineResult:
    """Compute the skyline of ``dataset`` with Sort-Filter-Skyline.

    The skyline-list scan runs through the block-dominance kernel (see
    :mod:`repro.kernels`); passing an explicit ``dominates`` predicate
    falls back to the record-at-a-time reference path.  Given a ``frame``
    (or a bare dataset while NumPy imports, which is then encoded first) the
    presort and scan run columnar over an
    :class:`~repro.data.columns.EncodedFrame`; ``dataset`` may then be
    ``None``.
    """
    if dataset is None and frame is None:
        raise DatasetError("sfs_skyline needs a dataset or an encoded frame")
    schema = dataset.schema if dataset is not None else frame.schema
    if dominates is None and key is None:
        if frame is None and numpy_available():
            frame = EncodedFrame.from_dataset(dataset)
        if frame is not None:
            return _sfs_frame(schema, frame, kernel, rows)
    if dataset is None or rows is not None:
        raise DatasetError(
            "sfs_skyline needs a dataset (and no row subset) when a custom "
            "key or dominance predicate bypasses the columnar path"
        )
    key = key or monotone_sort_key(schema)

    stats = SkylineStats()
    clock = RunClock(stats)

    ordered = sorted(dataset.records, key=key)
    skyline_ids: list[int] = []
    if dominates is None:
        encoder, store = record_store_for(schema, kernel)
        for candidate in ordered:
            stats.points_examined += 1
            to_values, po_codes = encoder.encode(candidate)
            if not store.any_dominates(to_values, po_codes, counter=stats):
                store.append(to_values, po_codes)
                skyline_ids.append(candidate.id)
                clock.record_result()
    else:
        skyline: list[Record] = []
        for candidate in ordered:
            stats.points_examined += 1
            dominated = False
            for resident in skyline:
                stats.dominance_checks += 1
                if dominates(resident, candidate):
                    dominated = True
                    break
            if not dominated:
                skyline.append(candidate)
                skyline_ids.append(candidate.id)
                clock.record_result()
    clock.finish()
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)
