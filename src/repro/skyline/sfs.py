"""Sort-Filter-Skyline (SFS) computation.

SFS (Chomicki et al., ICDE 2003) presorts the input by a monotone preference
function (here the sweep key of canonical TO values, extended with a PO
"depth" score).  Presorting establishes the *precedence* property discussed in
Section III-A of the paper: once a record has been compared against all
earlier records it is guaranteed to be a skyline record, so SFS is optimally
progressive and its candidate list only ever contains true skyline records.

For mixed TO/PO schemas, the sort key must be monotone with respect to
ground-truth dominance.  We use the :func:`~repro.index.geometry.sweep_key`
(sum, then the vector lexicographically) of the canonical TO values followed
by, for each PO attribute, the value's depth in its preference DAG (length of
the longest path from a root), which can only grow along preference edges.

The scan reads an :class:`~repro.data.columns.EncodedFrame` (a bare dataset is
encoded first, NumPy-backed when NumPy imports and tuple-backed otherwise);
:func:`monotone_sort_key` is the scalar form of the frame's presort key.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence

from repro.data.columns import EncodedFrame, ordered_rows
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import DatasetError
from repro.index.geometry import SweepKey, sweep_key
from repro.kernels import resolve_kernel
from repro.kernels.tables import RecordTables
from repro.skyline.base import RunClock, SkylineResult, SkylineStats

Value = Hashable


def monotone_sort_key(schema: Schema) -> Callable[[Sequence[Value]], SweepKey]:
    """A preference function that is monotone w.r.t. ground-truth dominance.

    The key of a row of values is the :func:`~repro.index.geometry.sweep_key`
    of its canonical TO values followed by, per PO attribute, the value's
    depth in its DAG.  If row ``a`` dominates row ``b``, ``a``'s vector is
    no larger anywhere and smaller somewhere (a preferred PO value has a
    smaller depth), so ``key(a) < key(b)``, float-rounding ties included;
    hence sorting by the key guarantees no row is preceded by a row it
    dominates.
    """
    depth_maps = [attribute.dag.depths() for attribute in schema.partial_order_attributes]
    po_positions = schema.partial_order_positions

    def key(values: Sequence[Value]) -> SweepKey:
        depths = (
            depth_map[values[position]] for depth_map, position in zip(depth_maps, po_positions)
        )
        return sweep_key(schema.canonical_to_values(values) + tuple(depths))

    return key


def depth_columns(schema: Schema, frame: EncodedFrame) -> list[list[int]]:
    """Per PO attribute: DAG depth of every frame-canonical code.

    The columnar form of the :func:`monotone_sort_key` depths, indexed by
    the frame's code space so :meth:`EncodedFrame.monotone_keys
    <repro.data.columns.EncodedFrame.monotone_keys>` can gather them.
    """
    columns = []
    for attr_index, attribute in enumerate(schema.partial_order_attributes):
        depths = attribute.dag.depths()
        columns.append([depths[value] for value in frame.codec.domains[attr_index]])
    return columns


def sfs_skyline(
    dataset: Dataset | None = None,
    *,
    kernel=None,
    frame: EncodedFrame | None = None,
) -> SkylineResult:
    """Compute the skyline of ``dataset`` with Sort-Filter-Skyline.

    The presort is one ``argsort`` over the frame's monotone keys and the
    skyline-list scan runs through the block-dominance kernel (see
    :mod:`repro.kernels`).  ``frame`` is the dataset's
    :class:`~repro.data.columns.EncodedFrame` (``dataset`` may then be
    ``None``); a bare dataset is encoded first.
    """
    if dataset is None and frame is None:
        raise DatasetError("sfs_skyline needs a dataset or an encoded frame")
    if frame is None:
        frame = EncodedFrame.from_dataset(dataset)
    schema = frame.schema
    stats = SkylineStats()
    clock = RunClock(stats)
    tables = RecordTables.from_schema(schema)
    codes = frame.remap_codes([table.code_of for table in tables.attributes])
    order = ordered_rows(
        frame.monotone_keys(depth_columns(schema, frame)), uses_numpy=frame.uses_numpy
    )
    store = resolve_kernel(kernel).record_store(tables)
    to = frame.to
    skyline_ids: list[int] = []
    for row in order:
        stats.points_examined += 1
        if not store.any_dominates(to[row], codes[row], counter=stats):
            store.append(to[row], codes[row])
            skyline_ids.append(row)
            clock.record_result()
    clock.finish()
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)
