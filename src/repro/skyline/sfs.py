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

The scan reads an :class:`~repro.data.columns.EncodedFrame` (a bare dataset is
encoded first, NumPy-backed when NumPy imports and tuple-backed otherwise);
:func:`monotone_sort_key` is the scalar form of the frame's presort key.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable

from repro.data.columns import EncodedFrame, ordered_rows
from repro.data.dataset import Dataset, Record
from repro.data.schema import Schema
from repro.exceptions import DatasetError
from repro.kernels import resolve_kernel
from repro.kernels.tables import RecordTables
from repro.order.dag import PartialOrderDAG
from repro.order.toposort import topological_sort
from repro.skyline.base import RunClock, SkylineResult, SkylineStats

Value = Hashable


def monotone_sort_key(schema: Schema) -> Callable[[Record], tuple[int, float]]:
    """A preference function that is monotone w.r.t. ground-truth dominance.

    If record ``a`` dominates record ``b`` then ``key(a) < key(b)``; hence
    sorting by the key guarantees no record is preceded by a record it
    dominates.  The key is the pair (infinity balance, finite sum): the
    count of +inf minus the count of -inf canonical TO values, then the sum
    of the finite TO values and the PO depths.  Dominance keeps every -inf of
    the dominated record and every +inf of the dominator, so a dominator
    never has a larger balance, and with equal balances the two records hold
    their infinities in the same columns and the finite sums decide.
    """
    depth_maps = [
        _depth_map(attribute.dag) for attribute in schema.partial_order_attributes
    ]
    po_positions = schema.partial_order_positions

    def key(record: Record) -> tuple[int, float]:
        balance = 0
        score = 0.0
        for value in schema.canonical_to_values(record.values):
            if value == math.inf:
                balance += 1
            elif value == -math.inf:
                balance -= 1
            else:
                score += value
        for depth_map, position in zip(depth_maps, po_positions):
            score += depth_map[record.values[position]]
        return balance, score

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
