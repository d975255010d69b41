"""Pack an encoded dataset into a single mmap-able store file.

Packing performs, once, exactly the work a fresh process would otherwise
repeat on every start: :func:`pack_dataset` encodes the dataset into an
:class:`~repro.data.columns.EncodedFrame` and runs the query-independent
per-PO-group TO-Pareto prefilter, and :func:`pack_frame` writes the frame and
the prefilter's survivor rows.  Delta-plane compaction calls
:func:`pack_frame` directly with the engine's tracked candidates, which equal
a fresh prefilter's survivors, so it re-filters nothing.  Both are written as
page-aligned little-endian array sections (see :mod:`repro.store.format`) so
loaders reconstruct the same objects as zero-copy ``np.memmap`` views — or,
without NumPy, by reading the very same bytes into tuple-backed columns.  The
writer works under both backends: the frame arrays are backend-agnostic and
the prefilter's survivor list is pinned to agree across kernels.

Stores packed by older builds also carry a base-topology mapping and an
array-encoded R-tree; loaders verify those sections' checksums at open and ignore them.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.engine.prefilter import prefilter_survivors
from repro.exceptions import StoreError
from repro.kernels import resolve_kernel
from repro.store.format import (
    FORMAT_VERSION,
    MAGIC,
    PAGE_SIZE,
    SectionSpec,
    align,
    encode_schema,
)


def _numpy_or_none():
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def _pack_floats(values) -> bytes:
    flat = list(values)
    return struct.pack(f"<{len(flat)}d", *flat)


def _pack_ints(values, fmt: str) -> bytes:
    flat = [int(v) for v in values]
    return struct.pack(f"<{len(flat)}{fmt}", *flat)


def _matrix_bytes(matrix, dtype: str) -> bytes:
    """Raw little-endian bytes of a 2-D array or tuple-of-row-tuples."""
    np = _numpy_or_none()
    if np is not None and not isinstance(matrix, (tuple, list)):
        return np.ascontiguousarray(matrix, dtype=np.dtype(dtype)).tobytes()
    flat = [value for row in matrix for value in row]
    if dtype == "<f8":
        return _pack_floats(flat)
    return _pack_ints(flat, {"<i4": "i", "<i8": "q"}[dtype])


def _vector_bytes(vector, dtype: str) -> bytes:
    np = _numpy_or_none()
    if np is not None and not isinstance(vector, (tuple, list)):
        return np.ascontiguousarray(vector, dtype=np.dtype(dtype)).tobytes()
    if dtype == "<f8":
        return _pack_floats(vector)
    return _pack_ints(vector, {"<i4": "i", "<i8": "q"}[dtype])


def pack_dataset(
    dataset: Dataset,
    path,
    *,
    kernel=None,
) -> dict:
    """Encode, prefilter and write ``dataset`` to ``path``.

    Returns a summary dict (path, section sizes, counts).  Raises
    :class:`~repro.exceptions.StoreError` for schemas whose PO domains are
    not JSON-serializable (e.g. frozenset lattices).
    """
    frame = EncodedFrame.from_dataset(dataset)
    survivors = prefilter_survivors(frame.schema, None, frame, resolve_kernel(kernel))
    return pack_frame(frame, path, survivors=survivors)


def pack_frame(
    frame: EncodedFrame,
    path,
    *,
    survivors,
    row_ids=None,
    generation: int = 0,
    next_id: int | None = None,
) -> dict:
    """Write an encoded frame and its prefilter ``survivors`` to ``path``.

    ``survivors`` are the ascending rows of every PO group's TO-Pareto front
    (:func:`~repro.engine.prefilter.prefilter_survivors`); they are written
    as given.  :func:`pack_dataset` passes a fresh prefilter's, delta-plane
    compaction the candidates its tracker kept exact — a compacted live
    frame has no record dataset behind it.  ``row_ids`` optionally persists
    a stable ``row -> record id`` mapping (omitted = identity),
    ``generation`` a monotone compaction counter and ``next_id`` the id
    allocation high-water mark (omitted = one past the largest row id); all
    three are backward-compatible additions readers may ignore.
    """
    schema = frame.schema
    schema_spec = encode_schema(schema)
    n = len(frame)

    sections: list[tuple[str, str, tuple[int, ...], bytes]] = [
        (
            "frame_to",
            "<f8",
            (n, schema.num_total_order),
            _matrix_bytes(frame.to, "<f8"),
        ),
        (
            "frame_codes",
            "<i4",
            (n, schema.num_partial_order),
            _matrix_bytes(frame.codes, "<i4"),
        ),
        ("survivors", "<i8", (len(survivors),), _vector_bytes(survivors, "<i8")),
    ]
    if row_ids is not None:
        row_ids = [int(record_id) for record_id in row_ids]
        if len(row_ids) != n:
            raise StoreError(
                f"row_ids has {len(row_ids)} entries for a {n}-row frame"
            )
        sections.append(("row_ids", "<i8", (n,), _vector_bytes(row_ids, "<i8")))

    # Lay the sections out page-aligned after the header.  Header length is
    # not known before the offsets are, so lay out twice: once with a
    # worst-case header page count, then with the real one.
    def layout(header_bytes_len: int) -> list[SectionSpec]:
        placed = []
        offset = align(len(MAGIC) + 8 + header_bytes_len)
        for name, dtype, shape, payload in sections:
            crc32 = zlib.crc32(payload) & 0xFFFFFFFF
            placed.append(SectionSpec(name, dtype, shape, offset, len(payload), crc32))
            offset = align(offset + len(payload))
        return placed

    def header_json(placed: list[SectionSpec]) -> bytes:
        header = {
            "format_version": FORMAT_VERSION,
            "generation": int(generation),
            **({} if next_id is None else {"next_id": int(next_id)}),
            "schema": schema_spec,
            "counts": {"rows": n, "survivors": len(survivors)},
            "sections": {spec.name: spec.to_json() for spec in placed},
        }
        return json.dumps(header, separators=(",", ":")).encode("utf-8")

    placed = layout(0)
    encoded = header_json(placed)
    # Re-layout until the header size stabilizes (it grows only if the
    # offsets' digit count pushes it across a page boundary — at most twice).
    for _ in range(3):
        relaid = layout(len(encoded))
        re_encoded = header_json(relaid)
        if len(re_encoded) == len(encoded) and relaid == placed:
            placed, encoded = relaid, re_encoded
            break
        placed, encoded = relaid, re_encoded

    out_path = str(path)
    with open(out_path, "wb") as handle:
        handle.write(MAGIC)
        handle.write(struct.pack("<Q", len(encoded)))
        handle.write(encoded)
        position = len(MAGIC) + 8 + len(encoded)
        for spec, (_, _, _, payload) in zip(placed, sections):
            handle.write(b"\x00" * (spec.offset - position))
            handle.write(payload)
            position = spec.offset + len(payload)
        # Pad the tail to a page boundary so the last mmap view is covered.
        handle.write(b"\x00" * (align(position) - position))
        total_bytes = align(position)

    return {
        "path": out_path,
        "format_version": FORMAT_VERSION,
        "generation": int(generation),
        "bytes": total_bytes,
        "page_size": PAGE_SIZE,
        "rows": n,
        "survivors": len(survivors),
        "sections": {spec.name: spec.nbytes for spec in placed},
    }
