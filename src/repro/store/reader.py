"""Open a packed store and reconstruct zero-copy views of its artifacts.

:class:`DatasetStore` maps the array sections of a file written by
:func:`repro.store.writer.pack_dataset` back into the objects the query
engine consumes — the :class:`~repro.data.columns.EncodedFrame`, the
prefilter survivor list, the base-preference :class:`~repro.core.mapping.
TSSMapping` and the bulk-loaded :class:`~repro.index.flat.FlatRTree` —
without re-encoding, re-filtering, re-mapping or re-bulk-loading anything.

With NumPy the sections become read-only ``np.memmap`` views, so several
processes opening the same file share one copy of the bytes through the OS
page cache.  Without NumPy the same bytes are read, checked against their
section checksum and unpacked into the tuple-backed column layout, so the
pure-Python backend answers queries from the identical file.

Every failure mode — missing file, truncation, bad magic, wrong format
version, malformed header, checksum mismatch — raises a typed
:class:`~repro.exceptions.StoreError` naming the file and the format version
this build expects.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib

from repro.data.columns import ColumnCodec, EncodedFrame
from repro.data.dataset import Dataset
from repro.exceptions import StoreError
from repro.faults.registry import trip as _fault_trip
from repro.store.format import (
    DTYPES,
    FORMAT_VERSION,
    MAGIC,
    SectionSpec,
    decode_schema,
)

_CHUNK = 1 << 20

#: "Not loaded yet" marker for cached optionals (a loaded value may be None).
_UNSET = object()


def _numpy_or_none():
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class DatasetStore:
    """A read-only view over one packed store file."""

    def __init__(self, path: str, header: dict) -> None:
        self.path = path
        self.format_version: int = header["format_version"]
        self._header = header
        self._np = _numpy_or_none()
        self._sections = {
            name: SectionSpec.from_json(name, payload, path=path)
            for name, payload in header["sections"].items()
        }
        self.schema = decode_schema(header["schema"], path=path)
        self._lock = threading.RLock()  # dataset() -> frame() re-enters
        self._frame = None
        self._survivors = None
        self._row_ids = _UNSET
        self._dataset = None

    # ------------------------------------------------------------------ #
    # Opening
    # ------------------------------------------------------------------ #
    @classmethod
    def open(cls, path, *, verify: bool = True) -> "DatasetStore":
        """Open ``path``, validate magic/version/checksums, return a store.

        Every section checksum is verified here, reading each section once —
        which doubles as a page-cache warm-up for the mmap path.
        ``verify=False`` skips that pass (pool workers re-opening a file the
        parent already verified).  Sections read into process memory later
        (no NumPy, or zero-byte sections) are checked again as they are read.
        """
        path = os.fspath(path)
        try:
            handle = open(path, "rb")  # noqa: SIM115 -- entered via `with handle:` below
        except OSError as exc:
            raise StoreError(
                f"cannot open store '{path}': {exc.strerror or exc} "
                f"(expected format version {FORMAT_VERSION})"
            ) from None
        with handle:
            prefix = handle.read(len(MAGIC) + 8)
            if len(prefix) < len(MAGIC) + 8 or prefix[: len(MAGIC)] != MAGIC:
                raise StoreError(
                    f"'{path}' is not a packed dataset store (bad magic; "
                    f"expected format version {FORMAT_VERSION})"
                )
            (header_length,) = struct.unpack("<Q", prefix[len(MAGIC):])
            file_size = os.fstat(handle.fileno()).st_size
            if header_length > file_size - len(prefix):
                raise StoreError(
                    f"store '{path}' is truncated: header claims "
                    f"{header_length} bytes but only "
                    f"{file_size - len(prefix)} remain "
                    f"(expected format version {FORMAT_VERSION})"
                )
            raw_header = handle.read(header_length)
            if len(raw_header) != header_length:
                raise StoreError(
                    f"store '{path}' is truncated inside its header "
                    f"(expected format version {FORMAT_VERSION})"
                )
            try:
                header = json.loads(raw_header.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise StoreError(
                    f"store '{path}' has a corrupt header: {exc} "
                    f"(expected format version {FORMAT_VERSION})"
                ) from None
            version = header.get("format_version")
            if version != FORMAT_VERSION:
                raise StoreError(
                    f"store '{path}' has format version {version!r}; this "
                    f"build reads format version {FORMAT_VERSION} — re-pack "
                    f"the dataset with 'repro pack'"
                )
            for key in ("schema", "counts", "base", "sections"):
                if key not in header:
                    raise StoreError(
                        f"store '{path}' header is missing its {key!r} entry "
                        f"(expected format version {FORMAT_VERSION})"
                    )
            store = cls(path, header)
            if verify:
                store._verify_checksums(handle, file_size)
        return store

    def _verify_checksums(self, handle, file_size: int) -> None:
        for spec in self._sections.values():
            if spec.offset + spec.nbytes > file_size:
                raise StoreError(
                    f"store '{self.path}' is truncated: section "
                    f"{spec.name!r} needs bytes "
                    f"[{spec.offset}, {spec.offset + spec.nbytes}) but the "
                    f"file has {file_size} "
                    f"(expected format version {FORMAT_VERSION})"
                )
            self._stream_verify(handle, spec)

    def _stream_verify(self, handle, spec: SectionSpec) -> None:
        handle.seek(spec.offset)
        remaining = spec.nbytes
        crc = 0
        while remaining:
            chunk = handle.read(min(_CHUNK, remaining))
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
            remaining -= len(chunk)
        if remaining or (crc & 0xFFFFFFFF) != spec.crc32:
            raise self._checksum_error(spec)

    def _checksum_error(self, spec: SectionSpec) -> StoreError:
        return StoreError(
            f"store '{self.path}' failed its checksum for section "
            f"{spec.name!r}: the file is corrupt — re-pack the "
            f"dataset with 'repro pack'"
        )

    # ------------------------------------------------------------------ #
    # Header facts
    # ------------------------------------------------------------------ #
    @property
    def uses_mmap(self) -> bool:
        """Whether array sections are ``np.memmap`` views (exactly when NumPy
        imports); without NumPy they are read and struct-unpacked."""
        return self._np is not None

    @property
    def generation(self) -> int:
        """Monotone compaction counter (0 for stores packed before deltas)."""
        return int(self._header.get("generation", 0))

    @property
    def next_id(self) -> int:
        """The first never-allocated record id.

        Compaction persists it, since the highest ids may have been deleted
        and folded away; stores written without it default to one past the
        largest row id.
        """
        if "next_id" in self._header:
            return int(self._header["next_id"])
        row_ids = self.row_ids()
        if row_ids is None:
            return self.num_rows
        return max(row_ids) + 1 if row_ids else 0

    @property
    def num_rows(self) -> int:
        return int(self._header["counts"]["rows"])

    @property
    def num_survivors(self) -> int:
        return int(self._header["counts"]["survivors"])

    @property
    def has_base_mapping(self) -> bool:
        return bool(self._header["base"].get("has_mapping"))

    @property
    def has_base_index(self) -> bool:
        return bool(self._header["base"].get("has_index"))

    @property
    def base_max_entries(self) -> int:
        return int(self._header["base"]["max_entries"])

    def __len__(self) -> int:
        return self.num_rows

    def describe(self) -> dict:
        """A JSON-safe summary for the CLI / service stats."""
        return {
            "path": self.path,
            "format_version": self.format_version,
            "generation": self.generation,
            "mmap": self.uses_mmap,
            "rows": self.num_rows,
            "survivors": self.num_survivors,
            "base_mapping": self.has_base_mapping,
            "base_index": self.has_base_index and self._np is not None,
            "sections": {
                name: spec.nbytes for name, spec in self._sections.items()
            },
        }

    # ------------------------------------------------------------------ #
    # Raw section access
    # ------------------------------------------------------------------ #
    def _spec(self, name: str) -> SectionSpec:
        try:
            return self._sections[name]
        except KeyError:
            raise StoreError(
                f"store '{self.path}' has no {name!r} section "
                f"(expected format version {FORMAT_VERSION})"
            ) from None

    def _injected(self, point: str) -> StoreError:
        return StoreError(
            f"injected fault at {point} reading store '{self.path}' "
            f"(format version {FORMAT_VERSION})"
        )

    def _array(self, name: str):
        """The section as a read-only ``np.memmap`` view."""
        spec = self._spec(name)
        np = self._np
        dtype = np.dtype(spec.dtype)
        if not spec.nbytes:  # np.memmap cannot map zero bytes
            return np.frombuffer(self._read_bytes(spec), dtype=dtype).reshape(spec.shape)
        _fault_trip("store.section_read", exc=self._injected)
        return np.memmap(
            self.path, dtype=dtype, mode="r", offset=spec.offset, shape=spec.shape
        )

    def _read_bytes(self, spec: SectionSpec) -> bytes:
        with open(self.path, "rb") as handle:
            handle.seek(spec.offset)
            data = handle.read(spec.nbytes)
        if len(data) != spec.nbytes:
            raise StoreError(
                f"store '{self.path}' is truncated: section {spec.name!r} "
                f"ended early (expected format version {FORMAT_VERSION})"
            )
        data = _fault_trip("store.section_read", exc=self._injected, data=data)
        # Checked on every read, not only at open: bytes that changed since
        # the open's pass must never reach a frame.
        if (zlib.crc32(data) & 0xFFFFFFFF) != spec.crc32:
            raise self._checksum_error(spec)
        return data

    def _unpack(self, name: str):
        """The section as Python scalars: flat list (1-D) or tuple rows (2-D)."""
        spec = self._spec(name)
        data = self._read_bytes(spec)
        kind, itemsize = DTYPES[spec.dtype]
        fmt = "d" if kind == "f" else ("q" if itemsize == 8 else "i")
        count = spec.nbytes // itemsize
        flat = list(struct.unpack(f"<{count}{fmt}", data))
        if len(spec.shape) == 1:
            return flat
        rows, width = spec.shape
        return tuple(tuple(flat[r * width : (r + 1) * width]) for r in range(rows))

    # ------------------------------------------------------------------ #
    # Reconstructed artifacts
    # ------------------------------------------------------------------ #
    def frame(self) -> EncodedFrame:
        """The full encoded frame over the store's bytes (cached).

        NumPy builds it on zero-copy mapped arrays; without NumPy the
        same bytes become the tuple-backed layout, so both backends answer
        queries from one file.
        """
        with self._lock:
            if self._frame is None:
                codec = ColumnCodec.from_schema(self.schema)
                if self._np is not None:
                    to = self._array("frame_to")
                    codes = self._array("frame_codes")
                else:
                    to = self._unpack("frame_to")
                    codes = self._unpack("frame_codes")
                self._frame = EncodedFrame(
                    self.schema, codec, to, codes, self.num_rows
                )
            return self._frame

    def survivors(self) -> list[int]:
        """Row ids of the packed prefilter's survivors (ascending, cached)."""
        with self._lock:
            if self._survivors is None:
                if self._np is not None:
                    self._survivors = [int(row) for row in self._array("survivors")]
                else:
                    self._survivors = [int(row) for row in self._unpack("survivors")]
            return list(self._survivors)

    def row_ids(self) -> list[int] | None:
        """The stable ``row -> record id`` mapping, or ``None`` (= identity).

        Written by delta-plane compaction (:func:`~repro.store.writer.
        pack_frame` with ``row_ids``) so surviving records keep the ids
        clients hold across compactions; stores packed straight from a
        dataset omit the section.
        """
        with self._lock:
            if self._row_ids is _UNSET:
                if "row_ids" not in self._sections:
                    self._row_ids = None
                elif self._np is not None:
                    self._row_ids = [int(i) for i in self._array("row_ids")]
                else:
                    self._row_ids = [int(i) for i in self._unpack("row_ids")]
            return None if self._row_ids is None else list(self._row_ids)

    def base_mapping(self, encodings=None):
        """The packed base-preference TSS mapping, rebuilt without re-mapping.

        ``encodings`` must be the schema's deterministic base encodings (the
        default); point record ids are positions into the packed survivor
        order, exactly as a fresh mapping over the reduced frame would yield.
        """
        from repro.core.mapping import TSSMapping
        from repro.order.encoding import encode_domain

        if not self.has_base_mapping:
            raise StoreError(
                f"store '{self.path}' was packed without a base mapping "
                f"(no PO attributes)"
            )
        if encodings is None:
            encodings = [
                encode_domain(attribute.dag)
                for attribute in self.schema.partial_order_attributes
            ]
        if self._np is not None:
            coords = self._array("mapped_coords")
            offsets = self._array("point_offsets")
            rows = self._array("point_rows")
            groups = [
                tuple(int(r) for r in rows[int(offsets[g]) : int(offsets[g + 1])])
                for g in range(len(offsets) - 1)
            ]
        else:
            coords = self._unpack("mapped_coords")
            offsets = self._unpack("point_offsets")
            rows = self._unpack("point_rows")
            groups = [
                tuple(rows[offsets[g] : offsets[g + 1]])
                for g in range(len(offsets) - 1)
            ]
        return TSSMapping.from_stored(self.schema, encodings, coords, groups)

    def base_tree(self, *, disk=None):
        """The packed flat R-tree over the base mapping's points."""
        from repro.index.flat import FlatRTree

        if not self.has_base_index:
            raise StoreError(
                f"store '{self.path}' was packed without a flat-tree section"
            )
        if self._np is None:
            raise StoreError(
                f"store '{self.path}' has a flat-tree section but this "
                f"environment lacks NumPy to map it; build a tree from "
                f"base_mapping() instead"
            )
        base = self._header["base"]
        return FlatRTree.from_arrays(
            dimensions=int(base["dimensions"]),
            max_entries=self.base_max_entries,
            points=self._array("tree_points"),
            payloads=self._array("tree_payloads"),
            node_low=self._array("tree_node_low"),
            node_high=self._array("tree_node_high"),
            child_start=self._array("tree_child_start"),
            child_end=self._array("tree_child_end"),
            entry_mindists=self._array("tree_entry_mindists"),
            node_mindists=self._array("tree_node_mindists"),
            num_leaves=int(base["num_leaves"]),
            height=int(base["height"]),
            disk=disk,
        )

    def dataset(self) -> Dataset:
        """The original records, materialized from the frame (cached).

        Canonical TO floats are negated back for ``best='max'`` attributes
        (binary round-trip exact) and PO codes decoded through the codec, so
        the records are value-identical to the packed dataset's.
        """
        with self._lock:
            if self._dataset is None:
                self._dataset = self._materialize_dataset()
            return self._dataset

    def _materialize_dataset(self) -> Dataset:
        frame = self.frame()
        schema = self.schema
        codec = frame.codec
        columns: list[list] = []
        to_index = 0
        po_index = 0
        for attribute in schema.attributes:
            if attribute.is_partial:
                domain = codec.domains[po_index]
                if frame.uses_numpy:
                    codes = frame.codes[:, po_index]
                    columns.append([domain[int(code)] for code in codes])
                else:
                    columns.append(
                        [domain[row[po_index]] for row in frame.codes]
                    )
                po_index += 1
            else:
                if frame.uses_numpy:
                    values = frame.to[:, to_index].tolist()
                else:
                    values = [row[to_index] for row in frame.to]
                if attribute.best == "max":
                    values = [-value for value in values]
                columns.append(values)
                to_index += 1
        rows = [tuple(column[r] for column in columns) for r in range(self.num_rows)]
        return Dataset(schema, rows, validate=False)
