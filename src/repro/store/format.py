"""The on-disk layout of a packed dataset store.

A store is one file::

    +------------------------------------------------------------------+
    | magic "RPROSTOR" (8 bytes) | header length (8 bytes, LE uint64)  |
    | header JSON (utf-8)  ...  zero padding to the next page boundary |
    +------------------------------------------------------------------+
    | section 0  (page-aligned, raw little-endian array bytes)         |
    | ...  zero padding to the next page boundary                      |
    | section 1  (page-aligned)                                        |
    | ...                                                              |
    +------------------------------------------------------------------+

The JSON header carries the format version, the serialized schema (attribute
order, TO ``best`` directions, PO DAG values + edges), the counts needed to
reconstruct views, and one entry per section with its dtype, shape, byte
offset, byte length and CRC-32.  Every
section starts on a :data:`PAGE_SIZE` boundary so ``np.memmap`` views are
page-aligned and shareable through the OS page cache across processes.

Only JSON-safe PO domain values round-trip: ints, floats, strings and bools,
carried as ``[tag, value]`` pairs so ``1`` and ``1.0`` and ``True`` stay
distinct.  Exotic domains (e.g. the frozensets of ``subset_lattice``) are
rejected at pack time with a :class:`~repro.exceptions.StoreError`.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass
from typing import Any

from repro.data.schema import (
    Attribute,
    PartialOrderAttribute,
    Schema,
    TotalOrderAttribute,
)
from repro.exceptions import StoreError
from repro.order.dag import PartialOrderDAG

Value = Hashable

#: File magic: the first 8 bytes of every packed store.
MAGIC = b"RPROSTOR"

#: Format version this build writes and reads.
FORMAT_VERSION = 1

#: Section alignment (bytes): one typical OS page.
PAGE_SIZE = 4096

#: dtype string -> (struct-ish element kind, itemsize).  All little-endian.
DTYPES = {
    "<f8": ("f", 8),
    "<i8": ("i", 8),
    "<i4": ("i", 4),
}


def align(offset: int, page: int = PAGE_SIZE) -> int:
    """The smallest page multiple >= ``offset``."""
    return (offset + page - 1) // page * page


@dataclass(frozen=True)
class SectionSpec:
    """One array section of the store, as described by the header."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int
    nbytes: int
    crc32: int

    def to_json(self) -> dict[str, Any]:
        return {
            "dtype": self.dtype,
            "shape": list(self.shape),
            "offset": self.offset,
            "nbytes": self.nbytes,
            "crc32": self.crc32,
        }

    @classmethod
    def from_json(cls, name: str, payload: dict[str, Any], *, path: str) -> "SectionSpec":
        try:
            dtype = payload["dtype"]
            shape = tuple(int(n) for n in payload["shape"])
            offset = int(payload["offset"])
            nbytes = int(payload["nbytes"])
            crc32 = int(payload["crc32"])
        except (KeyError, TypeError, ValueError):
            raise StoreError(
                f"store '{path}' has a malformed section entry {name!r} "
                f"(expected format version {FORMAT_VERSION})"
            ) from None
        if dtype not in DTYPES:
            raise StoreError(
                f"store '{path}' section {name!r} uses unsupported dtype "
                f"{dtype!r} (expected format version {FORMAT_VERSION})"
            )
        count = 1
        for dim in shape:
            count *= dim
        if count * DTYPES[dtype][1] != nbytes:
            raise StoreError(
                f"store '{path}' section {name!r} is inconsistent: shape "
                f"{shape} x dtype {dtype} does not cover {nbytes} bytes "
                f"(expected format version {FORMAT_VERSION})"
            )
        return cls(name, dtype, shape, offset, nbytes, crc32)


# --------------------------------------------------------------------- #
# Domain-value codec (tagged JSON pairs)
# --------------------------------------------------------------------- #
def encode_value(value: Value) -> list[Any]:
    """One JSON-safe ``[tag, payload]`` pair for a PO domain value."""
    if isinstance(value, bool):  # before int: bool is an int subclass
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", value]
    if isinstance(value, str):
        return ["s", value]
    raise StoreError(
        f"cannot pack PO domain value {value!r} of type "
        f"{type(value).__name__}: stores serialize int/float/str/bool "
        f"domains only"
    )


def decode_value(pair: list[Any]) -> Value:
    try:
        tag, payload = pair
    except (TypeError, ValueError):
        raise StoreError(f"malformed domain value entry {pair!r}") from None
    if tag == "b":
        return bool(payload)
    if tag == "i":
        return int(payload)
    if tag == "f":
        return float(payload)
    if tag == "s":
        return str(payload)
    raise StoreError(f"unknown domain value tag {tag!r}")


# --------------------------------------------------------------------- #
# Schema codec
# --------------------------------------------------------------------- #
def encode_schema(schema: Schema) -> list[dict[str, Any]]:
    """The schema as a JSON-safe attribute list (order-preserving)."""
    spec: list[dict[str, Any]] = []
    for attribute in schema.attributes:
        if isinstance(attribute, PartialOrderAttribute):
            dag = attribute.dag
            spec.append(
                {
                    "kind": "po",
                    "name": attribute.name,
                    "values": [encode_value(value) for value in dag.values],
                    "edges": [
                        [encode_value(better), encode_value(worse)]
                        for better, worse in dag.edges
                    ],
                }
            )
        else:
            spec.append(
                {"kind": "to", "name": attribute.name, "best": attribute.best}
            )
    return spec


def decode_schema(spec: list[dict[str, Any]], *, path: str) -> Schema:
    attributes: list[Attribute] = []
    try:
        for entry in spec:
            if entry["kind"] == "to":
                attributes.append(
                    TotalOrderAttribute(entry["name"], best=entry["best"])
                )
            elif entry["kind"] == "po":
                dag = PartialOrderDAG(
                    [decode_value(value) for value in entry["values"]],
                    [
                        (decode_value(better), decode_value(worse))
                        for better, worse in entry["edges"]
                    ],
                )
                attributes.append(PartialOrderAttribute(entry["name"], dag))
            else:
                raise StoreError(
                    f"store '{path}' schema has unknown attribute kind "
                    f"{entry['kind']!r}"
                )
    except (KeyError, TypeError) as exc:
        raise StoreError(
            f"store '{path}' has a malformed schema entry: {exc!r} "
            f"(expected format version {FORMAT_VERSION})"
        ) from None
    return Schema(attributes)
