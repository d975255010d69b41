"""Columnar encoded frames: the zero-copy data plane of the hot paths.

A :class:`EncodedFrame` holds a dataset *encoded once* as one contiguous
column per attribute — a float64 matrix of canonical TO values (shared with
:meth:`Dataset.to_numeric_matrix <repro.data.dataset.Dataset.to_numeric_matrix>`)
and one int32 code column per PO attribute — instead of a tuple-of-``Record``
objects walked one at a time.  Every consumer of the hot path (the batch
engine's prefilter, :class:`~repro.core.mapping.TSSMapping` construction,
SFS/LESS presorting, the sharded executor's worker shipping and cross-shard
merges) can then stream row blocks straight through the vectorized kernels
with zero per-record conversion.

Codes live in the *canonical* space of the frame's schema — position in each
PO attribute's ``dag.values`` tuple, exactly the space
:meth:`RecordTables.from_schema <repro.kernels.tables.RecordTables.from_schema>`
uses — so ground-truth dominance needs no translation.  Other code spaces
(a query's override DAGs, a topological-sort encoding) are reached through
:meth:`EncodedFrame.remap_codes`, an O(domain) permutation build plus one
vectorized gather, rather than re-encoding every record.

The columns are NumPy arrays when NumPy is importable; without NumPy the
frame falls back to tuple-backed columns, so the engine, the sharded executor
and the delta plane run the same frame path everywhere (the tuple columns are
the reference representation the vectorized one must agree with).
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.data.schema import Schema
from repro.exceptions import DatasetError

if TYPE_CHECKING:  # pragma: no cover - import for type checkers only
    from repro.data.dataset import Dataset

Value = Hashable


def _numpy_or_none():
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def numpy_available() -> bool:
    """Whether NumPy imports: the default of the bare-dataset paper
    algorithms, which encode a frame first exactly when it is vectorized."""
    return _numpy_or_none() is not None


def group_rows(matrix) -> tuple[object, list]:
    """Group equal rows of a 2-D array, preserving first-occurrence order.

    Returns ``(unique_rows, groups)`` where ``unique_rows[g]`` is the value of
    the ``g``-th distinct row *in order of first appearance* and ``groups[g]``
    the ascending indices of its occurrences — the exact contract of dict-based
    ``setdefault`` grouping over row tuples, shared by the engine's prefilter
    and the columnar :class:`~repro.core.mapping.TSSMapping` build.  A matrix
    with zero columns groups every row together.
    """
    np = _numpy_or_none()
    if np is None:  # pragma: no cover - callers hold ndarray-backed frames
        raise DatasetError("group_rows requires NumPy")
    matrix = np.asarray(matrix)
    if not len(matrix):
        return matrix[:0], []
    # A stable lexicographic sort over the columns (zero columns: one run).
    order = np.lexsort(matrix.T[::-1]) if matrix.shape[1] else np.arange(len(matrix))
    ordered = matrix[order]
    differs = (ordered[1:] != ordered[:-1]).any(axis=1)
    # The sort is stable, so each run of equal rows lists its occurrences
    # ascending and starts at its first appearance.
    run_starts = np.concatenate(([0], np.flatnonzero(differs) + 1))
    first_seen = order[run_starts]
    by_first = np.argsort(first_seen, kind="stable")
    runs = np.split(order, run_starts[1:])
    return matrix[first_seen[by_first]], [runs[run] for run in by_first.tolist()]


def ordered_rows(keys, tiebreak=None, *, uses_numpy: bool) -> list[int]:
    """Row positions sorted ascending by ``keys`` (stable), as a plain list.

    ``tiebreak`` optionally breaks key ties by a second integer sequence —
    the SFS merge phase orders equal monotone keys by stable record id.  The
    NumPy branch is bitwise-faithful to the historical call sites
    (``np.argsort(..., kind="stable")`` / ``np.lexsort``), and keeping it
    here keeps the numpy import inside the frame plane
    (reprolint: numpy-containment).
    """
    np = _numpy_or_none()
    if uses_numpy and np is not None:
        if tiebreak is None:
            return np.argsort(keys, kind="stable").tolist()
        return np.lexsort((np.asarray(tiebreak), keys)).tolist()
    if tiebreak is None:
        return sorted(range(len(keys)), key=keys.__getitem__)
    return sorted(range(len(keys)), key=lambda i: (keys[i], tiebreak[i]))


class ColumnCodec:
    """The value<->code tables of one schema's PO attributes.

    Codes are positions in each attribute's ``dag.values`` tuple — the same
    canonical space :meth:`RecordTables.from_schema
    <repro.kernels.tables.RecordTables.from_schema>` derives, so frames and
    ground-truth record tables of one schema always agree without remapping.
    """

    __slots__ = ("names", "domains", "code_of")

    def __init__(self, names: Sequence[str], domains: Sequence[tuple[Value, ...]]) -> None:
        self.names = tuple(names)
        self.domains = tuple(tuple(domain) for domain in domains)
        self.code_of = tuple(
            {value: code for code, value in enumerate(domain)} for domain in self.domains
        )

    @classmethod
    def from_schema(cls, schema: Schema) -> "ColumnCodec":
        attributes = schema.partial_order_attributes
        return cls(
            names=[attribute.name for attribute in attributes],
            domains=[attribute.dag.values for attribute in attributes],
        )

    def encode_column(self, attr_index: int, values: Sequence[Value]) -> list[int]:
        """Codes of one PO value column (clean error naming the attribute)."""
        code_of = self.code_of[attr_index]
        try:
            return [code_of[value] for value in values]
        except KeyError as exc:
            raise DatasetError(
                f"cannot encode PO attribute {self.names[attr_index]!r}: value "
                f"{exc.args[0]!r} is absent from the encoding domain"
            ) from None

    def permutation_to(
        self, attr_index: int, target_code_of: Mapping[Value, int]
    ) -> list[int]:
        """``perm[canonical code] -> target code`` for one attribute.

        Raises a clean :class:`~repro.exceptions.DatasetError` naming the
        attribute when the target space is missing one of the frame's domain
        values (e.g. a frame requested for an encoding over a shrunk domain).
        """
        perm: list[int] = []
        for value in self.domains[attr_index]:
            try:
                perm.append(target_code_of[value])
            except KeyError:
                raise DatasetError(
                    f"cannot remap PO attribute {self.names[attr_index]!r}: value "
                    f"{value!r} is absent from the encoding domain"
                ) from None
        return perm


class EncodedFrame:
    """One dataset encoded once as contiguous per-attribute columns.

    Attributes
    ----------
    schema:
        The schema the frame was encoded under.
    to:
        Canonical TO values, shape ``(n, num_total_order)`` — a read-only
        float64 array (NumPy backend, shared with the dataset's memoized
        numeric matrix) or a tuple of row tuples (fallback backend).
    codes:
        PO codes in the codec's canonical space, shape
        ``(n, num_partial_order)`` — an int32 array or a tuple of row tuples.
    codec:
        The :class:`ColumnCodec` defining the code space.
    """

    __slots__ = ("schema", "codec", "to", "codes", "_length")

    def __init__(self, schema: Schema, codec: ColumnCodec, to, codes, length: int) -> None:
        self.schema = schema
        self.codec = codec
        self.to = to
        self.codes = codes
        self._length = length

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dataset(cls, dataset: "Dataset") -> "EncodedFrame":
        """Encode a dataset column-wise (vectorized when NumPy is available)."""
        schema = dataset.schema
        codec = ColumnCodec.from_schema(schema)
        np = _numpy_or_none()
        length = len(dataset)
        if np is not None:
            to = (
                dataset.to_numeric_matrix()
                if schema.num_total_order
                else np.empty((length, 0), dtype=float)
            )
            codes = np.empty((length, schema.num_partial_order), dtype=np.int32)
            for attr_index, name in enumerate(codec.names):
                codes[:, attr_index] = codec.encode_column(
                    attr_index, dataset.column(name)
                )
            codes.flags.writeable = False
            return cls(schema, codec, to, codes, length)
        to_rows = tuple(
            schema.canonical_to_values(record.values)
            # Ingest boundary: records are encoded into a frame exactly once.
            for record in dataset.records  # reprolint: disable=no-record-hot-path -- ingest boundary
        )
        code_columns = [
            codec.encode_column(attr_index, dataset.column(name))
            for attr_index, name in enumerate(codec.names)
        ]
        codes = tuple(zip(*code_columns)) if code_columns else tuple(() for _ in range(length))
        return cls(schema, codec, to_rows, codes, length)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._length

    @property
    def num_total_order(self) -> int:
        return self.schema.num_total_order

    @property
    def num_partial_order(self) -> int:
        return len(self.codec.names)

    @property
    def uses_numpy(self) -> bool:
        return not isinstance(self.to, tuple)

    def row(self, index: int):
        """``(to_values, po_codes)`` of one row (views, no conversion)."""
        return self.to[index], self.codes[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backend = "numpy" if self.uses_numpy else "tuple"
        return f"EncodedFrame(n={self._length}, backend={backend}, schema={self.schema!r})"

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def take(self, indices: Sequence[int]) -> "EncodedFrame":
        """A row-subset frame (shard slicing; rows are re-numbered 0..n-1)."""
        if self.uses_numpy:
            np = _numpy_or_none()
            index_array = np.asarray(indices, dtype=np.intp)
            return EncodedFrame(
                self.schema,
                self.codec,
                self.to[index_array],
                self.codes[index_array],
                int(len(index_array)),
            )
        to = tuple(self.to[i] for i in indices)
        codes = tuple(self.codes[i] for i in indices)
        return EncodedFrame(self.schema, self.codec, to, codes, len(to))

    def gather_to(self, rows: Sequence[int] | None):
        """The TO matrix restricted to ``rows`` (``None`` = every row).

        The full-frame case stays zero-copy; a row subset is one vectorized
        gather (a transient per-call block, not a persistent reduced frame).
        """
        if rows is None:
            return self.to
        if self.uses_numpy:
            np = _numpy_or_none()
            return self.to[np.asarray(rows, dtype=np.intp)]
        return tuple(self.to[i] for i in rows)

    @staticmethod
    def take_rows(block, positions: Sequence[int]):
        """Rows ``positions`` of a block this frame hands out (from
        :meth:`gather_to` or :meth:`remap_codes`): a NumPy fancy index, or a
        list gather from a tuple of row tuples."""
        if isinstance(block, (tuple, list)):
            return [block[position] for position in positions]
        return block[positions]

    def po_groups(
        self, rows: Sequence[int] | None = None
    ) -> tuple[list[tuple[int, ...]], list[list[int]]]:
        """Group ``rows`` (``None`` = every row) by PO-code combination.

        Returns ``(keys, members)``: the distinct code tuples in order of
        first appearance and, per key, its frame rows in ``rows`` order.  The one
        grouping shared by the prefilter, the candidate tracker and the
        engine's group path (:func:`group_rows` on NumPy frames).
        """
        if self.uses_numpy:
            if rows is None:
                unique, positions = group_rows(self.codes)
                members = [group.tolist() for group in positions]
            else:
                index = _numpy_or_none().asarray(rows, dtype="intp")
                unique, positions = group_rows(self.codes[index])
                members = [index[group].tolist() for group in positions]
            return [tuple(key) for key in unique.tolist()], members
        by_key: dict[tuple[int, ...], list[int]] = {}
        for row in range(self._length) if rows is None else rows:
            by_key.setdefault(tuple(self.codes[row]), []).append(row)
        return list(by_key), list(by_key.values())

    def remap_codes(
        self,
        code_maps: Sequence[Mapping[Value, int]],
        rows: Sequence[int] | None = None,
    ):
        """The code matrix translated into another per-attribute code space.

        ``code_maps`` holds one value-to-code mapping per PO attribute (e.g.
        ``table.code_of`` of a query's :class:`~repro.kernels.tables.
        RecordTables`, or an encoding's topological positions).  Identity
        remaps return the frame's own columns unchanged (zero-copy); anything
        else is one O(domain) permutation build plus a vectorized gather.
        ``rows`` restricts the result to a row subset (positions in the
        returned matrix follow the order of ``rows``) without materializing a
        reduced frame first.
        """
        if len(code_maps) != self.num_partial_order:
            raise DatasetError(
                f"remap_codes needs one code map per PO attribute "
                f"({self.num_partial_order}), got {len(code_maps)}"
            )
        perms = [
            self.codec.permutation_to(attr_index, code_map)
            for attr_index, code_map in enumerate(code_maps)
        ]
        np = _numpy_or_none() if self.uses_numpy else None
        if self.uses_numpy and rows is not None:
            codes = self.codes[np.asarray(rows, dtype=np.intp)]
        elif rows is not None:
            codes = tuple(self.codes[i] for i in rows)
        else:
            codes = self.codes
        if all(perm == list(range(len(perm))) for perm in perms):
            return codes
        if self.uses_numpy:
            remapped = np.empty_like(codes)
            remapped.flags.writeable = True
            for attr_index, perm in enumerate(perms):
                table = np.asarray(perm, dtype=np.int32)
                remapped[:, attr_index] = table[codes[:, attr_index]]
            return remapped
        return tuple(
            tuple(perm[code] for perm, code in zip(perms, row)) for row in codes
        )

    def monotone_keys(
        self,
        depth_columns: Sequence[Sequence[float]],
        rows: Sequence[int] | None = None,
    ):
        """The SFS monotone sort key of every row, bitwise identical to the
        record path's :func:`~repro.skyline.sfs.monotone_sort_key`.

        ``depth_columns`` holds, per PO attribute, the DAG depth of every
        *canonical-code* value.  Accumulation order matches the scalar key —
        TO columns left to right, then PO depths in attribute order — so the
        float results (and thus any sort built on them) are identical.
        ``rows`` restricts the keys to a row subset, in ``rows`` order.
        """
        if self.uses_numpy:
            np = _numpy_or_none()
            if rows is None:
                to, codes, length = self.to, self.codes, self._length
            else:
                index_array = np.asarray(rows, dtype=np.intp)
                to, codes, length = (
                    self.to[index_array],
                    self.codes[index_array],
                    int(len(index_array)),
                )
            keys = np.zeros(length, dtype=float)
            for column in range(self.num_total_order):
                keys += to[:, column]
            for attr_index, depths in enumerate(depth_columns):
                keys += np.asarray(depths, dtype=float)[codes[:, attr_index]]
            return keys
        row_iter = (
            zip(self.to, self.codes)
            if rows is None
            else ((self.to[i], self.codes[i]) for i in rows)
        )
        keys = []
        for to_row, code_row in row_iter:
            score = 0.0
            for value in to_row:
                score += value
            for depths, code in zip(depth_columns, code_row):
                score += depths[code]
            keys.append(score)
        return keys
