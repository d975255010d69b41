"""The append-only :class:`DeltaFrame`: encoded inserts + tombstones.

A :class:`DeltaFrame` layers mutations over an immutable base
:class:`~repro.data.columns.EncodedFrame`:

* **Inserts** are encoded on arrival into the base codec's *canonical*
  column layout (one float TO row + one int code row per record) and
  appended to in-memory buffers; :meth:`frame` presents the base rows
  followed by every insert as one ordinary
  :class:`~repro.data.columns.EncodedFrame` — one row space, so the
  engine's candidate tracker, its kernels and compaction read base rows
  and inserts the same way.
* **Deletes** tombstone a stable record id — a base row or an earlier
  insert — without touching any column.

Stable ids are the contract with callers: base row ``r`` answers to id
``base_ids[r]`` (identity when ``base_ids`` is ``None``), inserts are
numbered from :attr:`next_id` upward, and ids are never reused.  Compaction
(:meth:`live_frame_and_ids`) folds the live rows into a fresh base frame
whose ``row -> id`` mapping keeps every surviving id; the delta over that new
base must be handed the old :attr:`next_id` (the allocation high-water mark),
since the highest ids may have been deleted and folded away.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence

from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.exceptions import QueryError

Value = Hashable


def decode_frame_rows(frame: EncodedFrame) -> list[tuple]:
    """Original attribute-value tuples of the frame's rows (schema order).

    The inverse of :meth:`EncodedFrame.from_dataset`: canonical TO values are
    mapped back through each attribute's direction (max-attributes were
    negated) and PO codes decoded through the codec's domains.
    """
    schema = frame.schema
    codec = frame.codec
    indices = range(len(frame))
    columns: list[list] = []
    to_index = 0
    po_index = 0
    for attribute in schema.attributes:
        if attribute.is_partial:
            domain = codec.domains[po_index]
            if frame.uses_numpy:
                columns.append([domain[int(frame.codes[r, po_index])] for r in indices])
            else:
                columns.append([domain[frame.codes[r][po_index]] for r in indices])
            po_index += 1
        else:
            if frame.uses_numpy:
                values = [float(frame.to[r, to_index]) for r in indices]
            else:
                values = [frame.to[r][to_index] for r in indices]
            if attribute.best == "max":
                values = [-value for value in values]
            columns.append(values)
            to_index += 1
    length = len(columns[0]) if columns else 0
    return [tuple(column[i] for column in columns) for i in range(length)]


def dataset_from_frame(frame: EncodedFrame) -> Dataset:
    """A record :class:`~repro.data.dataset.Dataset` over an encoded frame —
    record ``i`` is row ``i``."""
    return Dataset(frame.schema, decode_frame_rows(frame), validate=False)


class DeltaFrame:
    """Append-only insert blocks + tombstones over an immutable base frame."""

    def __init__(
        self,
        base: EncodedFrame,
        *,
        base_ids: Sequence[int] | None = None,
        next_id: int | None = None,
    ) -> None:
        self.base = base
        self.schema: Schema = base.schema
        self.codec = base.codec
        self.base_ids = None if base_ids is None else [int(i) for i in base_ids]
        if self.base_ids is not None and len(self.base_ids) != len(base):
            raise QueryError(
                f"base_ids has {len(self.base_ids)} entries for a "
                f"{len(base)}-row base frame"
            )
        self._base_row_of = (
            None
            if self.base_ids is None
            else {id_: row for row, id_ in enumerate(self.base_ids)}
        )
        first_free = (
            len(base)
            if self.base_ids is None
            else (max(self.base_ids) + 1 if self.base_ids else 0)
        )
        self.next_id = first_free if next_id is None else max(int(next_id), first_free)
        self._insert_to: list[tuple[float, ...]] = []
        self._insert_codes: list[tuple[int, ...]] = []
        self._insert_ids: list[int] = []
        self._insert_pos_of = {}
        self._dead_base_rows: set[int] = set()
        self._dead_inserts: set[int] = set()
        #: Mutation rows applied since the base was packed/adopted — the
        #: quantity the auto-compaction threshold is compared against.
        self.mutations = 0
        self._frame: EncodedFrame | None = None
        #: NumPy backing of :meth:`frame`: base rows then inserts, in
        #: capacity-doubling ``(to, codes)`` blocks, built on the first insert.
        self._blocks = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def num_inserts(self) -> int:
        """Insert rows buffered (live or tombstoned)."""
        return len(self._insert_ids)

    @property
    def num_live(self) -> int:
        return (
            len(self.base)
            - len(self._dead_base_rows)
            + len(self._insert_ids)
            - len(self._dead_inserts)
        )

    @property
    def num_base_deletes(self) -> int:
        return len(self._dead_base_rows)

    @property
    def live_insert_count(self) -> int:
        return len(self._insert_ids) - len(self._dead_inserts)

    def stable_id_of_base_row(self, row: int) -> int:
        return row if self.base_ids is None else self.base_ids[row]

    def dead_rows(self) -> list[int]:
        """Ascending rows of :meth:`frame` that are tombstoned."""
        num_base = len(self.base)
        rows = sorted(self._dead_base_rows)
        rows.extend(num_base + pos for pos in sorted(self._dead_inserts))
        return rows

    def _resolve_base_row(self, record_id: int) -> int | None:
        if self._base_row_of is not None:
            return self._base_row_of.get(record_id)
        return record_id if 0 <= record_id < len(self.base) else None

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def _encode_row(self, row) -> tuple[tuple, tuple[float, ...], tuple[int, ...]]:
        values = tuple(row)
        self.schema.validate_row(values)
        to_values = self.schema.canonical_to_values(values)
        po_values = self.schema.partial_values(values)
        codes = tuple(
            self.codec.code_of[attr_index][value]
            for attr_index, value in enumerate(po_values)
        )
        return values, to_values, codes

    def insert_rows(self, rows: Sequence[Sequence[Value]]) -> list[int]:
        """Validate, encode and append a batch of rows; returns their new ids."""
        encoded = [self._encode_row(row) for row in rows]
        ids: list[int] = []
        for _, to_values, codes in encoded:
            ids.append(self._append_insert(self.next_id, to_values, codes))
        self.mutations += len(ids)
        return ids

    def replay_insert(self, record_id: int, to_values, codes) -> int:
        """Re-apply one already-encoded insert (delta-log replay path)."""
        appended = self._append_insert(
            int(record_id), tuple(float(v) for v in to_values), tuple(int(c) for c in codes)
        )
        self.mutations += 1
        return appended

    def _append_insert(self, record_id: int, to_values, codes) -> int:
        if record_id in self._insert_pos_of or self._resolve_base_row(record_id) is not None:
            raise QueryError(f"record id {record_id} already exists")
        position = len(self._insert_ids)
        self._insert_to.append(to_values)
        self._insert_codes.append(codes)
        self._insert_ids.append(record_id)
        self._insert_pos_of[record_id] = position
        self.next_id = max(self.next_id, record_id + 1)
        return record_id

    def insert_payload(
        self, record_ids: Sequence[int]
    ) -> tuple[list[tuple[float, ...]], list[tuple[int, ...]]]:
        """``(to_rows, code_rows)`` of already-applied inserts, by id — the
        encoded form the delta log persists."""
        positions = [self._insert_pos_of[int(record_id)] for record_id in record_ids]
        return (
            [self._insert_to[pos] for pos in positions],
            [self._insert_codes[pos] for pos in positions],
        )

    def delete_ids(self, record_ids: Sequence[int]) -> tuple[list[int], list[int]]:
        """Tombstone stable ids; returns ``(newly deleted ids, their rows)``.

        The rows are rows of :meth:`frame` (a base row, or ``len(base) + p``
        for insert position ``p``).
        Already-dead ids are ignored (idempotent, which keeps delta-log
        replay simple) — including ids below :attr:`next_id` that a
        compaction folded away; ids that were never allocated raise
        :class:`~repro.exceptions.QueryError`.
        """
        removed: list[int] = []
        rows: list[int] = []
        for record_id in record_ids:
            record_id = int(record_id)
            position = self._insert_pos_of.get(record_id)
            if position is not None:
                if position not in self._dead_inserts:
                    self._dead_inserts.add(position)
                    removed.append(record_id)
                    rows.append(len(self.base) + position)
                continue
            row = self._resolve_base_row(record_id)
            if row is None:
                if 0 <= record_id < self.next_id:
                    continue  # allocated once, deleted before a compaction
                raise QueryError(f"cannot delete unknown record id {record_id}")
            if row not in self._dead_base_rows:
                self._dead_base_rows.add(row)
                removed.append(record_id)
                rows.append(row)
        self.mutations += len(removed)
        return removed, rows

    # ------------------------------------------------------------------ #
    # Live views
    # ------------------------------------------------------------------ #
    def live_rows(self) -> list[int]:
        """Ascending rows of :meth:`frame` that are still live."""
        dead = set(self.dead_rows())
        return [row for row in range(len(self.base) + len(self._insert_ids)) if row not in dead]

    def stable_id_of_row(self, row: int) -> int:
        """The stable id of any row of :meth:`frame`."""
        num_base = len(self.base)
        if row < num_base:
            return self.stable_id_of_base_row(row)
        return self._insert_ids[row - num_base]

    def frame(self) -> EncodedFrame:
        """The base rows followed by every buffered insert, as one frame.

        Row ``len(base) + p`` is insert position ``p``; tombstoned rows are
        *included* so rows stay stable (:meth:`live_rows` lists the live
        ones).  The base itself while nothing was inserted.  NumPy-backed
        frames are read-only ``[:n]`` views of one capacity-doubling block, so
        an insert batch copies only its own rows and an earlier frame keeps
        its rows; tuple-backed frames extend the last frame.
        """
        length = len(self.base) + len(self._insert_ids)
        previous = self.base if self._frame is None else self._frame
        if len(previous) == length:
            return previous
        if self.base.uses_numpy:
            to, codes = self._grow_blocks()
        else:
            start = len(previous) - len(self.base)
            to = previous.to + tuple(self._insert_to[start:])
            codes = previous.codes + tuple(self._insert_codes[start:])
        self._frame = EncodedFrame(self.schema, self.codec, to, codes, length)
        return self._frame

    def _grow_blocks(self):
        """Append the inserts the NumPy blocks lack and return read-only
        views of every row so far."""
        if self._blocks is None:
            from repro.kernels.numpy_kernel import GrowableMatrix

            self._blocks = (
                GrowableMatrix(self.schema.num_total_order, self.base.to.dtype),
                GrowableMatrix(self.schema.num_partial_order, self.base.codes.dtype),
            )
            self._blocks[0].extend(self.base.to)
            self._blocks[1].extend(self.base.codes)
        to_block, code_block = self._blocks
        start = len(to_block) - len(self.base)
        to_block.extend(self._insert_to[start:])
        code_block.extend(self._insert_codes[start:])
        to, codes = to_block.view, code_block.view
        to.flags.writeable = False
        codes.flags.writeable = False
        return to, codes

    def live_frame_and_ids(self) -> tuple[EncodedFrame, list[int]]:
        """The live rows folded into one fresh frame, plus its stable ids.

        The compaction product: base live rows first (base order), then live
        inserts (arrival order) — each paired with the id it keeps, so
        ``ids[r]`` is the new base's ``row -> stable id`` mapping.
        """
        rows = self.live_rows()
        return self.frame().take(rows), [self.stable_id_of_row(row) for row in rows]
