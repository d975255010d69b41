"""Sharding strategies for the parallel executor.

:func:`partition_frame` splits an :class:`~repro.data.columns.EncodedFrame`
into a fixed number of :class:`Shard` objects; a frame row's position plays
the record id.  Correctness of the divide-and-conquer skyline (local
skylines + cross-shard merge) does not depend on the strategy — any
partition works — but the strategy shapes the constants:

* ``"round-robin"`` — deal rows out cyclically.  Shard sizes differ by at
  most one, and rows that are adjacent in generation order (often
  correlated) land on different shards.
* ``"po-group"`` — keep all rows that share one PO value combination (one
  PO-code row) on the same shard (largest groups first, each assigned to the
  currently smallest shard).  Rows of a group tie on every PO attribute
  under every preference DAG, so their mutual dominance is decided by the TO
  attributes alone; co-locating them lets the per-shard skyline pass resolve
  those fights locally instead of deferring them to the merge phase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.columns import EncodedFrame
from repro.exceptions import QueryError

#: The recognized partitioning strategies.
PARTITIONERS = ("round-robin", "po-group")


@dataclass(frozen=True)
class Shard:
    """One horizontal slice of a frame.

    ``record_ids[i]`` is the parent-frame row of the shard row with local id
    ``i``, so local skyline ids map back to parent rows by indexing.
    """

    shard_id: int
    record_ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.record_ids)


def _round_robin_rows(length: int, num_shards: int) -> list[list[int]]:
    assignments: list[list[int]] = [[] for _ in range(num_shards)]
    for row in range(length):
        assignments[row % num_shards].append(row)
    return assignments


def _po_group_rows(frame: EncodedFrame, num_shards: int) -> list[list[int]]:
    """Longest-processing-time placement of the PO-code groups.

    For TO-only schemas every row is its own group, which degenerates to a
    balanced — but order-scrambled — assignment, so round-robin is used
    instead.
    """
    if not frame.schema.num_partial_order:
        return _round_robin_rows(len(frame), num_shards)
    groups: dict[tuple, list[int]] = {}
    if frame.uses_numpy:
        for row in range(len(frame)):
            groups.setdefault(tuple(frame.codes[row].tolist()), []).append(row)
    else:
        for row, code_row in enumerate(frame.codes):
            groups.setdefault(tuple(code_row), []).append(row)
    assignments: list[list[int]] = [[] for _ in range(num_shards)]
    # Sort by (size desc, first row) so the assignment is deterministic.
    for member_ids in sorted(groups.values(), key=lambda ids: (-len(ids), ids[0])):
        smallest = min(range(num_shards), key=lambda i: len(assignments[i]))
        assignments[smallest].extend(member_ids)
    for ids in assignments:
        ids.sort()
    return assignments


def partition_frame(
    frame: EncodedFrame, num_shards: int, strategy: str = "round-robin"
) -> list[Shard]:
    """Cut an encoded frame into exactly ``num_shards`` shards."""
    if num_shards < 1:
        raise QueryError(f"num_shards must be >= 1, got {num_shards}")
    if strategy == "round-robin":
        assignments = _round_robin_rows(len(frame), num_shards)
    elif strategy == "po-group":
        assignments = _po_group_rows(frame, num_shards)
    else:
        raise QueryError(f"unknown partitioner {strategy!r}; known: {sorted(PARTITIONERS)}")
    return [
        Shard(shard_id=shard_id, record_ids=tuple(ids))
        for shard_id, ids in enumerate(assignments)
    ]
