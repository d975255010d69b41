"""Group-at-a-time skylines over the prefilter's per-PO-group fronts.

The engine's candidate rows are the per-group local skylines of Section V-B:
rows with one PO-code combination tie on every PO attribute under every
query, and the prefilter already dropped the strictly TO-dominated ones, so
no row is ever dominated by a row of its own group.  The
:class:`~repro.delta.candidates.BaseCandidateTracker` keeps those fronts
(across inserts and deletes), and :func:`skyline_rows` answers one query
over them the way dTSS (Section V) does, dominator groups first — but a
whole *level* of groups per kernel call rather than one group per call:

* a group's level is the sum, over the PO attributes, of its value's depth
  (longest preference path from a root) in the query's DAG.  If group ``i``
  dominates group ``j`` — ``i``'s value is preferred-or-equal to ``j``'s on
  every PO attribute, and the keys differ — every depth is at most ``j``'s
  and one is smaller, so ``i`` sits on a strictly lower level: groups on one
  level are mutually incomparable, and every dominator group is final
  before its level is visited;
* the rows kept on the lower levels form one growing t-dominance store, and
  a level keeps the rows that no stored row weakly t-dominates — one
  :meth:`~repro.kernels.base.TDominanceStore.block_weakly_dominated` call
  per level.

Weak t-dominance by a stored row is exact dominance here: the stored row
comes from a different group, so its PO values are preferred-or-equal
everywhere and differ somewhere.  Checking kept rows only loses nothing: a
dominated row is dominated by a kept row of a group that dominates *its*
group, and that group dominates the row's group too (dominance between
groups is transitive).  With no PO attributes every row is on level 0 and
the answer is the single front; with no TO attributes a group falls as soon
as any dominator group kept a row.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.data.columns import EncodedFrame
from repro.delta.candidates import GroupKey
from repro.kernels.tables import TDominanceTables
from repro.order.encoding import DomainEncoding
from repro.skyline.base import SkylineStats


def _levels(
    frame: EncodedFrame,
    fronts: Mapping[GroupKey, list[int]],
    encodings: Sequence[DomainEncoding],
) -> list[list[int]]:
    """The front rows bucketed by their group's level, lowest first."""
    depths = [
        [encoding.depths[value] for value in domain]
        for encoding, domain in zip(encodings, frame.codec.domains)
    ]
    by_level: dict[int, list[int]] = {}
    for key, rows in fronts.items():
        level = sum(depth[code] for depth, code in zip(depths, key))
        by_level.setdefault(level, []).extend(rows)
    return [by_level[level] for level in sorted(by_level)]


def skyline_rows(
    frame: EncodedFrame,
    fronts: Mapping[GroupKey, list[int]],
    encodings: Sequence[DomainEncoding],
    kernel,
    stats: SkylineStats,
) -> list[int]:
    """Ascending ``frame`` rows of the skyline of ``fronts`` under ``encodings``.

    ``fronts`` maps each PO-code combination to its group's front rows.
    ``stats`` is charged the kernel's dominance checks and, as
    ``points_examined``, every front row.
    """
    tables = TDominanceTables.from_encodings(frame.num_total_order, encodings)
    code_maps = [table.code_of for table in tables.attributes]
    store = kernel.tdominance_store(tables)
    kept: list[int] = []
    for rows in _levels(frame, fronts, encodings):
        stats.points_examined += len(rows)
        if len(store):
            dominated = store.block_weakly_dominated(
                frame.gather_to(rows), frame.remap_codes(code_maps, rows), stats
            )
            rows = [row for row, drop in zip(rows, dominated) if not drop]
        store.extend(frame.gather_to(rows), frame.remap_codes(code_maps, rows))
        kept.extend(rows)
    kept.sort()
    return kept
