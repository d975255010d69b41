"""Block Nested Loops (BNL) skyline computation.

The original external-memory skyline algorithm of Börzsönyi, Kossmann and
Stocker (ICDE 2001).  A window of candidate skyline records is maintained;
each incoming record is compared against the window: it is discarded if
dominated, evicts window records it dominates, and otherwise joins the window
(or is written to a temporary file / overflow list when the window is full,
triggering another pass).

BNL is *not* progressive — no record can be reported before the pass in which
it entered the window completes — which is one of the motivations for the
index-based methods the paper builds on.

The passes visit the rows of the dataset's
:class:`~repro.data.columns.EncodedFrame` in record order; the window,
overflow and carried candidates are row indices into it.
"""

from __future__ import annotations

from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.kernels import resolve_kernel
from repro.kernels.tables import RecordTables
from repro.skyline.base import RunClock, SkylineResult, SkylineStats


def bnl_skyline(
    dataset: Dataset,
    *,
    window_size: int | None = None,
    kernel=None,
) -> SkylineResult:
    """Compute the skyline of ``dataset`` with Block Nested Loops.

    Parameters
    ----------
    dataset:
        The input relation (mixed TO/PO schemas are supported through
        ground-truth dominance).
    window_size:
        Maximum number of candidate records kept in memory per pass; ``None``
        means unbounded (a single pass).
    kernel:
        Dominance kernel backend used for the window scans (instance, name
        or ``None`` for the process default): the candidate-vs-window test is
        one block dominance call.
    """
    stats = SkylineStats()
    clock = RunClock(stats)
    frame = EncodedFrame.from_dataset(dataset)
    tables = RecordTables.from_schema(dataset.schema)
    codes = frame.remap_codes([table.code_of for table in tables.attributes])
    to = frame.to

    # Window entries carry the sequence number at which they entered the
    # window.  A window record can only be confirmed at the end of a pass if
    # it entered *before* the first record of that pass was pushed to the
    # overflow file — otherwise it has not been compared against every
    # deferred record and must be carried into the next pass as a candidate.
    # The kernel store holds the window's rows in the same order as
    # ``window``.
    window_store = resolve_kernel(kernel).record_store(tables)
    window: list[tuple[int, int]] = []
    confirmed: list[int] = []
    pending: list[int] = list(range(len(frame)))

    while pending:
        overflow: list[int] = []
        first_overflow_sequence: int | None = None
        for sequence, row in enumerate(pending, start=1):
            stats.points_examined += 1
            dominated, evicted = window_store.dominance_masks(to[row], codes[row], counter=stats)
            if dominated:
                # Window members form an antichain, so a dominated candidate
                # cannot evict anyone: the window is unchanged.
                continue
            if any(evicted):
                keep = [not flag for flag in evicted]
                window_store.compress(keep)
                window = [entry for entry, k in zip(window, keep) if k]
            if window_size is None or len(window) < window_size:
                window_store.append(to[row], codes[row])
                window.append((sequence, row))
            else:
                if first_overflow_sequence is None:
                    first_overflow_sequence = sequence
                overflow.append(row)

        carried: list[int] = []
        for inserted_at, row in window:
            if first_overflow_sequence is None or inserted_at < first_overflow_sequence:
                confirmed.append(row)
                clock.record_result()
            else:
                carried.append(row)
        window = []
        window_store.compress([False] * len(window_store))
        pending = carried + overflow

    clock.finish()
    return SkylineResult(skyline_ids=sorted(confirmed), stats=stats, progress=clock.progress)
