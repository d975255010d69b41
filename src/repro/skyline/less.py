"""LESS: Linear Elimination Sort for Skyline (Godfrey, Shipley, Gryz).

LESS improves on SFS (Section II-A of the paper lists it among the scan-based
algorithms exhibiting *precedence*) by eliminating records already during the
sorting phase:

1. **Elimination-filter pass** — while the input is being read for sorting, a
   small window of the best records seen so far (lowest monotone score) is
   maintained; every incoming record is dropped immediately if a window
   record dominates it, and window records dominated by an incoming record
   with a better score are replaced.
2. **Filter pass** — the surviving records are sorted by the monotone
   preference function and filtered exactly like SFS: a record that is not
   dominated by any previously kept record is a skyline record and can be
   output immediately (optimal progressiveness).

Like the other scan-based algorithms in this package, LESS works on mixed
TO/PO schemas through the ground-truth record dominance predicate, so its
output is always the exact skyline.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.data.columns import EncodedFrame, numpy_available
from repro.data.dataset import Dataset, Record
from repro.exceptions import DatasetError
from repro.kernels import resolve_kernel
from repro.kernels.tables import RecordTables
from repro.skyline.base import RunClock, SkylineResult, SkylineStats
from repro.skyline.dominance import RecordEncoder, record_store_for
from repro.skyline.sfs import depth_columns, monotone_sort_key

#: Default size of the elimination-filter window (records).
DEFAULT_FILTER_WINDOW = 16


def less_skyline(
    dataset: Dataset | None = None,
    *,
    filter_window: int = DEFAULT_FILTER_WINDOW,
    dominates: Callable[[Record, Record], bool] | None = None,
    key: Callable[[Record], float] | None = None,
    kernel=None,
    frame: EncodedFrame | None = None,
) -> SkylineResult:
    """Compute the skyline of ``dataset`` with LESS.

    Parameters
    ----------
    dataset:
        The input relation (mixed TO/PO schemas supported).
    filter_window:
        Maximum number of elite records kept in the elimination filter during
        the first pass; ``0`` disables elimination and makes LESS degenerate
        to SFS.
    dominates / key:
        Optional overrides for the dominance predicate and the monotone sort
        key (defaults: ground-truth record dominance and the canonical
        TO-sum + PO-depth score).  Passing ``dominates`` falls back to the
        record-at-a-time reference path.
    kernel:
        Dominance kernel backend (instance, name or ``None`` for the process
        default) used for both the elimination filter and the SFS filter.
    frame:
        An :class:`~repro.data.columns.EncodedFrame` to scan instead of the
        record tuples (a bare dataset is encoded first while NumPy imports).
        ``dataset`` may be ``None`` when a frame is supplied.
    """
    if dataset is None and frame is None:
        raise DatasetError("less_skyline needs a dataset or an encoded frame")
    schema = dataset.schema if dataset is not None else frame.schema
    if dominates is None and key is None:
        if frame is None and numpy_available():
            frame = EncodedFrame.from_dataset(dataset)
        if frame is not None:
            return _less_skyline_frame(schema, frame, filter_window, kernel)
    if dataset is None:
        raise DatasetError(
            "less_skyline needs a dataset when a custom key or dominance "
            "predicate bypasses the columnar path"
        )
    key = key or monotone_sort_key(schema)
    if dominates is None:
        return _less_skyline_kernel(dataset, filter_window, key, kernel)
    return _less_skyline_predicate(dataset, filter_window, dominates, key)


def _less_skyline_frame(schema, frame, filter_window, kernel) -> SkylineResult:
    """Columnar LESS: both passes stream pre-encoded frame rows.

    Same verdict sequence as the record kernel path (identical ids and
    dominance-check counts) — the elimination filter and the SFS filter just
    read rows out of the frame instead of encoding records one at a time.
    """
    stats = SkylineStats()
    clock = RunClock(stats)
    tables = RecordTables.from_schema(schema)
    codes = frame.remap_codes([table.code_of for table in tables.attributes])
    keys = frame.monotone_keys(depth_columns(schema, frame))
    kern = resolve_kernel(kernel)
    to = frame.to

    # Pass 1: elimination filter while "reading the input for sorting".
    elite_store = kern.record_store(tables)
    elite_scores: list[float] = []
    survivors: list[int] = []
    for row in range(len(frame)):
        stats.points_examined += 1
        if elite_store.any_dominates(to[row], codes[row], counter=stats):
            continue
        survivors.append(row)
        if filter_window <= 0:
            continue
        score = keys[row]
        if len(elite_scores) < filter_window:
            elite_store.append(to[row], codes[row])
            elite_scores.append(score)
        else:
            worst = max(range(len(elite_scores)), key=elite_scores.__getitem__)
            if score < elite_scores[worst]:
                elite_store.compress([i != worst for i in range(len(elite_scores))])
                del elite_scores[worst]
                elite_store.append(to[row], codes[row])
                elite_scores.append(score)

    # Pass 2: sort the survivors and filter like SFS.
    survivors.sort(key=keys.__getitem__)
    skyline_store = kern.record_store(tables)
    skyline_ids: list[int] = []
    for row in survivors:
        if not skyline_store.any_dominates(to[row], codes[row], counter=stats):
            skyline_store.append(to[row], codes[row])
            skyline_ids.append(row)
            clock.record_result()

    clock.finish()
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)


def _less_skyline_kernel(dataset, filter_window, key, kernel) -> SkylineResult:
    """Kernel path: both passes scan blocks through the dominance kernel."""
    stats = SkylineStats()
    clock = RunClock(stats)
    encoder = RecordEncoder(dataset.schema)

    # ------------------------------------------------------------------ #
    # Pass 1: elimination filter while "reading the input for sorting".
    # The elite window is a kernel store plus a parallel score list; the
    # worst-scoring member is replaced when a better-scoring record arrives.
    # ------------------------------------------------------------------ #
    _, elite_store = record_store_for(dataset.schema, kernel, encoder=encoder)
    elite_scores: list[float] = []
    survivors: list[tuple[Record, tuple[tuple[float, ...], tuple[int, ...]]]] = []
    for record in dataset.records:
        stats.points_examined += 1
        score = key(record)
        encoded = encoder.encode(record)
        if elite_store.any_dominates(*encoded, counter=stats):
            continue
        survivors.append((record, encoded))
        if filter_window <= 0:
            continue
        if len(elite_scores) < filter_window:
            elite_store.append(*encoded)
            elite_scores.append(score)
        else:
            worst = max(range(len(elite_scores)), key=elite_scores.__getitem__)
            if score < elite_scores[worst]:
                keep = [i != worst for i in range(len(elite_scores))]
                elite_store.compress(keep)
                del elite_scores[worst]
                elite_store.append(*encoded)
                elite_scores.append(score)

    # ------------------------------------------------------------------ #
    # Pass 2: sort the survivors and filter like SFS.
    # ------------------------------------------------------------------ #
    survivors.sort(key=lambda item: key(item[0]))
    _, skyline_store = record_store_for(dataset.schema, kernel, encoder=encoder)
    skyline_ids: list[int] = []
    for record, encoded in survivors:
        if not skyline_store.any_dominates(*encoded, counter=stats):
            skyline_store.append(*encoded)
            skyline_ids.append(record.id)
            clock.record_result()

    clock.finish()
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)


def _less_skyline_predicate(dataset, filter_window, dominates, key) -> SkylineResult:
    """Reference path: record-at-a-time scans with a custom predicate."""
    stats = SkylineStats()
    clock = RunClock(stats)

    elite: list[tuple[float, Record]] = []
    survivors: list[Record] = []
    for record in dataset.records:
        stats.points_examined += 1
        score = key(record)
        eliminated = False
        for _, resident in elite:
            stats.dominance_checks += 1
            if dominates(resident, record):
                eliminated = True
                break
        if eliminated:
            continue
        survivors.append(record)
        if filter_window > 0:
            _update_filter(elite, record, score, filter_window)

    survivors.sort(key=key)
    skyline: list[Record] = []
    skyline_ids: list[int] = []
    for record in survivors:
        dominated = False
        for resident in skyline:
            stats.dominance_checks += 1
            if dominates(resident, record):
                dominated = True
                break
        if not dominated:
            skyline.append(record)
            skyline_ids.append(record.id)
            clock.record_result()

    clock.finish()
    return SkylineResult(skyline_ids=skyline_ids, stats=stats, progress=clock.progress)


def _update_filter(
    elite: list[tuple[float, Record]], record: Record, score: float, capacity: int
) -> None:
    """Keep the elimination filter populated with the best-scoring records."""
    if len(elite) < capacity:
        elite.append((score, record))
        elite.sort(key=lambda item: item[0])
        return
    worst_score, _ = elite[-1]
    if score < worst_score:
        elite[-1] = (score, record)
        elite.sort(key=lambda item: item[0])
