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
TO/PO schemas through the ground-truth dominance relation, evaluated in
blocks by the dominance kernel over the rows of an
:class:`~repro.data.columns.EncodedFrame`, so its output is always the exact
skyline.
"""

from __future__ import annotations

from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.exceptions import DatasetError
from repro.kernels import resolve_kernel
from repro.kernels.tables import RecordTables
from repro.skyline.base import RunClock, SkylineResult, SkylineStats
from repro.skyline.sfs import depth_columns

#: Default size of the elimination-filter window (records).
DEFAULT_FILTER_WINDOW = 16


def less_skyline(
    dataset: Dataset | None = None,
    *,
    filter_window: int = DEFAULT_FILTER_WINDOW,
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
    kernel:
        Dominance kernel backend (instance, name or ``None`` for the process
        default) used for both the elimination filter and the SFS filter.
    frame:
        The dataset's :class:`~repro.data.columns.EncodedFrame`; a bare
        dataset is encoded first.  ``dataset`` may be ``None`` when a frame
        is supplied.
    """
    if dataset is None and frame is None:
        raise DatasetError("less_skyline needs a dataset or an encoded frame")
    if frame is None:
        frame = EncodedFrame.from_dataset(dataset)
    schema = frame.schema
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
