"""Pinned answers of the dynamic figures (Figures 12 and 13, quick profile).

The figures' timings vary from run to run, but their IO counts and skyline
sizes do not: they are fixed by the workloads, the queries, the R-tree
traversal order and the dominance verdicts.  Both dominance kernels must
print the same columns, so the pins guard dTSS's checks and the best-first
traversal that dTSS and the SDC+ baseline share.  No wall time is read.
"""

import pytest

from repro.bench.experiments import run_experiment
from repro.bench.runner import BenchProfile
from repro.kernels import available_kernels
from tests.conftest import default_kernel

#: Per figure: (distribution, axis value, SDC+ IOs, TSS IOs, skyline) rows.
PINNED = {
    "fig12": (
        "N",
        [
            ("independent", 100, 19, 14, 32),
            ("independent", 250, 37, 15, 36),
            ("independent", 500, 73, 31, 62),
            ("independent", 1000, 130, 52, 86),
            ("independent", 2000, 216, 61, 91),
            ("anticorrelated", 100, 19, 15, 74),
            ("anticorrelated", 250, 33, 15, 139),
            ("anticorrelated", 500, 75, 29, 192),
            ("anticorrelated", 1000, 134, 63, 306),
            ("anticorrelated", 2000, 244, 90, 420),
        ],
    ),
    "fig13": (
        "(|TO|,|PO|)",
        [
            ("independent", (2, 1), 91, 30, 24),
            ("independent", (3, 1), 108, 45, 83),
            ("independent", (4, 1), 104, 46, 183),
            ("independent", (2, 2), 116, 77, 85),
            ("independent", (3, 2), 116, 146, 212),
            ("independent", (4, 2), 116, 193, 328),
            ("anticorrelated", (2, 1), 106, 46, 67),
            ("anticorrelated", (3, 1), 104, 49, 271),
            ("anticorrelated", (4, 1), 108, 47, 509),
            ("anticorrelated", (2, 2), 114, 190, 215),
            ("anticorrelated", (3, 2), 112, 213, 436),
            ("anticorrelated", (4, 2), 108, 216, 582),
        ],
    ),
}


@pytest.mark.parametrize("kernel", available_kernels())
def test_quick_profile_ios_and_skylines_are_pinned(kernel):
    with default_kernel(kernel):
        tables = {
            experiment_id: run_experiment(experiment_id, BenchProfile.quick())
            for experiment_id in PINNED
        }
    for experiment_id, (axis, expected) in PINNED.items():
        got = [
            (
                row["distribution"],
                row[axis],
                row["SDC+ IOs"],
                row["TSS IOs"],
                row["skyline"],
            )
            for row in tables[experiment_id].rows
        ]
        assert got == expected, experiment_id
