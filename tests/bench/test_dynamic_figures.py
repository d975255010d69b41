"""Pinned answers of the paper figures (Figures 7-9 and 12-14, quick profile).

The figures' timings vary from run to run, but their IO counts and skyline
sizes do not: they are fixed by the workloads, the queries, the R-tree
traversal order and the dominance verdicts.  Both dominance kernels must
print the same columns, so the pins guard the sTSS mapping and traversal
(Figures 7-9), dTSS's checks (Figures 12-14) and the best-first traversal
that both share with the SDC+ baseline.  No wall time is read.
"""

import pytest

from repro.bench.experiments import run_experiment
from repro.bench.runner import BenchProfile
from repro.kernels import available_kernels
from tests.conftest import default_kernel

#: Per figure: (row label column, axis column) and the pinned
#: (row label, axis value, SDC+ IOs, TSS IOs, skyline) rows.
PINNED = {
    "fig7": (
        ("distribution", "N"),
        [
            ("independent", 100, 9, 5, 52),
            ("independent", 250, 15, 9, 95),
            ("independent", 500, 22, 13, 114),
            ("independent", 1000, 37, 23, 149),
            ("independent", 2000, 71, 44, 189),
            ("anticorrelated", 100, 7, 5, 70),
            ("anticorrelated", 250, 15, 9, 162),
            ("anticorrelated", 500, 25, 17, 256),
            ("anticorrelated", 1000, 49, 33, 353),
            ("anticorrelated", 2000, 93, 75, 497),
        ],
    ),
    "fig8": (
        ("distribution", "(|TO|,|PO|)"),
        [
            ("independent", (2, 1), 19, 8, 15),
            ("independent", (3, 1), 34, 29, 85),
            ("independent", (4, 1), 40, 31, 272),
            ("independent", (2, 2), 37, 22, 132),
            ("independent", (3, 2), 47, 33, 283),
            ("independent", (4, 2), 42, 33, 410),
            ("anticorrelated", (2, 1), 35, 24, 110),
            ("anticorrelated", (3, 1), 41, 39, 337),
            ("anticorrelated", (4, 1), 35, 33, 615),
            ("anticorrelated", (2, 2), 47, 34, 313),
            ("anticorrelated", (3, 2), 41, 33, 584),
            ("anticorrelated", (4, 2), 37, 33, 685),
        ],
    ),
    "fig9": (
        ("distribution", "h"),
        [
            ("independent", 2, 16, 9, 21),
            ("independent", 3, 19, 10, 28),
            ("independent", 4, 34, 28, 90),
            ("independent", 5, 37, 22, 132),
            ("independent", 6, 42, 38, 228),
            ("anticorrelated", 2, 31, 28, 77),
            ("anticorrelated", 3, 34, 38, 152),
            ("anticorrelated", 4, 34, 39, 198),
            ("anticorrelated", 5, 47, 34, 313),
            ("anticorrelated", 6, 42, 39, 433),
        ],
    ),
    "fig12": (
        ("distribution", "N"),
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
        ("distribution", "(|TO|,|PO|)"),
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
    "fig14": (
        ("sweep", "value"),
        [
            ("h", 2, 105, 35, 266),
            ("h", 3, 98, 40, 254),
            ("h", 4, 104, 49, 271),
            ("h", 5, 106, 35, 278),
            ("h", 6, 114, 53, 353),
            ("d", 0.2, 108, 36, 292),
            ("d", 0.4, 126, 51, 262),
            ("d", 0.6, 104, 49, 271),
            ("d", 0.8, 104, 49, 271),
            ("d", 1.0, 108, 48, 261),
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
    for experiment_id, ((label, axis), expected) in PINNED.items():
        got = [
            (
                row[label],
                row[axis],
                row["SDC+ IOs"],
                row["TSS IOs"],
                row["skyline"],
            )
            for row in tables[experiment_id].rows
        ]
        assert got == expected, experiment_id
