"""Ablations of the design choices called out in DESIGN.md.

* Main-memory virtual-point R-tree vs plain skyline-list t-dominance checks
  (Section IV-B, second optimization).
* Dyadic-range pre-computation vs on-the-fly MBB interval sets (Section IV-B,
  first optimization).
* dTSS with vs without per-group local-skyline pre-computation (Section V-B).
"""

import pytest

from repro.bench.experiments import ablation_dtss_precompute, ablation_virtual_rtree
from repro.core.stss import stss_skyline


def test_ablation_virtual_rtree_series(benchmark, bench_profile, save_table, run_once):
    table = run_once(benchmark, ablation_virtual_rtree, bench_profile)
    save_table(table)
    assert len(table.rows) == 2


def test_ablation_dtss_precompute_series(benchmark, bench_profile, save_table, run_once):
    table = run_once(benchmark, ablation_dtss_precompute, bench_profile)
    save_table(table)
    assert len(table.rows) == 2
    for row in table.rows:
        # The local-skyline path makes no more dominance checks than the full
        # traversal.
        assert row["dTSS+local checks"] <= row["dTSS checks"]


@pytest.fixture(scope="module")
def anticorrelated_dataset(bench_profile):
    _, dataset = bench_profile.static_spec("anticorrelated").build()
    return dataset


@pytest.mark.parametrize(
    "label, options",
    [
        ("list-scan", {"use_virtual_rtree": False, "use_dyadic_cache": False}),
        ("dyadic-only", {"use_virtual_rtree": False, "use_dyadic_cache": True}),
        ("virtual-rtree", {"use_virtual_rtree": True, "use_dyadic_cache": True}),
    ],
)
def test_ablation_stss_check_strategies(benchmark, anticorrelated_dataset, label, options):
    result = benchmark.pedantic(
        stss_skyline, args=(anticorrelated_dataset,), kwargs=options, rounds=3, iterations=1
    )
    assert len(result) > 0
