"""Figure 14: dynamic total time vs DAG height and density (anti-correlated data)."""

import pytest

from repro.bench.experiments import dynamic_dag_structure
from repro.engine.batch import random_query_preferences


def test_fig14_series(benchmark, bench_profile, save_table, run_once):
    table = run_once(benchmark, dynamic_dag_structure, bench_profile)
    save_table(table)
    expected_rows = len(bench_profile.dag_heights) + len(bench_profile.dag_densities)
    assert len(table.rows) == expected_rows
    # dTSS beats the per-query rebuild across the whole DAG-structure sweep.
    assert all(row["speedup"] > 1.0 for row in table.rows)


@pytest.mark.parametrize("height", [2, 6])
@pytest.mark.parametrize("method", ["TSS", "SDC+"])
def test_fig14_height_extremes(benchmark, bench_profile, height, method):
    from repro.bench.runner import DynamicRunner

    runner = DynamicRunner(bench_profile.dynamic_spec("anticorrelated", dag_height=height))
    partial_orders = random_query_preferences(runner.schema, 1)
    run = benchmark.pedantic(runner.run, args=(method, partial_orders), rounds=1, iterations=1)
    assert run.skyline_size > 0
