"""Figure 12: dynamic total time vs data set cardinality (dTSS vs rebuilt SDC+)."""

import pytest

from repro.bench.experiments import dynamic_cardinality
from repro.engine.batch import random_query_preferences


def test_fig12_series(benchmark, bench_profile, save_table, run_once):
    table = run_once(benchmark, dynamic_cardinality, bench_profile)
    save_table(table)
    assert len(table.rows) == 2 * len(bench_profile.cardinalities)
    for row in table.rows:
        # dTSS reuses its per-group indexes: it must always beat the rebuild.
        assert row["TSS IOs"] < row["SDC+ IOs"]
        assert row["speedup"] > 1.0
    # Shape check: the gap grows with cardinality (SDC+ re-reads all the data).
    for distribution in ("independent", "anticorrelated"):
        rows = [r for r in table.rows if r["distribution"] == distribution]
        assert rows[-1]["speedup"] >= rows[0]["speedup"]


@pytest.mark.parametrize("distribution", ["independent", "anticorrelated"])
@pytest.mark.parametrize("method", ["TSS", "SDC+"])
def test_fig12_default_setting(benchmark, dynamic_default_runner, distribution, method):
    runner = dynamic_default_runner[distribution]
    partial_orders = random_query_preferences(runner.schema, 1)
    run = benchmark.pedantic(runner.run, args=(method, partial_orders), rounds=3, iterations=1)
    assert run.skyline_size > 0
