"""Unit tests for the benchmark runners (tiny workloads for speed)."""

import pytest

from repro.bench.runner import BenchProfile, DynamicRunner, StaticRunner
from repro.data.workloads import WorkloadSpec
from repro.engine.batch import random_query_preferences
from repro.exceptions import ExperimentError
from repro.skyline.bruteforce import brute_force_skyline


TINY_STATIC = WorkloadSpec(
    name="runner-static",
    distribution="independent",
    cardinality=120,
    num_total_order=2,
    num_partial_order=1,
    dag_height=3,
    dag_density=1.0,
    to_domain_size=30,
    seed=2,
)

TINY_DYNAMIC = WorkloadSpec(
    name="runner-dynamic",
    distribution="independent",
    cardinality=120,
    num_total_order=2,
    num_partial_order=1,
    dag_height=3,
    dag_density=1.0,
    to_domain_size=30,
    seed=3,
)


class TestBenchProfile:
    def test_quick_and_full_profiles(self):
        quick, full = BenchProfile.quick(), BenchProfile.full()
        assert quick.default_cardinality < full.default_cardinality
        assert len(quick.cardinalities) == len(full.cardinalities) == 5
        assert quick.dimensionalities == full.dimensionalities

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert BenchProfile.from_env().name == "quick"
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "full")
        assert BenchProfile.from_env().name == "full"
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "huge")
        with pytest.raises(ExperimentError):
            BenchProfile.from_env()

    def test_spec_builders_apply_overrides(self):
        profile = BenchProfile.quick()
        spec = profile.static_spec("anticorrelated", cardinality=42, dag_height=3)
        assert spec.cardinality == 42 and spec.dag_height == 3
        dynamic = profile.dynamic_spec("independent")
        assert dynamic.num_partial_order == 1


class TestStaticRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return StaticRunner(TINY_STATIC)

    @pytest.fixture(scope="class")
    def truth(self, runner):
        return frozenset(brute_force_skyline(runner.dataset).skyline_ids)

    @pytest.mark.parametrize("method", ["TSS", "TSS*", "SDC+", "SDC", "BBS+", "BNL", "SFS", "BRUTE"])
    def test_every_method_runs_and_is_correct(self, runner, truth, method):
        run = runner.run(method)
        assert run.skyline_size == len(truth)
        assert run.total_seconds >= 0.0

    def test_unknown_method(self, runner):
        with pytest.raises(ExperimentError):
            runner.run("quantum")

    def test_compare_returns_all_methods(self, runner):
        results = runner.compare(("SDC+", "TSS"))
        assert set(results) == {"SDC+", "TSS"}

    def test_progress_fractions(self, runner):
        run = runner.run("TSS", progress_fractions=(0.5, 1.0))
        assert set(run.progressive_times) == {50, 100}
        assert run.progressive_times[50] <= run.progressive_times[100]

    def test_index_construction_is_not_charged_to_the_query(self, runner):
        run = runner.run("TSS")
        assert run.io_count < 3 * len(runner.dataset)


class TestDynamicRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return DynamicRunner(TINY_DYNAMIC)

    def test_query_partial_orders_cover_data_domain(self, runner):
        orders = random_query_preferences(runner.schema, 1)
        (attribute,) = runner.schema.partial_order_attributes
        assert set(orders) == {attribute.name}
        assert set(orders[attribute.name].values) == set(attribute.dag.values)

    def test_query_generation_is_deterministic(self, runner):
        first = random_query_preferences(runner.schema, 5)
        second = random_query_preferences(runner.schema, 5)
        assert {name: dag.edges for name, dag in first.items()} == {
            name: dag.edges for name, dag in second.items()
        }

    @pytest.mark.parametrize("method", ["TSS", "TSS+local", "SDC+"])
    def test_methods_agree_on_the_same_query(self, runner, method):
        partial_orders = random_query_preferences(runner.schema, 2)
        reference = runner.run("TSS", partial_orders)
        run = runner.run(method, partial_orders)
        assert run.skyline_size == reference.skyline_size

    def test_sdc_baseline_is_more_expensive(self, runner):
        results = runner.compare(("SDC+", "TSS"), query_seed=4)
        assert results["SDC+"].io_count > results["TSS"].io_count

    def test_local_skylines_are_built_before_any_query(self):
        # Built offline, like the group R-trees: the first TSS+local query's
        # clock must not pay for them.
        grouped = DynamicRunner(TINY_DYNAMIC).dtss_index.grouped
        assert grouped.local_skylines is not None
        assert set(grouped.local_skylines) == set(grouped.groups)

    def test_unknown_method(self, runner):
        with pytest.raises(ExperimentError):
            runner.run("quantum")
