"""Shared fixtures for the pytest-benchmark suite.

Every figure/table of the paper has one benchmark module.  Each module

* runs the corresponding experiment sweep exactly once (``benchmark.pedantic``
  with a single round), writing the resulting table to
  ``benchmarks/results/<experiment>.txt`` so the series the paper plots can be
  inspected after the run, and
* micro-benchmarks the competing methods on the experiment's default setting,
  so the pytest-benchmark summary directly shows who wins and by how much.

The parameter grid is controlled by the ``REPRO_BENCH_PROFILE`` environment
variable (``quick`` by default, ``full`` for the larger grid).
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import pytest

from repro.bench.reporting import ExperimentTable
from repro.bench.runner import BenchProfile, DynamicRunner, StaticRunner
from repro.kernels import get_kernel

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def bench_profile() -> BenchProfile:
    return BenchProfile.from_env()


@pytest.fixture(scope="session")
def save_table(bench_profile):
    """Persist an experiment table under benchmarks/results/: the text table,
    and ``BENCH_<experiment>.json`` with the run's environment."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(table: ExperimentTable) -> ExperimentTable:
        path = RESULTS_DIR / f"{table.experiment_id}.txt"
        path.write_text(table.to_text() + "\n", encoding="utf-8")
        environment = {
            "python": sys.version.split()[0],
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "kernel": get_kernel().name,
            "profile": bench_profile.name,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        document = {"environment": environment, "table": table.to_json_dict()}
        json_path = RESULTS_DIR / f"BENCH_{table.experiment_id}.json"
        json_path.write_text(json.dumps(document, indent=2, default=str) + "\n", encoding="utf-8")
        print("\n" + table.to_text())
        return table

    return _save


@pytest.fixture(scope="session")
def static_default_runner(bench_profile) -> dict[str, StaticRunner]:
    """One static runner per distribution at the profile's default setting."""
    return {
        distribution: StaticRunner(bench_profile.static_spec(distribution))
        for distribution in ("independent", "anticorrelated")
    }


@pytest.fixture(scope="session")
def dynamic_default_runner(bench_profile) -> dict[str, DynamicRunner]:
    """One dynamic runner per distribution at the profile's default setting."""
    return {
        distribution: DynamicRunner(bench_profile.dynamic_spec(distribution))
        for distribution in ("independent", "anticorrelated")
    }


@pytest.fixture(scope="session")
def run_once():
    """Run a callable exactly once under pytest-benchmark timing."""

    def _run(benchmark, func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run
