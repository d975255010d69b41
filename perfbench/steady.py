"""Steadiness check: run workloads repeatedly and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--seeds 1-10] [--seconds N] [--workload NAME ...]

Every run is a fresh ``run.py`` process with its own seed; by default the
workloads are those ``BENCHMARK.json`` lists and the window is its
``run_seconds``.  For each end-to-end metric the command prints the median,
the quartiles (Python's ``statistics.quantiles(values, n=4)``), the quartile
spread ``(Q3 - Q1) / median`` and the full spread ``(max - min) / median``.
The quartile spread is what the bounds in ``BENCHMARK.json`` are set
against: every metric but ``setup_s`` must stay within its bound, and
should stay below a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))


def benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / middle if middle else 0.0,
        "range_share": (max(values) - min(values)) / middle if middle else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    listed = benchmark()
    seconds = args.seconds or listed["run_seconds"]

    for name in args.workload or [workload["name"] for workload in listed["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            command = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
            ]
            output = subprocess.run(command, check=True, capture_output=True, text=True).stdout
            result = json.loads(output.strip().splitlines()[-1])
            line = " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items())
            print(f"{name} seed={seed} correct={result['correct']} {line}", flush=True)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: {len(args.seeds)} runs")
        print(f"  {'metric':<18} {'median':>12} {'Q1':>12} {'Q3':>12} {'IQR/med':>8} {'range/med':>9}")
        for metric, metric_values in values.items():
            stats = spread(metric_values)
            print(
                f"  {metric:<18} {stats['median']:12.4f} {stats['q1']:12.4f} {stats['q3']:12.4f}"
                f" {stats['iqr_share']:8.3f} {stats['range_share']:9.3f}",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
