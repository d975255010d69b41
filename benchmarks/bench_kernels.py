"""Microbenchmark: the dominance kernel tiers against each other.

Times the kernel operations that sit on every skyline hot path — block
dominance sweeps, Pareto-front masks and batched t-dominance — on a
dominance-heavy workload (candidates drawn near the Pareto front, so scans
cannot early-exit), across every available backend (purepython and numpy),
and writes the measurements to ``benchmarks/results/BENCH_kernels.json``.

Run under pytest (``pytest benchmarks/bench_kernels.py``) or standalone::

    python benchmarks/bench_kernels.py [--quick]

The standalone form is what the CI bench-smoke job executes; both forms
assert the NumPy backend's speedup target on the block-dominance sweep when
NumPy is available.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.core.mapping import TSSMapping
from repro.core.tdominance import TDominanceChecker
from repro.data.workloads import WorkloadSpec
from repro.kernels import available_kernels, get_kernel

#: Acceptance target: NumPy must beat pure Python by at least this factor on
#: the 50k-tuple block-dominance sweep.
SPEEDUP_TARGET = 3.0

FULL_CARDINALITY = 50_000
QUICK_CARDINALITY = 10_000
DIMENSIONS = 4
NUM_CANDIDATES = 200
REPEATS = 3


def _build_vectors(cardinality: int, seed: int = 11) -> tuple[list, list]:
    """A block of random vectors plus near-Pareto candidates (no early exit)."""
    rng = random.Random(seed)
    block = [
        tuple(rng.uniform(0.0, 1.0) for _ in range(DIMENSIONS))
        for _ in range(cardinality)
    ]
    # Candidates hug the origin, so almost no block member dominates them and
    # every pure-Python scan runs the full block — the dominance-heavy case.
    candidates = [
        tuple(value * 0.05 for value in rng.choice(block)) for _ in range(NUM_CANDIDATES)
    ]
    return block, candidates


def _build_anticorrelated(cardinality: int, seed: int = 17) -> list:
    """Anticorrelated vectors (huge Pareto front — the hard pareto_mask case)."""
    rng = random.Random(seed)
    rows = []
    for _ in range(cardinality):
        base = rng.uniform(0.0, 1.0)
        head = [
            max(0.0, min(1.0, base + rng.uniform(-0.12, 0.12)))
            for _ in range(DIMENSIONS - 1)
        ]
        rows.append((*head, max(0.0, 2.0 - sum(head))))
    return rows


def _build_tdominance(cardinality: int):
    spec = WorkloadSpec(
        name="bench-kernels",
        cardinality=max(2_000, cardinality // 10),
        num_total_order=2,
        num_partial_order=2,
        dag_height=6,
        dag_density=0.8,
        to_domain_size=500,
        seed=13,
    )
    _, dataset = spec.build()
    mapping = TSSMapping(dataset)
    points = mapping.points
    members = points[: len(points) // 2]
    candidates = points[len(points) // 2 :][:NUM_CANDIDATES]
    return mapping, members, candidates


def _best_of(repeats: int, func) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return best


def time_block_dominance(kernel_name: str, block, candidates) -> float:
    kernel = get_kernel(kernel_name)
    store = kernel.vector_store(DIMENSIONS)
    for vector in block:
        store.append(vector)

    def sweep():
        hits = 0
        for candidate in candidates:
            if store.any_dominates(candidate):
                hits += 1
        return hits

    return _best_of(REPEATS, sweep)


def time_pareto_mask(kernel_name: str, block) -> float:
    kernel = get_kernel(kernel_name)
    return _best_of(1, lambda: kernel.pareto_mask(block))


def time_tdominance(kernel_name: str, mapping, members, candidates) -> float:
    checker = TDominanceChecker(mapping, kernel=get_kernel(kernel_name))
    store = checker.make_skyline_store()
    for member in members:
        store.append(member)

    def sweep():
        hits = 0
        for candidate in candidates:
            if checker.store_dominates_point(store, candidate):
                hits += 1
        return hits

    return _best_of(REPEATS, sweep)


def run_benchmark(cardinality: int) -> dict[str, object]:
    """Time every scenario on every available backend; return the payload."""
    block, candidates = _build_vectors(cardinality)
    anticorrelated = _build_anticorrelated(cardinality // 10)
    tdom = _build_tdominance(cardinality)
    scenarios: dict[str, dict[str, float]] = {
        "block_dominance_sweep": {},
        "pareto_mask_anticorrelated": {},
        "tdominance_sweep": {},
    }
    for name in available_kernels():
        scenarios["block_dominance_sweep"][name] = time_block_dominance(
            name, block, candidates
        )
        scenarios["pareto_mask_anticorrelated"][name] = time_pareto_mask(
            name, anticorrelated
        )
        scenarios["tdominance_sweep"][name] = time_tdominance(name, *tdom)

    speedups: dict[str, float] = {}
    if "numpy" in available_kernels():
        for scenario, timings in scenarios.items():
            if timings.get("numpy"):
                speedups[scenario] = timings["purepython"] / timings["numpy"]

    return {
        "workload": {
            "cardinality": cardinality,
            "dimensions": DIMENSIONS,
            "candidates": NUM_CANDIDATES,
            "repeats": REPEATS,
        },
        "seconds": scenarios,
        "speedup_numpy_over_purepython": speedups,
    }


def _save(payload: dict[str, object]) -> None:
    from conftest import save_bench_json

    path = save_bench_json("kernels", payload)
    print(f"wrote {path}")


def _report(payload: dict[str, object]) -> None:
    print(f"workload: {payload['workload']}")
    for scenario, timings in payload["seconds"].items():
        rendered = ", ".join(f"{k}={v * 1000:.1f}ms" for k, v in timings.items())
        speedup = payload["speedup_numpy_over_purepython"].get(scenario)
        extra = f"  (numpy speedup {speedup:.1f}x)" if speedup else ""
        print(f"{scenario:>24}: {rendered}{extra}")


def _assert_target(payload: dict[str, object]) -> None:
    speedups = payload["speedup_numpy_over_purepython"]
    if not speedups:
        print("numpy unavailable: speedup target not checked")
        return
    achieved = speedups["block_dominance_sweep"]
    assert achieved >= SPEEDUP_TARGET, (
        f"numpy kernel only {achieved:.2f}x faster than pure python on the "
        f"block dominance sweep (target {SPEEDUP_TARGET}x)"
    )


def test_kernel_speedup():
    """Pytest entry point (uses the quick cardinality to stay CI-friendly)."""
    payload = run_benchmark(QUICK_CARDINALITY)
    _save(payload)
    _report(payload)
    _assert_target(payload)


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    quick = "--quick" in arguments
    payload = run_benchmark(QUICK_CARDINALITY if quick else FULL_CARDINALITY)
    _save(payload)
    _report(payload)
    _assert_target(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
