"""Delta-plane benchmark: applying a live mutation batch vs a full rebuild.

Measures, from an already-open engine over a packed store, the time to make
a 1% mutation batch (half inserts, half deletes) queryable on two paths:

``delta``
    The delta plane — ``engine.insert`` / ``engine.delete`` append encoded
    rows and tombstones to the in-memory delta and the crash-safe sidecar
    log; the base frame, prefilter artifacts and packed index are untouched.
``rebuild``
    The conventional path — materialize the mutated record list, rebuild
    the :class:`Dataset`, re-encode, re-pack the store and re-open the
    engine (re-prefilter, re-bulk-load).

Both paths then answer the base query; the delta path's *stable* ids must
match the rebuild's ids (remapped through the surviving-row order).  The
delta child additionally measures query latency right before and right
after folding the batch (``engine.compact``) — the read-side price of the
unmerged delta, and proof that compaction leaves answers bit-identical.

Each configuration runs REPEATS times in fresh subprocesses (best run
scored); the packed store and the mutation batch are written by the parent
outside the measured window.  Results land in
``benchmarks/results/BENCH_delta.json``.

Run under pytest (``pytest benchmarks/bench_delta.py``) or standalone::

    python benchmarks/bench_delta.py [--quick]
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

#: Acceptance target: applying the mutation batch through the delta plane is
#: >=5x faster than re-encoding and re-packing the mutated dataset.
SPEEDUP_TARGET = 5.0
TARGET_CARDINALITY = 100_000

FULL_CARDINALITIES = (50_000, 100_000, 200_000)
QUICK_CARDINALITIES = (20_000,)
MODES = ("delta", "rebuild")
#: Child runs per configuration; the best (min apply time) is scored.
REPEATS = 3
#: Mutation batch size as a fraction of the cardinality (half inserts,
#: half deletes).
MUTATION_FRACTION = 0.01

WORKLOAD = {
    "distribution": "anticorrelated",
    "num_total_order": 2,
    "num_partial_order": 1,
    "dag_height": 6,
    "dag_density": 0.8,
    "seed": 7,
}


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _build_batch(schema, cardinality: int) -> dict[str, object]:
    """The 1% mutation batch, deterministic for a given cardinality."""
    rng = random.Random(cardinality * 13 + 1)
    count = max(1, int(cardinality * MUTATION_FRACTION / 2))
    dags = [attribute.dag for attribute in schema.partial_order_attributes]
    inserts = [
        [rng.uniform(0.0, 1.0) for _ in range(schema.num_total_order)]
        + [rng.choice(dag.values) for dag in dags]
        for _ in range(count)
    ]
    deletes = sorted(rng.sample(range(cardinality), count))
    return {"inserts": inserts, "deletes": deletes}


def _checksum(ids) -> int:
    return hash(tuple(sorted(ids))) & 0xFFFFFFFF


def _child_measure(mode: str, store_path: str, batch_path: str) -> dict[str, object]:
    """Apply the batch on one path, measured inside this (fresh) process."""
    import shutil

    from repro.engine.batch import BatchQuery, BatchQueryEngine

    # Mutations (and the compaction) must not leak into the next repeat:
    # work on a private copy of the packed store, outside the timed window.
    scratch = tempfile.mkdtemp(prefix="bench-delta-child-")
    private = os.path.join(scratch, os.path.basename(store_path))
    shutil.copyfile(store_path, private)
    store_path = private

    with open(batch_path) as handle:
        batch = json.load(handle)
    inserts = [tuple(row) for row in batch["inserts"]]
    deletes = [int(record_id) for record_id in batch["deletes"]]
    timings: dict[str, object] = {"mode": mode}

    if mode == "delta":
        engine = BatchQueryEngine(store_path, compact_threshold=0)
        started = time.perf_counter()
        new_ids = engine.insert(inserts)
        engine.delete(deletes)
        timings["apply_seconds"] = time.perf_counter() - started

        started = time.perf_counter()
        before = engine.run_query(BatchQuery("pre-compaction"))
        timings["query_before_compaction_seconds"] = time.perf_counter() - started

        started = time.perf_counter()
        engine.compact()
        timings["compact_seconds"] = time.perf_counter() - started

        started = time.perf_counter()
        after = engine.run_query(BatchQuery("post-compaction"))
        timings["query_after_compaction_seconds"] = time.perf_counter() - started

        assert before.skyline_ids == after.skyline_ids, (
            "compaction changed the skyline"
        )
        assert not after.from_cache
        skyline_ids = after.skyline_ids
        timings["new_ids_head"] = new_ids[:8]
    else:
        from repro.api import pack
        from repro.data.dataset import Dataset

        base = BatchQueryEngine(store_path)
        records = {record.id: record.values for record in base.dataset.records}
        base.close()
        started = time.perf_counter()
        for record_id in deletes:
            del records[record_id]
        next_id = max(records) + 1
        for offset, row in enumerate(inserts):
            records[next_id + offset] = row
        ordered_ids = sorted(records)
        dataset = Dataset(base.schema, [records[i] for i in ordered_ids])
        repacked = store_path + ".rebuild.rpro"
        pack(dataset, repacked)
        engine = BatchQueryEngine(repacked)
        timings["apply_seconds"] = time.perf_counter() - started

        started = time.perf_counter()
        result = engine.run_query(BatchQuery("base"))
        timings["query_after_compaction_seconds"] = time.perf_counter() - started
        # Remap fresh positions back to stable ids for the cross-path check.
        skyline_ids = sorted(ordered_ids[p] for p in result.skyline_ids)

    timings["skyline_size"] = len(skyline_ids)
    timings["skyline_checksum"] = _checksum(skyline_ids)
    return timings


def _run_child(mode: str, store_path: Path, batch_path: Path) -> dict[str, object]:
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    if src.is_dir():
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else str(src)
    runs = []
    for _ in range(REPEATS):
        process = subprocess.run(
            [sys.executable, __file__, "--child", mode, str(store_path), str(batch_path)],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        if process.returncode != 0:
            raise RuntimeError(f"child run ({mode}) failed:\n{process.stderr}")
        runs.append(json.loads(process.stdout.splitlines()[-1]))
    best = min(runs, key=lambda run: run["apply_seconds"])
    best["runs"] = len(runs)
    return best


def _sweep_cardinality(cardinality: int, scratch: Path) -> dict[str, object]:
    from repro.api import pack
    from repro.data.workloads import WorkloadSpec

    spec = WorkloadSpec(name="bench-delta", cardinality=cardinality, **WORKLOAD)
    schema, dataset = spec.build()
    store_path = scratch / f"bench_{cardinality}.rpro"
    pack(dataset, store_path)
    batch = _build_batch(schema, cardinality)
    batch_path = scratch / f"batch_{cardinality}.json"
    batch_path.write_text(json.dumps(batch))
    del dataset

    by_mode = {mode: _run_child(mode, store_path, batch_path) for mode in MODES}
    delta_run, rebuild_run = by_mode["delta"], by_mode["rebuild"]
    speedup = (
        rebuild_run["apply_seconds"] / delta_run["apply_seconds"]
        if delta_run["apply_seconds"]
        else 0.0
    )
    for mode in MODES:
        timings = by_mode[mode]
        print(
            f"  N={cardinality} {mode:>7}: apply {timings['apply_seconds']:6.3f}s, "
            f"query {timings['query_after_compaction_seconds']:6.3f}s",
            flush=True,
        )
    print(f"  N={cardinality} delta-apply speedup: {speedup:.2f}x", flush=True)
    return {
        "cardinality": cardinality,
        "mutations": len(batch["inserts"]) + len(batch["deletes"]),
        "modes": by_mode,
        "delta_apply_speedup": speedup,
        "query_overhead_before_compaction": (
            delta_run["query_before_compaction_seconds"]
            / delta_run["query_after_compaction_seconds"]
            if delta_run["query_after_compaction_seconds"]
            else 0.0
        ),
        "skylines_match": (
            delta_run["skyline_size"] == rebuild_run["skyline_size"]
            and delta_run["skyline_checksum"] == rebuild_run["skyline_checksum"]
        ),
    }


def run_benchmark(cardinalities) -> dict[str, object]:
    with tempfile.TemporaryDirectory(prefix="bench-delta-") as scratch:
        sweeps = [
            _sweep_cardinality(cardinality, Path(scratch))
            for cardinality in cardinalities
        ]
    return {
        "workload": {
            **WORKLOAD,
            "mutation_fraction": MUTATION_FRACTION,
            "numpy_available": _numpy_available(),
        },
        "target": {
            "delta_apply_speedup": SPEEDUP_TARGET,
            "cardinality": TARGET_CARDINALITY,
        },
        "sweeps": sweeps,
    }


def _save(payload: dict[str, object]) -> None:
    from conftest import save_bench_json

    path = save_bench_json("delta", payload)
    print(f"wrote {path}")


def _assert_targets(payload: dict[str, object]) -> None:
    for sweep in payload["sweeps"]:
        assert sweep["skylines_match"], (
            f"delta and rebuild paths disagree at N={sweep['cardinality']}"
        )
    target_sweep = next(
        (s for s in payload["sweeps"] if s["cardinality"] == TARGET_CARDINALITY), None
    )
    if target_sweep is None:
        print("quick profile: delta-apply target not checked")
        return
    achieved = target_sweep["delta_apply_speedup"]
    assert achieved >= SPEEDUP_TARGET, (
        f"only {achieved:.2f}x delta-apply speedup at {TARGET_CARDINALITY} "
        f"tuples (target {SPEEDUP_TARGET}x)"
    )


def _report(payload: dict[str, object]) -> None:
    for sweep in payload["sweeps"]:
        print(
            f"N={sweep['cardinality']}: {sweep['mutations']} mutations applied "
            f"{sweep['delta_apply_speedup']:.2f}x faster through the delta "
            f"plane; unmerged-delta query overhead "
            f"{sweep['query_overhead_before_compaction']:.2f}x"
        )


def test_delta_apply():
    """Pytest entry point (quick cardinality, correctness always asserted)."""
    payload = run_benchmark(QUICK_CARDINALITIES)
    _save(payload)
    _report(payload)
    _assert_targets(payload)


def main(argv: list[str] | None = None) -> int:
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "--child":
        print(json.dumps(_child_measure(arguments[1], arguments[2], arguments[3])))
        return 0
    cardinalities = QUICK_CARDINALITIES if "--quick" in arguments else FULL_CARDINALITIES
    payload = run_benchmark(cardinalities)
    _save(payload)
    _report(payload)
    _assert_targets(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
