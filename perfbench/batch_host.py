"""Engine host of the batch workloads: one fresh process per run.

Usage (started by ``run.py``, not by hand)::

    python3 perfbench/batch_host.py WORKLOAD SEED SECONDS TRACE WORKERS OUT

The host regenerates the run's inputs from the seed, sets the engine up
``setups`` times (rows in memory to first answerable query; half of them
after the window unless traced), runs the warm-up queries, then one caller
sends distinct random-preference queries back to back for ``SECONDS``.  The
host-speed probe (on every CPU when the engine has pool workers) runs five
times after each set-up and once after each query, outside their timers.  It writes the timings with their start times,
the probes, the first ``oracle_queries`` answers (checked by the parent
outside the window) and, traced, the per-layer metrics to the JSON file
``OUT``.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time

from hostspeed import HostSpeed
from inputs import Inputs, build_schema, to_dags
from workloads import WORK, WORKLOADS, child_pids, peak_rss_mb, use_program


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workers, out = argv
    workload = WORKLOADS[name]
    seed, seconds, trace, workers = int(seed), float(seconds), trace == "1", int(workers)
    use_program()
    import repro

    tracer = None
    if trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    inputs = Inputs(workload.shape, seed)
    schema = build_schema(inputs)
    store_path = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}.rpro")
    setups: list[tuple[float, float]] = []
    speed = HostSpeed(every_cpu=workers > 0)

    def set_up():
        """Rows in memory to the first answerable query; returns the engine."""
        gc.collect()
        started = time.perf_counter()
        dataset = repro.Dataset(schema, inputs.rows)
        if workload.store:
            repro.pack(dataset, store_path)
            engine = repro.open_dataset(store_path, workers=workers)
        else:
            engine = repro.open_dataset(dataset, workers=workers)
        if engine.executor is not None:
            engine.executor.start()
        setups.append((started, time.perf_counter() - started))
        speed.sample(5)
        return engine

    # The host drifts in phases longer than a run, so untraced runs make
    # half their set-ups before the window and half after it.  Traced runs
    # make them all before, keeping set-up spans out of the window's.
    before = workload.setups if trace else (workload.setups + 1) // 2
    for _ in range(before - 1):
        set_up().close()
    engine = set_up()

    for spec in inputs.take("warmup", workload.warmup):
        engine.run_query(repro.BatchQuery("warmup", to_dags(spec)))
    if tracer is not None:
        tracer.mark_window()

    #: Per completed query: loop start (next query drawn), sent, done.
    queries_at: list[tuple[float, float, float]] = []
    answers: list[list] = []
    errors: list[str] = []
    queries = inputs.stream("queries")
    rss = None

    def engine_rss() -> float:
        pid = os.getpid()
        return peak_rss_mb(pid) + sum(peak_rss_mb(child) for child in child_pids(pid))

    started = time.perf_counter()
    deadline = started + seconds
    while time.perf_counter() < deadline:
        drawn = time.perf_counter()
        spec = next(queries)
        sent = time.perf_counter()
        try:
            result = engine.run_query(repro.BatchQuery("q", to_dags(spec)))
        except repro.ReproError as error:
            errors.append(str(error))
            continue
        queries_at.append((drawn, sent, time.perf_counter()))
        if len(queries_at) == workload.rss_queries:
            rss = engine_rss()
        speed.sample()
        if len(answers) < workload.oracle_queries:
            answers.append([spec, result.skyline_ids])
    window_s = time.perf_counter() - started

    if rss is None:
        rss = engine_rss()
    engine.close()
    for _ in range(workload.setups - before):
        set_up().close()
    report = {
        "digest": inputs.digest(),
        "setups": setups,
        "queries": queries_at,
        "window_s": window_s,
        "probe_times": speed.times,
        "probe_s": speed.seconds,
        "errors": errors,
        "answers": answers,
        "rss_mb": rss,
    }
    if workload.store:
        report["store_bytes"] = os.path.getsize(store_path)
        os.remove(store_path)
    if tracer is not None:
        from spans import layer_metrics

        report["layers"] = layer_metrics(tracer)
        tracer.dump(os.path.join(WORK, f"spans-{name}-{seed}.json"))
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
