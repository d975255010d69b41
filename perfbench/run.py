"""One benchmark run of one workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-anti50k --seed 1 --seconds 40 --trace 0

The run generates its inputs from ``--seed`` (printing their digest), sets
the system up several times, warms it up outside the timers, drives a
closed loop for ``--seconds`` and checks the answers against the
benchmark's own oracle outside the timed window.  Timings are gated at a
fixed host speed, set by a probe timed beside them (``hostspeed.py``); the
raw timings are printed beside them.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``; with ``--trace 1``
the per-layer metrics of a traced run plus the tracing overhead, measured
against an untraced run made just before it.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from hostspeed import QUERY_EXPONENT, SETUP_EXPONENT, HostSpeed
from inputs import Inputs, build_schema
from oracle import Oracle
from spans import all_layer_metrics, layer_unit
from workloads import (
    HOT_TOPOLOGIES,
    WORK,
    WORKLOADS,
    Workload,
    child_env,
    peak_rss_mb,
    percentile,
    use_program,
)

HERE = os.path.dirname(os.path.abspath(__file__))
#: Longest a child process of one pass may take before the run fails.
CHILD_TIMEOUT_S = 150
#: serve-churn: seconds between host-speed probes during the window.
PROBE_INTERVAL_S = 0.25
#: serve-churn: compaction threshold (pending mutations), share of deletes
#: that take base rows, share of those that also repeat an id the connection
#: deleted before, and rows per insert / ids per delete.  At 40 a compaction
#: lands about every fifth write, so most reads find their topology's base
#: skyline evicted and take one path (base recompute plus delta merge).
CHURN_COMPACT_THRESHOLD = 40
CHURN_BASE_DELETE_SHARE = 0.25
CHURN_REPEAT_SHARE = 0.5
CHURN_BATCH = 8


class BenchError(Exception):
    """A run that cannot produce a result (the program failed or misbehaved)."""


@dataclass
class Run:
    """What one pass over the timed window measured.

    ``setups``, ``queries`` and ``writes`` hold ``(start, seconds)`` by the
    clock of the process that took them, the clock ``speed`` probed by;
    ``loop_s`` is the window's loop time (probes excluded) at the nominal
    host speed.
    """

    speed: HostSpeed
    setups: list[tuple[float, float]]
    window_s: float
    loop_s: float
    queries: list[tuple[float, float]] = field(default_factory=list)
    writes: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rss_mb: float = 0.0
    steal_pct: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        return (len(self.queries) + len(self.writes)) / self.loop_s

    def scaled(self, timings: list[tuple[float, float]], exponent: float = QUERY_EXPONENT) -> list[float]:
        return [self.speed.scale(seconds, at, exponent) for at, seconds in timings]

    def client_metrics(self, workload: Workload) -> dict[str, float]:
        """Latencies as the caller saw them, beyond the gated end-to-end set."""
        writes = self.scaled(self.writes)
        return {
            "client.query_tail_ms": percentile(self.scaled(self.queries), workload.tail) * 1000.0,
            "client.write_p50_ms": statistics.median(writes) * 1000.0 if writes else 0.0,
            "client.write_p90_ms": percentile(writes, 90) * 1000.0 if writes else 0.0,
            "host.probe_ms": self.speed.median_s() * 1000.0,
            "host.steal_pct": self.steal_pct,
        }


def cpu_jiffies() -> tuple[int, int]:
    """``(stolen, total)`` CPU time of the host so far, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


# ---------------------------------------------------------------------- #
# Batch workloads: a fresh engine host process
# ---------------------------------------------------------------------- #
def run_batch(workload: Workload, inputs: Inputs, seconds: float, trace: bool, workers: int) -> Run:
    out = os.path.join(WORK, f"host-{workload.name}-{inputs.seed}-{os.getpid()}.json")
    command = [
        sys.executable, os.path.join(HERE, "batch_host.py"), workload.name,
        str(inputs.seed), str(seconds), "1" if trace else "0", str(workers), out,
    ]
    subprocess.run(command, env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    os.remove(out)
    if report["digest"] != inputs.digest():
        raise BenchError("engine host generated different inputs")
    oracle = Oracle(workload.shape.to, [domain.values for domain in inputs.domains])
    to, codes = oracle.encode(inputs.rows)
    within = oracle.reduce(to, codes)
    mismatches = sum(
        sorted(ids) != oracle.skyline(to, codes, spec, within).tolist()
        for spec, ids in report["answers"]
    )
    for error in report["errors"][:3]:
        print(f"failed op: {error}", file=sys.stderr)
    if len(report["answers"]) < workload.oracle_queries:
        mismatches += workload.oracle_queries - len(report["answers"])
    speed = HostSpeed(report["probe_times"], report["probe_s"])
    run = Run(
        speed=speed,
        setups=report["setups"],
        window_s=report["window_s"],
        loop_s=sum(
            speed.scale_span(drawn, done, QUERY_EXPONENT) for drawn, _, done in report["queries"]
        ),
        queries=[(sent, done - sent) for _, sent, done in report["queries"]],
        attempted=len(report["queries"]) + len(report["errors"]),
        failed=len(report["errors"]) + mismatches,
        rss_mb=report["rss_mb"],
        layers=report.get("layers", {}),
    )
    if trace:
        store_bytes = report.get("store_bytes", 0)
        run.layers["store.store_mb"] = store_bytes / 2**20
        run.layers["store.bytes_per_row"] = store_bytes / len(inputs.rows)
    return run


# ---------------------------------------------------------------------- #
# serve-churn: repro serve in a subprocess, two client connections
# ---------------------------------------------------------------------- #
class Server:
    """One ``repro serve --store`` process started through the launcher."""

    def __init__(self, store_path: str, trace: bool, compact_threshold: int) -> None:
        self.trace_out = os.path.join(WORK, f"serve-{os.getpid()}-{time.monotonic_ns()}.json")
        command = [
            sys.executable, os.path.join(HERE, "serve_host.py"), self.trace_out,
            "1" if trace else "0", "--store", store_path, "--host", "127.0.0.1",
            "--port", "0", "--compact-threshold", str(compact_threshold),
        ]
        self.process = subprocess.Popen(command, env=child_env(), stdout=subprocess.PIPE, text=True)
        line = self.process.stdout.readline()
        match = re.search(r"listening on ([\d.]+):(\d+)", line)
        if match is None:
            self.process.wait(timeout=CHILD_TIMEOUT_S)
            raise BenchError(f"repro serve did not start: {line.strip()!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self):
        from repro.service import ServiceClient

        return ServiceClient(self.host, self.port, timeout=CHILD_TIMEOUT_S, retries=0)

    def stop(self) -> dict[str, float]:
        """Shut the server down; returns its per-layer metrics when traced."""
        try:
            with self.client() as client:
                client.shutdown()
            self.process.stdout.read()
            self.process.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        if not os.path.exists(self.trace_out):
            return {}
        with open(self.trace_out, encoding="utf-8") as handle:
            layers = json.load(handle)["layers"]
        os.remove(self.trace_out)
        return layers


def remove_store(path: str) -> None:
    for suffix in ("", ".delta", ".compact.tmp"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)


def run_serve(workload: Workload, inputs: Inputs, seconds: float, trace: bool) -> Run:
    import repro

    tracer = None
    if trace:
        from spans import Tracer, install, layer_metrics

        tracer = Tracer()
        install(tracer)
    schema = build_schema(inputs)
    store_path = os.path.join(WORK, f"{workload.name}-{inputs.seed}-{os.getpid()}.rpro")
    setups: list[tuple[float, float]] = []
    speed = HostSpeed(every_cpu=True)
    server = None
    try:
        for _ in range(workload.setups):
            if server is not None:
                server.stop()
                remove_store(store_path)
            started = time.perf_counter()
            repro.pack(repro.Dataset(schema, inputs.rows), store_path)
            server = Server(store_path, trace, CHURN_COMPACT_THRESHOLD)
            with server.client() as client:
                client.ping()
            setups.append((started, time.perf_counter() - started))
            speed.sample(5)
        store_bytes = os.path.getsize(store_path)
        if tracer is not None:
            tracer.mark_window()

        # Warm-up: one query per hot topology fills the server's caches.
        hot = inputs.take("hot", HOT_TOPOLOGIES)
        requests = [{"op": "query", "overrides": spec} for spec in hot]
        with server.client() as client:
            for request in requests:
                client.checked_request(request)
        if trace:
            server.process.send_signal(signal.SIGUSR1)
            time.sleep(0.2)

        drive = Drive(inputs, server, requests, trace)
        window_started = time.perf_counter()
        window_s = drive.run(seconds, speed)
        with server.client() as client:
            served = client.stats()["requests_served"]
            answers = [client.checked_request(request)["skyline_ids"] for request in requests]
        rss_mb = peak_rss_mb(server.process.pid)
        server_layers = server.stop()
        server = None
    finally:
        if server is not None:
            server.stop()
        remove_store(store_path)

    # Oracle check, outside the window: the hot set's answers after the
    # window against the live rows the client tracked.
    oracle = Oracle(workload.shape.to, [domain.values for domain in inputs.domains])
    live_ids = sorted(drive.live)
    to, codes = oracle.encode([drive.live[record_id] for record_id in live_ids])
    within = oracle.reduce(to, codes)
    mismatches = 0
    for spec, ids in zip(hot, answers):
        truth = [live_ids[position] for position in oracle.skyline(to, codes, spec, within)]
        mismatches += ids != truth

    for error in drive.errors[:3]:
        print(f"failed op: {error}", file=sys.stderr)
    run = Run(
        speed=speed,
        setups=setups,
        window_s=window_s,
        loop_s=speed.scale_span(window_started, window_started + window_s, QUERY_EXPONENT),
        queries=[(op[1], op[2]) for op in drive.ops if op[0] == "query"],
        writes=[(op[1], op[2]) for op in drive.ops if op[0] != "query"],
        attempted=len(drive.ops) + len(drive.errors),
        failed=len(drive.errors) + mismatches,
        rss_mb=rss_mb,
    )
    if trace:
        client_layers = layer_metrics(tracer)
        run.layers = {
            key: value if value else client_layers.get(key, 0.0)
            for key, value in server_layers.items()
        }
        queries = [op for op in drive.ops if op[0] == "query"]
        run.layers.update(
            {
                "store.store_mb": store_bytes / 2**20,
                "store.bytes_per_row": store_bytes / len(inputs.rows),
                "service.overhead_ms": (
                    statistics.median([op[2] - op[3] for op in queries]) * 1000.0
                ),
                "service.request_bytes": sum(op[4] for op in drive.ops) / len(drive.ops),
                "service.response_bytes": sum(op[5] for op in drive.ops) / len(drive.ops),
                "service.requests_served": float(served),
            }
        )
    return run


class Drive:
    """The closed loop of serve-churn: two connections, one thread each.

    The calling thread runs the host-speed probe every ``PROBE_INTERVAL_S``
    while they run.

    80% of the ops are queries drawn uniformly from the pre-warmed hot set
    (skew would mix result-cache hits into the reads and split their latency
    into two modes), 10% inserts and 10% deletes.  Most deletes take the
    connection's own earliest live inserts; a fixed share take base ids
    drawn at random, which may already be deleted, and half of those also
    repeat an id the connection deleted before (deletes are documented as
    idempotent).  The live rows are tracked for the final oracle check.
    """

    CONNECTIONS = 2

    def __init__(self, inputs, server, requests, trace) -> None:
        self.inputs = inputs
        self.server = server
        self.requests = requests
        self.trace = trace
        #: Completed ops: (kind, sent, seconds, server seconds, request bytes,
        #: response bytes).
        self.ops: list[tuple] = []
        self.errors: list[str] = []
        self.live = dict(enumerate(inputs.rows))
        self._lock = threading.Lock()

    def run(self, seconds: float, speed: HostSpeed) -> float:
        with ThreadPoolExecutor(self.CONNECTIONS) as pool:
            started = time.perf_counter()
            self.deadline = started + seconds
            connections = [pool.submit(self._connection, index) for index in range(self.CONNECTIONS)]
            while not all(connection.done() for connection in connections):
                speed.sample()
                time.sleep(PROBE_INTERVAL_S)
            for connection in connections:
                connection.result()
            return time.perf_counter() - started

    def _next_op(self, rng, inserts, own, deleted) -> tuple[str, dict]:
        draw = rng.random()
        if draw < 0.8:
            return "query", self.requests[rng.randrange(HOT_TOPOLOGIES)]
        if draw < 0.9:
            return "insert", {"op": "insert", "rows": next(inserts)}
        if rng.random() < CHURN_BASE_DELETE_SHARE or len(own) < CHURN_BATCH:
            ids = rng.sample(range(len(self.inputs.rows)), CHURN_BATCH)
            if deleted and rng.random() < CHURN_REPEAT_SHARE:
                ids[rng.randrange(CHURN_BATCH)] = rng.choice(deleted)
        else:
            ids, own[:CHURN_BATCH] = own[:CHURN_BATCH], []
        return "delete", {"op": "delete", "ids": ids}

    def _connection(self, index: int) -> None:
        import repro

        rng = random.Random(f"ops-{self.inputs.seed}-{index}")
        inserts = self.inputs.row_stream(f"inserts-{index}", CHURN_BATCH)
        own: list[int] = []
        deleted: list[int] = []
        with self.server.client() as client:
            while time.perf_counter() < self.deadline:
                kind, request = self._next_op(rng, inserts, own, deleted)
                sent = time.perf_counter()
                try:
                    response = client.checked_request(request)
                except repro.ReproError as error:
                    self.errors.append(f"{kind}: {error}")
                    continue
                elapsed = time.perf_counter() - sent
                sizes = (
                    (len(json.dumps(request)) + 1, len(json.dumps(response)) + 1)
                    if self.trace
                    else (0, 0)
                )
                self.ops.append((kind, sent, elapsed, response.get("seconds", 0.0), *sizes))
                if kind == "insert":
                    own.extend(response["ids"])
                    with self._lock:
                        self.live.update(zip(response["ids"], request["rows"]))
                elif kind == "delete":
                    deleted.extend(response["ids"])
                    with self._lock:
                        for record_id in response["ids"]:
                            del self.live[record_id]


# ---------------------------------------------------------------------- #
# Metrics and the result line
# ---------------------------------------------------------------------- #
def end_to_end(run: Run) -> dict[str, tuple[float, str, int, float]]:
    """Every end-to-end metric as ``name -> (value, unit, samples, raw value)``.

    The value is gated; the raw value is the same metric before scaling to
    the nominal host speed.
    """
    queries = run.queries
    ops = len(queries) + len(run.writes)
    raw_queries = [seconds for _, seconds in queries]
    raw_setups = [seconds for _, seconds in run.setups]
    return {
        "setup_s": (
            statistics.median(run.scaled(run.setups, SETUP_EXPONENT)), "s", len(run.setups),
            statistics.median(raw_setups),
        ),
        "throughput_per_s": (run.throughput, "1/s", ops, ops / run.window_s),
        "query_p50_ms": (
            statistics.median(run.scaled(queries)) * 1000.0, "ms", len(queries),
            statistics.median(raw_queries) * 1000.0,
        ),
        "peak_rss_mb": (run.rss_mb, "MiB", 1, run.rss_mb),
    }


def run_once(workload: Workload, inputs: Inputs, seconds: float, trace: bool, workers: int) -> Run:
    stolen, total = cpu_jiffies()
    if workload.kind == "batch":
        run = run_batch(workload, inputs, seconds, trace, workers)
    else:
        run = run_serve(workload, inputs, seconds, trace)
    stolen_after, total_after = cpu_jiffies()
    run.steal_pct = 100.0 * (stolen_after - stolen) / max(1, total_after - total)
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="override the batch workload's worker processes (for comparisons only)",
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    workers = workload.workers if args.workers is None else args.workers
    use_program()
    os.makedirs(WORK, exist_ok=True)

    inputs = Inputs(workload.shape, args.seed)
    print(f"{workload.name} seed={args.seed} inputs digest {inputs.digest()}", flush=True)
    run = run_once(workload, inputs, args.seconds, False, workers)
    runs = [run]
    metrics = end_to_end(run)
    for name, (value, unit, samples, raw) in metrics.items():
        print(f"  {name:<18} {value:12.4f} {unit:<4} n={samples:<6} raw {raw:.4f}", flush=True)
    client = run.client_metrics(workload)
    print(
        f"  client.query_tail_ms {client['client.query_tail_ms']:.4f} (p{workload.tail}),"
        f" host.probe_ms {client['host.probe_ms']:.4f} (n={len(run.speed.seconds)}),"
        f" host.steal_pct {run.steal_pct:.1f}",
        flush=True,
    )
    result = {name: {"value": value, "unit": unit} for name, (value, unit, *_) in metrics.items()}
    if args.trace:
        traced = run_once(workload, inputs, args.seconds, True, workers)
        runs.append(traced)
        overhead = (run.throughput / traced.throughput - 1.0) * 100.0
        measured = {**traced.layers, **client, "trace.overhead_pct": overhead}
        layers = {name: float(measured.get(name, 0.0)) for name in all_layer_metrics(workload.kind)}
        for name, value in layers.items():
            print(f"  {name:<32} {value:14.6g}", flush=True)
        result = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    print(
        json.dumps(
            {
                "correct": all(r.failed == 0 for r in runs),
                "attempted": sum(r.attempted for r in runs),
                "failed": sum(r.failed for r in runs),
                "metrics": result,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
