"""Workload definitions and the helpers every benchmark process shares."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

from inputs import Shape

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch files of a run (packed stores, span dumps); ignored by git.
WORK = os.path.join(ROOT, ".perfbench")

ANTI50K = Shape(rows=50_000, to=2, po=1, height=6, density=0.8)
ANTI50K_TO3 = Shape(rows=50_000, to=3, po=1, height=6, density=0.8)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``tail`` is the latency percentile reported as ``client.query_tail_ms``:
    p90, except where a 40-second window holds fewer than 100 queries
    (batch-sharded, about 80), where it is the highest percentile that still
    keeps ten samples beyond it.  ``setups`` is how many times a run sets the
    system up (``setup_s`` is their median; enough for seconds of set-up
    work per run) and ``warmup`` how many queries a batch workload runs
    before the timed window (serve-churn warms up with one query per hot
    topology).  A batch workload reads ``peak_rss_mb`` once ``rss_queries``
    queries of the window have completed (at its end if fewer did): the
    pool workers of batch-sharded grow by ~0.5 MiB per query answered, so
    reading it at the end of the window made it follow the host's speed.
    """

    name: str
    kind: str  # "batch" (in-process engine) or "serve" (repro serve + client)
    shape: Shape
    tail: int
    setups: int
    warmup: int = 0
    workers: int = 0
    store: bool = False
    oracle_queries: int = 0
    rss_queries: int = 0


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "batch-anti50k", "batch", ANTI50K, tail=90, setups=30, warmup=3,
            oracle_queries=8, rss_queries=400,
        ),
        Workload(
            "batch-sharded", "batch", ANTI50K_TO3, tail=85, setups=6, warmup=2,
            workers=2, store=True, oracle_queries=3, rss_queries=60,
        ),
        Workload("serve-churn", "serve", ANTI50K, tail=90, setups=8, store=True),
    )
}

#: Hot-set size of serve-churn (below the default cache size of 256).
HOT_TOPOLOGIES = 64


def use_program() -> None:
    """Make the program under test importable (``src/`` layout, no install)."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"error: program sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env() -> dict[str, str]:
    """Environment of benchmark child processes: the program on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, os.path.dirname(os.path.abspath(__file__))]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile of ``values`` (non-empty)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process (all of its threads)."""
    children: list[int] = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as handle:
            children.extend(int(child) for child in handle.read().split())
    return children
