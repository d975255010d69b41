"""Workload execution: build indexes offline, run queries, measure.

The paper's experimental protocol is reproduced as closely as a pure-Python
environment allows:

* **Static experiments** (Section VI-B) — index structures are built offline;
  each method is then charged only its query-time work: measured CPU plus
  5 ms per R-tree node read on a freshly reset simulated disk.  ``TSS`` runs
  without the main-memory R-tree / dyadic-cache optimizations ("for fairness",
  as in the paper); ``TSS*`` enables them (used by the ablation benches).
* **Dynamic experiments** (Section VI-C) — dTSS's per-group R-trees are built
  once and reused across queries, whereas the SDC+ adaptation must re-map the
  data, re-partition it into strata (two extra passes over the data) and
  bulk-load its per-stratum R-trees for every query; all of that per-query
  work is charged.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.baselines.bbs_plus import bbs_plus_skyline
from repro.baselines.sdc import sdc_skyline
from repro.baselines.sdc_plus import sdc_plus_skyline
from repro.bench.costmodel import MeasuredRun
from repro.core.stss import stss_skyline
from repro.data.workloads import WorkloadSpec
from repro.dynamic.dtss import DTSSIndex
from repro.dynamic.sdc_dynamic import sdc_plus_dynamic_skyline
from repro.engine.batch import random_query_preferences
from repro.exceptions import ExperimentError
from repro.index.pager import DEFAULT_IO_COST_SECONDS, DiskSimulator
from repro.order.dag import PartialOrderDAG
from repro.skyline.bnl import bnl_skyline
from repro.skyline.bruteforce import brute_force_skyline
from repro.skyline.sfs import sfs_skyline

#: Fractions of the skyline at which progressiveness is sampled (Figure 11).
PROGRESS_FRACTIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class BenchProfile:
    """Scaled-down (or paper-scale) parameter grid used by the experiments."""

    name: str
    cardinalities: tuple[int, ...]
    default_cardinality: int
    dimensionalities: tuple[tuple[int, int], ...]
    dag_heights: tuple[int, ...]
    dag_densities: tuple[float, ...]
    static_defaults: dict[str, object]
    dynamic_defaults: dict[str, object]

    @classmethod
    def quick(cls) -> "BenchProfile":
        """Small grid: every experiment finishes in seconds on a laptop."""
        return cls(
            name="quick",
            cardinalities=(100, 250, 500, 1000, 2000),
            default_cardinality=800,
            dimensionalities=((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)),
            dag_heights=(2, 3, 4, 5, 6),
            dag_densities=(0.2, 0.4, 0.6, 0.8, 1.0),
            static_defaults={"num_total_order": 2, "num_partial_order": 2, "dag_height": 5, "dag_density": 0.8},
            dynamic_defaults={"num_total_order": 3, "num_partial_order": 1, "dag_height": 4, "dag_density": 0.8},
        )

    @classmethod
    def full(cls) -> "BenchProfile":
        """Larger grid preserving the paper's parameter ratios (minutes per figure)."""
        return cls(
            name="full",
            cardinalities=(200, 1000, 2000, 10_000, 20_000),
            default_cardinality=2000,
            dimensionalities=((2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2)),
            dag_heights=(2, 4, 6, 8, 10),
            dag_densities=(0.2, 0.4, 0.6, 0.8, 1.0),
            static_defaults={"num_total_order": 2, "num_partial_order": 2, "dag_height": 8, "dag_density": 0.8},
            dynamic_defaults={"num_total_order": 3, "num_partial_order": 1, "dag_height": 6, "dag_density": 0.8},
        )

    @classmethod
    def from_env(cls, variable: str = "REPRO_BENCH_PROFILE") -> "BenchProfile":
        """Pick the profile from an environment variable (default: quick)."""
        from repro.config import env_bench_profile

        requested = (env_bench_profile(variable) or "quick").lower()
        if requested == "full":
            return cls.full()
        if requested == "quick":
            return cls.quick()
        raise ExperimentError(f"unknown benchmark profile {requested!r} (expected 'quick' or 'full')")

    def static_spec(self, distribution: str, **overrides) -> WorkloadSpec:
        parameters = {
            "cardinality": self.default_cardinality,
            **self.static_defaults,
            **overrides,
        }
        return WorkloadSpec(name=f"{self.name}-static-{distribution}", distribution=distribution, **parameters)

    def dynamic_spec(self, distribution: str, **overrides) -> WorkloadSpec:
        parameters = {
            "cardinality": self.default_cardinality,
            **self.dynamic_defaults,
            **overrides,
        }
        return WorkloadSpec(name=f"{self.name}-dynamic-{distribution}", distribution=distribution, **parameters)


# --------------------------------------------------------------------- #
# Static experiments
# --------------------------------------------------------------------- #
class StaticRunner:
    """Build one static workload and measure any number of methods on it."""

    #: Methods available to static experiments.
    METHODS = ("TSS", "TSS*", "SDC+", "SDC", "BBS+", "BNL", "SFS", "BRUTE")

    def __init__(
        self,
        spec: WorkloadSpec,
        *,
        io_cost_seconds: float = DEFAULT_IO_COST_SECONDS,
        max_entries: int = 32,
    ) -> None:
        self.spec = spec
        self.io_cost_seconds = io_cost_seconds
        self.max_entries = max_entries
        self.schema, self.dataset = spec.build()

    def run(self, method: str, *, progress_fractions: Sequence[float] = ()) -> MeasuredRun:
        """Run one method on the workload and return its measurement."""
        method = method.upper()
        disk = DiskSimulator(io_cost_seconds=self.io_cost_seconds)
        if method == "TSS":
            # The paper's fairness setting: dyadic-range pre-computation on,
            # main-memory virtual-point R-tree off (Section VI-B).
            result = stss_skyline(
                self.dataset,
                use_virtual_rtree=False,
                use_dyadic_cache=True,
                max_entries=self.max_entries,
                disk=disk,
            )
        elif method == "TSS*":
            result = stss_skyline(
                self.dataset,
                use_virtual_rtree=True,
                use_dyadic_cache=True,
                max_entries=self.max_entries,
                disk=disk,
            )
        elif method == "SDC+":
            result = sdc_plus_skyline(self.dataset, max_entries=self.max_entries, disk=disk)
        elif method == "SDC":
            result = sdc_skyline(self.dataset, max_entries=self.max_entries, disk=disk)
        elif method == "BBS+":
            result = bbs_plus_skyline(self.dataset, max_entries=self.max_entries, disk=disk)
        elif method == "BNL":
            result = bnl_skyline(self.dataset)
        elif method == "SFS":
            result = sfs_skyline(self.dataset)
        elif method == "BRUTE":
            result = brute_force_skyline(self.dataset)
        else:
            raise ExperimentError(f"unknown static method {method!r}; expected one of {self.METHODS}")
        return MeasuredRun.from_result(
            method,
            result,
            parameters=self.spec.describe(),
            progress_fractions=tuple(progress_fractions),
        )

    def compare(
        self, methods: Sequence[str] = ("SDC+", "TSS"), *, progress_fractions: Sequence[float] = ()
    ) -> dict[str, MeasuredRun]:
        return {m: self.run(m, progress_fractions=progress_fractions) for m in methods}


# --------------------------------------------------------------------- #
# Dynamic experiments
# --------------------------------------------------------------------- #
class DynamicRunner:
    """Build one dynamic workload (grouped indexes built offline) and run queries.

    The data stays fixed while every query brings new preferences (the
    paper's dynamic setting, Section V).  dTSS's group structures are built
    once over the record dataset and reused by every query; the SDC+
    adaptation re-maps and re-partitions the whole dataset per query and is
    charged for it — the gap Figures 12-14 measure.
    """

    METHODS = ("TSS", "TSS+local", "SDC+",)

    def __init__(
        self,
        spec: WorkloadSpec,
        *,
        io_cost_seconds: float = DEFAULT_IO_COST_SECONDS,
        max_entries: int = 32,
    ) -> None:
        self.spec = spec
        self.io_cost_seconds = io_cost_seconds
        self.max_entries = max_entries
        self.schema, self.dataset = spec.build()
        # dTSS group structures — the per-group R-trees and local skylines —
        # are built offline and reused by every query, so no query's clock
        # pays for them.
        self._dtss_disk = DiskSimulator(io_cost_seconds=io_cost_seconds)
        self.dtss_index = DTSSIndex(
            self.dataset, max_entries=max_entries, disk=self._dtss_disk, precompute_local_skylines=True
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        method: str,
        partial_orders: Mapping[str, PartialOrderDAG] | Sequence[PartialOrderDAG] | None = None,
        *,
        query_seed: int = 1,
        progress_fractions: Sequence[float] = (),
    ) -> MeasuredRun:
        """Answer one dynamic query with the given method and measure it."""
        method = method.upper()
        if partial_orders is None:
            partial_orders = random_query_preferences(self.schema, query_seed)
        if method in ("TSS", "TSS+LOCAL"):
            # dTSS reuses its pre-built group R-trees; only query-time IO counts.
            result = self.dtss_index.query(
                partial_orders,
                use_virtual_rtree=False,
                use_local_skylines=(method == "TSS+LOCAL"),
            )
        elif method == "SDC+":
            disk = DiskSimulator(io_cost_seconds=self.io_cost_seconds)
            result = sdc_plus_dynamic_skyline(
                self.dataset, partial_orders, max_entries=self.max_entries, disk=disk
            )
        else:
            raise ExperimentError(f"unknown dynamic method {method!r}; expected one of {self.METHODS}")
        return MeasuredRun.from_result(
            method,
            result,
            parameters=self.spec.describe(),
            progress_fractions=tuple(progress_fractions),
        )

    def compare(
        self,
        methods: Sequence[str] = ("SDC+", "TSS"),
        *,
        query_seed: int = 1,
        progress_fractions: Sequence[float] = (),
    ) -> dict[str, MeasuredRun]:
        partial_orders = random_query_preferences(self.schema, query_seed)
        return {
            m: self.run(m, partial_orders, progress_fractions=progress_fractions) for m in methods
        }
