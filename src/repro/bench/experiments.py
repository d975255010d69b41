"""One experiment per table/figure of the paper's evaluation (Section VI).

Each function builds the relevant workload sweep with a
:class:`~repro.bench.runner.BenchProfile`, runs TSS and SDC+ (and, where the
figure calls for it, other methods), and returns an
:class:`~repro.bench.reporting.ExperimentTable` with the same series the
paper plots.  The ``EXPERIMENTS`` registry maps experiment ids (``fig7`` ...
``fig14``, ``table1``, ``ablation_*``) to these functions; the CLI and the
pytest-benchmark suite both go through :func:`run_experiment`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.bench.reporting import ExperimentTable
from repro.bench.runner import PROGRESS_FRACTIONS, BenchProfile, DynamicRunner, StaticRunner
from repro.core.framework import skyline_records
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.data.workloads import DEFAULT_SCALE_FACTOR
from repro.engine.batch import random_query_preferences
from repro.exceptions import ExperimentError
from repro.order.builders import airline_preference_dag, airline_preference_dag_second

#: Both data distributions used throughout the evaluation.
DISTRIBUTIONS = ("independent", "anticorrelated")


# --------------------------------------------------------------------- #
# Table I — the flight reservation example of the introduction
# --------------------------------------------------------------------- #
PAPER_TICKETS = [
    ("p1", 1800, 0, "a"),
    ("p2", 2000, 0, "a"),
    ("p3", 1800, 0, "b"),
    ("p4", 1200, 1, "b"),
    ("p5", 1400, 1, "a"),
    ("p6", 1000, 1, "b"),
    ("p7", 1000, 1, "d"),
    ("p8", 1800, 1, "c"),
    ("p9", 500, 2, "d"),
    ("p10", 1200, 2, "c"),
]


def flight_dataset(airline_dag) -> tuple[Schema, Dataset, dict[int, str]]:
    """The 10-ticket example dataset of Figure 1 under a given airline order."""
    schema = Schema(
        [
            TotalOrderAttribute("price"),
            TotalOrderAttribute("stops"),
            PartialOrderAttribute("airline", airline_dag),
        ]
    )
    rows = [(price, stops, airline) for _, price, stops, airline in PAPER_TICKETS]
    dataset = Dataset(schema, rows)
    labels = {i: name for i, (name, *_rest) in enumerate(PAPER_TICKETS)}
    return schema, dataset, labels


def table1_flights(profile: BenchProfile | None = None) -> ExperimentTable:
    """Table I: skyline tickets under the two airline partial orders."""
    table = ExperimentTable(
        experiment_id="table1",
        title="Skyline tickets under different airline partial orders (Table I)",
        expected_shape="first order: {p1,p5,p6,p9,p10}; second order: {p3,p6,p7,p8,p9,p10}",
    )
    for label, dag in (
        ("a<b, a<c, b<d, c<d", airline_preference_dag()),
        ("b<a only", airline_preference_dag_second()),
    ):
        _, dataset, names = flight_dataset(dag)
        skyline = skyline_records(dataset, algorithm="stss")
        table.add_row(
            {
                "partial order": label,
                "skyline tickets": ", ".join(sorted((names[r.id] for r in skyline), key=lambda s: int(s[1:]))),
            }
        )
    return table


# --------------------------------------------------------------------- #
# Static experiments (Figures 7-11)
# --------------------------------------------------------------------- #
def _static_sweep(
    profile: BenchProfile,
    *,
    experiment_id: str,
    title: str,
    expected_shape: str,
    axis_name: str,
    axis_values: Sequence[object],
    spec_overrides: Callable[[object], dict[str, object]],
    distributions: Sequence[str] = DISTRIBUTIONS,
    methods: Sequence[str] = ("SDC+", "TSS"),
) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=experiment_id,
        title=title,
        parameters={"profile": profile.name, **profile.static_defaults},
        expected_shape=expected_shape,
    )
    for distribution in distributions:
        for axis_value in axis_values:
            runner = StaticRunner(profile.static_spec(distribution, **spec_overrides(axis_value)))
            measurements = runner.compare(methods)
            row: dict[str, object] = {"distribution": distribution, axis_name: axis_value}
            for method, run in measurements.items():
                row[f"{method} total (s)"] = run.total_seconds
                row[f"{method} cpu%"] = round(100 * run.cpu_fraction)
                row[f"{method} IOs"] = run.io_count
            reference = measurements[methods[0]].total_seconds
            target = measurements[methods[-1]].total_seconds
            row["speedup"] = reference / target if target > 0 else 0.0
            row["skyline"] = measurements[methods[-1]].skyline_size
            table.add_row(row)
    return table


def static_cardinality(profile: BenchProfile | None = None) -> ExperimentTable:
    """Figure 7: static total time vs data set cardinality."""
    profile = profile or BenchProfile.from_env()
    return _static_sweep(
        profile,
        experiment_id="fig7",
        title="Static: total time vs cardinality (Figure 7)",
        expected_shape="TSS ~1.7-3x faster than SDC+ at every N; both grow with N",
        axis_name="N",
        axis_values=profile.cardinalities,
        spec_overrides=lambda n: {"cardinality": int(n)},
    )


def static_dimensionality(profile: BenchProfile | None = None) -> ExperimentTable:
    """Figure 8: static total time vs (|TO|, |PO|) dimensionality."""
    profile = profile or BenchProfile.from_env()
    return _static_sweep(
        profile,
        experiment_id="fig8",
        title="Static: total time vs dimensionality (Figure 8)",
        expected_shape="TSS 1.4x-5.3x faster; gap grows with dimensionality, especially |PO|=2",
        axis_name="(|TO|,|PO|)",
        axis_values=profile.dimensionalities,
        spec_overrides=lambda dims: {
            "num_total_order": int(dims[0]),
            "num_partial_order": int(dims[1]),
        },
    )


def static_dag_height(profile: BenchProfile | None = None) -> ExperimentTable:
    """Figure 9: static total time vs DAG height."""
    profile = profile or BenchProfile.from_env()
    return _static_sweep(
        profile,
        experiment_id="fig9",
        title="Static: total time vs DAG height (Figure 9)",
        expected_shape="TSS advantage grows with DAG height (up to 5x/9x at the tallest DAGs)",
        axis_name="h",
        axis_values=profile.dag_heights,
        spec_overrides=lambda h: {"dag_height": int(h)},
    )


def static_dag_density(profile: BenchProfile | None = None) -> ExperimentTable:
    """Figure 10: static total time vs DAG density."""
    profile = profile or BenchProfile.from_env()
    return _static_sweep(
        profile,
        experiment_id="fig10",
        title="Static: total time vs DAG density (Figure 10)",
        expected_shape="TSS advantage grows with density (SDC+ loses more preferences to non-tree edges)",
        axis_name="d",
        axis_values=profile.dag_densities,
        spec_overrides=lambda d: {"dag_density": float(d)},
    )


def static_progressiveness(profile: BenchProfile | None = None) -> ExperimentTable:
    """Figure 11: time to retrieve a given percentage of the skyline."""
    profile = profile or BenchProfile.from_env()
    table = ExperimentTable(
        experiment_id="fig11",
        title="Static: progressiveness (Figure 11)",
        parameters={"profile": profile.name, **profile.static_defaults},
        expected_shape="TSS reports results steadily; SDC+ jumps per stratum (TSS ~9x/21x faster at 50%)",
    )
    for distribution in DISTRIBUTIONS:
        runner = StaticRunner(profile.static_spec(distribution))
        measurements = runner.compare(("SDC+", "TSS"), progress_fractions=PROGRESS_FRACTIONS)
        for percent in sorted(measurements["TSS"].progressive_times):
            table.add_row(
                {
                    "distribution": distribution,
                    "results retrieved (%)": percent,
                    "SDC+ time (s)": measurements["SDC+"].progressive_times[percent],
                    "TSS time (s)": measurements["TSS"].progressive_times[percent],
                }
            )
    return table


# --------------------------------------------------------------------- #
# Dynamic experiments (Figures 12-14)
# --------------------------------------------------------------------- #
def _dynamic_sweep(
    profile: BenchProfile,
    *,
    experiment_id: str,
    title: str,
    expected_shape: str,
    axis_name: str,
    axis_values: Sequence[object],
    spec_overrides: Callable[[object], dict[str, object]],
    distributions: Sequence[str] = DISTRIBUTIONS,
) -> ExperimentTable:
    table = ExperimentTable(
        experiment_id=experiment_id,
        title=title,
        parameters={"profile": profile.name, **profile.dynamic_defaults},
        expected_shape=expected_shape,
    )
    for distribution in distributions:
        for axis_value in axis_values:
            runner = DynamicRunner(profile.dynamic_spec(distribution, **spec_overrides(axis_value)))
            measurements = runner.compare(("SDC+", "TSS"))
            sdc, tss = measurements["SDC+"], measurements["TSS"]
            table.add_row(
                {
                    "distribution": distribution,
                    axis_name: axis_value,
                    "SDC+ total (s)": sdc.total_seconds,
                    "TSS total (s)": tss.total_seconds,
                    "SDC+ IOs": sdc.io_count,
                    "TSS IOs": tss.io_count,
                    "speedup": sdc.total_seconds / tss.total_seconds if tss.total_seconds > 0 else 0.0,
                    "skyline": tss.skyline_size,
                }
            )
    return table


def dynamic_cardinality(profile: BenchProfile | None = None) -> ExperimentTable:
    """Figure 12: dynamic total time vs data set cardinality."""
    profile = profile or BenchProfile.from_env()
    return _dynamic_sweep(
        profile,
        experiment_id="fig12",
        title="Dynamic: total time vs cardinality (Figure 12)",
        expected_shape="TSS ~7x faster at small N, growing beyond 100x at large N (SDC+ is "
        f"IO bound); the profiles run the paper's N scaled down {DEFAULT_SCALE_FACTOR}x "
        "(data.workloads.DEFAULT_SCALE_FACTOR), so SDC+'s IO charge stays small: "
        "--profile full reads 1.0-3.2x anticorrelated, 1.6-6.5x independent",
        axis_name="N",
        axis_values=profile.cardinalities,
        spec_overrides=lambda n: {"cardinality": int(n)},
    )


def dynamic_dimensionality(profile: BenchProfile | None = None) -> ExperimentTable:
    """Figure 13: dynamic total time vs dimensionality."""
    profile = profile or BenchProfile.from_env()
    return _dynamic_sweep(
        profile,
        experiment_id="fig13",
        title="Dynamic: total time vs dimensionality (Figure 13)",
        expected_shape="TSS up to 2 orders of magnitude faster at low dims, ~2x at (4,2)",
        axis_name="(|TO|,|PO|)",
        axis_values=profile.dimensionalities,
        spec_overrides=lambda dims: {
            "num_total_order": int(dims[0]),
            "num_partial_order": int(dims[1]),
        },
    )


def dynamic_dag_structure(profile: BenchProfile | None = None) -> ExperimentTable:
    """Figure 14: dynamic total time vs DAG height and density (anti-correlated)."""
    profile = profile or BenchProfile.from_env()
    table = ExperimentTable(
        experiment_id="fig14",
        title="Dynamic: total time vs DAG structure (Figure 14, anti-correlated)",
        parameters={"profile": profile.name, **profile.dynamic_defaults},
        expected_shape="TSS ~2 orders faster for small DAGs, shrinking for very large DAGs; "
        "both methods insensitive to density (TSS 20-40x faster)",
    )
    for axis_name, axis_values, overrides in (
        ("h", profile.dag_heights, lambda h: {"dag_height": int(h)}),
        ("d", profile.dag_densities, lambda d: {"dag_density": float(d)}),
    ):
        for axis_value in axis_values:
            runner = DynamicRunner(profile.dynamic_spec("anticorrelated", **overrides(axis_value)))
            measurements = runner.compare(("SDC+", "TSS"))
            sdc, tss = measurements["SDC+"], measurements["TSS"]
            table.add_row(
                {
                    "sweep": axis_name,
                    "value": axis_value,
                    "SDC+ total (s)": sdc.total_seconds,
                    "TSS total (s)": tss.total_seconds,
                    "SDC+ IOs": sdc.io_count,
                    "TSS IOs": tss.io_count,
                    "speedup": sdc.total_seconds / tss.total_seconds if tss.total_seconds > 0 else 0.0,
                    "skyline": tss.skyline_size,
                }
            )
    return table


# --------------------------------------------------------------------- #
# Ablations of the design choices called out in DESIGN.md
# --------------------------------------------------------------------- #
def ablation_virtual_rtree(profile: BenchProfile | None = None) -> ExperimentTable:
    """sTSS with the main-memory virtual-point R-tree vs plain skyline-list scans."""
    profile = profile or BenchProfile.from_env()
    table = ExperimentTable(
        experiment_id="ablation_virtual_rtree",
        title="Ablation: t-dominance via virtual-point R-tree vs skyline-list scan",
        parameters={"profile": profile.name},
        expected_shape="the R-tree check cuts pairwise dominance checks by orders of magnitude "
        "(its CPU benefit needs larger skylines or a compiled implementation)",
    )
    for distribution in DISTRIBUTIONS:
        runner = StaticRunner(profile.static_spec(distribution))
        plain = runner.run("TSS")
        optimized = runner.run("TSS*")
        table.add_row(
            {
                "distribution": distribution,
                "TSS (list) cpu (s)": plain.cpu_seconds,
                "TSS* (rtree) cpu (s)": optimized.cpu_seconds,
                "TSS checks": plain.dominance_checks,
                "TSS* checks": optimized.dominance_checks,
                "skyline": plain.skyline_size,
            }
        )
    return table


def ablation_dtss_precompute(profile: BenchProfile | None = None) -> ExperimentTable:
    """dTSS with vs without per-group local-skyline pre-computation (Section V-B)."""
    profile = profile or BenchProfile.from_env()
    table = ExperimentTable(
        experiment_id="ablation_dtss_precompute",
        title="Ablation: dTSS local-skyline pre-computation",
        parameters={"profile": profile.name},
        expected_shape="pre-computed local skylines reduce per-query work and IOs",
    )
    for distribution in DISTRIBUTIONS:
        runner = DynamicRunner(profile.dynamic_spec(distribution))
        partial_orders = random_query_preferences(runner.schema, 3)
        base = runner.run("TSS", partial_orders)
        precomputed = runner.run("TSS+local", partial_orders)
        table.add_row(
            {
                "distribution": distribution,
                "dTSS total (s)": base.total_seconds,
                "dTSS+local total (s)": precomputed.total_seconds,
                "dTSS checks": base.dominance_checks,
                "dTSS+local checks": precomputed.dominance_checks,
                "skyline": base.skyline_size,
            }
        )
    return table


#: Registry used by the CLI and the pytest-benchmark suite.
EXPERIMENTS: dict[str, Callable[[BenchProfile | None], ExperimentTable]] = {
    "table1": table1_flights,
    "fig7": static_cardinality,
    "fig8": static_dimensionality,
    "fig9": static_dag_height,
    "fig10": static_dag_density,
    "fig11": static_progressiveness,
    "fig12": dynamic_cardinality,
    "fig13": dynamic_dimensionality,
    "fig14": dynamic_dag_structure,
    "ablation_virtual_rtree": ablation_virtual_rtree,
    "ablation_dtss_precompute": ablation_dtss_precompute,
}


def run_experiment(experiment_id: str, profile: BenchProfile | None = None) -> ExperimentTable:
    """Run one registered experiment by id and return its table."""
    try:
        implementation = EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}"
        ) from exc
    table = implementation(profile)
    # Label every table with the dominance kernel that produced it: the
    # batched backends charge whole blocks per check while the pure-Python
    # reference early-exits, so counter-based columns are only comparable
    # across runs that used the same backend.
    from repro.kernels import get_kernel

    table.parameters.setdefault("kernel", get_kernel().name)
    return table
