"""Runtime configuration: every ``REPRO_*`` knob resolved in one place.

The resolvers for every environment knob — ``REPRO_KERNEL``,
``REPRO_WORKERS``, ``REPRO_STORE``, ``REPRO_COMPACT_THRESHOLD``,
``REPRO_FAULTS`` and ``REPRO_BENCH_PROFILE`` — live here, all following the
same precedence:

    explicit argument  >  CLI flag  >  ``REPRO_*`` environment variable  >  default

:class:`RuntimeConfig` bundles one resolved choice of every knob — kernel,
workers, shards, partitioner, prefilter, cache sizes and the storage-plane
knobs (store path, compaction threshold, fault spec) — as a frozen
dataclass, so a whole engine/service construction can be described, logged
and forwarded as a single value.  The public facade (:mod:`repro.api`) and the CLI build their engines through it.

The data path itself has no knobs; it follows whether NumPy imports.  With
NumPy the engine and the sharded executor run on a NumPy-backed
:class:`~repro.data.columns.EncodedFrame`, build ``flat`` R-trees and
memory-map packed store sections; without it they run on tuple-backed frames,
``pointer`` R-trees and struct-unpacked sections.  Shards always merge with
the columnar sort-merge, and store checksums are always verified at open.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any

from repro.exceptions import ExperimentError

__all__ = [
    "BENCH_PROFILE_ENV_VAR",
    "COMPACT_THRESHOLD_ENV_VAR",
    "DEFAULT_COMPACT_THRESHOLD",
    "FAULTS_ENV_VAR",
    "KERNEL_ENV_VAR",
    "STORE_ENV_VAR",
    "WORKERS_ENV_VAR",
    "RuntimeConfig",
    "env_text",
    "resolve_compact_threshold",
    "resolve_faults",
    "resolve_workers",
]

#: Environment variable selecting the dominance kernel backend.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable selecting the benchmark parameter grid.
BENCH_PROFILE_ENV_VAR = "REPRO_BENCH_PROFILE"

#: Environment variable naming a packed dataset store to open.
STORE_ENV_VAR = "REPRO_STORE"

#: Environment variable setting the delta-plane auto-compaction threshold.
COMPACT_THRESHOLD_ENV_VAR = "REPRO_COMPACT_THRESHOLD"

#: Environment variable carrying a fault-injection spec (see :mod:`repro.faults`).
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Pending mutations (inserts + tombstoned deletes) that trigger an automatic
#: delta-plane compaction; ``0`` (or any value ``<= 0``) disables auto-compaction.
DEFAULT_COMPACT_THRESHOLD = 8192

def env_text(variable: str) -> str | None:
    """The raw value of one environment knob, or ``None`` when unset/blank.

    The single ``os.environ`` gateway of the library: every ``REPRO_*`` read
    funnels through here so the precedence rules live in one module.
    """
    raw = os.environ.get(variable)
    if raw is None or not raw.strip():
        return None
    return raw


def resolve_workers(workers: int | str | None = None) -> int:
    """Coerce a worker-count argument (int, string, or ``None`` for the env).

    ``0`` means in-process execution (no pool); ``None`` falls back to the
    ``REPRO_WORKERS`` environment variable, else ``0``.
    """
    source = ""
    if workers is None:
        raw = env_text(WORKERS_ENV_VAR)
        if raw is None:
            return 0
        workers = raw
        source = f" (from the {WORKERS_ENV_VAR} environment variable)"
    try:
        count = int(workers)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"worker count must be an integer, got {workers!r}{source}"
        ) from None
    if count < 0:
        raise ExperimentError(f"worker count must be >= 0, got {count}{source}")
    return count


def resolve_compact_threshold(threshold: int | str | None = None) -> int:
    """Coerce the delta-plane auto-compaction threshold.

    An explicit value wins; ``None`` consults the ``REPRO_COMPACT_THRESHOLD``
    environment variable, else :data:`DEFAULT_COMPACT_THRESHOLD`.  Values
    ``<= 0`` disable automatic compaction (explicit ``compact()`` still works)
    and are normalized to ``0``.
    """
    source = ""
    if threshold is None:
        raw = env_text(COMPACT_THRESHOLD_ENV_VAR)
        if raw is None:
            return DEFAULT_COMPACT_THRESHOLD
        threshold = raw
        source = f" (from the {COMPACT_THRESHOLD_ENV_VAR} environment variable)"
    try:
        value = int(threshold)
    except (TypeError, ValueError):
        raise ExperimentError(
            f"compaction threshold must be an integer, got {threshold!r}{source}"
        ) from None
    return max(0, value)


def resolve_faults(spec: str | None = None) -> str | None:
    """Coerce a fault-injection spec (``None`` falls back to ``REPRO_FAULTS``).

    Returns the validated spec string (or ``None`` when fault injection is
    off).  Validation delegates to :func:`repro.faults.parse_faults_spec`,
    which raises :class:`~repro.exceptions.ExperimentError` on malformed
    clauses — so a typo in ``REPRO_FAULTS`` fails loudly at resolve time
    instead of silently running fault-free.
    """
    source = ""
    if spec is None:
        spec = env_text(FAULTS_ENV_VAR)
        if spec is None:
            return None
        source = f" (from the {FAULTS_ENV_VAR} environment variable)"
    spec = spec.strip()
    if not spec:
        return None
    from repro.faults.registry import parse_faults_spec

    try:
        parse_faults_spec(spec)
    except ExperimentError as error:
        raise ExperimentError(f"{error}{source}") from None
    return spec


def env_kernel_name() -> str | None:
    """The ``REPRO_KERNEL`` override, or ``None`` (kernel registry hook)."""
    return env_text(KERNEL_ENV_VAR)


def env_store_path() -> str | None:
    """The ``REPRO_STORE`` default store path, or ``None``."""
    return env_text(STORE_ENV_VAR)


def env_bench_profile(variable: str = BENCH_PROFILE_ENV_VAR) -> str | None:
    """The requested benchmark profile name, or ``None`` when unset."""
    return env_text(variable)


@dataclass(frozen=True)
class RuntimeConfig:
    """One fully resolved choice of every runtime knob.

    Built with :meth:`resolve`, which applies the library-wide precedence
    (explicit argument > env var > default) to each field in one shot.
    ``kernel`` stays a *requested name* (``None`` = process default) because
    its availability check lives in the kernel registry; everything else is
    resolved to its final value.
    """

    kernel: str | None = None
    workers: int = 0
    shards: int | None = None
    partitioner: str = "round-robin"
    prefilter: bool = True
    cache_size: int | None = None
    max_entries: int = 32
    store: str | None = None
    compact_threshold: int = DEFAULT_COMPACT_THRESHOLD
    faults: str | None = None

    @classmethod
    def resolve(
        cls,
        *,
        kernel: str | None = None,
        workers: int | str | None = None,
        shards: int | None = None,
        partitioner: str = "round-robin",
        prefilter: bool = True,
        cache_size: int | None = None,
        max_entries: int = 32,
        store: str | os.PathLike[str] | None = None,
        compact_threshold: int | str | None = None,
        faults: str | None = None,
    ) -> "RuntimeConfig":
        """Resolve every knob: explicit arguments win, then ``REPRO_*`` vars,
        then defaults.  Raises :class:`~repro.exceptions.ExperimentError` on
        malformed values (naming the env var when it was the source)."""
        if store is None:
            store = env_store_path()
        return cls(
            kernel=kernel if kernel is not None else env_kernel_name(),
            workers=resolve_workers(workers),
            shards=shards,
            partitioner=partitioner,
            prefilter=prefilter,
            cache_size=cache_size,
            max_entries=max_entries,
            store=None if store is None else os.fspath(store),
            compact_threshold=resolve_compact_threshold(compact_threshold),
            faults=resolve_faults(faults),
        )

    def install_faults(self) -> None:
        """Install this config's fault spec into :mod:`repro.faults`.

        A no-op when :attr:`faults` is ``None`` (the registry keeps lazily
        resolving ``REPRO_FAULTS`` itself), so config-built engines without an
        explicit spec behave identically to direct construction.
        """
        if self.faults is not None:
            from repro.faults.registry import install

            install(self.faults)

    def with_overrides(self, **changes: Any) -> "RuntimeConfig":
        """A copy with the given fields replaced (facade keyword overrides)."""
        return replace(self, **changes)

    def engine_options(self) -> dict[str, Any]:
        """Keyword arguments for :class:`~repro.engine.batch.BatchQueryEngine`."""
        options: dict[str, Any] = {
            "kernel": self.kernel,
            "workers": self.workers,
            "num_shards": self.shards,
            "partitioner": self.partitioner,
            "prefilter": self.prefilter,
            "max_entries": self.max_entries,
            "compact_threshold": self.compact_threshold,
        }
        if self.cache_size is not None:
            options["cache_size"] = self.cache_size
        return options
