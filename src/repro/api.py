"""The public facade: open datasets (or packed stores) into query engines.

Two calls cover the whole lifecycle::

    import repro

    repro.pack(dataset, "catalog.rpro")              # once, offline
    engine = repro.open_dataset("catalog.rpro")      # per process: mmap, no re-encode
    result = engine.run_query(repro.BatchQuery(name="base"))

:func:`open_dataset` accepts anything the engine can query — an in-memory
:class:`~repro.data.dataset.Dataset`, an open
:class:`~repro.store.reader.DatasetStore`, or a packed-store path — and wires
it to a :class:`~repro.engine.batch.BatchQueryEngine` configured through one
:class:`~repro.config.RuntimeConfig` (explicit keywords > ``REPRO_*``
environment variables > defaults).  :func:`pack` is the writing half: it
persists a dataset's encoded artifacts into the single-file store format
(see :mod:`repro.store.format`).
"""

from __future__ import annotations

import os
from typing import Any

from repro.config import RuntimeConfig
from repro.data.dataset import Dataset
from repro.engine.batch import BatchQueryEngine
from repro.exceptions import ExperimentError


def _resolve_config(
    config: RuntimeConfig | None, overrides: dict[str, Any]
) -> RuntimeConfig:
    if config is None:
        return RuntimeConfig.resolve(**overrides)
    if overrides:
        return config.with_overrides(**overrides)
    return config


def open_dataset(
    source: "Dataset | object | str | os.PathLike[str] | None" = None,
    *,
    config: RuntimeConfig | None = None,
    **overrides: Any,
) -> BatchQueryEngine:
    """Open a dataset, store or store path as a ready-to-query engine.

    ``source`` may be a :class:`~repro.data.dataset.Dataset`, an open
    :class:`~repro.store.reader.DatasetStore`, a path to a packed store, or
    ``None`` — which uses the config's ``store`` (the ``REPRO_STORE``
    environment variable when not set explicitly).  ``config`` carries the
    runtime knobs; keyword overrides (the :meth:`RuntimeConfig.resolve
    <repro.config.RuntimeConfig.resolve>` fields — ``kernel``, ``workers``,
    ``shards``, ``partitioner``, ``prefilter``, ``cache_size``,
    ``max_entries``, ``store``, ``compact_threshold``, ``faults``) win over
    both.
    """
    config = _resolve_config(config, overrides)
    # Arm fault injection (``faults=`` / REPRO_FAULTS) before the engine
    # opens anything, so even the store-open path is injectable.
    config.install_faults()
    if source is None:
        if config.store is None:
            raise ExperimentError(
                "open_dataset needs a dataset, store or path — or a store "
                "configured via RuntimeConfig(store=...) / the "
                "REPRO_STORE environment variable"
            )
        source = config.store
    return BatchQueryEngine(source, **config.engine_options())


def pack(
    dataset: Dataset,
    out_path: "str | os.PathLike[str]",
    *,
    config: RuntimeConfig | None = None,
    **overrides: Any,
) -> dict[str, Any]:
    """Pack ``dataset`` into a single mmap-able store file at ``out_path``.

    The config's ``kernel`` runs the pack-time prefilter and its
    ``max_entries`` sets the persisted flat tree's fanout.  Returns the
    writer's summary dict (path, section sizes, counts).
    """
    from repro.store.writer import pack_dataset

    config = _resolve_config(config, overrides)
    return pack_dataset(
        dataset, out_path, kernel=config.kernel, max_entries=config.max_entries
    )
