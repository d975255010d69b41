"""RuntimeConfig resolution: precedence, env errors and the env gateway."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.config import (
    COMPACT_THRESHOLD_ENV_VAR,
    DEFAULT_COMPACT_THRESHOLD,
    KERNEL_ENV_VAR,
    STORE_ENV_VAR,
    WORKERS_ENV_VAR,
    RuntimeConfig,
    env_text,
    resolve_compact_threshold,
    resolve_workers,
)
from repro.exceptions import ExperimentError


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for variable in (
        KERNEL_ENV_VAR,
        WORKERS_ENV_VAR,
        STORE_ENV_VAR,
        COMPACT_THRESHOLD_ENV_VAR,
    ):
        monkeypatch.delenv(variable, raising=False)


class TestPrecedence:
    def test_defaults(self):
        config = RuntimeConfig.resolve()
        assert config.kernel is None
        assert config.workers == 0
        assert config.compact_threshold == DEFAULT_COMPACT_THRESHOLD
        assert config.store is None
        assert config.cache_size is None

    def test_env_fills_unset_fields(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "purepython")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(COMPACT_THRESHOLD_ENV_VAR, "17")
        monkeypatch.setenv(STORE_ENV_VAR, "/tmp/env.rpro")
        config = RuntimeConfig.resolve()
        assert config.kernel == "purepython"
        assert config.workers == 3
        assert config.compact_threshold == 17
        assert config.store == "/tmp/env.rpro"

    def test_explicit_arguments_beat_env(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        monkeypatch.setenv(COMPACT_THRESHOLD_ENV_VAR, "17")
        monkeypatch.setenv(STORE_ENV_VAR, "/tmp/env.rpro")
        config = RuntimeConfig.resolve(
            workers=1, compact_threshold=5, store="/tmp/flag.rpro"
        )
        assert config.workers == 1
        assert config.compact_threshold == 5
        assert config.store == "/tmp/flag.rpro"

    def test_with_overrides_replaces_fields(self):
        config = RuntimeConfig.resolve(workers=2)
        changed = config.with_overrides(workers=5, store="/tmp/x.rpro")
        assert changed.workers == 5 and changed.store == "/tmp/x.rpro"
        assert config.workers == 2  # frozen original untouched

    def test_engine_options_round_trip(self):
        config = RuntimeConfig.resolve(workers=2, compact_threshold=5, cache_size=7)
        options = config.engine_options()
        # ``workers`` is resolved and kept on the config, never handed on:
        # the engine answers every query in-process.
        assert config.workers == 2
        assert options == {"kernel": None, "compact_threshold": 5, "cache_size": 7}

    def test_data_path_has_no_knobs(self):
        """The data path follows NumPy: no frame, merge, index, mmap, crc or
        prefilter toggles."""
        names = {field.name for field in fields(RuntimeConfig)}
        assert not names & {"frame", "merge", "index", "mmap", "crc", "prefilter"}
        assert len(names) == 6

    @pytest.mark.parametrize(
        "retired",
        ["index", "mmap", "crc", "prefilter", "shards", "partitioner", "max_entries"],
    )
    def test_retired_knobs_are_rejected(self, retired):
        with pytest.raises(TypeError):
            RuntimeConfig.resolve(**{retired: None})

    def test_blank_env_values_are_ignored(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "   ")
        assert env_text(WORKERS_ENV_VAR) is None
        assert RuntimeConfig.resolve().workers == 0


class TestErrors:
    @pytest.mark.parametrize("bad", ["lots", "-2", "1.5"])
    def test_bad_workers_env_names_the_variable(self, monkeypatch, bad):
        monkeypatch.setenv(WORKERS_ENV_VAR, bad)
        with pytest.raises(ExperimentError, match=WORKERS_ENV_VAR):
            resolve_workers()

    def test_bad_compact_threshold_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(COMPACT_THRESHOLD_ENV_VAR, "sideways")
        with pytest.raises(ExperimentError, match=COMPACT_THRESHOLD_ENV_VAR):
            resolve_compact_threshold()

    def test_explicit_bad_value_does_not_blame_env(self):
        with pytest.raises(ExperimentError) as excinfo:
            resolve_workers("many")
        assert WORKERS_ENV_VAR not in str(excinfo.value)


class TestEnvGateway:
    def test_env_reads_live_only_in_config(self):
        """The library funnels every REPRO_* read through repro.config.

        Asserted through the reprolint ``env-gateway`` rule, which sees the
        AST (``from os import environ`` aliases included) rather than a
        substring scan.
        """
        import pathlib
        import sys

        import repro

        package_root = pathlib.Path(repro.__file__).parent
        tools_dir = package_root.parents[1] / "tools"
        if str(tools_dir) not in sys.path:
            sys.path.insert(0, str(tools_dir))
        from reprolint import run_paths

        report = run_paths([package_root], rules=["env-gateway"])
        assert [f.render() for f in report.findings] == []
        assert report.modules_checked > 50
