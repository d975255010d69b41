"""Unit tests for the spatial-index backend registry."""

import pytest

from repro.config import INDEX_ENV_VAR
from repro.exceptions import ExperimentError
from repro.index.registry import (
    _numpy_available,
    available_indexes,
    resolve_index,
    set_default_index,
)


@pytest.fixture(autouse=True)
def _clean_registry(monkeypatch):
    monkeypatch.delenv(INDEX_ENV_VAR, raising=False)
    set_default_index(None)
    yield
    set_default_index(None)


class TestResolution:
    def test_pointer_is_always_available(self):
        assert "pointer" in available_indexes()
        assert resolve_index("pointer") == "pointer"

    def test_aliases(self):
        assert resolve_index("rtree") == "pointer"
        if _numpy_available():
            assert resolve_index("array") == "flat"
            assert resolve_index("FLAT") == "flat"

    def test_unknown_backend_fails_cleanly(self):
        with pytest.raises(ExperimentError, match="unknown index backend"):
            resolve_index("btree")

    def test_default_prefers_flat_with_numpy(self):
        expected = "flat" if _numpy_available() else "pointer"
        assert resolve_index(None) == expected
        assert available_indexes()[-1] == expected

    def test_env_var_is_consulted(self, monkeypatch):
        monkeypatch.setenv(INDEX_ENV_VAR, "pointer")
        assert resolve_index(None) == "pointer"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(INDEX_ENV_VAR, "pointer")
        if not _numpy_available():
            pytest.skip("flat backend requires NumPy")
        set_default_index("flat")
        assert resolve_index(None) == "flat"
        set_default_index(None)
        assert resolve_index(None) == "pointer"

    def test_explicit_argument_beats_everything(self, monkeypatch):
        monkeypatch.setenv(INDEX_ENV_VAR, "bogus")
        assert resolve_index("pointer") == "pointer"

    def test_flat_without_numpy_is_a_clean_error(self, monkeypatch):
        if _numpy_available():
            import repro.index.registry as registry

            monkeypatch.setattr(registry, "_numpy_available", lambda: False)
        with pytest.raises(ExperimentError, match="requires NumPy"):
            resolve_index("flat")
