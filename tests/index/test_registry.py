"""Unit tests for the spatial-index backend registry."""

import pytest

from repro.exceptions import ExperimentError
from repro.index.registry import _numpy_available, available_indexes, resolve_index


class TestResolution:
    def test_pointer_is_always_available(self):
        assert "pointer" in available_indexes()
        assert resolve_index("pointer") == "pointer"

    def test_unknown_backend_fails_cleanly(self):
        with pytest.raises(ExperimentError, match="unknown index backend"):
            resolve_index("btree")

    @pytest.mark.parametrize("retired_alias", ["rtree", "array", "FLAT"])
    def test_only_canonical_names_are_accepted(self, retired_alias):
        with pytest.raises(ExperimentError, match="unknown index backend"):
            resolve_index(retired_alias)

    def test_default_follows_numpy(self):
        expected = "flat" if _numpy_available() else "pointer"
        assert resolve_index(None) == expected
        assert available_indexes()[-1] == expected

    def test_default_is_pointer_without_numpy(self, monkeypatch):
        import repro.index.registry as registry

        monkeypatch.setattr(registry, "_numpy_available", lambda: False)
        assert resolve_index(None) == "pointer"
        assert available_indexes() == ("pointer",)

    def test_flat_without_numpy_is_a_clean_error(self, monkeypatch):
        if _numpy_available():
            import repro.index.registry as registry

            monkeypatch.setattr(registry, "_numpy_available", lambda: False)
        with pytest.raises(ExperimentError, match="requires NumPy"):
            resolve_index("flat")
