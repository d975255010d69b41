"""Store section faults fail closed with a typed StoreError.

Checksums are verified once for every section at open, and the struct-unpack
path (no NumPy) checks each section again on the bytes it reads — so a
section that goes bad after open never reaches a frame.  There is no
fallback copy: the answer is the clean one or a typed error.
"""

from __future__ import annotations

import pytest

from repro.api import open_dataset
from repro.engine.batch import BatchQuery
from repro.exceptions import StoreError
from repro.faults.registry import describe, install
from repro.store import DatasetStore
from tests.conftest import frame_backing_of

#: One-shot section faults.  A mapped section has no payload at the fault
#: point, so ``corrupt`` degrades to ``raise`` there; the unpack path
#: corrupts the bytes it read and the per-read checksum catches them.
ONE_SHOT_FAULTS = {
    "raise": "store.section_read:raise:times=1",
    "corrupt": "store.section_read:corrupt:times=1",
}


def _skyline(path):
    with open_dataset(path, workers=0) as engine:
        return engine.run_query(BatchQuery("base")).skyline_ids


class TestSectionFaultsFailClosed:
    def test_injected_read_fault_raises_typed_at_open(self, packed_store):
        path, _ = packed_store
        install("store.section_read:raise:times=1")
        with pytest.raises(StoreError, match="injected fault"):
            _skyline(path)

    def test_section_corrupted_after_open_raises_typed(self, packed_store):
        # Regression: the unpack path once served a section read after the
        # open's checksum pass without checking it, so a corrupted read
        # reached the frame as altered rows.
        path, _ = packed_store
        with frame_backing_of("tuple"):
            clean = DatasetStore.open(path).frame()
            store = DatasetStore.open(path)
            assert not store.uses_mmap
            install("store.section_read:corrupt:times=1")
            with pytest.raises(StoreError, match="checksum"):
                store.frame()
            assert describe()[0]["fires"] == 1
            # The fault is spent: the next read serves the clean rows.
            assert store.frame().to == clean.to
            assert store.frame().codes == clean.codes

    @pytest.mark.parametrize("mode", sorted(ONE_SHOT_FAULTS))
    def test_one_shot_fault_fails_closed_then_serves_clean(
        self, packed_store, frame_backing, mode
    ):
        path, _ = packed_store
        reference = _skyline(path)
        install(ONE_SHOT_FAULTS[mode])
        caught_by_checksum = frame_backing == "tuple" and mode == "corrupt"
        with pytest.raises(
            StoreError, match="checksum" if caught_by_checksum else "injected fault"
        ):
            _skyline(path)
        assert describe()[0]["fires"] == 1
        # Nothing degraded is kept around: the next open is the clean store.
        assert _skyline(path) == reference

    def test_persistent_fault_fails_every_open(self, packed_store, frame_backing):
        path, _ = packed_store
        install("store.section_read:raise")
        for _ in range(2):
            with pytest.raises(StoreError, match="injected fault"):
                _skyline(path)
        assert describe()[0]["fires"] == 2

    def test_describe_reports_one_read_path(self, packed_store, frame_backing):
        path, _ = packed_store
        with open_dataset(path, workers=0) as engine:
            engine.run_query(BatchQuery("base"))
            described = engine.store.describe()
        assert described["mmap"] is (frame_backing == "numpy")
        assert "degraded_sections" not in described
        assert described["sections"]
