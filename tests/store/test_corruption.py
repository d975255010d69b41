"""Corruption tests: damaged store files fail loudly with a typed StoreError.

A corrupt store must never crash with a raw OSError/struct.error and — worse —
never load into a silently wrong answer.  Every failure mode names the store
path, and the format-sensitive ones name the format version this build reads.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.data.workloads import WorkloadSpec
from repro.exceptions import StoreError
from repro.store import FORMAT_VERSION, MAGIC, DatasetStore, pack_dataset
from tests.conftest import frame_backing_of


@pytest.fixture(scope="module")
def packed_bytes(tmp_path_factory):
    spec = WorkloadSpec(
        name="store-corruption",
        cardinality=80,
        num_total_order=2,
        num_partial_order=1,
        dag_height=3,
        dag_density=0.8,
        to_domain_size=20,
        seed=2,
    )
    _, dataset = spec.build()
    path = tmp_path_factory.mktemp("store") / "intact.rpro"
    pack_dataset(dataset, path)
    return path.read_bytes()


@pytest.fixture
def damaged(tmp_path):
    """Write a damaged variant and return its path."""

    def write(payload: bytes):
        path = tmp_path / "damaged.rpro"
        path.write_bytes(payload)
        return path

    return write


def _header(payload: bytes) -> dict:
    (length,) = struct.unpack("<Q", payload[len(MAGIC) : len(MAGIC) + 8])
    return json.loads(payload[len(MAGIC) + 8 : len(MAGIC) + 8 + length])


class TestOpenRejectsDamage:
    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.rpro"
        with pytest.raises(StoreError, match=str(path)):
            DatasetStore.open(path)

    def test_bad_magic(self, packed_bytes, damaged):
        path = damaged(b"NOTSTORE" + packed_bytes[len(MAGIC) :])
        with pytest.raises(StoreError, match="bad magic"):
            DatasetStore.open(path)

    def test_empty_file(self, damaged):
        with pytest.raises(StoreError, match="bad magic"):
            DatasetStore.open(damaged(b""))

    @pytest.mark.parametrize("keep", [12, 100, 4096])
    def test_truncated_file(self, packed_bytes, damaged, keep):
        path = damaged(packed_bytes[:keep])
        with pytest.raises(StoreError, match="truncat|corrupt|magic"):
            DatasetStore.open(path)

    def test_truncated_mid_sections(self, packed_bytes, damaged):
        # Keep the header intact but drop the tail of the section area.
        path = damaged(packed_bytes[: len(packed_bytes) - 4096])
        with pytest.raises(StoreError, match="truncated|checksum"):
            DatasetStore.open(path)

    def test_flipped_section_byte_fails_checksum(self, packed_bytes, damaged):
        header = _header(packed_bytes)
        spec = header["sections"]["frame_to"]
        position = spec["offset"] + spec["nbytes"] // 2
        mutated = bytearray(packed_bytes)
        mutated[position] ^= 0xFF
        path = damaged(bytes(mutated))
        with pytest.raises(StoreError, match="checksum"):
            DatasetStore.open(path)

    def test_wrong_format_version(self, packed_bytes, damaged):
        needle = b'"format_version":%d' % FORMAT_VERSION
        assert needle in packed_bytes
        path = damaged(packed_bytes.replace(needle, b'"format_version":9', 1))
        with pytest.raises(StoreError) as excinfo:
            DatasetStore.open(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"format version {FORMAT_VERSION}" in message  # what we *read*
        assert "re-pack" in message

    def test_corrupt_header_json(self, packed_bytes, damaged):
        mutated = bytearray(packed_bytes)
        mutated[len(MAGIC) + 8] = ord("?")  # clobber the header's first byte
        path = damaged(bytes(mutated))
        with pytest.raises(StoreError, match="corrupt header"):
            DatasetStore.open(path)

    def test_header_length_past_eof(self, packed_bytes, damaged):
        mutated = bytearray(packed_bytes)
        mutated[len(MAGIC) : len(MAGIC) + 8] = struct.pack("<Q", 1 << 40)
        path = damaged(bytes(mutated))
        with pytest.raises(StoreError, match="truncated"):
            DatasetStore.open(path)

    def test_skipping_verification_defers_not_hides(self, packed_bytes, damaged):
        """verify=False skips the checksum pass but structural damage still
        fails at open, and the engine path (verify on) always re-checks."""
        header = _header(packed_bytes)
        spec = header["sections"]["frame_to"]
        mutated = bytearray(packed_bytes)
        mutated[spec["offset"]] ^= 0xFF
        path = damaged(bytes(mutated))
        DatasetStore.open(path, verify=False)  # workers trust the parent
        with pytest.raises(StoreError, match="checksum"):
            DatasetStore.open(path)

    def test_engine_over_flipped_section_fails_at_open(
        self, packed_bytes, damaged, frame_backing
    ):
        from repro.engine.batch import BatchQueryEngine

        spec = _header(packed_bytes)["sections"]["frame_codes"]
        mutated = bytearray(packed_bytes)
        mutated[spec["offset"]] ^= 0xFF
        path = damaged(bytes(mutated))
        with pytest.raises(StoreError, match="checksum"):
            BatchQueryEngine(path)

    @pytest.mark.parametrize("section", ["frame_to", "frame_codes", "survivors"])
    def test_unpacked_section_damaged_after_open_is_never_served(
        self, packed_bytes, damaged, section
    ):
        """Without NumPy every section read is checked against its CRC, so
        bytes that changed on disk after the open's pass raise instead of
        reaching the frame."""
        path = damaged(packed_bytes)
        spec = _header(packed_bytes)["sections"][section]
        mutated = bytearray(packed_bytes)
        mutated[spec["offset"] + spec["nbytes"] // 2] ^= 0xFF
        with frame_backing_of("tuple"):
            store = DatasetStore.open(path)
            path.write_bytes(bytes(mutated))
            with pytest.raises(StoreError, match=f"checksum for section '{section}'"):
                store.survivors() if section == "survivors" else store.frame()

    def test_engine_surfaces_store_error(self, packed_bytes, damaged):
        from repro.engine.batch import BatchQueryEngine

        path = damaged(packed_bytes[:100])
        with pytest.raises(StoreError, match=str(path)):
            BatchQueryEngine(path)

    def test_facade_surfaces_store_error(self, packed_bytes, damaged):
        import repro

        path = damaged(b"NOTSTORE" + packed_bytes[len(MAGIC) :])
        with pytest.raises(StoreError, match="bad magic"):
            repro.open_dataset(path)
