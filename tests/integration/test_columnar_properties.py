"""Property suite: the columnar frame path of the paper algorithms is
indistinguishable from their record walk.

For random mixed TO/PO datasets and both kernel backends, sTSS, SFS and LESS
over an encoded frame must produce the identical skyline id-set and spend
equal-or-fewer dominance checks than the record-at-a-time reference (the
engine and the sharded executor run only the frame path; their oracle check
lives in ``tests/engine/test_oracle_differential.py``).  (The
implementation is stronger than the contract — identical discovery order and
identical check counts — but the asserted property is what future
optimizations must preserve.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stss import stss_skyline
from repro.data.columns import EncodedFrame
from repro.kernels import available_kernels
from repro.skyline.less import less_skyline
from repro.skyline.sfs import sfs_skyline
from tests.conftest import mixed_dataset_strategy, record_path

KERNELS = available_kernels()


class TestColumnarEqualsRecordPath:
    @given(
        dataset=mixed_dataset_strategy(max_rows=30, min_to=0),
        kernel=st.sampled_from(KERNELS),
    )
    @settings(max_examples=25, deadline=None)
    def test_scan_algorithms(self, dataset, kernel):
        frame = EncodedFrame.from_dataset(dataset)
        for algorithm in (sfs_skyline, less_skyline):
            with record_path():
                record = algorithm(dataset, kernel=kernel)
            columnar = algorithm(dataset, kernel=kernel, frame=frame)
            assert frozenset(columnar.skyline_ids) == frozenset(record.skyline_ids), (
                algorithm.__name__
            )
            assert (
                columnar.stats.dominance_checks <= record.stats.dominance_checks
            ), algorithm.__name__

    @given(
        dataset=mixed_dataset_strategy(max_rows=30, min_to=0),
        kernel=st.sampled_from(KERNELS),
    )
    @settings(max_examples=25, deadline=None)
    def test_stss(self, dataset, kernel):
        frame = EncodedFrame.from_dataset(dataset)
        with record_path():
            record = stss_skyline(dataset, kernel=kernel)
        columnar = stss_skyline(dataset, kernel=kernel, frame=frame)
        assert frozenset(columnar.skyline_ids) == frozenset(record.skyline_ids)
        assert columnar.stats.dominance_checks <= record.stats.dominance_checks


@pytest.mark.skipif(
    "numpy" not in KERNELS, reason="fallback frame backend needs a NumPy reference"
)
class TestFallbackFrameBackend:
    @given(dataset=mixed_dataset_strategy(max_rows=20))
    @settings(max_examples=10, deadline=None)
    def test_tuple_backend_agrees_with_numpy_backend(self, dataset):
        import repro.data.columns as columns

        reference = sfs_skyline(dataset, frame=EncodedFrame.from_dataset(dataset))
        original = columns._numpy_or_none
        columns._numpy_or_none = lambda: None
        try:
            fallback_frame = EncodedFrame.from_dataset(dataset)
            assert not fallback_frame.uses_numpy
            fallback = sfs_skyline(dataset, frame=fallback_frame, kernel="purepython")
        finally:
            columns._numpy_or_none = original
        assert frozenset(fallback.skyline_ids) == frozenset(reference.skyline_ids)
