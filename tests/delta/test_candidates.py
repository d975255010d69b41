"""The base-candidate tracker reports exactly the fronts a delete changed."""

from __future__ import annotations

import pytest

from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.delta.candidates import BaseCandidateTracker
from repro.engine.prefilter import prefilter_survivors
from repro.kernels import available_kernels, get_kernel
from repro.order.builders import chain
from tests.conftest import assert_backing

pytestmark = pytest.mark.usefixtures("frame_backing")

SCHEMA = Schema(
    [
        TotalOrderAttribute("t0"),
        TotalOrderAttribute("t1"),
        PartialOrderAttribute("p0", chain(["a", "b"])),
    ]
)
ROWS = [
    (1, 1, "a"), (2, 2, "a"), (3, 0, "a"),  # front of a: rows 0 and 2
    (0, 9, "b"), (5, 5, "b"),  # front of b: rows 3 and 4
]


@pytest.mark.parametrize("kernel", available_kernels())
def test_remove_rows_reports_only_dirty_fronts(kernel, frame_backing):
    frame = EncodedFrame.from_dataset(Dataset(SCHEMA, ROWS))
    assert_backing(frame, frame_backing)
    kernel = get_kernel(kernel)
    survivors = prefilter_survivors(SCHEMA, None, frame, kernel)
    assert survivors == [0, 2, 3, 4]
    tracker = BaseCandidateTracker(frame, kernel, initial_rows=survivors)
    group_a, group_b = (0,), (1,)
    # A prefilter-dropped row: no front changes.
    assert tracker.remove_rows([1]) == {}
    assert tracker.candidates() == survivors
    # A front row of a: only a is recomputed; row 1 stays deleted.
    assert tracker.remove_rows([0]) == {group_a: [2]}
    assert tracker.candidates() == [2, 3, 4]
    # Deleting all of b leaves it an empty front.
    assert tracker.remove_rows([3, 4]) == {group_b: []}
    assert tracker.candidates() == [2]
    # Rows outside the base are ignored.
    assert tracker.remove_rows([len(ROWS)]) == {}


@pytest.mark.parametrize("kernel", available_kernels())
def test_remove_rows_resurrects_a_dropped_sibling(kernel, frame_backing):
    frame = EncodedFrame.from_dataset(Dataset(SCHEMA, ROWS))
    kernel = get_kernel(kernel)
    survivors = prefilter_survivors(SCHEMA, None, frame, kernel)
    tracker = BaseCandidateTracker(frame, kernel, initial_rows=survivors)
    # (1, 1) masked (2, 2); deleting it brings (2, 2) back beside (3, 0).
    assert tracker.remove_rows([0]) == {(0,): [1, 2]}
    assert tracker.candidates() == [1, 2, 3, 4]


def _tracked(kernel, frame_backing):
    """A tracker over ``ROWS`` plus a frame extending it by ``extra`` rows."""
    frame = EncodedFrame.from_dataset(Dataset(SCHEMA, ROWS))
    assert_backing(frame, frame_backing)
    kernel = get_kernel(kernel)
    survivors = prefilter_survivors(SCHEMA, None, frame, kernel)
    return BaseCandidateTracker(frame, kernel, initial_rows=survivors)


def _extended(*extra):
    """The tracked row space grown by inserts: ``ROWS`` then ``extra``."""
    return EncodedFrame.from_dataset(Dataset(SCHEMA, ROWS + list(extra)))


@pytest.mark.parametrize("kernel", available_kernels())
class TestInsertFold:
    def test_dominating_insert_evicts_front_rows(self, kernel, frame_backing):
        tracker = _tracked(kernel, frame_backing)
        # (0, 0) strictly dominates both front rows of a, (1, 1) and (3, 0).
        assert tracker.add_rows(_extended((0, 0, "a")), [5]) == {(0,): [5]}
        assert tracker.candidates() == [3, 4, 5]
        assert tracker.candidate_count == 3

    def test_exact_duplicate_of_a_front_row_joins(self, kernel, frame_backing):
        tracker = _tracked(kernel, frame_backing)
        assert tracker.add_rows(_extended((1, 1, "a")), [5]) == {(0,): [0, 2, 5]}
        assert tracker.candidates() == [0, 2, 3, 4, 5]

    def test_dominated_insert_changes_no_front(self, kernel, frame_backing):
        tracker = _tracked(kernel, frame_backing)
        assert tracker.add_rows(_extended((2, 2, "a"), (6, 6, "b")), [5, 6]) == {}
        assert tracker.candidates() == [0, 2, 3, 4]

    def test_deleting_the_evicting_insert_brings_rows_back(self, kernel, frame_backing):
        tracker = _tracked(kernel, frame_backing)
        tracker.add_rows(_extended((0, 0, "a")), [5])
        # The full membership includes the insert; (2, 2) stays masked by (1, 1).
        assert tracker.remove_rows([5]) == {(0,): [0, 2]}
        assert tracker.candidates() == [0, 2, 3, 4]

    def test_insert_after_a_delete_joins_the_membership(self, kernel, frame_backing):
        tracker = _tracked(kernel, frame_backing)
        assert tracker.remove_rows([2]) == {(0,): [0]}
        tracker.add_rows(_extended((1, 1, "a")), [5])
        # The insert is a member too: deleting (1, 1) leaves its duplicate,
        # which keeps masking (2, 2) until it goes as well.
        assert tracker.remove_rows([0]) == {(0,): [5]}
        assert tracker.remove_rows([5]) == {(0,): [1]}
        assert tracker.candidate_count == len(tracker.candidates()) == 3
