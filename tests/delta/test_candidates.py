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
