"""Unit tests: the append-only DeltaFrame's id stability and live views."""

from __future__ import annotations

import pytest

from repro.data.columns import EncodedFrame
from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.delta.frame import DeltaFrame, dataset_from_frame
from repro.exceptions import DatasetError, QueryError
from repro.order.builders import chain
from tests.conftest import assert_backing


@pytest.fixture
def schema():
    return Schema(
        [
            TotalOrderAttribute("price"),
            TotalOrderAttribute("stops", best="max"),
            PartialOrderAttribute("airline", chain(("a", "b", "c"))),
        ]
    )


@pytest.fixture
def base(schema, frame_backing):
    rows = [(10.0, 1, "a"), (20.0, 2, "b"), (30.0, 0, "c"), (15.0, 3, "a")]
    frame = EncodedFrame.from_dataset(Dataset(schema, rows))
    assert_backing(frame, frame_backing)
    return frame


class TestIdStability:
    def test_inserts_number_from_next_id(self, base):
        delta = DeltaFrame(base)
        assert delta.next_id == len(base)
        ids = delta.insert_rows([(5.0, 4, "b"), (6.0, 5, "c")])
        assert ids == [4, 5]
        assert delta.next_id == 6

    def test_ids_never_reused_after_delete(self, base):
        delta = DeltaFrame(base)
        (first,) = delta.insert_rows([(5.0, 4, "b")])
        delta.delete_ids([first])
        (second,) = delta.insert_rows([(5.0, 4, "b")])
        assert second == first + 1

    def test_base_ids_remap(self, base):
        delta = DeltaFrame(base, base_ids=[10, 20, 30, 40])
        assert delta.stable_id_of_base_row(2) == 30
        assert delta.next_id == 41
        assert delta.insert_rows([(1.0, 1, "a")]) == [41]
        removed, base_rows = delta.delete_ids([20])
        assert removed == [20] and base_rows == [1]

    def test_insert_id_collision_raises(self, base):
        delta = DeltaFrame(base)
        with pytest.raises(QueryError, match="already exists"):
            delta.replay_insert(0, (1.0, 1.0), (0,))


class TestDeletes:
    def test_delete_is_idempotent(self, base):
        delta = DeltaFrame(base)
        assert delta.delete_ids([1])[0] == [1]
        assert delta.delete_ids([1])[0] == []

    def test_delete_unknown_id_raises(self, base):
        delta = DeltaFrame(base)
        with pytest.raises(QueryError, match="unknown record id"):
            delta.delete_ids([99])

    def test_dead_ids_covers_base_and_inserts(self, base):
        delta = DeltaFrame(base)
        ids = delta.insert_rows([(5.0, 4, "b"), (6.0, 5, "c")])
        delta.delete_ids([2, ids[1]])
        assert [delta.stable_id_of_row(row) for row in delta.dead_rows()] == [2, ids[1]]
        assert delta.live_rows() == [0, 1, 3, 4]


class TestLiveViews:
    def test_live_frame_and_ids_roundtrip(self, base, schema):
        delta = DeltaFrame(base)
        delta.insert_rows([(5.0, 4, "b")])
        delta.delete_ids([0])
        frame, ids = delta.live_frame_and_ids()
        assert ids == [1, 2, 3, 4]
        assert len(frame) == 4
        assert frame.uses_numpy == base.uses_numpy
        assert dataset_from_frame(frame).records[-1].values == (5.0, 4, "b")

    def test_compacted_rows_are_positions_among_the_live_rows(self, base):
        delta = DeltaFrame(base, base_ids=[10, 20, 30, 40])
        delta.insert_rows([(5.0, 4, "b"), (6.0, 5, "c")])
        delta.delete_ids([10, 30, 41])
        live = delta.live_rows()
        assert live == [1, 3, 5]
        assert delta.compacted_rows(live) == [0, 1, 2]
        assert delta.compacted_rows([3, 5]) == [1, 2]
        _, ids = delta.live_frame_and_ids()
        assert ids == [20, 40, 42]

    def test_compacted_rows_refuses_rows_that_are_not_live(self, base):
        delta = DeltaFrame(base)
        delta.insert_rows([(5.0, 4, "b")])
        delta.delete_ids([1, 4])
        assert delta.compacted_rows([0, 2, 3]) == [0, 1, 2]
        for row in (1, 4, 5, -1):
            with pytest.raises(DatasetError, match="not live"):
                delta.compacted_rows([0, row])

    def test_stable_ids_of_identity_rows_are_the_rows(self, base):
        delta = DeltaFrame(base)
        rows = [0, 2]
        assert delta.stable_ids(rows) is rows
        ids = delta.insert_rows([(5.0, 4, "b")])
        assert delta.stable_ids([2, 4]) == [2, ids[0]]
        # Ids persisted in descending row order come back ascending.
        reversed_ids = DeltaFrame(base, base_ids=[40, 30, 20, 10])
        assert reversed_ids.stable_ids([0, 2, 3]) == [10, 20, 40]

    def test_base_rows_and_inserts_share_one_row_space(self, base):
        delta = DeltaFrame(base, base_ids=[10, 20, 30, 40])
        assert delta.frame() is base
        ids = delta.insert_rows([(5.0, 4, "b"), (6.0, 5, "c")])
        frame = delta.frame()
        assert delta.frame() is frame  # cached until the next insert
        assert len(frame) == len(base) + 2 and frame.uses_numpy == base.uses_numpy
        assert [delta.stable_id_of_row(row) for row in range(len(frame))] == [
            10, 20, 30, 40, *ids
        ]
        assert dataset_from_frame(frame).records[5].values == (6.0, 5, "c")
        # Deletes report rows of that frame: a base row, then insert position 0.
        assert delta.delete_ids([20, ids[0]]) == ([20, ids[0]], [1, 4])
        assert delta.dead_rows() == [1, 4] and delta.live_rows() == [0, 2, 3, 5]
        (late,) = delta.insert_rows([(7.0, 6, "a")])
        grown = delta.frame()
        assert len(grown) == 7 and delta.stable_id_of_row(6) == late
        assert dataset_from_frame(grown).records[5].values == (6.0, 5, "c")

    def test_decode_roundtrips_max_attributes(self, base, schema):
        dataset = dataset_from_frame(base)
        assert dataset.records[1].values == (20.0, 2, "b")


class TestFrameBlocks:
    def test_insert_frames_are_read_only_views_of_one_block(self, schema):
        np = pytest.importorskip("numpy")
        rows = [(10.0, 1, "a"), (20.0, 2, "b"), (30.0, 0, "c"), (15.0, 3, "a")]
        delta = DeltaFrame(EncodedFrame.from_dataset(Dataset(schema, rows)))
        delta.insert_rows([(5.0, 4, "b")])
        first = delta.frame()
        first_to, first_codes = first.to.copy(), first.codes.copy()
        delta.insert_rows([(6.0, 5, "c"), (7.0, 6, "a")])
        second = delta.frame()
        # An insert batch appends to the block instead of copying every row.
        assert np.shares_memory(first.to, second.to)
        assert np.shares_memory(first.codes, second.codes)
        assert np.array_equal(second.to[:5], first_to)
        # Enough inserts to outgrow the block: earlier frames stay intact.
        delta.insert_rows([(float(i), i, "b") for i in range(40)])
        assert len(delta.frame()) == 47
        assert len(first) == len(first.to) == len(first.codes) == 5
        assert np.array_equal(first.to, first_to) and np.array_equal(first.codes, first_codes)
        assert len(second) == len(second.to) == len(second.codes) == 7
        for frame in (first, second, delta.frame()):
            assert not frame.to.flags.writeable and not frame.codes.flags.writeable
            with pytest.raises(ValueError):
                frame.to[0, 0] = -1.0


class TestCompactionFolding:
    def test_mutation_counters(self, base):
        delta = DeltaFrame(base)
        assert delta.mutations == 0
        delta.insert_rows([(5.0, 4, "b")])
        delta.delete_ids([0])
        assert delta.mutations == 2
        assert delta.num_live == len(base)  # one in, one out

    def test_folded_frame_preserves_ids_through_second_delta(self, base):
        delta = DeltaFrame(base)
        delta.insert_rows([(5.0, 4, "b")])
        delta.delete_ids([1])
        frame, ids = delta.live_frame_and_ids()
        second = DeltaFrame(frame, base_ids=ids)
        assert second.next_id == 5
        assert second.stable_id_of_base_row(len(frame) - 1) == 4
        removed, _ = second.delete_ids([4])
        assert removed == [4]
