"""Unit tests for the frame sharding strategies."""

from __future__ import annotations

import pytest

from repro.data.columns import EncodedFrame
from repro.exceptions import QueryError
from repro.parallel.partition import PARTITIONERS, partition_frame
from tests.conftest import assert_backing, frame_backing_of


def _all_ids(shards):
    ids = [record_id for shard in shards for record_id in shard.record_ids]
    return sorted(ids)


@pytest.fixture
def frame(small_workload, frame_backing):
    _, dataset = small_workload
    frame = EncodedFrame.from_dataset(dataset)
    assert_backing(frame, frame_backing)
    return frame


class TestRoundRobin:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_partition_covers_every_record_once(self, frame, num_shards):
        shards = partition_frame(frame, num_shards)
        assert len(shards) == num_shards
        assert _all_ids(shards) == list(range(len(frame)))

    def test_sizes_differ_by_at_most_one(self, frame):
        sizes = [len(shard) for shard in partition_frame(frame, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_records(self, frame):
        shards = partition_frame(frame.take([0, 1, 2]), 8)
        assert len(shards) == 8
        assert sum(len(shard) for shard in shards) == 3

    def test_rows_dealt_cyclically(self, frame):
        for shard in partition_frame(frame, 4):
            assert all(row % 4 == shard.shard_id for row in shard.record_ids)


class TestPoGroupPartition:
    def test_groups_stay_whole(self, small_workload, frame):
        schema, dataset = small_workload
        shards = partition_frame(frame, 4, "po-group")
        assert _all_ids(shards) == list(range(len(frame)))
        home: dict[tuple, int] = {}
        for shard in shards:
            for record_id in shard.record_ids:
                key = schema.partial_values(dataset[record_id].values)
                assert home.setdefault(key, shard.shard_id) == shard.shard_id

    def test_balances_group_sizes(self, frame):
        sizes = [len(shard) for shard in partition_frame(frame, 2, "po-group")]
        # LPT balancing cannot be perfect, but no shard should hold
        # everything when there are many groups.
        assert min(sizes) > 0
        assert max(sizes) < len(frame)

    def test_to_only_schema_falls_back_to_round_robin(self):
        from repro.data.dataset import Dataset
        from repro.data.schema import Schema, TotalOrderAttribute

        schema = Schema([TotalOrderAttribute("x")])
        frame = EncodedFrame.from_dataset(Dataset(schema, [(i,) for i in range(10)]))
        shards = partition_frame(frame, 3, "po-group")
        assert [shard.record_ids for shard in shards] == [
            shard.record_ids for shard in partition_frame(frame, 3)
        ]

    def test_deterministic(self, frame):
        first = partition_frame(frame, 3, "po-group")
        second = partition_frame(frame, 3, "po-group")
        assert [s.record_ids for s in first] == [s.record_ids for s in second]

    def test_backings_deal_the_same_groups(self, small_workload):
        _, dataset = small_workload
        with frame_backing_of("numpy"):
            vectorized = partition_frame(EncodedFrame.from_dataset(dataset), 4, "po-group")
        with frame_backing_of("tuple"):
            fallback = partition_frame(EncodedFrame.from_dataset(dataset), 4, "po-group")
        assert [s.record_ids for s in vectorized] == [s.record_ids for s in fallback]


class TestResolution:
    def test_known_names(self, frame):
        for name in PARTITIONERS:
            assert _all_ids(partition_frame(frame, 2, name)) == list(range(len(frame)))

    def test_unknown_name_rejected(self, frame):
        with pytest.raises(QueryError, match="unknown partitioner"):
            partition_frame(frame, 2, "hash")

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bad_shard_count_rejected(self, frame, bad):
        for name in PARTITIONERS:
            with pytest.raises(QueryError):
                partition_frame(frame, bad, name)
