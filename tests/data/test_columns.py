"""Unit tests for the columnar encoded-frame data plane."""

import pytest

from repro.data.columns import ColumnCodec, EncodedFrame
from repro.exceptions import DatasetError
from repro.kernels.tables import RecordTables
from tests.conftest import assert_backing


class TestEncodedFrame:
    def test_columns_match_record_encoding(self, flight_dataset, frame_backing):
        schema = flight_dataset.schema
        frame = EncodedFrame.from_dataset(flight_dataset)
        assert_backing(frame, frame_backing)
        tables = RecordTables.from_schema(schema)
        assert len(frame) == len(flight_dataset)
        assert frame.num_total_order == 2 and frame.num_partial_order == 1
        for record in flight_dataset.records:
            to_row, code_row = frame.row(record.id)
            assert tuple(to_row) == schema.canonical_to_values(record.values)
            assert tuple(code_row) == tables.encode_po(
                schema.partial_values(record.values)
            )

    def test_numpy_frame_shares_the_memoized_matrix(self, flight_dataset):
        pytest.importorskip("numpy")
        frame = EncodedFrame.from_dataset(flight_dataset)
        assert frame.uses_numpy
        assert frame.to is flight_dataset.to_numeric_matrix()
        assert not frame.codes.flags.writeable

    @pytest.mark.usefixtures("frame_backing")
    def test_take_renumbers_rows(self, flight_dataset):
        frame = EncodedFrame.from_dataset(flight_dataset)
        sub = frame.take([5, 8, 2])
        assert len(sub) == 3
        assert tuple(sub.row(0)[0]) == tuple(frame.row(5)[0])
        assert tuple(sub.row(1)[1]) == tuple(frame.row(8)[1])

    @pytest.mark.usefixtures("frame_backing")
    def test_take_rows_of_gathered_blocks(self, flight_dataset):
        frame = EncodedFrame.from_dataset(flight_dataset)
        tables = RecordTables.from_schema(flight_dataset.schema)
        code_maps = [table.code_of for table in tables.attributes]
        to_block = frame.gather_to([1, 4, 6])
        code_block = frame.remap_codes(code_maps, [1, 4, 6])
        picked_to = EncodedFrame.take_rows(to_block, [2, 0])
        picked_codes = EncodedFrame.take_rows(code_block, [2, 0])
        assert [tuple(row) for row in picked_to] == [
            tuple(frame.row(6)[0]), tuple(frame.row(1)[0])
        ]
        assert [tuple(row) for row in picked_codes] == [
            tuple(frame.row(6)[1]), tuple(frame.row(1)[1])
        ]
        assert len(EncodedFrame.take_rows(to_block, [])) == 0

    @pytest.mark.usefixtures("frame_backing")
    def test_identity_remap_is_zero_copy(self, flight_dataset):
        frame = EncodedFrame.from_dataset(flight_dataset)
        tables = RecordTables.from_schema(flight_dataset.schema)
        remapped = frame.remap_codes([table.code_of for table in tables.attributes])
        assert remapped is frame.codes

    @pytest.mark.usefixtures("frame_backing")
    def test_remap_translates_codes(self, flight_dataset):
        frame = EncodedFrame.from_dataset(flight_dataset)
        domain = frame.codec.domains[0]
        reversed_map = {value: len(domain) - 1 - i for i, value in enumerate(domain)}
        remapped = frame.remap_codes([reversed_map])
        for row in range(len(frame)):
            assert remapped[row][0] == reversed_map[domain[frame.codes[row][0]]]

    @pytest.mark.usefixtures("frame_backing")
    def test_remap_missing_value_names_the_attribute(self, flight_dataset):
        frame = EncodedFrame.from_dataset(flight_dataset)
        domain = frame.codec.domains[0]
        shrunk = {value: i for i, value in enumerate(domain[:-1])}
        with pytest.raises(DatasetError, match="'airline'"):
            frame.remap_codes([shrunk])

    @pytest.mark.usefixtures("frame_backing")
    def test_remap_needs_one_map_per_attribute(self, flight_dataset):
        frame = EncodedFrame.from_dataset(flight_dataset)
        with pytest.raises(DatasetError, match="one code map per PO attribute"):
            frame.remap_codes([])

    def test_codec_encode_column_names_the_attribute(self, flight_schema):
        codec = ColumnCodec.from_schema(flight_schema)
        with pytest.raises(DatasetError, match="'airline'"):
            codec.encode_column(0, ["a", "no-such-airline"])

    def test_fallback_backend_matches_numpy(self, flight_dataset, monkeypatch):
        numpy = pytest.importorskip("numpy")
        reference = EncodedFrame.from_dataset(flight_dataset)
        import repro.data.columns as columns

        monkeypatch.setattr(columns, "_numpy_or_none", lambda: None)
        fallback = EncodedFrame.from_dataset(flight_dataset)
        assert not fallback.uses_numpy
        assert numpy.asarray(fallback.to).tolist() == reference.to.tolist()
        assert numpy.asarray(fallback.codes).tolist() == reference.codes.tolist()
        sub = fallback.take([3, 1])
        assert tuple(sub.row(0)[0]) == tuple(reference.row(3)[0])

    @pytest.mark.usefixtures("frame_backing")
    def test_monotone_keys_match_record_key(self, small_workload):
        from repro.skyline.sfs import depth_columns, monotone_sort_key

        schema, dataset = small_workload
        frame = EncodedFrame.from_dataset(dataset)
        keys = frame.monotone_keys(depth_columns(schema, frame))
        key = monotone_sort_key(schema)
        for record in dataset.records:
            assert keys[record.id] == key(record)
