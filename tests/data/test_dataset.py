"""Unit tests for datasets and records."""

import pytest

from repro.data.dataset import Dataset
from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute
from repro.exceptions import DatasetError, SchemaError
from repro.order.builders import chain


class TestDataset:
    def test_records_get_stable_ids(self, flight_dataset):
        assert [record.id for record in flight_dataset] == list(range(10))

    def test_len_and_getitem(self, flight_dataset):
        assert len(flight_dataset) == 10
        assert flight_dataset[3].values == (1200, 1, "b")
        with pytest.raises(DatasetError):
            flight_dataset[99]

    def test_validation_rejects_bad_rows(self, flight_schema):
        with pytest.raises(SchemaError):
            Dataset(flight_schema, [(100, 0, "unknown-airline")])

    def test_validation_rejects_nan(self):
        """NaN compares false both ways, so no order ranks it: the kernels
        used to disagree on such rows instead of refusing them."""
        schema = Schema(
            [
                TotalOrderAttribute("a"),
                TotalOrderAttribute("b", best="max"),
                PartialOrderAttribute("p", chain(["x"])),
            ]
        )
        with pytest.raises(SchemaError, match="'a' got NaN"):
            Dataset(schema, [(float("nan"), 1, "x"), (1, 2, "x"), (3, 5, "x")])
        assert len(Dataset(schema, [(float("inf"), float("-inf"), "x")])) == 1

    def test_validation_can_be_skipped(self, flight_schema):
        dataset = Dataset(flight_schema, [(100, 0, "unknown-airline")], validate=False)
        assert len(dataset) == 1

    def test_column(self, flight_dataset):
        prices = flight_dataset.column("price")
        assert prices[0] == 1800 and len(prices) == 10

    def test_to_numeric_matrix_shape_and_canonicalization(self, airline_dag):
        pytest.importorskip("numpy")
        schema = Schema(
            [
                TotalOrderAttribute("price"),
                TotalOrderAttribute("rating", best="max"),
                PartialOrderAttribute("airline", airline_dag),
            ]
        )
        dataset = Dataset(schema, [(10, 5, "a"), (20, 3, "b")])
        matrix = dataset.to_numeric_matrix()
        assert matrix.shape == (2, 2)
        assert matrix[0].tolist() == [10.0, -5.0]

    def test_to_numeric_matrix_is_memoized_and_read_only(self, flight_dataset):
        numpy = pytest.importorskip("numpy")
        first = flight_dataset.to_numeric_matrix()
        assert flight_dataset.to_numeric_matrix() is first
        with pytest.raises(ValueError):
            first[0, 0] = -1.0
        # The failed mutation cannot have corrupted the cached copy.
        again = flight_dataset.to_numeric_matrix()
        assert again[0].tolist() == [1800.0, 0.0]
        assert numpy.shares_memory(first, again)

    def test_to_numeric_matrix_matches_canonical_rows(self, flight_dataset):
        pytest.importorskip("numpy")
        matrix = flight_dataset.to_numeric_matrix()
        schema = flight_dataset.schema
        for record in flight_dataset.records:
            assert tuple(matrix[record.id]) == schema.canonical_to_values(record.values)

    def test_partial_value_tuples(self, flight_dataset):
        po_values = flight_dataset.partial_value_tuples()
        assert po_values[0] == ("a",) and po_values[8] == ("d",)

    def test_subset_reassigns_ids(self, flight_dataset):
        subset = flight_dataset.subset([5, 8])
        assert len(subset) == 2
        assert subset[0].values == flight_dataset[5].values
        assert subset[1].id == 1

    def test_with_schema_swaps_preferences(self, flight_dataset, flight_schema):
        new_dag = chain(["d", "c", "b", "a"])
        new_schema = flight_schema.replace_partial_order({"airline": new_dag})
        converted = flight_dataset.with_schema(new_schema)
        assert converted.schema["airline"].dag is new_dag
        assert converted[0].values == flight_dataset[0].values

    def test_with_schema_rejects_mismatched_width(self, flight_dataset):
        other = Schema([TotalOrderAttribute("only")])
        with pytest.raises(DatasetError):
            flight_dataset.with_schema(other)

    def test_from_dicts(self, flight_schema):
        dataset = Dataset.from_dicts(
            flight_schema,
            [{"price": 100, "stops": 1, "airline": "a"}],
        )
        assert dataset[0].values == (100, 1, "a")

    def test_from_dicts_missing_key(self, flight_schema):
        with pytest.raises(DatasetError):
            Dataset.from_dicts(flight_schema, [{"price": 100, "stops": 1}])


class TestRecord:
    def test_value_by_name(self, flight_dataset, flight_schema):
        record = flight_dataset[0]
        assert record.value(flight_schema, "price") == 1800
        assert record.value(flight_schema, "airline") == "a"

    def test_as_dict(self, flight_dataset, flight_schema):
        assert flight_dataset[8].as_dict(flight_schema) == {"price": 500, "stops": 2, "airline": "d"}
