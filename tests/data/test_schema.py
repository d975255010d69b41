"""Unit tests for schemas and attribute specifications."""

import pytest

from repro.data.schema import PartialOrderAttribute, Schema, TotalOrderAttribute, make_schema
from repro.exceptions import SchemaError
from repro.order.builders import chain


@pytest.fixture
def mixed_schema(airline_dag):
    return Schema(
        [
            TotalOrderAttribute("price"),
            PartialOrderAttribute("airline", airline_dag),
            TotalOrderAttribute("rating", best="max"),
        ]
    )


class TestAttributes:
    def test_total_order_defaults_to_min(self):
        assert TotalOrderAttribute("price").best == "min"

    def test_total_order_rejects_bad_direction(self):
        with pytest.raises(SchemaError):
            TotalOrderAttribute("price", best="largest")

    def test_canonical_flips_max_attributes(self):
        assert TotalOrderAttribute("rating", best="max").canonical(4.0) == -4.0
        assert TotalOrderAttribute("price").canonical(4.0) == 4.0

    def test_partial_attribute_domain_and_validate(self, airline_dag):
        attribute = PartialOrderAttribute("airline", airline_dag)
        assert set(attribute.domain) == {"a", "b", "c", "d"}
        attribute.validate("a")
        with pytest.raises(SchemaError):
            attribute.validate("z")

    def test_is_partial_flags(self, airline_dag):
        assert PartialOrderAttribute("airline", airline_dag).is_partial
        assert not TotalOrderAttribute("price").is_partial


class TestSchema:
    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_duplicate_names_rejected(self, airline_dag):
        with pytest.raises(SchemaError):
            Schema([TotalOrderAttribute("x"), PartialOrderAttribute("x", airline_dag)])

    def test_positions_and_lookup(self, mixed_schema):
        assert mixed_schema.position("price") == 0
        assert mixed_schema.position("rating") == 2
        assert mixed_schema["airline"].is_partial
        assert "airline" in mixed_schema and "bogus" not in mixed_schema
        with pytest.raises(SchemaError):
            mixed_schema.position("bogus")

    def test_to_po_views(self, mixed_schema):
        assert mixed_schema.total_order_positions == (0, 2)
        assert mixed_schema.partial_order_positions == (1,)
        assert mixed_schema.num_total_order == 2
        assert mixed_schema.num_partial_order == 1
        assert [a.name for a in mixed_schema.total_order_attributes] == ["price", "rating"]
        assert [a.name for a in mixed_schema.partial_order_attributes] == ["airline"]

    def test_validate_row(self, mixed_schema):
        mixed_schema.validate_row((100, "a", 4))
        with pytest.raises(SchemaError):
            mixed_schema.validate_row((100, "a"))
        with pytest.raises(SchemaError):
            mixed_schema.validate_row((100, "z", 4))
        with pytest.raises(SchemaError):
            mixed_schema.validate_row(("cheap", "a", 4))
        with pytest.raises(SchemaError):
            mixed_schema.validate_row((True, "a", 4))

    @pytest.mark.parametrize(
        ("row", "message"),
        [
            ((100, "a"), "row has 2 values but the schema has 3 attributes"),
            ((100, "a", 4, 5), "row has 4 values but the schema has 3 attributes"),
            ((True, "a", 4), "attribute 'price' expects a number, got True"),
            ((100, "a", False), "attribute 'rating' expects a number, got False"),
            (("cheap", "a", 4), "attribute 'price' expects a number, got 'cheap'"),
            ((100, "a", None), "attribute 'rating' expects a number, got None"),
            ((float("nan"), "a", 4), "attribute 'price' got NaN"),
            ((100, "a", float("nan")), "attribute 'rating' got NaN"),
            ((100, "z", 4), "value 'z' not in the domain of PO attribute 'airline'"),
            ((100, 4, 4), "value 4 not in the domain of PO attribute 'airline'"),
            # Schema order decides which of two bad values is reported.
            (("cheap", "z", 4), "attribute 'price' expects a number"),
            ((100, "z", "x"), "value 'z' not in the domain"),
        ],
    )
    def test_validate_row_message_per_bad_row_kind(self, mixed_schema, row, message):
        with pytest.raises(SchemaError) as raised:
            mixed_schema.validate_row(row)
        assert str(raised.value).startswith(message)

    def test_validate_row_accepts_number_subclasses(self, mixed_schema):
        class Price(float):
            pass

        mixed_schema.validate_row((Price(3.5), "a", 4))
        with pytest.raises(SchemaError, match="NaN"):
            mixed_schema.validate_row((Price("nan"), "a", 4))

    def test_validate_row_rejects_nan_and_accepts_infinities(self, mixed_schema):
        nan, inf = float("nan"), float("inf")
        for row in ((nan, "a", 4), (100, "a", nan)):
            with pytest.raises(SchemaError, match="NaN"):
                mixed_schema.validate_row(row)
        for row in ((inf, "a", -inf), (-inf, "a", inf), (inf, "a", inf)):
            mixed_schema.validate_row(row)

    def test_canonical_to_values(self, mixed_schema):
        assert mixed_schema.canonical_to_values((100, "a", 4)) == (100.0, -4.0)

    def test_partial_values(self, mixed_schema):
        assert mixed_schema.partial_values((100, "a", 4)) == ("a",)

    def test_replace_partial_order(self, mixed_schema):
        new_dag = chain(["a", "b", "c", "d"])
        replaced = mixed_schema.replace_partial_order({"airline": new_dag})
        assert replaced["airline"].dag is new_dag
        assert replaced.names == mixed_schema.names

    def test_replace_partial_order_rejects_to_attribute(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.replace_partial_order({"price": chain(["a", "b"])})

    def test_equality(self, mixed_schema, airline_dag):
        same = Schema(
            [
                TotalOrderAttribute("price"),
                PartialOrderAttribute("airline", airline_dag),
                TotalOrderAttribute("rating", best="max"),
            ]
        )
        assert mixed_schema == same

    def test_make_schema_helper(self, airline_dag):
        schema = make_schema(total_order=["price", TotalOrderAttribute("rating", best="max")],
                             partial_order=[("airline", airline_dag)])
        assert schema.names == ("price", "rating", "airline")
        assert schema.num_partial_order == 1
