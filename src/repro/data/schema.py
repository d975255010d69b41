"""Schemas mixing totally ordered and partially ordered attributes.

A skyline query's criteria are described by a :class:`Schema`: an ordered list
of attributes, each either

* a :class:`TotalOrderAttribute` — numeric, with ``best="min"`` (the paper's
  convention: smaller is better, e.g. price, stops) or ``best="max"``; or
* a :class:`PartialOrderAttribute` — categorical, with preferences given by a
  :class:`~repro.order.dag.PartialOrderDAG` (e.g. airlines, set-valued
  attributes, hierarchies).

The schema knows how to *canonicalize* TO values so that, internally, every
algorithm can assume "smaller is better" on every totally ordered dimension.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import cast

from repro.exceptions import SchemaError
from repro.order.dag import PartialOrderDAG

Value = Hashable


@dataclass(frozen=True, slots=True)
class TotalOrderAttribute:
    """A totally ordered (numeric) skyline attribute."""

    name: str
    best: str = "min"

    def __post_init__(self) -> None:
        if self.best not in ("min", "max"):
            raise SchemaError(f"attribute {self.name!r}: best must be 'min' or 'max'")

    @property
    def is_partial(self) -> bool:
        return False

    def canonical(self, value: float) -> float:
        """Map the value so that smaller is always better."""
        return float(value) if self.best == "min" else -float(value)


@dataclass(frozen=True, slots=True)
class PartialOrderAttribute:
    """A partially ordered skyline attribute with an explicit preference DAG."""

    name: str
    dag: PartialOrderDAG = field(compare=False)

    @property
    def is_partial(self) -> bool:
        return True

    @property
    def domain(self) -> tuple[Value, ...]:
        return self.dag.values

    def validate(self, value: Value) -> None:
        if value not in self.dag:
            raise SchemaError(f"value {value!r} not in the domain of PO attribute {self.name!r}")


Attribute = TotalOrderAttribute | PartialOrderAttribute


class Schema:
    """An ordered collection of skyline attributes.

    Attribute order is significant: datasets store record values in the same
    order, and the mapped space used by every algorithm lists the totally
    ordered dimensions first followed by one (TSS) or two (baselines) mapped
    dimensions per partially ordered attribute.
    """

    __slots__ = ("_attributes", "_by_name")

    def __init__(self, attributes: Sequence[Attribute]) -> None:
        if not attributes:
            raise SchemaError("a schema needs at least one attribute")
        names = [attribute.name for attribute in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        self._attributes: tuple[Attribute, ...] = tuple(attributes)
        self._by_name: dict[str, int] = {a.name: i for i, a in enumerate(attributes)}

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __getitem__(self, name: str) -> Attribute:
        return self._attributes[self.position(name)]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(
            f"{a.name}:{'PO' if a.is_partial else 'TO'}" for a in self._attributes
        )
        return f"Schema({kinds})"

    def position(self, name: str) -> int:
        """Index of an attribute in the record layout."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise SchemaError(f"unknown attribute {name!r}") from exc

    # ------------------------------------------------------------------ #
    # TO / PO views
    # ------------------------------------------------------------------ #
    @property
    def total_order_attributes(self) -> tuple[TotalOrderAttribute, ...]:
        return tuple(a for a in self._attributes if not a.is_partial)

    @property
    def partial_order_attributes(self) -> tuple[PartialOrderAttribute, ...]:
        return tuple(a for a in self._attributes if a.is_partial)

    @property
    def total_order_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self._attributes) if not a.is_partial)

    @property
    def partial_order_positions(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self._attributes) if a.is_partial)

    @property
    def num_total_order(self) -> int:
        return len(self.total_order_positions)

    @property
    def num_partial_order(self) -> int:
        return len(self.partial_order_positions)

    # ------------------------------------------------------------------ #
    # Validation and canonicalization
    # ------------------------------------------------------------------ #
    def validate_row(self, row: Sequence[Value]) -> None:
        """Raise :class:`SchemaError` if ``row`` does not conform to the schema."""
        if len(row) != len(self._attributes):
            raise SchemaError(
                f"row has {len(row)} values but the schema has {len(self._attributes)} attributes"
            )
        for attribute, value in zip(self._attributes, row):
            if isinstance(attribute, PartialOrderAttribute):
                attribute.validate(value)
            else:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise SchemaError(
                        f"attribute {attribute.name!r} expects a number, got {value!r}"
                    )
                if value != value:
                    # NaN compares false both ways: no order ranks it, and
                    # kernels that compare it differently would disagree.
                    raise SchemaError(f"attribute {attribute.name!r} got NaN")

    def canonical_to_values(self, row: Sequence[Value]) -> tuple[float, ...]:
        """The totally ordered values of ``row``, mapped so smaller is better."""
        return tuple(
            cast(TotalOrderAttribute, self._attributes[i]).canonical(cast(float, row[i]))
            for i in self.total_order_positions
        )

    def partial_values(self, row: Sequence[Value]) -> tuple[Value, ...]:
        """The partially ordered values of ``row`` in schema order."""
        return tuple(row[i] for i in self.partial_order_positions)

    def replace_partial_order(
        self, replacements: dict[str, PartialOrderDAG]
    ) -> "Schema":
        """Return a schema with the DAGs of some PO attributes replaced.

        Used by dynamic skyline queries, which re-specify preferences per
        query while the underlying data stays the same.
        """
        attributes: list[Attribute] = []
        unknown = set(replacements) - {a.name for a in self.partial_order_attributes}
        if unknown:
            raise SchemaError(f"cannot replace partial order of non-PO attributes: {sorted(unknown)}")
        for attribute in self._attributes:
            if attribute.is_partial and attribute.name in replacements:
                attributes.append(
                    PartialOrderAttribute(attribute.name, replacements[attribute.name])
                )
            else:
                attributes.append(attribute)
        return Schema(attributes)


def make_schema(
    total_order: Iterable[str | TotalOrderAttribute] = (),
    partial_order: Iterable[tuple[str, PartialOrderDAG] | PartialOrderAttribute] = (),
) -> Schema:
    """Convenience constructor: TO attributes first, then PO attributes."""
    attributes: list[Attribute] = []
    for spec in total_order:
        attributes.append(spec if isinstance(spec, TotalOrderAttribute) else TotalOrderAttribute(spec))
    for spec in partial_order:
        if isinstance(spec, PartialOrderAttribute):
            attributes.append(spec)
        else:
            name, dag = spec
            attributes.append(PartialOrderAttribute(name, dag))
    return Schema(attributes)
