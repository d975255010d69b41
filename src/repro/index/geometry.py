"""Axis-aligned rectangles (minimum bounding boxes) and distance helpers.

Every skyline algorithm in this library works in a mapped space where the
most preferable point is the origin and smaller coordinates are better.  The
relevant geometric primitives are therefore:

* the L1 (rectilinear) ``mindist`` of a rectangle to the origin, and the
  :func:`sweep_key` of a point built on the same sum, the one order in
  which every ordered scan (BBS-style best-first traversals, the SFS/LESS
  presort, the kernels' sum-ordered sweeps) visits points, and
* containment / intersection tests for range queries.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.exceptions import IndexError_

Point = tuple[float, ...]

#: A :func:`sweep_key`: the coordinate sum (NaN read as 0), then the vector.
SweepKey = tuple[float, Point]


def sweep_key(vector: Sequence[float]) -> SweepKey:
    """Sort key under which a point only follows its dominators.

    The coordinate sum, added left to right, then the vector itself,
    compared lexicographically.  Rounding is monotone, so a dominator's sum
    is never larger; when rounding makes the two sums equal (``1e17 + 1``
    and ``1e17 + 2`` are both ``1e17``), the dominator is the
    lexicographically smaller vector.  A rectangle's low corner keys no
    later than any point inside it.  A NaN sum (the vector holds both +inf
    and -inf) reads as 0: such a vector is only comparable with vectors
    summing to -inf, +inf or NaN.
    """
    vector = tuple(vector)
    total = sum(vector)
    return (0.0 if total != total else total), vector


@dataclass(frozen=True, slots=True)
class Rect:
    """A closed axis-aligned rectangle ``[low, high]`` in d dimensions."""

    low: Point
    high: Point

    def __post_init__(self) -> None:
        if len(self.low) != len(self.high):
            raise IndexError_("rectangle corners must have the same dimensionality")
        if any(l > h for l, h in zip(self.low, self.high)):
            raise IndexError_(f"invalid rectangle: low={self.low} high={self.high}")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_point(cls, point: Sequence[float]) -> "Rect":
        coords = tuple(float(c) for c in point)
        return cls(coords, coords)

    @classmethod
    def bounding(cls, rects: Iterable["Rect"]) -> "Rect":
        """The minimum bounding rectangle of a non-empty collection."""
        rect_list = list(rects)
        if not rect_list:
            raise IndexError_("cannot bound an empty collection of rectangles")
        dims = rect_list[0].dimensions
        low = tuple(min(r.low[d] for r in rect_list) for d in range(dims))
        high = tuple(max(r.high[d] for r in rect_list) for d in range(dims))
        return cls(low, high)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def dimensions(self) -> int:
        return len(self.low)

    @property
    def is_point(self) -> bool:
        return self.low == self.high

    def mindist(self) -> float:
        """L1 distance of the lower-left corner to the origin (BBS priority)."""
        return float(sum(self.low))

    def area(self) -> float:
        result = 1.0
        for l, h in zip(self.low, self.high):
            result *= h - l
        return result

    def margin(self) -> float:
        return float(sum(h - l for l, h in zip(self.low, self.high)))

    def center(self) -> Point:
        return tuple((l + h) / 2.0 for l, h in zip(self.low, self.high))

    # ------------------------------------------------------------------ #
    # Predicates
    # ------------------------------------------------------------------ #
    def contains_point(self, point: Sequence[float]) -> bool:
        if len(point) != self.dimensions:
            raise IndexError_("point dimensionality mismatch")
        return all(l <= c <= h for l, c, h in zip(self.low, point, self.high))

    def contains_rect(self, other: "Rect") -> bool:
        self._check_dims(other)
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.low, self.high, other.low, other.high)
        )

    def intersects(self, other: "Rect") -> bool:
        self._check_dims(other)
        return all(
            sl <= oh and ol <= sh
            for sl, sh, ol, oh in zip(self.low, self.high, other.low, other.high)
        )

    # ------------------------------------------------------------------ #
    # Combination
    # ------------------------------------------------------------------ #
    def union(self, other: "Rect") -> "Rect":
        self._check_dims(other)
        low = tuple(min(a, b) for a, b in zip(self.low, other.low))
        high = tuple(max(a, b) for a, b in zip(self.high, other.high))
        return Rect(low, high)

    def enlargement(self, other: "Rect") -> float:
        """Area increase needed to also cover ``other`` (R-tree insertion heuristic)."""
        return self.union(other).area() - self.area()

    def _check_dims(self, other: "Rect") -> None:
        if self.dimensions != other.dimensions:
            raise IndexError_("rectangle dimensionality mismatch")

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rect(low={self.low}, high={self.high})"
