"""Unit tests for rectangles and mindist computations."""

import pytest

from repro.exceptions import IndexError_
from repro.index.geometry import Rect


class TestRect:
    def test_invalid_rect_rejected(self):
        with pytest.raises(IndexError_):
            Rect((2.0, 0.0), (1.0, 5.0))

    def test_corner_dimensionality_must_match(self):
        with pytest.raises(IndexError_):
            Rect((0.0,), (1.0, 2.0))

    def test_from_point_is_degenerate(self):
        rect = Rect.from_point((1, 2))
        assert rect.is_point
        assert rect.low == rect.high == (1.0, 2.0)

    def test_bounding(self):
        rect = Rect.bounding([Rect((0, 0), (1, 1)), Rect((2, -1), (3, 0.5))])
        assert rect.low == (0.0, -1.0)
        assert rect.high == (3.0, 1.0)

    def test_bounding_empty_rejected(self):
        with pytest.raises(IndexError_):
            Rect.bounding([])

    def test_mindist_is_l1_of_lower_corner(self):
        assert Rect((1, 2), (5, 6)).mindist() == 3.0

    def test_area_margin_center(self):
        rect = Rect((0, 0), (2, 3))
        assert rect.area() == 6.0
        assert rect.margin() == 5.0
        assert rect.center() == (1.0, 1.5)

    def test_contains_point(self):
        rect = Rect((0, 0), (2, 2))
        assert rect.contains_point((1, 1))
        assert rect.contains_point((0, 2))
        assert not rect.contains_point((3, 1))
        with pytest.raises(IndexError_):
            rect.contains_point((1,))

    def test_contains_rect(self):
        outer = Rect((0, 0), (10, 10))
        inner = Rect((2, 2), (3, 3))
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)
        assert outer.contains_rect(outer)

    def test_intersects(self):
        a = Rect((0, 0), (2, 2))
        b = Rect((2, 2), (4, 4))
        c = Rect((3, 3), (5, 5))
        assert a.intersects(b)  # touching counts
        assert not a.intersects(c)
        assert b.intersects(c)

    def test_union_and_enlargement(self):
        a = Rect((0, 0), (1, 1))
        b = Rect((2, 2), (3, 3))
        union = a.union(b)
        assert union.low == (0.0, 0.0) and union.high == (3.0, 3.0)
        assert a.enlargement(b) == union.area() - a.area()
        assert a.enlargement(Rect((0.2, 0.2), (0.8, 0.8))) == 0.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(IndexError_):
            Rect((0,), (1,)).union(Rect((0, 0), (1, 1)))
