"""Geometry tests: distances, cascade legs, degenerate cases."""

import pytest
from hypothesis import given, strategies as st

from irssim import (
    DegenerateGeometryError,
    InvalidInputError,
    Point3,
    cascade_distances,
    distance,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point3, finite, finite, finite)


class TestDistance:
    def test_pythagorean_triple(self):
        assert distance(Point3(0, 0, 0), Point3(1, 2, 2)) == 3.0

    def test_identical_points(self):
        assert distance(Point3(5, 5, 10), Point3(5, 5, 10)) == 0.0

    def test_hand_evaluated_norm(self):
        # sqrt(9 + 16 + 144) = 13
        assert distance(Point3(0, 0, 0), Point3(3, 4, 12)) == pytest.approx(13.0, rel=1e-15)

    def test_rejects_nonfinite_coordinates(self):
        with pytest.raises(InvalidInputError):
            Point3(float("nan"), 0, 0)
        with pytest.raises(InvalidInputError):
            Point3(0, float("inf"), 0)

    @given(points, points)
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    @given(points, points, finite, finite, finite)
    def test_translation_invariance(self, a, b, tx, ty, tz):
        shifted = distance(Point3(a.x + tx, a.y + ty, a.z + tz),
                           Point3(b.x + tx, b.y + ty, b.z + tz))
        assert shifted == pytest.approx(distance(a, b), rel=1e-9, abs=1e-9)

    @given(points, points)
    def test_nonnegative(self, a, b):
        assert distance(a, b) >= 0.0


class TestCascadeDistances:
    def test_axis_aligned(self):
        r1, r2 = cascade_distances(Point3(0, 0, 10), Point3(0, 0, 0), Point3(0, 40, 0))
        assert r1 == 10.0
        assert r2 == 40.0

    def test_hand_evaluated_legs(self):
        r1, r2 = cascade_distances(Point3(0, 0, 0), Point3(1, 2, 2), Point3(4, 6, 14))
        assert r1 == pytest.approx(3.0, rel=1e-15)
        assert r2 == pytest.approx(13.0, rel=1e-15)

    def test_coincident_tx_irs_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            cascade_distances(Point3(1, 1, 1), Point3(1, 1, 1), Point3(2, 2, 2))

    def test_coincident_irs_rx_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            cascade_distances(Point3(0, 0, 0), Point3(1, 1, 1), Point3(1, 1, 1))

    @given(points, points, points)
    def test_agrees_with_two_distance_calls(self, tx, irs, rx):
        r1 = distance(tx, irs)
        r2 = distance(irs, rx)
        if r1 == 0.0 or r2 == 0.0:
            with pytest.raises(DegenerateGeometryError):
                cascade_distances(tx, irs, rx)
        else:
            assert cascade_distances(tx, irs, rx) == (r1, r2)
