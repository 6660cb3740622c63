"""Geometry tests: distances, cascade legs, degenerate cases."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from irssim import (
    DegenerateGeometryError,
    FadingModel,
    InvalidInputError,
    Point3,
    build_preset,
    distance,
    irs_rx_power,
    monte_carlo_stats,
)
from irssim.channel import FadingMode

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


SCENARIO = dataclasses.replace(build_preset("fig2b")[0],
                               fading=FadingModel(mode=FadingMode.DETERMINISTIC))


def kernel_power(tx, irs, rx):
    """Received power of the cascaded link tx -> irs -> rx, as the kernel scores it."""
    scenario = dataclasses.replace(SCENARIO, tx=tx, irs=irs)
    return monte_carlo_stats(scenario, rx, trials=1, seed=0).mean_rx_power_w


def formula_power(r1, r2):
    r1, r2 = np.float64(r1), np.float64(r2)  # numpy floats overflow to inf, not to an error
    with np.errstate(all="ignore"):
        return float(irs_rx_power(SCENARIO.channel, SCENARIO.panel, r1, r2))


class TestCascadeDistances:
    """The kernel measures the legs of the cascaded path with two distance
    calls: r1 from the transmitter to the reflector, r2 from it to the receiver."""

    def test_axis_aligned(self):
        assert kernel_power(Point3(0, 0, 10), Point3(0, 0, 0), Point3(0, 40, 0)) == pytest.approx(
            formula_power(10.0, 40.0), rel=1e-15)

    def test_hand_evaluated_legs(self):
        assert kernel_power(Point3(0, 0, 0), Point3(1, 2, 2), Point3(4, 6, 14)) == pytest.approx(
            formula_power(3.0, 13.0), rel=1e-15)

    def test_coincident_tx_irs_rejected(self):
        with pytest.raises(DegenerateGeometryError, match=r"r1 = 0"):
            kernel_power(Point3(1, 1, 1), Point3(1, 1, 1), Point3(2, 2, 2))

    def test_coincident_irs_rx_rejected(self):
        with pytest.raises(DegenerateGeometryError, match=r"r2 = 0"):
            kernel_power(Point3(0, 0, 0), Point3(1, 1, 1), Point3(1, 1, 1))

    @given(points, points, points)
    def test_agrees_with_two_distance_calls(self, tx, irs, rx):
        r1 = distance(tx, irs)
        r2 = distance(irs, rx)
        if r1 == 0.0 or r2 == 0.0:
            with pytest.raises(DegenerateGeometryError):
                kernel_power(tx, irs, rx)
        elif 0 < formula_power(r1, r2) < math.inf:
            assert kernel_power(tx, irs, rx) == pytest.approx(formula_power(r1, r2), rel=1e-12)
        else:  # legs so short, or so long, that the power leaves the float range
            with pytest.raises(InvalidInputError, match="outside the float range"):
                kernel_power(tx, irs, rx)
