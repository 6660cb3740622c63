"""Interference aggregation and noise floor tests."""

import dataclasses

import numpy as np
import pytest

from irssim import (
    ChannelParams,
    DegenerateGeometryError,
    FadingModel,
    InterfererSet,
    InvalidInputError,
    Point3,
    conventional_rx_power,
    aggregate_interference,
    thermal_noise_watts,
)
from irssim.channel import FadingMode


def one_rx(x, y, z):
    """Coordinates of a single receiver, shape (1, 3)."""
    return np.array([[x, y, z]], dtype=float)


def make_params():
    return ChannelParams(
        carrier_frequency=3e9,
        tx_power=0.1,
        path_loss_exponent=2.0,
        noise_power=1e-13,
    )


class TestAggregateInterference:
    deterministic = FadingModel(mode=FadingMode.DETERMINISTIC)

    def test_constant_passthrough(self):
        assert aggregate_interference(
            InterfererSet.constant(1e-11), one_rx(0, 0, 0), self.deterministic)[0] == 1e-11

    def test_empty_modeled_set(self):
        assert aggregate_interference(
            InterfererSet.modeled([]), one_rx(0, 0, 0), self.deterministic)[0] == 0.0

    def test_two_equidistant_interferers_double(self):
        params = make_params()
        rx = one_rx(0, 0, 0)
        pair = InterfererSet.modeled([
            (params, Point3(10, 0, 0)),
            (params, Point3(-10, 0, 0)),
        ])
        single = InterfererSet.modeled([(params, Point3(10, 0, 0))])
        total = aggregate_interference(pair, rx, self.deterministic)[0]
        one = aggregate_interference(single, rx, self.deterministic)[0]
        assert total == pytest.approx(2.0 * one, rel=1e-12)

    def test_union_linearity(self):
        params = make_params()
        rx = one_rx(1, 2, 3)
        left = [(params, Point3(30, 0, 5))]
        right = [(params, Point3(0, 40, 5)), (params, Point3(-20, -20, 5))]
        combined = aggregate_interference(
            InterfererSet.modeled(left + right), rx, self.deterministic)[0]
        parts = (aggregate_interference(InterfererSet.modeled(left), rx, self.deterministic)[0]
                 + aggregate_interference(InterfererSet.modeled(right), rx, self.deterministic)[0])
        assert combined == pytest.approx(parts, rel=1e-12)

    def test_modeled_value_matches_direct_model(self):
        params = make_params()
        rx = one_rx(0, 0, 0)
        interferer_set = InterfererSet.modeled([(params, Point3(0, 25, 0))])
        total = aggregate_interference(interferer_set, rx, self.deterministic)[0]
        assert total == pytest.approx(conventional_rx_power(params, 25.0), rel=1e-12)

    def test_coincident_interferer_rejected(self):
        interferer_set = InterfererSet.modeled([(make_params(), Point3(1, 1, 1))])
        with pytest.raises(DegenerateGeometryError):
            aggregate_interference(interferer_set, one_rx(1, 1, 1), self.deterministic)

    def test_floor_plus_interferers_sum(self):
        params = make_params()
        interferer_set = InterfererSet(constant_power=1e-11,
                                       interferers=((params, Point3(0, 25, 0)),))
        total = aggregate_interference(interferer_set, one_rx(0, 0, 0), self.deterministic)[0]
        assert total == pytest.approx(1e-11 + conventional_rx_power(params, 25.0), rel=1e-12)

    @pytest.mark.parametrize("interferers", [(), ((make_params(), Point3(0, 25, 0)),)])
    @pytest.mark.parametrize("rx", [Point3(0, 0, 0), np.zeros(3), np.zeros((1, 2)),
                                    [[0.0, 0.0, 0.0]]])
    def test_rx_must_be_an_array_of_coordinates(self, interferers, rx):
        interferer_set = InterfererSet(constant_power=1e-11, interferers=interferers)
        with pytest.raises(InvalidInputError, match=r"shape \(P, 3\)"):
            aggregate_interference(interferer_set, rx, self.deterministic)

    def test_constant_must_be_nonnegative(self):
        with pytest.raises(InvalidInputError):
            InterfererSet.constant(-1e-12)
        with pytest.raises(InvalidInputError):
            InterfererSet(constant_power=-1e-12)

    def test_negative_floor_with_interferers_rejected(self):
        modeled = InterfererSet.modeled([(make_params(), Point3(0, 25, 0))])
        with pytest.raises(InvalidInputError):
            dataclasses.replace(modeled, constant_power=-1e-12)


class TestThermalNoise:
    def test_ktb_reference(self):
        # k * 290 K * 100 MHz
        assert thermal_noise_watts(100e6) == pytest.approx(
            1.380649e-23 * 290.0 * 100e6, rel=1e-15)

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(InvalidInputError):
            thermal_noise_watts(0.0)
