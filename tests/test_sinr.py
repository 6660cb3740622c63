"""Interference and noise floor tests: the denominator of the SINR, as the kernel sums it."""

import dataclasses

import pytest

from irssim import (
    ChannelParams,
    DegenerateGeometryError,
    FadingModel,
    InterfererSet,
    InvalidInputError,
    Point3,
    Scenario,
    conventional_rx_power,
    thermal_noise_watts,
)
from irssim import sweep
from irssim.channel import FadingMode


def make_params():
    return ChannelParams(
        carrier_frequency=3e9,
        tx_power=0.1,
        path_loss_exponent=2.0,
        noise_power=1e-13,
    )


def denominator(interference, rx=Point3(0, 0, 0)):
    """Interference plus noise power at ``rx``, in watts, read back from a
    deterministic kernel call at that one receiver: the mean power over the SINR."""
    scenario = Scenario(channel=make_params(), fading=FadingModel(mode=FadingMode.DETERMINISTIC),
                        interference=interference, tx=Point3(0, 0, 50))
    stats = sweep._evaluate(scenario, None, sweep._as_array([rx]), 1, 0,
                            where=lambda k, p: f"receiver {rx}")
    return float(stats.power[0, 0]) / 10.0 ** (float(stats.sinr_db[0, 0]) / 10.0)


def interference_at(interference, rx=Point3(0, 0, 0)):
    return denominator(interference, rx) - make_params().noise_power


class TestAggregateInterference:
    """The kernel's interference term: the constant floor plus each modeled interferer."""

    def test_constant_passthrough(self):
        assert interference_at(InterfererSet(constant_power=1e-11)) == pytest.approx(
            1e-11, rel=1e-12)

    def test_empty_modeled_set(self):
        assert denominator(InterfererSet.modeled([])) == denominator(InterfererSet())
        assert interference_at(InterfererSet.modeled([])) == pytest.approx(0.0, abs=1e-25)

    def test_two_equidistant_interferers_double(self):
        params = make_params()
        pair = InterfererSet.modeled([
            (params, Point3(10, 0, 0)),
            (params, Point3(-10, 0, 0)),
        ])
        single = InterfererSet.modeled([(params, Point3(10, 0, 0))])
        assert interference_at(pair) == pytest.approx(2.0 * interference_at(single), rel=1e-12)

    def test_union_linearity(self):
        params = make_params()
        rx = Point3(1, 2, 3)
        left = [(params, Point3(30, 0, 5))]
        right = [(params, Point3(0, 40, 5)), (params, Point3(-20, -20, 5))]
        combined = interference_at(InterfererSet.modeled(left + right), rx)
        parts = (interference_at(InterfererSet.modeled(left), rx)
                 + interference_at(InterfererSet.modeled(right), rx))
        assert combined == pytest.approx(parts, rel=1e-12)

    def test_modeled_value_matches_direct_model(self):
        params = make_params()
        interferer_set = InterfererSet.modeled([(params, Point3(0, 25, 0))])
        assert interference_at(interferer_set) == pytest.approx(
            conventional_rx_power(params, 25.0), rel=1e-12)

    def test_any_iterable_of_pairs_is_read_once_and_hashes(self):
        # the checks used to run a generator to its end and store it empty
        pairs = [(make_params(), Point3(0, 25, 0)), (make_params(), Point3(30, 0, 5))]
        expected = denominator(InterfererSet(interferers=tuple(pairs)))
        for given in ((pair for pair in pairs), pairs, [list(pair) for pair in pairs]):
            interferer_set = InterfererSet(interferers=given)
            assert interferer_set.interferers == tuple(pairs)
            assert hash(interferer_set) == hash(InterfererSet(interferers=tuple(pairs)))
            assert denominator(interferer_set) == expected
        assert InterfererSet.modeled(pair for pair in pairs).interferers == tuple(pairs)

    def test_coincident_interferer_rejected(self):
        interferer_set = InterfererSet.modeled([(make_params(), Point3(1, 1, 1))])
        with pytest.raises(DegenerateGeometryError, match="interferer 0 .* coincides"):
            interference_at(interferer_set, Point3(1, 1, 1))

    def test_floor_plus_interferers_sum(self):
        params = make_params()
        interferer_set = InterfererSet(constant_power=1e-11,
                                       interferers=((params, Point3(0, 25, 0)),))
        assert interference_at(interferer_set) == pytest.approx(
            1e-11 + conventional_rx_power(params, 25.0), rel=1e-12)

    def test_constant_must_be_nonnegative(self):
        with pytest.raises(InvalidInputError):
            InterfererSet(constant_power=-1e-12)

    @pytest.mark.parametrize("entry,message", [
        (("not params", Point3(120.0, 0.0, 10.0)),
         "interferer 1 parameters must be a ChannelParams, got str"),
        ((make_params(), (120.0, 0.0, 10.0)),
         "interferer 1 position must be a Point3, got tuple"),
        ((Point3(120.0, 0.0, 10.0),),
         "interferer 1 must hold 2 values, got (Point3(x=120.0, y=0.0, z=10.0),)"),
        ("ab", "interferer 1 parameters must be a ChannelParams, got str"),
        (5, "interferer 1 must be iterable, got int"),
    ], ids=["params", "position", "one-tuple", "string", "not-iterable"])
    def test_entries_must_be_params_position_pairs(self, entry, message):
        entries = [(make_params(), Point3(0, 25, 0)), entry]
        for build in (InterfererSet.modeled, lambda e: InterfererSet(interferers=tuple(e))):
            with pytest.raises(InvalidInputError) as caught:
                build(entries)
            assert str(caught.value) == message

    @pytest.mark.parametrize("interferers,message", [
        (5, "interferers must be iterable, got int"),
        (None, "interferers must be iterable, got NoneType"),
    ], ids=["int", "none"])
    def test_interferers_must_be_iterable(self, interferers, message):
        with pytest.raises(InvalidInputError) as caught:
            InterfererSet(interferers=interferers)
        assert str(caught.value) == message

    def test_a_pair_may_be_any_iterable(self):
        params, position = make_params(), Point3(0, 25, 0)
        modeled = InterfererSet.modeled(iter([iter((params, position)), [params, position]]))
        assert modeled.interferers == ((params, position),) * 2
        assert type(modeled.interferers[1]) is tuple

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
