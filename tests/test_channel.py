"""Channel model tests: wavelength, unit conversion, fading, both power models."""

import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from irssim import (
    ChannelParams,
    DegenerateGeometryError,
    FadingModel,
    InterfererSet,
    InvalidInputError,
    IrsPanel,
    Point3,
    SweepSpec,
    conventional_rx_power,
    dbm_to_watts,
    distance,
    irs_rx_power,
    sample_fading_block,
    watts_to_dbm,
)
from irssim.channel import _HASH_BLOCK as BLOCK
from irssim.channel import _hash_block, _watts_to_dbm_array
from irssim.channel import SPEED_OF_LIGHT, ConventionalModel, FadingMode


def make_params(frequency=SPEED_OF_LIGHT, tx_power=1.0, alpha=2.0, noise=1e-10):
    return ChannelParams(
        carrier_frequency=frequency,
        tx_power=tx_power,
        path_loss_exponent=alpha,
        noise_power=noise,
    )


def constant(watts):
    return InterfererSet(constant_power=watts)


def make_panel(**overrides):
    fields = dict(
        element_length=0.005,
        element_width=0.005,
        tx_side_elements=10,
        rx_side_elements=10,
        reflection_coefficient=0.9,
        tx_gain=10.0,
        rx_gain=10.0,
        theta_t=45.0,
        theta_r=45.0,
    )
    fields.update(overrides)
    return IrsPanel(**fields)


class TestWavelength:
    def test_one_meter(self):
        assert make_params(frequency=SPEED_OF_LIGHT).wavelength == 1.0

    def test_decade_scaling(self):
        assert make_params(frequency=2.99792458e9).wavelength == pytest.approx(0.1, rel=1e-15)

    def test_28_ghz(self):
        assert make_params(frequency=28e9).wavelength == pytest.approx(0.0107068735, rel=1e-9)

    def test_rejects_nonpositive(self):
        # ChannelParams rejects such a frequency, so no wavelength is ever <= 0
        for frequency in (0.0, -1e9):
            with pytest.raises(InvalidInputError, match=re.escape(
                    f"carrier_frequency must be finite and > 0, got {frequency!r}")):
                make_params(frequency=frequency)


class TestPowerConversion:
    def test_one_watt_is_30_dbm(self):
        assert watts_to_dbm(1.0) == pytest.approx(30.0, abs=1e-12)

    def test_one_milliwatt_is_0_dbm(self):
        assert watts_to_dbm(1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_minus_41_dbm(self):
        # 10^(-41/10) * 1e-3
        assert dbm_to_watts(-41.0) == pytest.approx(7.943282e-8, rel=1e-6)

    def test_rejects_nonpositive_watts(self):
        with pytest.raises(InvalidInputError):
            watts_to_dbm(0.0)

    @given(st.floats(min_value=1e-20, max_value=1e6))
    def test_round_trip(self, watts):
        assert dbm_to_watts(watts_to_dbm(watts)) == pytest.approx(watts, rel=1e-12)

    def test_finite_above_the_milliwatt_float_range(self):
        # 1.04e308 W is 1.04e311 mW, beyond the float range
        assert watts_to_dbm(1.04e308) == pytest.approx(3110.1703, abs=1e-4)
        assert watts_to_dbm(1.7976931348623157e308) == pytest.approx(3112.5472, abs=1e-4)

    @pytest.mark.parametrize("watts", [1e-3, 2.5e-7, 1.7e305, 1.7976931348623157e305])
    def test_unchanged_where_milliwatts_are_finite(self, watts):
        assert watts_to_dbm(watts) == 10.0 * math.log10(watts / 1e-3)

    @given(st.lists(st.one_of(
        st.floats(min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True),
        st.floats(min_value=1e-15, max_value=1e3),  # link-budget powers
        st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-3, 1.7976931348623157e305,
                         1.8e305, 1.04e308, 1.7976931348623157e308])), min_size=1, max_size=64))
    @example(np.geomspace(1e-15, 1e3, 4001).tolist())
    def test_array_matches_the_scalar_bit_for_bit(self, watts):
        """The sweep's (R, P) dBm conversion is watts_to_dbm of each value, and both
        are the scalar formula: subnormal powers, 1 mW, and powers whose milliwatts
        overflow, which take the 10*(log10(W) + 3) branch."""
        def formula(w):
            milliwatts = w / 1e-3
            if milliwatts < math.inf:
                return 10.0 * math.log10(milliwatts)
            return 10.0 * (math.log10(w) + 3.0)

        expected = array("d", map(formula, watts)).tobytes()
        assert array("d", map(watts_to_dbm, watts)).tobytes() == expected
        for shape in ((-1,), (1, -1), (-1, 1)):
            dbm = _watts_to_dbm_array(np.array(watts).reshape(shape))
            assert dbm.shape == np.array(watts).reshape(shape).shape
            assert array("d", dbm.ravel().tolist()).tobytes() == expected


class TestFading:
    def test_deterministic_is_unity(self):
        model = FadingModel(mode=FadingMode.DETERMINISTIC)
        for index in (0, 1, 17, 2**40):
            assert sample_fading_block(model, index, 1)[0] == 1.0

    def test_reproducible(self):
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=1234)
        first = sample_fading_block(model, 7, 1)[0]
        second = sample_fading_block(model, 7, 1)[0]
        assert first == second
        assert first > 0

    def test_block_matches_individual_draws(self):
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=99)
        block = sample_fading_block(model, 100, 8)
        singles = [sample_fading_block(model, 100 + i, 1)[0] for i in range(8)]
        assert list(block) == singles

    def test_different_seeds_differ(self):
        a = sample_fading_block(FadingModel(FadingMode.RAYLEIGH_EXPONENTIAL, seed=1), 0, 1)[0]
        b = sample_fading_block(FadingModel(FadingMode.RAYLEIGH_EXPONENTIAL, seed=2), 0, 1)[0]
        assert a != b

    def test_unit_mean_monte_carlo(self):
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=2024)
        draws = sample_fading_block(model, 0, 10**6)
        # std. error of the mean is 1e-3 at this sample size
        assert abs(draws.mean() - 1.0) < 0.01
        assert draws.min() > 0

    def test_rayleigh_requires_seed(self):
        with pytest.raises(InvalidInputError):
            FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL)

    # draws of version 0.5.1, as float.hex: stream starts 0, 2**62 (the
    # interferer base) and a range across the boundary of the 2**15-index hash blocks
    PINNED = {
        (0, 0): ["0x1.fc395e8aa0837p-4", "0x1.ae4be8a11ce98p-1", "0x1.d109d798cb9c3p+1"],
        (0, 2**62): ["0x1.7cf904c3baf70p+2", "0x1.3486e10782e14p-2", "0x1.11d3cf9ea55efp-6"],
        (0, 2**15 - 2): ["0x1.dadaee1ced1c5p-1", "0x1.0323659b3cb63p-2",
                         "0x1.3333eff734e66p-1", "0x1.5e954a951531ap+0"],
        (42, 0): ["0x1.322b1f6128f27p-2", "0x1.d548c5acc2421p+0", "0x1.472950897cfc0p+0"],
        (42, 2**62): ["0x1.bf6525d5dbb3bp-9", "0x1.0d7af1aebc4cbp+0", "0x1.5f3d570a4d69cp-1"],
        (42, 2**15 - 2): ["0x1.0b6a541077bb3p-1", "0x1.e7101146573c3p+0",
                          "0x1.01211b62dc338p+0", "0x1.038e50a444bf2p+0"],
        (2**64 - 1, 0): ["0x1.cb375f251ac8fp-4", "0x1.769f77ec1ce60p-4", "0x1.843860278c1a2p+0"],
        (2**64 - 1, 2**62): ["0x1.53db51d72c114p+0", "0x1.6263aa28fbb50p+1",
                             "0x1.22d24d44c2ba3p-5"],
        (2**64 - 1, 2**15 - 2): ["0x1.6d575dd198483p-4", "0x1.7bad5d8a5d11bp+0",
                                 "0x1.7fb1aceb1289ep-2", "0x1.15feec837454dp+0"],
    }

    @pytest.mark.parametrize("seed,start", list(PINNED))
    def test_stream_is_pinned(self, seed, start):
        expected = self.PINNED[seed, start]
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=seed)
        draws = sample_fading_block(model, start, len(expected))
        assert [float(v).hex() for v in draws] == expected
        # one index at a time too: the same draw wherever a hash block starts
        assert [float(sample_fading_block(model, start + i, 1)[0]).hex()
                for i in range(len(expected))] == expected

    # the first five outputs of the reference splitmix64 generator: for seed 0
    # the first is Vigna's published first output, and seed 1234567 is the
    # seed of the published reference sequence
    SPLITMIX64 = {
        0: [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
            0xF88BB8A8724C81EC, 0x1B39896A51A8749B],
        1234567: [6457827717110365317, 3203168211198807973, 9817491932198370423,
                  4593380528125082431, 16408922859458223821],
    }

    @pytest.mark.parametrize("seed", list(SPLITMIX64))
    def test_stream_index_i_is_splitmix64_output_i_plus_1(self, seed):
        top53 = [output >> 11 for output in self.SPLITMIX64[seed]]
        out, scratch = np.empty(len(top53)), np.empty(len(top53), dtype=np.uint64)
        _hash_block(seed, 0, out, scratch)
        assert out.tolist() == top53
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=seed)
        for draw, bits in zip(sample_fading_block(model, 0, len(top53)).tolist(), top53):
            expected = -math.log((bits + 0.5) * 2.0 ** -53)
            # np.log may take another SIMD path than math.log on another host
            assert abs(draw - expected) <= math.ulp(expected)

    @pytest.mark.parametrize("mode", list(FadingMode))
    @pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_split_matches_one_call(self, mode, count):
        # the second call's hash blocks start count // 3 indices later
        model = FadingModel(mode=mode, seed=5)
        start, split = 2**62 - BLOCK // 2, count // 3
        whole = sample_fading_block(model, start, count)
        parts = np.concatenate([sample_fading_block(model, start, split),
                                sample_fading_block(model, start + split, count - split)])
        assert whole.tobytes() == parts.tobytes()

    @pytest.mark.parametrize("mode", list(FadingMode))
    @pytest.mark.parametrize("start,count,message", [
        (1.5, 1, "start_index must be an integer, got 1.5"),
        (True, 1, "start_index must be an integer, got True"),
        (0, 2.0, "count must be an integer, got 2.0"),
        (0, False, "count must be an integer, got False"),
        (0, -1, "count must be >= 0, got -1"),
        (-1, 1, "stream indices must lie in [0, 2**64), got start_index=-1 and count=1"),
        (2**64 + 1, 1,
         f"stream indices must lie in [0, 2**64), got start_index={2**64 + 1} and count=1"),
        (2**64 - 1, 2,
         f"stream indices must lie in [0, 2**64), got start_index={2**64 - 1} and count=2"),
    ], ids=["float_start", "bool_start", "float_count", "bool_count", "negative_count",
            "negative_start", "past_the_end", "across_the_end"])
    def test_indices_follow_the_integer_rule(self, mode, start, count, message):
        model = FadingModel(mode=mode, seed=5)
        with pytest.raises(InvalidInputError) as caught:
            sample_fading_block(model, start, count)
        assert str(caught.value) == message

    @pytest.mark.parametrize("start,count", [(np.uint64(2**64 - 3), np.int64(3)), (2**64, 0)])
    def test_indices_may_reach_the_end_of_the_stream_space(self, start, count):
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=5)
        draws = sample_fading_block(model, start, count)
        assert draws.tobytes() == b"".join(
            sample_fading_block(model, int(start) + i, 1).tobytes() for i in range(count))

    def test_mode_must_be_a_member(self):
        with pytest.raises(InvalidInputError,
                           match="FadingMode.DETERMINISTIC or FadingMode.RAYLEIGH_EXPONENTIAL"):
            FadingModel(mode="rayleigh", seed=1)

    # a float seed would draw the truncated seed's stream, and one outside
    # [0, 2**64) would wrap, while either is reported as given
    @pytest.mark.parametrize("mode", list(FadingMode))
    @pytest.mark.parametrize("seed", [1.5, True, -1, 2**64, "1"])
    def test_seed_follows_the_sweep_seed_rule(self, mode, seed):
        with pytest.raises(InvalidInputError, match="seed must"):
            FadingModel(mode=mode, seed=seed)


class TestConventionalRxPower:
    def test_hand_evaluated_reference(self):
        params = make_params()
        # lambda=1, Pt=1, alpha=2, L=1, r=1 -> 1/(16 pi^2)
        assert conventional_rx_power(params, 1.0) == pytest.approx(
            1.0 / (16.0 * math.pi**2), rel=1e-15)

    def test_inverse_square(self):
        params = make_params()
        assert conventional_rx_power(params, 2.0) == pytest.approx(
            conventional_rx_power(params, 1.0) / 4.0, rel=1e-15)

    def test_linearity_in_fading(self):
        params = make_params()
        assert conventional_rx_power(params, 1.0, 2.0) == pytest.approx(
            2.0 * conventional_rx_power(params, 1.0, 1.0), rel=1e-15)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(DegenerateGeometryError):
            conventional_rx_power(make_params(), 0.0)

    def test_rejects_zero_fading_gain(self):
        with pytest.raises(InvalidInputError, match="fading gain must be > 0, got 0.0"):
            conventional_rx_power(make_params(), 10.0, 0.0)

    @given(st.floats(min_value=0.1, max_value=1e4),
           st.floats(min_value=0.0, max_value=6.0))
    def test_exponent_law(self, r, alpha):
        params = make_params(alpha=alpha)
        ratio = conventional_rx_power(params, 2 * r) / conventional_rx_power(params, r)
        assert ratio == pytest.approx(2.0 ** (-alpha), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_linearity_in_tx_power(self, scale):
        base = make_params(tx_power=1.0)
        scaled = make_params(tx_power=scale)
        assert conventional_rx_power(scaled, 7.0) == pytest.approx(
            scale * conventional_rx_power(base, 7.0), rel=1e-12)

    def test_strictly_decreasing_in_distance(self):
        params = make_params(alpha=3.1)
        values = [conventional_rx_power(params, r) for r in np.linspace(1, 200, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_friis_variant_adds_one_wavelength_factor(self):
        params = make_params(frequency=3e9)
        lam = params.wavelength
        paper = conventional_rx_power(params, 10.0, model=ConventionalModel.PAPER)
        friis = conventional_rx_power(params, 10.0, model=ConventionalModel.FRIIS)
        assert friis == pytest.approx(paper * lam, rel=1e-15)

    def test_model_must_be_a_member(self):
        # the value string "paper" must not fall through to the friis formula
        with pytest.raises(InvalidInputError,
                           match="ConventionalModel.PAPER or ConventionalModel.FRIIS"):
            conventional_rx_power(make_params(frequency=28e9), 10.0, model="paper")

    def test_fading_expectation_matches_deterministic(self):
        params = make_params(frequency=28e9, alpha=2.5)
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=5)
        gains = sample_fading_block(model, 0, 10**6)
        deterministic = conventional_rx_power(params, 25.0)
        mean_power = deterministic * gains.mean()
        assert abs(mean_power / deterministic - 1.0) < 0.01


def unit_cascade(r1=1.0, r2=1.0):
    tx, irs, rx = Point3(0, 0, 0), Point3(r1, 0, 0), Point3(r1 + r2, 0, 0)
    return distance(tx, irs), distance(irs, rx)


def element_gain(params, panel):
    """Element aperture gain G, solved from irs_rx_power over unit legs."""
    lam = params.wavelength
    rest = (panel.element_length * panel.element_width
            * panel.tx_side_elements ** 2 * panel.rx_side_elements ** 2
            * lam * lam * panel.tx_gain * panel.rx_gain
            * math.cos(math.radians(panel.theta_t)) * math.cos(math.radians(panel.theta_r))
            * panel.reflection_coefficient ** 2 * params.tx_power
            / (64.0 * math.pi ** 3))
    return irs_rx_power(params, panel, *unit_cascade()) / rest


class TestScatteringGain:
    def test_hand_inverted_unity(self):
        panel = make_panel(element_length=1.0 / (4.0 * math.pi), element_width=1.0)
        assert element_gain(make_params(), panel) == pytest.approx(1.0, rel=1e-15)

    def test_inverse_square_in_wavelength(self):
        panel = make_panel()
        short = element_gain(make_params(frequency=SPEED_OF_LIGHT / 0.005), panel)
        long = element_gain(make_params(frequency=SPEED_OF_LIGHT / 0.01), panel)
        assert short == pytest.approx(4.0 * long, rel=1e-15)


class TestIrsRxPower:
    def test_hand_evaluated_reference(self):
        # element area 1/(4 pi) at lambda = 1 m (element gain G = 1), unit gains,
        # zero angles, A=1, r1=r2=1 -> 1/(256 pi^4)
        panel = make_panel(element_length=1.0 / (4.0 * math.pi), element_width=1.0,
                           tx_side_elements=1, rx_side_elements=1,
                           reflection_coefficient=1.0, tx_gain=1.0, rx_gain=1.0,
                           theta_t=0.0, theta_r=0.0)
        params = make_params()
        value = irs_rx_power(params, panel, *unit_cascade())
        assert value == pytest.approx(1.0 / (256.0 * math.pi**4), rel=1e-12)
        assert value == pytest.approx(4.010149e-5, rel=1e-6)

    def test_element_area_squared(self):
        # the area l_x*w_y enters once directly and once through the element gain
        params = make_params(frequency=28e9)
        legs = unit_cascade(3.0, 7.0)
        small = irs_rx_power(params, make_panel(), *legs)
        big = irs_rx_power(params, make_panel(element_length=0.01, element_width=0.01), *legs)
        assert big == pytest.approx(16.0 * small, rel=1e-15)

    def test_zero_leg_rejected(self):
        with pytest.raises(DegenerateGeometryError,
                           match=re.escape("cascade legs must be > 0, got r1=0.0, r2=1.0")):
            irs_rx_power(make_params(), make_panel(), 0.0, 1.0)

    def test_cosine_product_at_60_degrees(self):
        base = make_panel(theta_t=0.0, theta_r=0.0)
        tilted = make_panel(theta_t=60.0, theta_r=60.0)
        params = make_params()
        legs = unit_cascade()
        assert irs_rx_power(params, tilted, *legs) == pytest.approx(
            0.25 * irs_rx_power(params, base, *legs), rel=1e-12)

    def test_element_count_scaling(self):
        params = make_params()
        legs = unit_cascade()
        single = irs_rx_power(params, make_panel(tx_side_elements=1, rx_side_elements=1), *legs)
        multi = irs_rx_power(params, make_panel(tx_side_elements=2, rx_side_elements=3), *legs)
        assert multi == pytest.approx(36.0 * single, rel=1e-12)

    def test_wavelength_cancellation(self):
        panel = make_panel()
        legs = unit_cascade(3.0, 7.0)
        values = [
            irs_rx_power(make_params(frequency=f), panel, *legs)
            for f in (1e9, 3e9, 28e9)
        ]
        assert values[1] == pytest.approx(values[0], rel=1e-12)
        assert values[2] == pytest.approx(values[0], rel=1e-12)

    def test_angle_symmetry(self):
        params = make_params()
        legs = unit_cascade(2.0, 5.0)
        a = irs_rx_power(params, make_panel(theta_t=20.0, theta_r=70.0), *legs)
        b = irs_rx_power(params, make_panel(theta_t=70.0, theta_r=20.0), *legs)
        assert a == pytest.approx(b, rel=1e-12)

    def test_leg_swap_symmetry(self):
        params = make_params()
        panel = make_panel()
        a = irs_rx_power(params, panel, *unit_cascade(2.0, 5.0))
        b = irs_rx_power(params, panel, *unit_cascade(5.0, 2.0))
        assert a == pytest.approx(b, rel=1e-12)

    def test_angle_monotonicity(self):
        params = make_params()
        legs = unit_cascade()
        values = [
            irs_rx_power(params, make_panel(theta_t=t, theta_r=30.0), *legs)
            for t in np.linspace(0.0, 89.0, 30)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_reflection_coefficient_squared(self):
        params = make_params()
        legs = unit_cascade()
        half = irs_rx_power(params, make_panel(reflection_coefficient=0.4), *legs)
        full = irs_rx_power(params, make_panel(reflection_coefficient=0.8), *legs)
        assert full == pytest.approx(4.0 * half, rel=1e-12)

    def test_leg_product_inverse_square(self):
        params = make_params()
        panel = make_panel()
        near = irs_rx_power(params, panel, *unit_cascade(2.0, 3.0))
        far = irs_rx_power(params, panel, *unit_cascade(4.0, 6.0))
        assert far == pytest.approx(near / 16.0, rel=1e-12)


class TestValidation:
    def test_channel_params_ranges(self):
        with pytest.raises(InvalidInputError):
            make_params(frequency=0.0)
        with pytest.raises(InvalidInputError):
            make_params(tx_power=0.0)
        with pytest.raises(InvalidInputError):
            make_params(alpha=-0.5)
        with pytest.raises(InvalidInputError):
            make_params(noise=0.0)

    @pytest.mark.parametrize("field,value", [
        ("element_length", 0.0),
        ("element_width", -1.0),
        ("tx_side_elements", 0),
        ("rx_side_elements", -2),
        ("reflection_coefficient", 0.0),
        ("reflection_coefficient", 1.5),
        ("tx_gain", 0.0),
        ("rx_gain", -3.0),
        ("theta_t", 90.0),
        ("theta_r", -1.0),
    ])
    def test_panel_ranges(self, field, value):
        with pytest.raises(InvalidInputError):
            make_panel(**{field: value})

    # a bool or float count would run as another count but be reported as given
    @pytest.mark.parametrize("field", ["tx_side_elements", "rx_side_elements"])
    @pytest.mark.parametrize("value", [True, 2.0, np.int64(3)])
    def test_element_counts_follow_the_integer_rule(self, field, value):
        if not isinstance(value, np.integer):
            with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
                make_panel(**{field: value})
            return
        panel = make_panel(**{field: value})
        assert type(getattr(panel, field)) is int
        assert (irs_rx_power(make_params(), panel, 4.0, 6.0)
                == irs_rx_power(make_params(), make_panel(**{field: 3}), 4.0, 6.0))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("build,field", [
        (make_params, "frequency"),
        (make_params, "tx_power"),
        (make_params, "alpha"),
        (make_params, "noise"),
        (make_panel, "element_length"),
        (make_panel, "element_width"),
        (make_panel, "tx_gain"),
        (make_panel, "rx_gain"),
        (lambda **kw: SweepSpec(**{"start": 1.0, "stop": 2.0, "steps": 5, **kw}), "start"),
        (lambda **kw: SweepSpec(**{"start": 1.0, "stop": 2.0, "steps": 5, **kw}), "stop"),
        (InterfererSet, "constant_power"),
    ], ids=["carrier_frequency", "tx_power", "path_loss_exponent", "noise_power",
            "element_length", "element_width", "tx_gain", "rx_gain", "sweep_start",
            "sweep_stop", "constant_power"])
    def test_non_finite_rejected(self, build, field, value):
        with pytest.raises(InvalidInputError, match="finite"):
            build(**{field: value})

    # a bool would run as 0 or 1, and a string used to fail with a bare TypeError
    @pytest.mark.parametrize("build,field,value", [
        (make_panel, "theta_t", True),
        (make_panel, "element_length", True),
        (make_panel, "reflection_coefficient", True),
        (make_panel, "theta_t", "45"),
        (make_params, "tx_power", True),
        (make_params, "frequency", "28e9"),
        (make_params, "alpha", np.bool_(True)),
        (constant, "watts", "1"),
        (constant, "watts", False),
        (Point3, "x", True),
        (Point3, "z", "1.5"),
        (Point3, "y", 10 ** 400),
        (make_params, "noise", -10 ** 400),
        (lambda **kw: SweepSpec(**{"start": 1.0, "stop": 2.0, "steps": 5, **kw}), "start", False),
        (lambda **kw: SweepSpec(**{"start": 1.0, "stop": 2.0, "steps": 5, **kw}), "stop", "2"),
    ])
    def test_real_fields_follow_the_real_number_rule(self, build, field, value):
        kwargs = {"x": 1.0, "y": 2.0, "z": 3.0} if build is Point3 else {}
        with pytest.raises(InvalidInputError, match="must be a real number"):
            build(**{**kwargs, field: value})

    @pytest.mark.parametrize("value", [2, np.float32(2.0), np.float64(2.0), np.int64(2)])
    def test_python_and_numpy_reals_accepted(self, value):
        assert make_params(tx_power=value).tx_power == 2.0
        assert make_panel(theta_t=value).theta_t == 2.0
        assert InterfererSet(constant_power=value).constant_power == 2.0
        assert Point3(value, 0.0, 0.0).x == 2.0
        assert SweepSpec(start=value, stop=3.0, steps=2).start == 2.0
