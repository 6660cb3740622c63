"""Channel model tests: wavelength, unit conversion, fading, both power models."""

import math
import re
from array import array

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from irssim import (
    ChannelParams,
    FadingModel,
    InterfererSet,
    InvalidInputError,
    IrsPanel,
    Point3,
    SweepResult,
    SweepSpec,
    emit_results,
)
from irssim import channel as channel_module
from irssim.channel import _HASH_BLOCK as BLOCK
from irssim.channel import (
    _conventional_rx_power,
    _hash_block,
    _irs_rx_power,
    _sample_fading_block,
    _watts_to_dbm_array,
)
from irssim.channel import SPEED_OF_LIGHT, ConventionalModel, FadingMode
from irssim.config import _dbm_to_watts, _thermal_noise_watts


def make_params(frequency=SPEED_OF_LIGHT, tx_power=1.0, alpha=2.0, noise=1e-10):
    return ChannelParams(
        carrier_frequency=frequency,
        tx_power=tx_power,
        path_loss_exponent=alpha,
        noise_power=noise,
    )


def constant(watts):
    return InterfererSet(constant_power=watts)


def dbm(watts):
    """The dBm of one power, as the sweep converts its (R, P) powers."""
    return _watts_to_dbm_array(np.array([watts])).item()


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
        assert dbm(1.0) == pytest.approx(30.0, abs=1e-12)

    def test_one_milliwatt_is_0_dbm(self):
        assert dbm(1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_minus_41_dbm(self):
        # 10^(-41/10) * 1e-3
        assert _dbm_to_watts(-41.0) == pytest.approx(7.943282e-8, rel=1e-6)

    @given(st.floats(min_value=1e-20, max_value=1e6))
    def test_round_trip(self, watts):
        assert _dbm_to_watts(dbm(watts)) == pytest.approx(watts, rel=1e-12)

    def test_finite_above_the_milliwatt_float_range(self):
        # 1.04e308 W is 1.04e311 mW, beyond the float range
        assert dbm(1.04e308) == pytest.approx(3110.1703, abs=1e-4)
        assert dbm(1.7976931348623157e308) == pytest.approx(3112.5472, abs=1e-4)

    @pytest.mark.parametrize("watts", [1e-3, 2.5e-7, 1.7e305, 1.7976931348623157e305])
    def test_unchanged_where_milliwatts_are_finite(self, watts):
        assert dbm(watts) == 10.0 * math.log10(watts / 1e-3)

    @given(st.lists(st.one_of(
        st.floats(min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True),
        st.floats(min_value=1e-15, max_value=1e3),  # link-budget powers
        st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-3, 1.7976931348623157e305,
                         1.8e305, 1.04e308, 1.7976931348623157e308])), min_size=1, max_size=64))
    @example(np.geomspace(1e-15, 1e3, 4001).tolist())
    def test_array_matches_the_scalar_bit_for_bit(self, watts):
        """The sweep's (R, P) dBm conversion is the scalar formula of each value,
        in any shape: subnormal powers, 1 mW, and powers whose milliwatts
        overflow, which take the 10*(log10(W) + 3) branch."""
        def formula(w):
            milliwatts = w / 1e-3
            if milliwatts < math.inf:
                return 10.0 * math.log10(milliwatts)
            return 10.0 * (math.log10(w) + 3.0)

        expected = array("d", map(formula, watts)).tobytes()
        assert array("d", map(dbm, watts)).tobytes() == expected
        for shape in ((-1,), (1, -1), (-1, 1)):
            values = _watts_to_dbm_array(np.array(watts).reshape(shape))
            assert values.shape == np.array(watts).reshape(shape).shape
            assert array("d", values.ravel().tolist()).tobytes() == expected


class TestFading:
    def test_deterministic_is_unity(self):
        model = FadingModel(mode=FadingMode.DETERMINISTIC)
        for index in (0, 1, 17, 2**40):
            assert _sample_fading_block(model, index, 1)[0] == 1.0

    def test_reproducible(self):
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=1234)
        first = _sample_fading_block(model, 7, 1)[0]
        second = _sample_fading_block(model, 7, 1)[0]
        assert first == second
        assert first > 0

    def test_block_matches_individual_draws(self):
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=99)
        block = _sample_fading_block(model, 100, 8)
        singles = [_sample_fading_block(model, 100 + i, 1)[0] for i in range(8)]
        assert list(block) == singles

    def test_different_seeds_differ(self):
        a = _sample_fading_block(FadingModel(FadingMode.RAYLEIGH_EXPONENTIAL, seed=1), 0, 1)[0]
        b = _sample_fading_block(FadingModel(FadingMode.RAYLEIGH_EXPONENTIAL, seed=2), 0, 1)[0]
        assert a != b

    def test_unit_mean_monte_carlo(self):
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=2024)
        draws = _sample_fading_block(model, 0, 10**6)
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
        draws = _sample_fading_block(model, start, len(expected))
        assert [float(v).hex() for v in draws] == expected
        # one index at a time too: the same draw wherever a hash block starts
        assert [float(_sample_fading_block(model, start + i, 1)[0]).hex()
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
        for draw, bits in zip(_sample_fading_block(model, 0, len(top53)).tolist(), top53):
            expected = -math.log((bits + 0.5) * 2.0 ** -53)
            # np.log may take another SIMD path than math.log on another host
            assert abs(draw - expected) <= math.ulp(expected)

    @pytest.mark.parametrize("mode", list(FadingMode))
    @pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_split_matches_one_call(self, mode, count):
        # the second call's hash blocks start count // 3 indices later
        model = FadingModel(mode=mode, seed=5)
        start, split = 2**62 - BLOCK // 2, count // 3
        whole = _sample_fading_block(model, start, count)
        parts = np.concatenate([_sample_fading_block(model, start, split),
                                _sample_fading_block(model, start + split, count - split)])
        assert whole.tobytes() == parts.tobytes()

    # a row longer than one block hashes its first half, up to two blocks, in
    # one span, then the rest block by block
    @pytest.mark.parametrize("count,spans", [
        (2 * BLOCK - 1, [BLOCK - 1, BLOCK]), (2 * BLOCK, [BLOCK, BLOCK]),
        (2 * BLOCK + 1, [BLOCK, BLOCK, 1]), (100_000, [50_000, BLOCK, 100_000 - 50_000 - BLOCK]),
        (200_001, [2 * BLOCK] + [BLOCK] * 4 + [200_001 - 6 * BLOCK])])
    # the first stream index, and a last index of 2**64 - 1, whose counter
    # (i + 1) * gamma + seed wraps to the seed itself
    @pytest.mark.parametrize("at_end", [False, True], ids=["first_index", "last_index"])
    def test_spans_match_block_by_block_hashing(self, monkeypatch, count, spans, at_end):
        seed, start = 2**64 - 3, 2**64 - count if at_end else 0
        expected, scratch = np.empty(count), np.empty(BLOCK, dtype=np.uint64)
        for first in range(0, count, BLOCK):
            _hash_block(seed, start + first, expected[first:first + BLOCK], scratch)
        expected += 0.5
        expected *= 2.0 ** -53
        np.log(expected, expected)
        np.negative(expected, expected)
        lengths = []

        def spy(seed, start_index, out, scratch):
            lengths.append(len(out))
            _hash_block(seed, start_index, out, scratch)

        monkeypatch.setattr(channel_module, "_hash_block", spy)
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=seed)
        assert _sample_fading_block(model, start, count).tobytes() == expected.tobytes()
        assert lengths == spans

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
        assert _conventional_rx_power(params, 1.0) == pytest.approx(
            1.0 / (16.0 * math.pi**2), rel=1e-15)

    def test_inverse_square(self):
        params = make_params()
        assert _conventional_rx_power(params, 2.0) == pytest.approx(
            _conventional_rx_power(params, 1.0) / 4.0, rel=1e-15)

    def test_linearity_in_fading(self):
        params = make_params()
        assert _conventional_rx_power(params, 1.0, 2.0) == pytest.approx(
            2.0 * _conventional_rx_power(params, 1.0, 1.0), rel=1e-15)

    @given(st.floats(min_value=0.1, max_value=1e4),
           st.floats(min_value=0.0, max_value=6.0))
    def test_exponent_law(self, r, alpha):
        params = make_params(alpha=alpha)
        ratio = _conventional_rx_power(params, 2 * r) / _conventional_rx_power(params, r)
        assert ratio == pytest.approx(2.0 ** (-alpha), rel=1e-12)

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_linearity_in_tx_power(self, scale):
        base = make_params(tx_power=1.0)
        scaled = make_params(tx_power=scale)
        assert _conventional_rx_power(scaled, 7.0) == pytest.approx(
            scale * _conventional_rx_power(base, 7.0), rel=1e-12)

    def test_strictly_decreasing_in_distance(self):
        params = make_params(alpha=3.1)
        values = [_conventional_rx_power(params, r) for r in np.linspace(1, 200, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_friis_variant_adds_one_wavelength_factor(self):
        params = make_params(frequency=3e9)
        lam = params.wavelength
        paper = _conventional_rx_power(params, 10.0, model=ConventionalModel.PAPER)
        friis = _conventional_rx_power(params, 10.0, model=ConventionalModel.FRIIS)
        assert friis == pytest.approx(paper * lam, rel=1e-15)

    def test_fading_expectation_matches_deterministic(self):
        params = make_params(frequency=28e9, alpha=2.5)
        model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=5)
        gains = _sample_fading_block(model, 0, 10**6)
        deterministic = _conventional_rx_power(params, 25.0)
        mean_power = deterministic * gains.mean()
        assert abs(mean_power / deterministic - 1.0) < 0.01


def element_gain(params, panel):
    """Element aperture gain G, solved from the cascaded power over unit legs."""
    lam = params.wavelength
    rest = (panel.element_length * panel.element_width
            * panel.tx_side_elements ** 2 * panel.rx_side_elements ** 2
            * lam * lam * panel.tx_gain * panel.rx_gain
            * math.cos(math.radians(panel.theta_t)) * math.cos(math.radians(panel.theta_r))
            * panel.reflection_coefficient ** 2 * params.tx_power
            / (64.0 * math.pi ** 3))
    return _irs_rx_power(params, panel, 1.0, 1.0) / rest


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
        value = _irs_rx_power(params, panel, 1.0, 1.0)
        assert value == pytest.approx(1.0 / (256.0 * math.pi**4), rel=1e-12)
        assert value == pytest.approx(4.010149e-5, rel=1e-6)

    def test_element_area_squared(self):
        # the area l_x*w_y enters once directly and once through the element gain
        params = make_params(frequency=28e9)
        legs = (3.0, 7.0)
        small = _irs_rx_power(params, make_panel(), *legs)
        big = _irs_rx_power(params, make_panel(element_length=0.01, element_width=0.01), *legs)
        assert big == pytest.approx(16.0 * small, rel=1e-15)

    def test_cosine_product_at_60_degrees(self):
        base = make_panel(theta_t=0.0, theta_r=0.0)
        tilted = make_panel(theta_t=60.0, theta_r=60.0)
        params = make_params()
        legs = (1.0, 1.0)
        assert _irs_rx_power(params, tilted, *legs) == pytest.approx(
            0.25 * _irs_rx_power(params, base, *legs), rel=1e-12)

    def test_element_count_scaling(self):
        params = make_params()
        legs = (1.0, 1.0)
        single = _irs_rx_power(params, make_panel(tx_side_elements=1, rx_side_elements=1), *legs)
        multi = _irs_rx_power(params, make_panel(tx_side_elements=2, rx_side_elements=3), *legs)
        assert multi == pytest.approx(36.0 * single, rel=1e-12)

    def test_wavelength_cancellation(self):
        panel = make_panel()
        legs = (3.0, 7.0)
        values = [
            _irs_rx_power(make_params(frequency=f), panel, *legs)
            for f in (1e9, 3e9, 28e9)
        ]
        assert values[1] == pytest.approx(values[0], rel=1e-12)
        assert values[2] == pytest.approx(values[0], rel=1e-12)

    def test_angle_symmetry(self):
        params = make_params()
        legs = (2.0, 5.0)
        a = _irs_rx_power(params, make_panel(theta_t=20.0, theta_r=70.0), *legs)
        b = _irs_rx_power(params, make_panel(theta_t=70.0, theta_r=20.0), *legs)
        assert a == pytest.approx(b, rel=1e-12)

    def test_leg_swap_symmetry(self):
        params = make_params()
        panel = make_panel()
        a = _irs_rx_power(params, panel, 2.0, 5.0)
        b = _irs_rx_power(params, panel, 5.0, 2.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_angle_monotonicity(self):
        params = make_params()
        legs = (1.0, 1.0)
        values = [
            _irs_rx_power(params, make_panel(theta_t=t, theta_r=30.0), *legs)
            for t in np.linspace(0.0, 89.0, 30)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_reflection_coefficient_squared(self):
        params = make_params()
        legs = (1.0, 1.0)
        half = _irs_rx_power(params, make_panel(reflection_coefficient=0.4), *legs)
        full = _irs_rx_power(params, make_panel(reflection_coefficient=0.8), *legs)
        assert full == pytest.approx(4.0 * half, rel=1e-12)

    def test_leg_product_inverse_square(self):
        params = make_params()
        panel = make_panel()
        near = _irs_rx_power(params, panel, 2.0, 3.0)
        far = _irs_rx_power(params, panel, 4.0, 6.0)
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
        assert (_irs_rx_power(make_params(), panel, 4.0, 6.0)
                == _irs_rx_power(make_params(), make_panel(**{field: 3}), 4.0, 6.0))

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

    # each used to escape as a TypeError, or to pass an infinite value
    # through, instead of naming the bad argument; the noise floor is
    # config.py's, and config input reaches it
    @pytest.mark.parametrize("call,message", [
        (lambda: emit_results([SweepResult("a", "x", ((1.0,),) * 4)], "csv", 5),
         "destination must be a path or a text stream, got int"),
        (lambda: _thermal_noise_watts(math.inf), "bandwidth must be finite and > 0, got inf"),
        (lambda: _thermal_noise_watts("1"), "bandwidth must be a real number, got '1'"),
    ], ids=["emit_destination", "thermal_noise_inf", "thermal_noise_str"])
    def test_public_functions_name_a_bad_argument(self, call, message):
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message
