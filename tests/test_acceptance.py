"""Acceptance suite: one test per exit criterion, each reporting a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import dataclasses
import math
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from irssim import (
    ChannelParams,
    ConfigError,
    FadingModel,
    InterfererSet,
    InvalidInputError,
    IrsPanel,
    Point3,
    Scenario,
    SweepSpec,
    build_preset,
    compare_placement,
    parse_scenario,
    run_distance_sweep,
)
from irssim import sweep as sweep_engine
from irssim.channel import (
    SPEED_OF_LIGHT,
    ConventionalModel,
    FadingMode,
    _conventional_rx_power,
    _irs_rx_power,
    _sample_fading_block,
)
from irssim.geometry import _distance


def report(criterion: int, message: str) -> None:
    print(f"PASS criterion {criterion}: {message}")


def distance(a, b):
    """The kernel's distance between two points, as a float."""
    return _distance(sweep_engine._as_array([a]), sweep_engine._as_array([b])).item()


def legs_of(tx, irs, rx):
    """The two legs (r1, r2) of the cascaded path tx -> irs -> rx."""
    return distance(tx, irs), distance(irs, rx)


def random_channel(rng):
    return ChannelParams(
        carrier_frequency=rng.uniform(1e9, 100e9),
        tx_power=rng.uniform(1e-3, 10.0),
        path_loss_exponent=rng.uniform(0.0, 5.0),
        noise_power=rng.uniform(1e-14, 1e-10),
    )


def random_panel(rng):
    return IrsPanel(
        element_length=rng.uniform(1e-3, 0.1),
        element_width=rng.uniform(1e-3, 0.1),
        tx_side_elements=rng.randint(1, 256),
        rx_side_elements=rng.randint(1, 256),
        reflection_coefficient=rng.uniform(0.1, 1.0),
        tx_gain=rng.uniform(0.5, 100.0),
        rx_gain=rng.uniform(0.5, 100.0),
        theta_t=rng.uniform(0.0, 89.9),
        theta_r=rng.uniform(0.0, 89.9),
    )


def oracle_conventional_power(params, r, fading=1.0, model=ConventionalModel.PAPER):
    """Direct-link power as printed, with lambda squared in the FRIIS variant."""
    lam = SPEED_OF_LIGHT / params.carrier_frequency
    numerator = lam if model is ConventionalModel.PAPER else lam ** 2
    return (numerator * fading * params.tx_power
            / (r ** params.path_loss_exponent * 16.0 * math.pi ** 2))


def oracle_irs_power(params, panel, r1, r2):
    """Cascaded power as printed, with the element aperture gain G spelled out."""
    lam = SPEED_OF_LIGHT / params.carrier_frequency
    g = 4.0 * math.pi * panel.element_length * panel.element_width / lam ** 2
    return (panel.element_length * panel.element_width
            * panel.tx_side_elements ** 2 * panel.rx_side_elements ** 2
            * lam ** 2 * panel.tx_gain * panel.rx_gain * g
            * math.cos(math.radians(panel.theta_t))
            * math.cos(math.radians(panel.theta_r))
            * panel.reflection_coefficient ** 2
            / (64.0 * math.pi ** 3 * (r1 * r2) ** 2)
            * params.tx_power)


def test_criterion_1_formula_oracles():
    rng = random.Random(20240824)
    for _ in range(25):
        params = random_channel(rng)
        r = rng.uniform(0.5, 500.0)
        fading = rng.uniform(0.01, 10.0)
        got = _conventional_rx_power(params, r, fading)
        assert got == pytest.approx(oracle_conventional_power(params, r, fading), rel=1e-12)

        panel = random_panel(rng)
        r1, r2 = rng.uniform(1.0, 200.0), rng.uniform(1.0, 200.0)
        legs = legs_of(Point3(0, 0, 0), Point3(r1, 0, 0), Point3(r1 + r2, 0, 0))
        substituted = ((panel.element_length * panel.element_width
                        * panel.tx_side_elements * panel.rx_side_elements) ** 2
                       * panel.tx_gain * panel.rx_gain
                       * math.cos(math.radians(panel.theta_t))
                       * math.cos(math.radians(panel.theta_r))
                       * panel.reflection_coefficient ** 2
                       * params.tx_power
                       / (16.0 * math.pi ** 2 * (r1 * r2) ** 2))
        got_irs = _irs_rx_power(params, panel, *legs)
        assert got_irs == pytest.approx(oracle_irs_power(params, panel, r1, r2), rel=1e-12)
        assert got_irs == pytest.approx(substituted, rel=1e-12)
    report(1, "both power formulas match independent evaluations on 25 random sets")


coordinate = st.floats(min_value=-200.0, max_value=200.0)
position = st.tuples(coordinate, coordinate, coordinate).map(lambda c: Point3(*c))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32), link_irs=st.booleans(), rayleigh=st.booleans(),
       friis=st.booleans(), tx=position,
       irs=st.lists(position, min_size=1, max_size=4),
       rx=st.lists(position, min_size=1, max_size=5),
       interferers=st.lists(position, min_size=0, max_size=3),
       floor=st.one_of(st.just(0.0), st.floats(1e-14, 1e-10)),
       trials=st.integers(1, 6))
def test_array_kernel_matches_formula_oracles(seed, link_irs, rayleigh, friis, tx, irs, rx,
                                              interferers, floor, trials):
    """The kernel's (K, P) statistics equal a per-pair, per-trial scalar evaluation."""
    points = [tx, *irs, *rx, *interferers]
    assume(all(distance(a, b) > 0.5 for i, a in enumerate(points) for b in points[i + 1:]))
    rng = random.Random(seed)
    params, panel = random_channel(rng), random_panel(rng)
    model = ConventionalModel.FRIIS if friis else ConventionalModel.PAPER
    fading = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL if rayleigh
                         else FadingMode.DETERMINISTIC, seed=seed if rayleigh else None)
    interferer_params = [random_channel(rng) for _ in interferers]
    scenario = Scenario(
        channel=params, fading=fading,
        interference=InterfererSet(floor, tuple(zip(interferer_params, interferers))),
        tx=tx,
        panel=panel if link_irs else None, irs=irs[0] if link_irs else None,
        conventional_model=model)
    irs = irs if link_irs else [None]
    stats = sweep_engine._evaluate(
        scenario, sweep_engine._as_array(irs) if link_irs else None,
        sweep_engine._as_array(rx), trials, seed, where=lambda k, p: "")

    draws = trials if rayleigh else 1
    n = len(interferers)
    for k, reflector in enumerate(irs):
        for p, receiver in enumerate(rx):
            if link_irs:
                base = oracle_irs_power(params, panel, distance(tx, reflector),
                                        distance(reflector, receiver))
            else:
                base = oracle_conventional_power(params, distance(tx, receiver), model=model)
            interference = floor + sum(
                oracle_conventional_power(
                    ip, distance(position, receiver),
                    float(_sample_fading_block(
                        fading, sweep_engine._INTERFERENCE_STREAM_BASE + p * n + j, 1)[0]),
                    model)
                for j, (ip, position) in enumerate(zip(interferer_params, interferers)))
            gains = _sample_fading_block(fading, p * draws, draws)
            powers = [base * float(g) for g in gains]
            sinr_db = [10.0 * math.log10(w / (interference + params.noise_power))
                       for w in powers]
            mean_db = sum(sinr_db) / draws
            assert stats.power[k, p] == pytest.approx(sum(powers) / draws, rel=1e-12)
            assert stats.sinr_db[k, p] == pytest.approx(mean_db, rel=1e-12, abs=1e-12)
            assert stats.sinr_db_stddev[p] == pytest.approx(
                math.sqrt(sum((v - mean_db) ** 2 for v in sinr_db) / draws),
                rel=1e-12, abs=1e-12)


def test_criterion_2_wavelength_cancellation():
    rng = random.Random(2)
    panel = random_panel(rng)
    legs = legs_of(Point3(0, 0, 0), Point3(10, 0, 0), Point3(40, 0, 0))
    values = []
    for f in (1e9, 3e9, 28e9):
        params = ChannelParams(
            carrier_frequency=f, tx_power=1.0, path_loss_exponent=2.0,
            noise_power=1e-12)
        values.append(_irs_rx_power(params, panel, *legs))
    assert values[1] == pytest.approx(values[0], rel=1e-12)
    assert values[2] == pytest.approx(values[0], rel=1e-12)
    report(2, "cascaded power is frequency-invariant at 1/3/28 GHz to 1e-12")


def test_criterion_3_scaling_laws():
    rng = random.Random(3)
    legs = legs_of(Point3(0, 0, 0), Point3(5, 0, 0), Point3(25, 0, 0))
    legs2 = legs_of(Point3(0, 0, 0), Point3(10, 0, 0), Point3(50, 0, 0))
    for alpha in (0.0, 1.0, 2.0, 3.7):
        params = ChannelParams(
            carrier_frequency=28e9, tx_power=1.0, path_loss_exponent=alpha,
            noise_power=1e-12)
        ratio = _conventional_rx_power(params, 2 * 7.0) / _conventional_rx_power(params, 7.0)
        assert ratio == pytest.approx(2.0 ** (-alpha), rel=1e-12)

    params = ChannelParams(carrier_frequency=28e9, tx_power=1.0,
                           path_loss_exponent=2.0, noise_power=1e-12)
    base = random_panel(rng)

    one = dataclasses.replace(base, tx_side_elements=1, rx_side_elements=1)
    many = dataclasses.replace(base, tx_side_elements=2, rx_side_elements=3)
    assert _irs_rx_power(params, many, *legs) == pytest.approx(
        36.0 * _irs_rx_power(params, one, *legs), rel=1e-12)

    low = dataclasses.replace(base, reflection_coefficient=0.45)
    high = dataclasses.replace(base, reflection_coefficient=0.9)
    assert _irs_rx_power(params, high, *legs) == pytest.approx(
        4.0 * _irs_rx_power(params, low, *legs), rel=1e-12)

    p45 = _irs_rx_power(params, dataclasses.replace(base, theta_t=45.0, theta_r=45.0), *legs)
    p60 = _irs_rx_power(params, dataclasses.replace(base, theta_t=60.0, theta_r=60.0), *legs)
    gap = 10.0 * math.log10(p45 / p60)
    assert gap == pytest.approx(10.0 * math.log10(2.0), abs=1e-9)

    leg_gap = 10.0 * math.log10(
        _irs_rx_power(params, base, *legs2) / _irs_rx_power(params, base, *legs))
    # doubling both legs quadruples r1*r2, so power drops 16x (-12.0412 dB)
    assert leg_gap == pytest.approx(-40.0 * math.log10(2.0), abs=1e-9)
    report(3, "r-doubling, element-count, reflection and cosine/leg scaling laws hold")


def test_criterion_4_fig1_trend():
    scenario, spec = build_preset("fig1")
    result = run_distance_sweep(scenario, spec)
    xs, _, sinr_db, _ = map(np.array, result.columns)
    assert np.all(np.diff(sinr_db) < 0)
    slope = np.polyfit(10.0 * np.log10(xs), sinr_db, 1)[0]
    alpha = scenario.channel.path_loss_exponent
    assert slope == pytest.approx(-alpha, abs=1e-9)
    report(4, f"fig1 curve strictly decreasing, fitted slope {slope:.12f} = -alpha")


def test_criterion_5_fig2_angle_family():
    results = {}
    for name in ("fig2a", "fig2b", "fig2c"):
        scenario, spec = build_preset(name)
        scenario = dataclasses.replace(
            scenario, fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=spec.seed))
        spec = dataclasses.replace(spec, trials=1000)
        results[name] = run_distance_sweep(scenario, spec)

    def cos_db(theta_t, theta_r):
        return 10.0 * math.log10(
            math.cos(math.radians(theta_t)) * math.cos(math.radians(theta_r)))

    expected_ab = cos_db(45, 45) - cos_db(60, 60)
    expected_cb = cos_db(45, 60) - cos_db(60, 60)
    (_, _, sinr_a, stddev_a), (_, _, sinr_b, _), (_, _, sinr_c, _) = (
        results[name].columns for name in ("fig2a", "fig2b", "fig2c"))
    for a, b, c, stddev in zip(sinr_a, sinr_b, sinr_c, stddev_a):
        assert a - b == pytest.approx(expected_ab, abs=1e-9)
        assert c - b == pytest.approx(expected_cb, abs=1e-9)
        assert stddev > 0  # fading really was enabled
    report(5, "fig2a/b/c pointwise dB gaps equal cosine-product ratios at 1000 trials")


def test_criterion_6_fading_convergence():
    model = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=20240824)
    draws = _sample_fading_block(model, 0, 10**6)
    params = ChannelParams(carrier_frequency=28e9, tx_power=1.0,
                           path_loss_exponent=2.0, noise_power=1e-12)
    deterministic = _conventional_rx_power(params, 30.0)
    mean_power = float(np.mean(deterministic * draws))
    rel = abs(mean_power / deterministic - 1.0)
    assert rel < 0.01  # expected std. error of the mean is 0.1%
    report(6, f"mean power over 1e6 draws within {rel:.4%} of deterministic value")


def test_criterion_7_determinism(tmp_path):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "irssim", "sweep", "--preset", "fig2d",
             "--seed", "42", "--trials", "100", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    report(7, "repeated CLI runs byte-identical")


def test_criterion_8_placement_comparison():
    scenario, _ = build_preset("fig2b")
    rx_positions = [Point3(x, 0, 1.5) for x in (20.0, 50.0, 80.0)]
    candidates = [Point3(50.0, 0, 10.0), Point3(95.0, 0, 10.0)]
    spec = SweepSpec(start=1.0, stop=2.0, steps=2, trials=1, seed=0)
    report_obj = compare_placement(scenario, candidates, rx_positions, spec)

    denominator = scenario.interference.constant_power + scenario.channel.noise_power
    brute = []
    for irs in candidates:
        sinrs = []
        for rx in rx_positions:
            legs = legs_of(scenario.tx, irs, rx)
            power = _irs_rx_power(scenario.channel, scenario.panel, *legs)
            sinrs.append(10.0 * math.log10(power / denominator))
        brute.append((irs, min(sinrs), sinrs))
    brute.sort(key=lambda item: item[1], reverse=True)

    assert [e.irs_position for e in report_obj.entries] == [b[0] for b in brute]
    for entry, (_, min_db, sinrs) in zip(report_obj.entries, brute):
        assert entry.min_sinr_db == pytest.approx(min_db, abs=1e-9)
        for got, want in zip(entry.per_rx_sinr_db, sinrs):
            assert got == pytest.approx(want, abs=1e-9)
    report(8, "placement ranking matches exhaustive per-pair evaluation")


def test_criterion_9_validation_suite():
    base_irs = """\
[channel]
frequency_hz = 28e9
tx_power_dbm = 30
path_loss_exponent = 2
noise_dbm = -94
interference_dbm = -100

[geometry]
mode = irs
tx = 0 0 10
irs = 50 0 10

[panel]
element_length_m = 0.005
element_width_m = 0.005
tx_side_elements = 100
rx_side_elements = 100
reflection_coefficient = 0.9
tx_gain_dbi = 10
rx_gain_dbi = 10
theta_t = 60
theta_r = 60

[sweep]
start = 5
stop = 100
steps = 20
"""
    # each mutation must fail with a diagnostic naming the offending key
    cases = [
        ("theta_t = 60", "theta_t = 90", "theta_t"),
        ("theta_r = 60", "theta_r = -5", "theta_r"),
        ("reflection_coefficient = 0.9", "reflection_coefficient = 1.5",
         "reflection_coefficient"),
        ("element_length_m = 0.005", "element_length_m = 0", "element_length"),
        ("tx_side_elements = 100", "tx_side_elements = 0", "tx_side_elements"),
        ("frequency_hz = 28e9", "frequency_hz = -1", "carrier_frequency"),
        ("path_loss_exponent = 2", "path_loss_exponent = -1", "path_loss_exponent"),
        ("start = 5", "start = 200", "start"),
        ("steps = 20", "steps = 1", "steps"),
    ]
    for old, new, key in cases:
        with pytest.raises(ConfigError, match=key):
            parse_scenario(base_irs.replace(old, new))

    with pytest.raises(ConfigError, match=r"\[panel\]"):
        parse_scenario(base_irs.replace("mode = irs", "mode = conventional"))

    with pytest.raises(InvalidInputError):
        IrsPanel(element_length=0.005, element_width=0.005, tx_side_elements=1,
                 rx_side_elements=1, reflection_coefficient=0.9, tx_gain=1.0,
                 rx_gain=1.0, theta_t=89.0, theta_r=90.0)
    with pytest.raises(InvalidInputError):
        FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=None)
    with pytest.raises(InvalidInputError):
        InterfererSet(constant_power=-1.0)
    report(9, "all documented constraints produce their named diagnostics")
