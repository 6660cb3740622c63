"""Sweep engine tests: grids, determinism, common random numbers, placement."""

import dataclasses
import math

import numpy as np
import pytest

from irssim import (
    ChannelParams,
    DegenerateGeometryError,
    FadingModel,
    InterfererSet,
    InvalidInputError,
    IrsPanel,
    Point3,
    Scenario,
    SweepSpec,
    cascade_distances,
    compare_placement,
    irs_rx_power,
    monte_carlo_stats,
    run_angle_sweep,
    run_distance_sweep,
)
from irssim import sweep as sweep_module
from irssim.channel import FadingMode
from irssim.sweep import LinkMode


def make_channel(alpha=2.0):
    return ChannelParams(
        carrier_frequency=28e9,
        tx_power=1.0,
        path_loss_exponent=alpha,
        noise_power=4e-13,
    )


def make_panel(theta_t=45.0, theta_r=45.0):
    return IrsPanel(
        element_length=0.005,
        element_width=0.005,
        tx_side_elements=50,
        rx_side_elements=50,
        reflection_coefficient=0.9,
        tx_gain=10.0,
        rx_gain=10.0,
        theta_t=theta_t,
        theta_r=theta_r,
    )


def conventional_scenario(alpha=2.0, fading=None):
    return Scenario(
        channel=make_channel(alpha),
        fading=fading or FadingModel(mode=FadingMode.DETERMINISTIC),
        interference=InterfererSet.constant(1e-13),
        mode=LinkMode.CONVENTIONAL,
        tx=Point3(0, 0, 10),
        label="conv",
    )


def irs_scenario(theta_t=45.0, theta_r=45.0, fading=None, irs=Point3(50, 0, 10)):
    return Scenario(
        channel=make_channel(),
        fading=fading or FadingModel(mode=FadingMode.DETERMINISTIC),
        interference=InterfererSet.constant(1e-13),
        mode=LinkMode.IRS_ASSISTED,
        tx=Point3(0, 0, 10),
        panel=make_panel(theta_t, theta_r),
        irs=irs,
        label="irs",
    )


class TestSweepSpec:
    def test_grid_contract(self):
        spec = SweepSpec(start=5.0, stop=100.0, steps=96)
        grid = spec.grid()
        assert len(grid) == 96
        step = (100.0 - 5.0) / 95
        for i, x in enumerate(grid):
            assert x == 5.0 + i * step

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SweepSpec(start=10.0, stop=10.0, steps=5)
        with pytest.raises(InvalidInputError):
            SweepSpec(start=1.0, stop=2.0, steps=1)
        with pytest.raises(InvalidInputError):
            SweepSpec(start=1.0, stop=2.0, steps=5, trials=0)
        for seed in (-1, 2 ** 64):
            with pytest.raises(InvalidInputError, match="seed"):
                SweepSpec(start=1.0, stop=2.0, steps=5, seed=seed)


class TestScenario:
    def test_irs_mode_requires_panel_and_position(self):
        with pytest.raises(InvalidInputError):
            Scenario(
                channel=make_channel(),
                fading=FadingModel(),
                interference=InterfererSet.constant(0.0),
                mode=LinkMode.IRS_ASSISTED,
                tx=Point3(0, 0, 10),
            )

    def test_conventional_mode_rejects_panel(self):
        with pytest.raises(InvalidInputError):
            Scenario(
                channel=make_channel(),
                fading=FadingModel(),
                interference=InterfererSet.constant(0.0),
                mode=LinkMode.CONVENTIONAL,
                tx=Point3(0, 0, 10),
                panel=make_panel(),
            )

    def test_zero_direction_rejected(self):
        with pytest.raises(InvalidInputError):
            dataclasses.replace(conventional_scenario(), rx_direction=(0.0, 0.0, 0.0))


class TestDistanceSweep:
    def test_inverse_square_in_db(self):
        result = run_distance_sweep(
            conventional_scenario(alpha=2.0),
            SweepSpec(start=10.0, stop=40.0, steps=4))
        sinr_db = [row.sinr_db for row in result.rows]
        assert sinr_db[1] - sinr_db[0] == pytest.approx(-6.0206, abs=1e-4)
        assert sinr_db[3] - sinr_db[1] == pytest.approx(-6.0206, abs=1e-4)

    def test_irs_leg_product_in_db(self):
        result = run_distance_sweep(irs_scenario(), SweepSpec(start=15.0, stop=30.0, steps=2))
        gap = result.rows[1].sinr_db - result.rows[0].sinr_db
        assert gap == pytest.approx(-2.0 * 10.0 * math.log10(2.0), abs=1e-9)

    def test_rows_sorted_and_counted(self):
        spec = SweepSpec(start=5.0, stop=100.0, steps=20)
        result = run_distance_sweep(conventional_scenario(), spec)
        xs = [row.x for row in result.rows]
        assert xs == spec.grid()

    def test_deterministic_trials_equivalent(self):
        scenario = conventional_scenario()
        few = run_distance_sweep(scenario, SweepSpec(start=5.0, stop=50.0, steps=10, trials=1, seed=3))
        many = run_distance_sweep(scenario, SweepSpec(start=5.0, stop=50.0, steps=10, trials=1000, seed=3))
        for a, b in zip(few.rows, many.rows):
            assert a.sinr_db == b.sinr_db
            assert b.sinr_db_stddev == 0.0

    def test_reproducible_across_runs(self):
        scenario = conventional_scenario(
            fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=11))
        spec = SweepSpec(start=5.0, stop=50.0, steps=10, trials=32, seed=11)
        first = run_distance_sweep(scenario, spec)
        second = run_distance_sweep(scenario, spec)
        assert first.rows == second.rows

    def test_slope_equals_negative_alpha(self):
        for alpha in (2.0, 3.5):
            result = run_distance_sweep(
                conventional_scenario(alpha=alpha),
                SweepSpec(start=5.0, stop=100.0, steps=40))
            xs = np.array([row.x for row in result.rows])
            ys = np.array([row.sinr_db for row in result.rows])
            slope = np.polyfit(10.0 * np.log10(xs), ys, 1)[0]
            assert slope == pytest.approx(-alpha, abs=1e-9)

    def test_nonpositive_start_rejected(self):
        with pytest.raises(InvalidInputError):
            run_distance_sweep(conventional_scenario(), SweepSpec(start=0.0, stop=10.0, steps=3))

    def test_degenerate_point_names_x(self):
        scenario = irs_scenario(irs=Point3(0, 0, 10))  # coincides with tx
        with pytest.raises(DegenerateGeometryError, match="x="):
            run_distance_sweep(scenario, SweepSpec(start=1.0, stop=2.0, steps=2))

    def test_metadata_records_run_parameters(self):
        spec = SweepSpec(start=5.0, stop=50.0, steps=5, trials=3, seed=17)
        result = run_distance_sweep(conventional_scenario(), spec)
        assert result.metadata["seed"] == 17
        assert result.metadata["trials"] == 3
        assert result.metadata["mode"] == "conventional"
        assert result.metadata["conventional_model"] == "paper"


class TestChunkInvariance:
    """The kernel's memory chunking never changes a single bit of the output."""

    fading = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=7)

    def outputs(self, monkeypatch, elements):
        monkeypatch.setattr(sweep_module, "_CHUNK_ELEMENTS", elements)
        interferers = InterfererSet.modeled([
            (make_channel(), Point3(120, 0, 10)),
            (make_channel(), Point3(-40, 60, 10)),
        ])
        scenario = dataclasses.replace(
            irs_scenario(fading=self.fading), interference=interferers)
        sweep = run_distance_sweep(scenario, SweepSpec(start=5.0, stop=95.0, steps=16,
                                                       trials=20, seed=7))
        placement = compare_placement(
            scenario,
            [Point3(x, y, 10) for x in (20, 50, 80) for y in (-20, 20)],
            [Point3(10.0 * k, 3.0 * k - 12, 1.5) for k in range(1, 9)],
            SweepSpec(start=1.0, stop=2.0, steps=2, trials=30, seed=7))
        return sweep.rows, placement.entries

    # 1 element: one receiver per chunk; 700: placement chunks of 3, 3 and 2
    # receivers (6 positions x 30 trials each); 10**9: the whole grid at once
    @pytest.mark.parametrize("elements", [1, 700])
    def test_chunk_size_does_not_change_results(self, monkeypatch, elements):
        assert self.outputs(monkeypatch, elements) == self.outputs(monkeypatch, 10**9)


class TestAngleSweep:
    spec = SweepSpec(start=10.0, stop=90.0, steps=9, trials=50, seed=21)

    def fading_scenario(self):
        return irs_scenario(fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=21))

    def test_cosine_gap_under_common_randomness(self):
        results = run_angle_sweep(self.fading_scenario(), [(45, 45), (60, 60)], self.spec)
        expected = 10.0 * math.log10(
            (math.cos(math.radians(45)) ** 2) / (math.cos(math.radians(60)) ** 2))
        for a, b in zip(results[0].rows, results[1].rows):
            assert a.sinr_db - b.sinr_db == pytest.approx(expected, abs=1e-9)

    def test_swapped_angles_identical(self):
        results = run_angle_sweep(self.fading_scenario(), [(45, 60), (60, 45)], self.spec)
        for a, b in zip(results[0].rows, results[1].rows):
            assert a.sinr_db == pytest.approx(b.sinr_db, abs=1e-12)
            assert a.rx_power_dbm == pytest.approx(b.rx_power_dbm, abs=1e-12)

    def test_boresight_vs_60_degrees(self):
        results = run_angle_sweep(self.fading_scenario(), [(0, 0), (60, 60)], self.spec)
        for a, b in zip(results[0].rows, results[1].rows):
            assert a.sinr_db - b.sinr_db == pytest.approx(6.0206, abs=1e-4)

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(InvalidInputError):
            run_angle_sweep(self.fading_scenario(), [(90, 45)], self.spec)

    def test_requires_irs_scenario(self):
        with pytest.raises(InvalidInputError):
            run_angle_sweep(conventional_scenario(), [(45, 45)], self.spec)


class TestMonteCarloStats:
    def test_deterministic_collapses(self):
        stats = monte_carlo_stats(conventional_scenario(), Point3(30, 0, 10), 100, seed=5)
        assert stats.stddev_sinr_db == 0.0
        assert stats.p5_sinr_db == stats.mean_sinr_db
        assert stats.p95_sinr_db == stats.mean_sinr_db

    def test_mean_power_converges(self):
        scenario = conventional_scenario(
            fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=1))
        deterministic = monte_carlo_stats(conventional_scenario(), Point3(30, 0, 10), 1, seed=1)
        stats = monte_carlo_stats(scenario, Point3(30, 0, 10), 10**6, seed=1)
        assert abs(stats.mean_rx_power_w / deterministic.mean_rx_power_w - 1.0) < 0.01

    def test_bit_identical_repeats(self):
        scenario = irs_scenario(
            fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=9))
        first = monte_carlo_stats(scenario, Point3(80, 0, 1.5), 5000, seed=9)
        second = monte_carlo_stats(scenario, Point3(80, 0, 1.5), 5000, seed=9)
        assert first == second

    def test_percentiles_bracket_mean(self):
        scenario = conventional_scenario(
            fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=4))
        stats = monte_carlo_stats(scenario, Point3(30, 0, 10), 20000, seed=4)
        assert stats.p5_sinr_db < stats.mean_sinr_db < stats.p95_sinr_db
        assert stats.stddev_sinr_db > 0


class TestComparePlacement:
    spec = SweepSpec(start=1.0, stop=2.0, steps=2, trials=1, seed=0)

    def test_mirror_symmetric_placements_tie(self):
        scenario = dataclasses.replace(irs_scenario(), tx=Point3(50, 0, 10))
        rx_positions = [Point3(40, 0, 1.5), Point3(60, 0, 1.5)]
        report = compare_placement(
            scenario,
            [Point3(30, 0, 10), Point3(70, 0, 10)],
            rx_positions,
            self.spec)
        a, b = report.entries
        assert a.min_sinr_db == pytest.approx(b.min_sinr_db, rel=1e-12)
        assert a.mean_sinr_db == pytest.approx(b.mean_sinr_db, rel=1e-12)
        assert a.max_sinr_db == pytest.approx(b.max_sinr_db, rel=1e-12)

    def test_single_rx_best_is_min_leg_product(self):
        scenario = irs_scenario()
        rx = Point3(80, 0, 1.5)
        candidates = [Point3(x, 0, 10) for x in (20, 40, 60, 90)]
        report = compare_placement(scenario, candidates, [rx], self.spec)
        products = {
            irs: math.prod(cascade_distances(scenario.tx, irs, rx))
            for irs in candidates
        }
        best = min(candidates, key=lambda p: products[p])
        assert report.entries[0].irs_position == best

    def test_matches_brute_force_ranking(self):
        scenario = irs_scenario()
        rx_positions = [Point3(x, 0, 1.5) for x in (20, 50, 80)]
        candidates = [Point3(50, 0, 10), Point3(95, 0, 10)]
        report = compare_placement(scenario, candidates, rx_positions, self.spec)

        def brute_min_sinr(irs):
            worst = math.inf
            for rx in rx_positions:
                legs = cascade_distances(scenario.tx, irs, rx)
                power = irs_rx_power(scenario.channel, scenario.panel, *legs)
                ratio = power / (scenario.interference.constant_power
                                 + scenario.channel.noise_power)
                worst = min(worst, 10.0 * math.log10(ratio))
            return worst

        expected_order = sorted(candidates, key=brute_min_sinr, reverse=True)
        assert [e.irs_position for e in report.entries] == expected_order
        for entry in report.entries:
            assert entry.min_sinr_db == pytest.approx(
                brute_min_sinr(entry.irs_position), abs=1e-9)

    def test_degenerate_pair_named(self):
        scenario = irs_scenario()
        with pytest.raises(DegenerateGeometryError, match="rx="):
            compare_placement(
                scenario, [Point3(50, 0, 10)], [Point3(50, 0, 10)], self.spec)

    def test_requires_irs_scenario(self):
        with pytest.raises(InvalidInputError):
            compare_placement(
                conventional_scenario(), [Point3(1, 0, 0)], [Point3(2, 0, 0)], self.spec)
