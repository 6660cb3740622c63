"""Sweep engine tests: grids, determinism, common random numbers, placement."""

import dataclasses
import functools
import math
import operator
import sys
import threading
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    build_preset,
    compare_placement,
    distance,
    irs_rx_power,
    run_angle_sweep,
    run_distance_sweep,
)
from irssim import sweep as sweep_module
from irssim.channel import FadingMode
from irssim.output import render_results


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
        interference=InterfererSet(constant_power=1e-13),
        tx=Point3(0, 0, 10),
        label="conv",
    )


def irs_scenario(theta_t=45.0, theta_r=45.0, fading=None, irs=Point3(50, 0, 10)):
    return Scenario(
        channel=make_channel(),
        fading=fading or FadingModel(mode=FadingMode.DETERMINISTIC),
        interference=InterfererSet(constant_power=1e-13),
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

    # stop is drawn above start as the larger of two distinct positive values:
    # a stop drawn on its own fell below start so often that assume() threw away
    # most examples and hypothesis failed its health check
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                              st.integers(1, 2 ** 80), st.integers(1, 100)),
                    min_size=2, max_size=2, unique=True).map(sorted),
           st.integers(2, 3000))
    @example([5e-324, 1.7976931348623157e308], 3000)
    @example([7, 7.000000000000001], 2)
    def test_grid_is_start_plus_i_step_bit_for_bit(self, bounds, steps):
        """The grid of a start > 0 is the Python floats start + i*step in IEEE 754
        bytes; a grid whose last (largest) point leaves the float range, or whose
        points do not strictly increase, is rejected."""
        start, stop = bounds
        assume(start < stop)
        step = (float(stop) - float(start)) / (steps - 1)
        expected = [start + i * step for i in range(steps)]
        grid = f"sweep grid from start {float(start)!r} to stop {float(stop)!r} in {steps} steps"
        repeats = [x for x, following in zip(expected, expected[1:]) if following <= x]
        if not math.isfinite(expected[-1]) or repeats:
            with pytest.raises(InvalidInputError) as caught:
                SweepSpec(start=start, stop=stop, steps=steps)
            assert str(caught.value) == (
                f"{grid} leaves the float range: its last point is {expected[-1]!r}"
                if not math.isfinite(expected[-1]) else
                f"{grid} repeats points: its step {step!r} is below the float spacing"
                f" at {repeats[0]!r}")
            return
        grid = SweepSpec(start=start, stop=stop, steps=steps).grid()
        assert all(type(x) is float for x in grid)
        assert array("d", grid).tobytes() == array("d", expected).tobytes()

    @pytest.mark.parametrize("start,stop,steps", [
        # the span is finite once 0 < start < stop, but the last point rounds to inf
        (1e-3, 1.7976931348623157e308, 4),
        (1.0, 1.7976931348623157e308, 7),
        (1e308, 1.7976931348623157e308, 8),
    ])
    def test_grid_beyond_the_float_range_rejected(self, start, stop, steps):
        with pytest.raises(InvalidInputError) as caught:
            SweepSpec(start=start, stop=stop, steps=steps)
        assert str(caught.value) == (
            f"sweep grid from start {start!r} to stop {stop!r} in {steps} steps"
            " leaves the float range: its last point is inf")

    @pytest.mark.parametrize("start,stop,steps,step,at", [
        (1e16, 1.0000000000000002e16, 5, 0.5, 1e16),  # 1e16 three times, then 1e16 + 2
        (5e-324, 1e-323, 4, 0.0, 5e-324),  # the step rounds to 0: [5e-324] * 4
        # the first two points round to 1.0
        (1.0, 1.0000000000000002, 3, 1.1102230246251565e-16, 1.0),
    ])
    def test_grid_that_repeats_points_rejected(self, start, stop, steps, step, at):
        with pytest.raises(InvalidInputError) as caught:
            SweepSpec(start=start, stop=stop, steps=steps)
        assert str(caught.value) == (
            f"sweep grid from start {start!r} to stop {stop!r} in {steps} steps"
            f" repeats points: its step {step!r} is below the float spacing at {at!r}")

    def test_numpy_float_bounds_are_kept_as_python_floats(self):
        """Their last point overflows to inf as a Python float's does, with no
        numpy RuntimeWarning (an error under this suite's warning filter) first."""
        with pytest.raises(InvalidInputError) as caught:
            SweepSpec(np.float64(1e-3), np.float64(1.7976931348623157e308), 4)
        assert str(caught.value) == (
            "sweep grid from start 0.001 to stop 1.7976931348623157e+308 in 4 steps"
            " leaves the float range: its last point is inf")
        spec = SweepSpec(np.float32(1.5), np.float64(2.5), 3)
        assert (spec.start, spec.stop) == (1.5, 2.5)
        assert type(spec.start) is float and type(spec.stop) is float
        assert spec.grid() == [1.5, 2.0, 2.5]

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

    def test_more_points_than_a_float_index_holds_rejected(self):
        # checked before the grid is built: 2**53 + 1 points would need 64 PiB
        with pytest.raises(InvalidInputError) as caught:
            SweepSpec(start=1.0, stop=2.0, steps=2**53 + 1)
        assert str(caught.value) == (
            f"sweep grid from start 1.0 to stop 2.0 in {2**53 + 1} steps"
            " has too many points: steps must be <= 2**53")

    # a float would run truncated (seed 1.5 as seed 1) but be reported as given
    @pytest.mark.parametrize("name,value", [
        ("seed", 1.5), ("seed", 2.7), ("seed", True), ("seed", np.float64(3.0)), ("seed", "1"),
        ("trials", 2.5), ("trials", 2.0), ("trials", True), ("trials", None),
        ("steps", 2.5), ("steps", 5.0), ("steps", np.True_)])
    def test_counts_and_seed_must_be_integers(self, name, value):
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            SweepSpec(start=1.0, stop=2.0, **{"steps": 5, "trials": 3, name: value})

    def test_numpy_integers_are_kept_as_python_ints(self):
        spec = SweepSpec(start=1.0, stop=2.0, steps=np.int32(5), trials=np.int64(3),
                         seed=np.uint64(2**64 - 1))
        assert (spec.steps, spec.trials, spec.seed) == (5, 3, 2**64 - 1)
        assert all(type(v) is int for v in (spec.steps, spec.trials, spec.seed))
        result = run_distance_sweep(conventional_scenario(), spec)
        assert type(result.metadata["seed"]) is int


@pytest.mark.parametrize("run,message", [
    (lambda spec: run_distance_sweep(irs_scenario(), None),
     "spec must be a SweepSpec, got NoneType"),
    (lambda spec: run_distance_sweep(None, spec), "scenario must be a Scenario, got NoneType"),
    (lambda spec: compare_placement(irs_scenario(), [Point3(50, 0, 10)], [Point3(70, 0, 1.5)],
                                    (1, 2)),
     "spec must be a SweepSpec, got tuple"),
    (lambda spec: compare_placement("fig2b", [], [], spec), "scenario must be a Scenario, got str"),
    (lambda spec: run_angle_sweep(irs_scenario(), [(45, 45)], {"trials": 3}),
     "spec must be a SweepSpec, got dict"),
], ids=["sweep_spec", "sweep_scenario", "placement_spec", "placement_scenario", "angle_spec"])
def test_entry_points_check_scenario_and_spec(run, message):
    with pytest.raises(InvalidInputError) as caught:
        run(SweepSpec(start=5.0, stop=95.0, steps=4))
    assert str(caught.value) == message


class TestScenario:
    def test_irs_mode_requires_panel_and_position(self):
        with pytest.raises(InvalidInputError, match="panel"):
            Scenario(
                channel=make_channel(),
                fading=FadingModel(),
                interference=InterfererSet(constant_power=0.0),
                tx=Point3(0, 0, 10),
                irs=Point3(50, 0, 10),
            )

    def test_conventional_mode_rejects_panel(self):
        with pytest.raises(InvalidInputError, match="IRS position"):
            Scenario(
                channel=make_channel(),
                fading=FadingModel(),
                interference=InterfererSet(constant_power=0.0),
                tx=Point3(0, 0, 10),
                panel=make_panel(),
            )

    def test_conventional_model_must_be_a_member(self):
        with pytest.raises(InvalidInputError,
                           match="ConventionalModel.PAPER or ConventionalModel.FRIIS"):
            dataclasses.replace(conventional_scenario(), conventional_model="paper")

    @pytest.mark.parametrize("name", ["tx", "irs"])
    def test_positions_must_be_points(self, name):
        with pytest.raises(InvalidInputError) as caught:
            dataclasses.replace(irs_scenario(), **{name: (50.0, 0.0, 10.0)})
        assert str(caught.value) == f"{name} must be a Point3, got tuple"

    @pytest.mark.parametrize("name,value,message", [
        ("channel", "x", "channel must be a ChannelParams, got str"),
        ("fading", "rayleigh", "fading must be a FadingModel, got str"),
        ("interference", 0.0, "interference must be an InterfererSet, got float"),
        ("panel", "p", "panel must be an IrsPanel, got str"),
        ("label", 3, "label must be a str, got int"),
        ("assumptions", "abc", "assumptions must be strings other than one str, got str"),
        ("assumptions", ("a", 1), "assumptions entry must be a str, got int"),
        ("assumptions", None, "assumptions must be iterable, got NoneType"),
    ], ids=["channel", "fading", "interference", "panel", "label", "assumptions_str",
            "assumptions_entry", "assumptions_none"])
    def test_every_field_is_checked(self, name, value, message):
        with pytest.raises(InvalidInputError) as caught:
            dataclasses.replace(irs_scenario(), **{name: value})
        assert str(caught.value) == message

    def test_assumptions_are_stored_as_a_tuple(self):
        scenario = dataclasses.replace(irs_scenario(), assumptions=["a", "b"])
        assert scenario.assumptions == ("a", "b")
        assert hash(scenario) == hash(dataclasses.replace(scenario, assumptions=("a", "b")))

    @pytest.mark.parametrize("assumptions", [
        (a for a in ["a", "b"]), iter(("a", "b")), {"a": 1, "b": 2},
    ], ids=["generator", "iterator", "dict"])
    def test_assumptions_may_be_any_iterable_of_strings(self, assumptions):
        scenario = dataclasses.replace(irs_scenario(), assumptions=assumptions)
        assert scenario.assumptions == ("a", "b")


class TestDistanceSweep:
    def test_inverse_square_in_db(self):
        result = run_distance_sweep(
            conventional_scenario(alpha=2.0),
            SweepSpec(start=10.0, stop=40.0, steps=4))
        _, _, sinr_db, _ = result.columns
        assert sinr_db[1] - sinr_db[0] == pytest.approx(-6.0206, abs=1e-4)
        assert sinr_db[3] - sinr_db[1] == pytest.approx(-6.0206, abs=1e-4)

    def test_irs_leg_product_in_db(self):
        result = run_distance_sweep(irs_scenario(), SweepSpec(start=15.0, stop=30.0, steps=2))
        _, _, sinr_db, _ = result.columns
        gap = sinr_db[1] - sinr_db[0]
        assert gap == pytest.approx(-2.0 * 10.0 * math.log10(2.0), abs=1e-9)

    def test_rows_sorted_and_counted(self):
        spec = SweepSpec(start=5.0, stop=100.0, steps=20)
        result = run_distance_sweep(conventional_scenario(), spec)
        assert list(result.columns[0]) == spec.grid()

    @pytest.mark.parametrize("name", ["fig1", "fig2b"])
    def test_receivers_lie_on_the_x_ray_from_the_origin(self, name):
        # an interferer off the axis makes the SINR depend on the receiver's
        # direction from the origin, not only on its distance
        scenario, spec = build_preset(name)
        scenario = dataclasses.replace(scenario, interference=InterfererSet.modeled(
            [(scenario.channel, Point3(60.0, 40.0, 10.0))]))
        origin = scenario.tx if scenario.irs is None else scenario.irs
        irs = None if scenario.irs is None else sweep_module._as_array([scenario.irs])
        result = run_distance_sweep(scenario, spec)
        xs, _, sinr_db, _ = result.columns
        for x, value in zip(xs, sinr_db):
            point = sweep_module._as_array([Point3(origin.x + x, origin.y, origin.z)])
            expected = sweep_module._evaluate(scenario, irs, point, 1, 0, where=lambda k, p: "")
            assert value == pytest.approx(float(expected.sinr_db[0, 0]), abs=1e-12)

    @pytest.mark.parametrize("sweep", [
        lambda spec: [run_distance_sweep(irs_scenario(), spec)],
        lambda spec: [run_distance_sweep(conventional_scenario(), spec)],
        lambda spec: run_angle_sweep(
            irs_scenario(fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=3)),
            [(45, 45), (60, 45)], spec),
    ], ids=["irs", "conventional", "angle"])
    def test_rows_transpose_the_columns(self, sweep):
        """``rows`` is what the benchmark tracer reads: ``_points`` in bench/tracer.py
        counts a sweep's grid points as ``len(result.rows)``, so without it the
        traced ``sweep.points`` would read 0."""
        spec = SweepSpec(start=5.0, stop=100.0, steps=20, trials=10, seed=3)
        for result in sweep(spec):
            assert len(result.rows) == spec.steps
            assert result.rows == tuple(zip(*result.columns))
            assert all(type(row) is tuple and len(row) == 4 for row in result.rows)

    def test_deterministic_trials_equivalent(self):
        scenario = conventional_scenario()
        few = run_distance_sweep(scenario, SweepSpec(start=5.0, stop=50.0, steps=10, trials=1, seed=3))
        many = run_distance_sweep(scenario, SweepSpec(start=5.0, stop=50.0, steps=10, trials=1000, seed=3))
        assert few.columns[2] == many.columns[2]
        assert set(many.columns[3]) == {0.0}

    def test_reproducible_across_runs(self):
        scenario = conventional_scenario(
            fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=11))
        spec = SweepSpec(start=5.0, stop=50.0, steps=10, trials=32, seed=11)
        first = run_distance_sweep(scenario, spec)
        second = run_distance_sweep(scenario, spec)
        assert first.columns == second.columns

    def test_slope_equals_negative_alpha(self):
        for alpha in (2.0, 3.5):
            result = run_distance_sweep(
                conventional_scenario(alpha=alpha),
                SweepSpec(start=5.0, stop=100.0, steps=40))
            xs, _, ys, _ = map(np.array, result.columns)
            slope = np.polyfit(10.0 * np.log10(xs), ys, 1)[0]
            assert slope == pytest.approx(-alpha, abs=1e-9)

    def test_nonpositive_start_rejected(self):
        # every grid is a set of distances, so the spec rejects it before any sweep
        for start in (0.0, -0.0, -5, -1.7976931348623157e308):
            with pytest.raises(InvalidInputError) as caught:
                SweepSpec(start=start, stop=10.0, steps=3)
            assert str(caught.value) == f"sweep start must be > 0, got {float(start)!r}"

    def test_receiver_beyond_the_float_range_named(self):
        # the grid is finite, but 1e308 past a reflector at x = 1e308 is not
        scenario = irs_scenario(irs=Point3(1e308, 0, 10))
        with pytest.raises(InvalidInputError, match=r"^sweep point x=1e\+307: received power 0\.0 W"):
            run_distance_sweep(scenario, SweepSpec(start=1e307, stop=1e308, steps=2))

    def test_degenerate_point_names_x(self):
        scenario = irs_scenario(irs=Point3(0, 0, 10))  # coincides with tx
        with pytest.raises(DegenerateGeometryError, match="x="):
            run_distance_sweep(scenario, SweepSpec(start=1.0, stop=2.0, steps=2))

    def test_mean_power_above_the_milliwatt_float_range(self):
        # about 1e308 W at the nearest receiver: finite in watts, not in milliwatts
        scenario = dataclasses.replace(
            conventional_scenario(fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=1)),
            channel=dataclasses.replace(make_channel(), tx_power=1.5e308))
        result = run_distance_sweep(
            scenario, SweepSpec(start=0.0095, stop=0.05, steps=5, trials=100, seed=1))
        powers = list(result.columns[1])
        assert all(math.isfinite(p) for p in powers)
        assert 3110.0 < powers[0] < 3112.6 and powers == sorted(powers, reverse=True)

    def test_metadata_records_run_parameters(self):
        spec = SweepSpec(start=5.0, stop=50.0, steps=5, trials=3, seed=17)
        result = run_distance_sweep(conventional_scenario(), spec)
        assert result.metadata["seed"] == 17
        assert result.metadata["trials"] == 3
        assert result.metadata["mode"] == "conventional"
        assert result.metadata["conventional_model"] == "paper"


def fading_outputs():
    """Sweep rows, placement entries, the kernel's statistics at one receiver
    and at seven, and angle sweeps of one Rayleigh scenario with two modeled
    interferers."""
    interferers = InterfererSet.modeled([
        (make_channel(), Point3(120, 0, 10)),
        (make_channel(), Point3(-40, 60, 10)),
    ])
    scenario = dataclasses.replace(
        irs_scenario(fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=7)),
        interference=interferers)
    sweep = run_distance_sweep(scenario, SweepSpec(start=5.0, stop=95.0, steps=16,
                                                   trials=20, seed=7))
    placement = compare_placement(
        scenario,
        [Point3(x, y, 10) for x in (20, 50, 80) for y in (-20, 20)],
        [Point3(10.0 * k, 3.0 * k - 12, 1.5) for k in range(1, 9)],
        SweepSpec(start=1.0, stop=2.0, steps=2, trials=30, seed=7))
    irs = sweep_module._as_array([scenario.irs])
    one = sweep_module._evaluate(scenario, irs, sweep_module._as_array([Point3(70, 0, 1.5)]),
                                 500, 7, where=lambda k, p: "")
    seven = sweep_module._evaluate(
        scenario, irs,
        sweep_module._as_array([Point3(12.0 * k, 5.0 - k, 1.5) for k in range(1, 8)]),
        25, 7, where=lambda k, p: "")
    angles = run_angle_sweep(scenario, [(45, 45), (0, 0), (30, 60)],
                             SweepSpec(start=5.0, stop=95.0, steps=12, trials=20, seed=7))
    return (sweep.columns, placement.entries, [a.tobytes() for a in one],
            [a.tobytes() for a in seven], angles)


class TestChunkInvariance:
    """The kernel's memory chunking never changes a single bit of the output."""

    def outputs(self, monkeypatch, elements):
        monkeypatch.setattr(sweep_module, "_CHUNK_ELEMENTS", elements)
        return fading_outputs()

    # chunks count trials only. 1 element: one receiver per chunk; 100: sweep
    # chunks of 5, 5, 5 and 1 grid points (20 trials each), angle sweep chunks
    # of 5, 5 and 2, and placement chunks of 3, 3 and 2 receivers (30 trials
    # each); 10**9: the whole grid at once
    @pytest.mark.parametrize("elements", [1, 100])
    def test_chunk_size_does_not_change_results(self, monkeypatch, elements):
        assert self.outputs(monkeypatch, elements) == self.outputs(monkeypatch, 10**9)


def spy_on_fading(monkeypatch, fail_at=None):
    """Record the thread of every draw of the kernel; raise on stream index fail_at."""
    threads = []
    real = sweep_module.sample_fading_block

    def spy(model, start_index, count, *args, **kwargs):
        threads.append(threading.current_thread())
        if start_index == fail_at:
            raise RuntimeError(f"injected failure at stream index {start_index}")
        return real(model, start_index, count, *args, **kwargs)

    monkeypatch.setattr(sweep_module, "sample_fading_block", spy)
    return threads


class TestWorkers:
    """The fading pass gives the same bytes on any number of worker threads."""

    def outputs(self, monkeypatch, workers):
        # one receiver per chunk: 16 sweep chunks, 8 placement chunks, a single
        # chunk for the kernel's one receiver, 7 for its seven and 12 for the
        # angle sweep
        monkeypatch.setattr(sweep_module, "_CHUNK_ELEMENTS", 20)
        monkeypatch.setattr(sweep_module, "_WORKERS", workers)
        return fading_outputs()

    @pytest.mark.parametrize("workers", [2, 3, 100])
    def test_bit_identical_to_serial(self, monkeypatch, workers):
        # switch threads as often as possible, so a lost or misplaced write
        # would show as a changed byte
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = self.outputs(monkeypatch, workers)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == self.outputs(monkeypatch, 1)

    # 100 workers are capped at half the chunks: 8 for the sweep, 4 for the
    # placement, 3 for the kernel's 7 receivers and 6 for the angle sweep; the
    # kernel's one receiver stays serial. The caller is one of them, and a worker
    # may find the queue empty, so the started threads are counted, not the
    # threads that drew
    @pytest.mark.parametrize("workers,expected", [
        (1, [1, 1, 1, 1, 1]), (2, [2, 2, 1, 2, 2]), (3, [3, 3, 1, 3, 3]),
        (100, [8, 4, 1, 3, 6])])
    def test_worker_count(self, monkeypatch, workers, expected):
        monkeypatch.setattr(sweep_module, "_CHUNK_ELEMENTS", 20)
        monkeypatch.setattr(sweep_module, "_WORKERS", workers)
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountingThread)
        counts = []
        real_evaluate = sweep_module._evaluate

        def counting_evaluate(*args, **kwargs):
            first = len(started)
            result = real_evaluate(*args, **kwargs)
            counts.append(1 + len(started) - first)
            return result

        monkeypatch.setattr(sweep_module, "_evaluate", counting_evaluate)
        fading_outputs()
        assert counts == expected

    def test_worker_failure_is_raised(self, monkeypatch):
        monkeypatch.setattr(sweep_module, "_CHUNK_ELEMENTS", 20)
        monkeypatch.setattr(sweep_module, "_WORKERS", 2)
        # 1 000 one-receiver chunks of 20 trials, the first of which fails: no
        # worker takes a chunk once the failure is recorded, where a worker
        # given a fixed half of the receivers would draw all of its half
        threads = spy_on_fading(monkeypatch, fail_at=0)
        alive = threading.active_count()
        scenario = irs_scenario(fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=7))
        with pytest.raises(RuntimeError, match="stream index 0$"):
            run_distance_sweep(scenario, SweepSpec(start=5.0, stop=95.0, steps=1000,
                                                   trials=20, seed=7))
        assert len(threads) < 500
        assert threading.active_count() == alive

    def test_peak_memory(self, monkeypatch):
        scenario = conventional_scenario(
            fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=2))
        # 100 000 draws hash their first half with the second as scratch
        for trials in (100_000, 200_000):
            spec = SweepSpec(start=10.0, stop=40.0, steps=4, trials=trials, seed=2)
            row_bytes = spec.trials * 8
            peaks = {}
            for workers in (1, 2):
                monkeypatch.setattr(sweep_module, "_WORKERS", workers)
                tracemalloc.start()
                try:
                    run_distance_sweep(scenario, spec)
                    _, peaks[workers] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            # one receiver's row of draws per worker, and a hash block of scratch
            assert peaks[1] <= 2_500_000
            assert peaks[2] <= 2 * row_bytes + 2 ** 20


class TestFadingStatistics:
    """The in-place reduction is numpy's own mean and std, bit for bit."""

    # one chunk of all receivers, and one chunk per receiver (2 workers), the
    # second across the hash blocks of the draws
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("trials", [1, 50, 3 * 2**15 + 5, 100_000])
    def test_bit_identical_to_numpy(self, monkeypatch, workers, trials):
        monkeypatch.setattr(sweep_module, "_WORKERS", workers)
        fading = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=11)
        denominator = np.geomspace(1e-13, 1e-9, 7)
        stats = sweep_module._fading_statistics(fading, denominator, trials)
        expected = [[], [], []]
        for p, d in enumerate(denominator):
            g = sweep_module.sample_fading_block(fading, p * trials, trials)
            x = 10 * np.log10(g / d)
            for column, value in zip(expected, (np.mean(g), np.mean(x), np.std(x))):
                column.append(value)
        for actual, wanted in zip(stats, expected):
            assert actual.tobytes() == np.array(wanted).tobytes()


class TestSharedFading:
    """The trial part of the SINR depends on the receiver only, never on the position."""

    def test_statistics_shift_with_the_signal_alone(self):
        interferers = InterfererSet.modeled([(make_channel(), Point3(120, 0, 10))])
        scenario = dataclasses.replace(
            irs_scenario(fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=3)),
            interference=interferers)
        irs = sweep_module._as_array([Point3(x, y, 10) for x in (20, 50, 80) for y in (-20, 20)])
        rx = sweep_module._as_array([Point3(12.0 * k, 5.0 - k, 1.5) for k in range(1, 8)])
        stats = sweep_module._evaluate(scenario, irs, rx, 40, 3, where=lambda k, p: "")
        # under unit fading the mean power is the unit-fading signal, bit for bit
        unit = sweep_module._evaluate(
            dataclasses.replace(scenario, fading=FadingModel(mode=FadingMode.DETERMINISTIC)),
            irs, rx, 40, 3, where=lambda k, p: "")
        signal = irs_rx_power(scenario.channel, scenario.panel,
                              distance(scenario.tx, irs[:, None, :]), distance(irs[:, None, :], rx))
        assert unit.power.tobytes() == signal.tobytes()
        signal_db = 10.0 * np.log10(signal)
        assert np.ptp(signal_db, axis=0).min() > 1.0  # the positions differ
        assert stats.sinr_db_stddev.shape == (len(rx),)  # one row for every position
        assert np.all(stats.sinr_db_stddev > 0)
        fade = stats.sinr_db - signal_db
        np.testing.assert_allclose(fade, np.broadcast_to(fade[0], fade.shape),
                                   rtol=0, atol=1e-12)


class TestAngleSweep:
    spec = SweepSpec(start=10.0, stop=90.0, steps=9, trials=50, seed=21)

    def fading_scenario(self):
        return irs_scenario(fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=21))

    def test_cosine_gap_under_common_randomness(self):
        results = run_angle_sweep(self.fading_scenario(), [(45, 45), (60, 60)], self.spec)
        expected = 10.0 * math.log10(
            (math.cos(math.radians(45)) ** 2) / (math.cos(math.radians(60)) ** 2))
        for a, b in zip(results[0].columns[2], results[1].columns[2]):
            assert a - b == pytest.approx(expected, abs=1e-9)

    def test_swapped_angles_identical(self):
        results = run_angle_sweep(self.fading_scenario(), [(45, 60), (60, 45)], self.spec)
        for a, b in zip(results[0].columns[1:3], results[1].columns[1:3]):
            assert a == pytest.approx(b, abs=1e-12)

    def test_boresight_vs_60_degrees(self):
        results = run_angle_sweep(self.fading_scenario(), [(0, 0), (60, 60)], self.spec)
        for a, b in zip(results[0].columns[2], results[1].columns[2]):
            assert a - b == pytest.approx(6.0206, abs=1e-4)

    def test_labels_name_the_exact_angles(self):
        pairs = [(45, 45), (45.0000001, 45), (60, 60.5)]
        results = run_angle_sweep(self.fading_scenario(), pairs, self.spec)
        label = self.fading_scenario().label
        assert [r.scenario_label for r in results] == [
            f"{label} theta_t=45 theta_r=45", f"{label} theta_t=45.0000001 theta_r=45",
            f"{label} theta_t=60 theta_r=60.5"]
        assert results[0].columns != results[1].columns

    @pytest.mark.parametrize("fading", [
        FadingModel(mode=FadingMode.DETERMINISTIC),
        FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=21)], ids=["det", "rayleigh"])
    def test_same_bytes_as_one_distance_sweep_per_pair(self, fading):
        scenario = dataclasses.replace(
            irs_scenario(fading=fading),
            interference=InterfererSet.modeled([(make_channel(), Point3(120, 30, 10)),
                                                (make_channel(), Point3(-40, 60, 10))]))
        pairs = [(0, 0), (45, 60), (0, 0), (89.5, 10)]
        separate = [
            run_distance_sweep(dataclasses.replace(
                scenario, panel=dataclasses.replace(scenario.panel, theta_t=t, theta_r=r),
                label=f"{scenario.label} theta_t={t:g} theta_r={r:g}"), self.spec)
            for t, r in pairs]
        together = run_angle_sweep(scenario, pairs, self.spec)
        for fmt in ("csv", "json"):
            assert render_results(together, fmt) == render_results(separate, fmt)
        assert together[0].metadata is not together[2].metadata

    def test_one_fading_pass_for_all_pairs(self, monkeypatch):
        evaluations, drawn = [], []
        real_evaluate, real_draw = sweep_module._evaluate, sweep_module.sample_fading_block

        def counting_evaluate(*args, **kwargs):
            evaluations.append(args)
            return real_evaluate(*args, **kwargs)

        def counting_draw(model, start_index, count):
            drawn.append(count)
            return real_draw(model, start_index, count)

        monkeypatch.setattr(sweep_module, "_evaluate", counting_evaluate)
        monkeypatch.setattr(sweep_module, "sample_fading_block", counting_draw)
        scenario = self.fading_scenario()
        run_distance_sweep(scenario, self.spec)
        one_sweep = sum(drawn)
        evaluations.clear()
        drawn.clear()
        assert len(run_angle_sweep(scenario, [(45, 45), (60, 60), (0, 30)], self.spec)) == 3
        assert len(evaluations) == 1
        assert sum(drawn) == one_sweep == self.spec.steps * self.spec.trials
        evaluations.clear()
        drawn.clear()
        assert run_angle_sweep(scenario, [], self.spec) == []
        assert evaluations == drawn == []

    def test_pairs_may_be_any_iterable(self):
        expected = run_angle_sweep(self.fading_scenario(), [(45, 45), (60, 30)], self.spec)
        for pairs in ((pair for pair in [(45, 45), (60, 30)]),
                      [iter((45, 45)), np.array([60.0, 30.0])], {(45, 45): 1, (60, 30): 2}):
            results = run_angle_sweep(self.fading_scenario(), pairs, self.spec)
            assert render_results(results, "json") == render_results(expected, "json")

    @pytest.mark.parametrize("pairs,message", [
        ([(45,)], "angle_pairs entry must hold 2 values, got (45,)"),
        ([(45, 45), [45, 45, 45]], "angle_pairs entry must hold 2 values, got [45, 45, 45]"),
        ([45], "angle_pairs entry must be iterable, got int"),
        (45, "angle_pairs must be iterable, got int"),
    ], ids=["one_value", "three_values", "not_a_pair", "not_iterable"])
    def test_pairs_must_be_two_values(self, pairs, message):
        with pytest.raises(InvalidInputError) as caught:
            run_angle_sweep(self.fading_scenario(), pairs, self.spec)
        assert str(caught.value) == message

    def test_rejects_out_of_range_angle(self):
        with pytest.raises(InvalidInputError):
            run_angle_sweep(self.fading_scenario(), [(90, 45)], self.spec)

    def test_requires_irs_scenario(self):
        with pytest.raises(InvalidInputError):
            run_angle_sweep(conventional_scenario(), [(45, 45)], self.spec)


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

    @pytest.mark.parametrize("tied", [
        (Point3(30, 0, 10), Point3(70, 0, 10)),  # mirror images about the transmitter
        (Point3(30, 0, 10), Point3(30, 0, 10)),  # one position given twice
    ], ids=["mirror", "duplicate"])
    def test_exact_ties_keep_input_order(self, tied):
        scenario = dataclasses.replace(irs_scenario(), tx=Point3(50, 0, 10))
        rx_positions = [Point3(40, 0, 1.5), Point3(60, 0, 1.5)]
        near, far = Point3(45, 0, 10), Point3(95, 0, 10)
        for first, second in (tied, tied[::-1]):
            report = compare_placement(
                scenario, [far, first, near, second], rx_positions, self.spec)
            positions = [entry.irs_position for entry in report.entries]
            assert positions[0] is near and positions[3] is far
            assert positions[1] is first and positions[2] is second
            assert report.entries[1].min_sinr_db == report.entries[2].min_sinr_db

    def test_single_rx_best_is_min_leg_product(self):
        scenario = irs_scenario()
        rx = Point3(80, 0, 1.5)
        candidates = [Point3(x, 0, 10) for x in (20, 40, 60, 90)]
        report = compare_placement(scenario, candidates, [rx], self.spec)
        products = {
            irs: distance(scenario.tx, irs) * distance(irs, rx)
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
                power = irs_rx_power(scenario.channel, scenario.panel,
                                     distance(scenario.tx, irs), distance(irs, rx))
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

    @pytest.mark.parametrize("irs,rx,message", [
        ([(50.0, 0.0, 10.0)], [Point3(70, 0, 1.5)],
         "irs_positions entry must be a Point3, got tuple"),
        ([Point3(50, 0, 10)], [Point3(70, 0, 1.5), "rx"],
         "rx_positions entry must be a Point3, got str"),
        (np.array([[50.0, 0.0, 10.0]]), [Point3(70, 0, 1.5)],
         "irs_positions entry must be a Point3, got ndarray"),
        (Point3(50, 0, 10), [Point3(70, 0, 1.5)],
         "irs_positions must be iterable, got Point3"),
        ([Point3(50, 0, 10)], 1.5, "rx_positions must be iterable, got float"),
        ((p for p in [Point3(50, 0, 10), None]), [Point3(70, 0, 1.5)],
         "irs_positions entry must be a Point3, got NoneType"),
    ], ids=["irs", "rx", "irs_array", "irs_point", "rx_float", "irs_generator"])
    def test_positions_must_be_points(self, irs, rx, message):
        with pytest.raises(InvalidInputError) as caught:
            compare_placement(irs_scenario(), irs, rx, self.spec)
        assert str(caught.value) == message

    def test_positions_may_be_any_iterable(self):
        candidates = [Point3(x, 0, 10) for x in (20, 40, 60, 90)]
        receivers = [Point3(x, 0, 1.5) for x in (30, 80)]
        expected = compare_placement(irs_scenario(), candidates, receivers, self.spec).entries
        for irs, rx in (((p for p in candidates), iter(receivers)),
                        (set(candidates), dict.fromkeys(receivers))):
            entries = compare_placement(irs_scenario(), irs, rx, self.spec).entries
            assert entries == expected
            # the entries hold the given points themselves
            assert {id(entry.irs_position) for entry in entries} == set(map(id, candidates))

    def test_interferer_positions_must_be_points(self):
        with pytest.raises(InvalidInputError) as caught:
            InterfererSet.modeled([(make_channel(), (120.0, 0.0, 10.0))])
        assert str(caught.value) == "interferer 0 position must be a Point3, got tuple"

    @pytest.mark.parametrize("irs,rx", [([], [Point3(70, 0, 1.5)]), ([Point3(50, 0, 10)], [])],
                             ids=["no_candidates", "no_receivers"])
    def test_needs_a_candidate_and_a_receiver(self, irs, rx):
        with pytest.raises(InvalidInputError) as caught:
            compare_placement(irs_scenario(), irs, rx, self.spec)
        assert str(caught.value) == "placement comparison needs >= 1 IRS and >= 1 rx position"

    def test_requires_irs_scenario(self):
        with pytest.raises(InvalidInputError):
            compare_placement(
                conventional_scenario(), [Point3(1, 0, 0)], [Point3(2, 0, 0)], self.spec)

    @pytest.mark.parametrize("candidates,receivers", [(60, 37), (5, 1), (1, 37), (1, 1)])
    def test_summaries_match_python_reductions(self, candidates, receivers):
        rng = np.random.default_rng(candidates)
        irs_positions = [Point3(float(x), float(y), 10.0)
                         for x, y in rng.uniform(-100.0, 100.0, (candidates, 2))]
        rx_positions = [Point3(float(x), float(y), 1.5)
                        for x, y in rng.uniform(-100.0, 100.0, (receivers, 2))]
        scenario = irs_scenario(fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=1))
        spec = dataclasses.replace(self.spec, trials=8, seed=5)
        report = compare_placement(scenario, irs_positions, rx_positions, spec)
        for entry in report.entries:
            per_rx = entry.per_rx_sinr_db
            assert len(per_rx) == receivers
            assert entry.min_sinr_db == min(per_rx)
            assert entry.max_sinr_db == max(per_rx)
            # a left fold: sum() of floats is compensated since Python 3.12
            assert entry.mean_sinr_db == functools.reduce(operator.add, per_rx) / len(per_rx)
        # best first, ties in input order: Python's stable sort of one record
        # per candidate, each scored on its own against the same draws
        records = [compare_placement(scenario, [p], rx_positions, spec).entries[0]
                   for p in irs_positions]
        expected = sorted(records, key=lambda e: e.min_sinr_db, reverse=True)
        assert report.entries == tuple(expected)
        # the caller's own Point3 objects, not copies
        assert all(entry.irs_position is record.irs_position
                   for entry, record in zip(report.entries, expected))

    def test_memory_does_not_scale_with_candidates_times_trials(self):
        scenario = irs_scenario(fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=1))
        irs_positions = [Point3(20.0 + 0.2 * k, 5.0, 10.0) for k in range(400)]
        rx_positions = [Point3(30.0 * k, 10.0, 1.5) for k in range(1, 5)]
        spec = dataclasses.replace(self.spec, trials=2000, seed=1)
        tracemalloc.start()
        try:
            compare_placement(scenario, irs_positions, rx_positions, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # all 400 x 2000 per-trial SINRs of even one receiver would take 6.4 MB
        assert peak < 1_000_000

    def test_link_budget_outside_float_range_named(self):
        # 1e-314 W reaches the near receivers as a subnormal power and
        # underflows to 0 W at the far ones
        scenario = dataclasses.replace(
            irs_scenario(), channel=dataclasses.replace(make_channel(), tx_power=1e-314))
        rx_positions = [Point3(float(x), 0.0, 1.5) for x in (52, 55, 400, 60, 900)]
        signal = irs_rx_power(scenario.channel, scenario.panel, distance(scenario.tx, scenario.irs),
                              distance(scenario.irs, sweep_module._as_array(rx_positions)))
        assert signal[0] > 0 and signal[1] > 0 and signal[2] == 0
        with pytest.raises(InvalidInputError,
                           match=r"rx=Point3\(x=400\.0.* 0\.0 W is outside the float range"):
            compare_placement(scenario, [scenario.irs], rx_positions, self.spec)


class TestAsArray:
    COORDINATES = [(0.1, -2.5, 3.0), (1e10, 0.0, -17.25), (123456789.0, 5.0, 6.0)]

    @pytest.mark.parametrize("kind", [int, float, np.int64, np.float32])
    def test_same_bytes_as_an_array_of_tuples(self, kind):
        points = [Point3(*map(kind, xyz)) for xyz in self.COORDINATES]
        expected = np.array([(p.x, p.y, p.z) for p in points], dtype=float)
        coordinates = sweep_module._as_array(points)
        assert coordinates.shape == (3, 3) and coordinates.dtype == np.float64
        assert coordinates.tobytes() == expected.tobytes()

    def test_no_points_give_shape_0_by_3(self):
        # the kernel's interferer distances rely on it when there are none
        coordinates = sweep_module._as_array([])
        assert coordinates.shape == (0, 3) and coordinates.dtype == np.float64

    @pytest.mark.parametrize("name,message", [
        ((), "position must be a Point3, got tuple"),
        (("rx_positions entry",), "rx_positions entry must be a Point3, got tuple"),
    ], ids=["default", "named"])
    def test_other_values_rejected_by_name(self, name, message):
        with pytest.raises(InvalidInputError) as caught:
            sweep_module._as_array([Point3(0, 0, 0), (1.0, 2.0, 3.0)], *name)
        assert str(caught.value) == message


def overflowing_mean_power_sweep():
    """fig2b at 1e300 W, with a unit-fading power of 1.2e308 W at x=5: one
    Rayleigh trial at x=7 lifts the mean power beyond the float range."""
    scenario, spec = build_preset("fig2b")
    channel = dataclasses.replace(scenario.channel, tx_power=1e300)
    unit_power = irs_rx_power(channel, scenario.panel, distance(scenario.tx, scenario.irs), 5.0)
    scenario = dataclasses.replace(
        scenario, channel=channel,
        panel=dataclasses.replace(scenario.panel,
                                  tx_gain=scenario.panel.tx_gain * (1.2e308 / unit_power)),
        fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=0))
    return run_distance_sweep(scenario, dataclasses.replace(spec, trials=1, seed=0))


def two_interferers():
    """Modeled interferers at (80, 0, 10) and at (51, 0, 10), a grid point of irs_scenario."""
    return InterfererSet.modeled([(make_channel(), Point3(80, 0, 10)),
                                  (make_channel(), Point3(51, 0, 10))])


def subnormal_placement(spec):
    """A placement whose receiver at x=400 gets 0 W: 1e-314 W underflows on its way."""
    scenario = dataclasses.replace(
        irs_scenario(), channel=dataclasses.replace(make_channel(), tx_power=1e-314))
    rx_positions = [Point3(float(x), 0.0, 1.5) for x in (52, 55, 400, 60, 900)]
    return compare_placement(scenario, [scenario.irs], rx_positions, spec)


def hot_interferer_sweep():
    """fig1 with a 1e308 W interferer 1 mm above its first grid point: infinite interference."""
    scenario, spec = build_preset("fig1")
    tx = scenario.tx
    hot = InterfererSet.modeled([(dataclasses.replace(scenario.channel, tx_power=1e308),
                                  Point3(tx.x + spec.grid()[0], tx.y, tx.z + 1e-3))])
    return run_distance_sweep(dataclasses.replace(scenario, interference=hot), spec)


class TestFaults:
    """One check over the kernel's arrays finds the first fault and names it."""

    spec = SweepSpec(start=1.0, stop=2.0, steps=2, trials=4, seed=1)
    grid = SweepSpec(start=1.0, stop=2.0, steps=2)

    @pytest.mark.parametrize("run,error,message", [
        (lambda self: run_distance_sweep(irs_scenario(irs=Point3(0, 0, 10)), self.grid),
         DegenerateGeometryError,
         "sweep point x=1.0: transmitter and reflector coincide (r1 = 0)"),
        (lambda self: compare_placement(
            irs_scenario(), [Point3(20, 0, 10), Point3(50, 0, 10)],
            [Point3(20, 5, 1.5), Point3(50, 0, 10)], self.spec),
         DegenerateGeometryError,
         "placement (irs=Point3(x=50, y=0, z=10), rx=Point3(x=50, y=0, z=10)):"
         " reflector and receiver coincide (r2 = 0)"),
        # the first point, 1 m from a transmitter at 1e17 m, rounds onto it
        (lambda self: run_distance_sweep(
            dataclasses.replace(conventional_scenario(), tx=Point3(1e17, 0, 10)),
            SweepSpec(start=1.0, stop=2.0, steps=3)),
         DegenerateGeometryError,
         "sweep point x=1.0: link distance must be > 0, got 0.0"),
        (lambda self: run_distance_sweep(
            dataclasses.replace(irs_scenario(), interference=two_interferers()), self.grid),
         DegenerateGeometryError,
         "sweep point x=1.0: interferer 1 at Point3(x=51, y=0, z=10) coincides with the receiver"),
        (lambda self: subnormal_placement(self.spec),
         InvalidInputError,
         "placement (irs=Point3(x=50, y=0, z=10), rx=Point3(x=400.0, y=0.0, z=1.5)):"
         " received power 0.0 W is outside the float range; check the link budget"),
        # the faults of a receiver alone name the receiver alone
        (lambda self: compare_placement(
            dataclasses.replace(irs_scenario(), interference=two_interferers()),
            [Point3(20, 0, 10), Point3(30, 0, 10)], [Point3(20, 5, 1.5), Point3(51, 0, 10)],
            self.spec),
         DegenerateGeometryError,
         "placement (rx=Point3(x=51, y=0, z=10)):"
         " interferer 1 at Point3(x=51, y=0, z=10) coincides with the receiver"),
        (lambda self: hot_interferer_sweep(),
         InvalidInputError,
         "sweep point x=5.0: interference plus noise power inf W is outside the float range;"
         " check the link budget"),
        (lambda self: overflowing_mean_power_sweep(),
         InvalidInputError,
         "sweep point x=7.0: mean received power inf W is outside the float range;"
         " check the link budget"),
    ], ids=["sweep_r1", "placement_r2", "conventional_receiver", "sweep_interferer",
            "subnormal_power", "placement_interferer", "infinite_interference",
            "mean_power_overflow"])
    def test_message(self, run, error, message):
        with pytest.raises(error) as caught:
            run(self)
        assert type(caught.value) is error
        assert str(caught.value) == message

    def test_angle_sweep_fault_names_the_pair(self):
        scenario = irs_scenario()
        scenario = dataclasses.replace(
            scenario, channel=dataclasses.replace(scenario.channel, tx_power=1e-300))
        with pytest.raises(InvalidInputError) as caught:
            run_angle_sweep(scenario, [(0, 0), (89.9999999, 89.9999999)],
                            SweepSpec(start=5.0, stop=100.0, steps=4))
        assert str(caught.value) == (
            f"sweep point x=5.0 of '{scenario.label} theta_t=89.9999999 theta_r=89.9999999':"
            " received power 0.0 W is outside the float range; check the link budget")

    @pytest.mark.parametrize("first_receiver,expected", [
        # pair (0, 0) has r2 = 0 and comes before the interferer's pair (0, 1)
        (Point3(20, 0, 10), "placement (irs=Point3(x=20, y=0, z=10), rx=Point3(x=20, y=0, z=10)):"
                            " reflector and receiver coincide (r2 = 0)"),
        # r2 = 0 at pair (1, 0) comes after the interferer's pair (0, 1)
        (Point3(30, 0, 10), "placement (rx=Point3(x=51, y=0, z=10)):"
                            " interferer 1 at Point3(x=51, y=0, z=10) coincides with the receiver"),
    ], ids=["zero_leg_first", "interferer_first"])
    def test_first_fault_in_row_major_order(self, first_receiver, expected):
        scenario = dataclasses.replace(irs_scenario(), interference=two_interferers())
        with pytest.raises(DegenerateGeometryError) as caught:
            compare_placement(scenario, [Point3(20, 0, 10), Point3(30, 0, 10)],
                              [first_receiver, Point3(51, 0, 10)], self.spec)
        assert str(caught.value) == expected

    def test_a_fault_is_found_in_one_pass(self, monkeypatch):
        calls = []

        def counting_distance(a, b):
            calls.append((a, b))
            return distance(a, b)

        monkeypatch.setattr(sweep_module, "distance", counting_distance)
        receivers = [Point3(-90.0 + 5.0 * p, 20.0, 1.5) for p in range(36)]
        candidates = [Point3(10.0 + 0.045 * k, -5.0, 10.0) for k in range(1999)]
        with pytest.raises(DegenerateGeometryError, match="r2 = 0"):
            compare_placement(irs_scenario(), candidates + [receivers[-1]], receivers, self.spec)
        # one call each for r1, r2 and the interferer reach, not one per pair
        assert len(calls) == 3

    @pytest.mark.parametrize("candidates,error,message", [
        # the README's example: a 0 W received power, on its own ...
        ([Point3(5000.0, 0.0, 10.0)], InvalidInputError,
         "placement (irs=Point3(x=5000.0, y=0.0, z=10.0), rx=Point3(x=70.0, y=0.0, z=1.5)):"
         " received power 0.0 W is outside the float range; check the link budget"),
        # ... is reported after a zero leg at a later pair
        ([Point3(5000.0, 0.0, 10.0), Point3(70.0, 0.0, 1.5)], DegenerateGeometryError,
         "placement (irs=Point3(x=70.0, y=0.0, z=1.5), rx=Point3(x=70.0, y=0.0, z=1.5)):"
         " reflector and receiver coincide (r2 = 0)"),
    ], ids=["zero_power_alone", "zero_leg_at_a_later_pair"])
    def test_a_zero_leg_comes_before_a_zero_power(self, candidates, error, message):
        scenario, spec = build_preset("fig2b")
        scenario = dataclasses.replace(
            scenario, channel=dataclasses.replace(scenario.channel, tx_power=5e-324))
        with pytest.raises(error) as caught:
            compare_placement(scenario, candidates, [Point3(70.0, 0.0, 1.5)],
                              dataclasses.replace(spec, trials=1))
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("receivers,message", [
        # a 1e308 W interferer 1 mm above the receiver at x=52 ...
        ([Point3(52.0, 0.0, 1.5)],
         "placement (rx=Point3(x=52.0, y=0.0, z=1.5)): interference plus noise power inf W"
         " is outside the float range; check the link budget"),
        # ... is reported after the 0 W that 1e-314 W underflows to at a later receiver
        ([Point3(52.0, 0.0, 1.5), Point3(400.0, 0.0, 1.5)],
         "placement (irs=Point3(x=50.0, y=0.0, z=10.0), rx=Point3(x=400.0, y=0.0, z=1.5)):"
         " received power 0.0 W is outside the float range; check the link budget"),
    ], ids=["infinite_interference_alone", "zero_power_at_a_later_receiver"])
    def test_a_zero_power_comes_before_infinite_interference(self, receivers, message):
        scenario, spec = build_preset("fig2b")
        channel = dataclasses.replace(scenario.channel, tx_power=1e-314)
        hot = InterfererSet.modeled([(dataclasses.replace(channel, tx_power=1e308),
                                      Point3(52.0, 0.0, 1.5 + 1e-3))])
        scenario = dataclasses.replace(scenario, channel=channel, interference=hot)
        with pytest.raises(InvalidInputError) as caught:
            compare_placement(scenario, [scenario.irs], receivers,
                              dataclasses.replace(spec, trials=1))
        assert type(caught.value) is InvalidInputError
        assert str(caught.value) == message


TRACED = ("distance", "irs_rx_power", "conventional_rx_power", "sample_fading_block")


@pytest.mark.parametrize("run,expected", [
    (lambda spec: run_distance_sweep(irs_scenario(fading=FadingModel(
        mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=2)), spec), (3, 1, 0, 1)),
    (lambda spec: run_distance_sweep(conventional_scenario(), spec), (2, 0, 1, 1)),
    (lambda spec: compare_placement(
        dataclasses.replace(irs_scenario(fading=FadingModel(
            mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=2)), interference=two_interferers()),
        [Point3(20.0, 0.0, 10.0), Point3(30.0, 5.0, 10.0)],
        [Point3(20.0, 5.0, 1.5), Point3(60.0, 5.0, 1.5)], spec), (3, 1, 2, 2)),
], ids=["rayleigh_irs_sweep", "conventional_sweep", "placement_two_interferers"])
def test_calls_the_tracer_counts(monkeypatch, run, expected):
    """bench/tracer.py counts the geometry, power and fading layers by replacing
    these ``irssim.sweep`` attributes, so the kernel looks each up when it calls
    it. One kernel call makes one ``distance`` call per leg plus one for the
    interferer reach (with no interferers too), one power call for the signal
    rows and one per modeled interferer, and one draw call per fading chunk plus
    one for the interferer gains. A local alias would make a layer read 0."""
    calls = dict.fromkeys(TRACED, 0)

    def counting(name, function):
        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counted

    for name in TRACED:
        monkeypatch.setattr(sweep_module, name, counting(name, getattr(sweep_module, name)))
    # 10 receivers x 50 trials fit one fading chunk
    run(SweepSpec(start=5.0, stop=95.0, steps=10, trials=50, seed=2))
    assert tuple(calls.values()) == expected
