"""The three benchmark workloads, their inputs and their output checks.

Each workload is built from a seed (set-up), then run as repeated identical
iterations from scenario to rendered output. All run single-process on the
engine's default serial path. The engine is reached through module attributes
at call time, so the tracer's wrappers see every call.

Why these three:
- figure_sweeps: the paper's five figures at dense resolution; per-point
  Python work dominates and fading draws are few (10 per point).
- deep_trials: two sweeps built from INI text with 100 000 trials per point;
  draw generation and numpy reductions dominate. It should not move when only
  the per-point loop gets faster, and it shows memory growth from vectorising.
- placement_search: every candidate IRS position scores the same per-receiver
  draws, so only about 1 in 209 draws is distinct, and two modeled interferers
  drive the per-interferer loop in the SINR layer.

Sizes keep those proportions but are scaled so that one iteration takes half a
second to a second, which gives enough samples per run for a tail percentile.
`bound_by` names the kind of work that dominates an iteration; run.py times a
reference kernel of that kind next to every iteration.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

import irssim
from irssim.channel import FadingMode

import oracle

PRESETS = tuple(oracle.PRESET_GEOMETRY)
Z = 5.0  # standard errors allowed by the statistical checks
DB_TOL = 1e-5  # CSV keeps 6 decimals; 1e-5 dB is a relative power error of 2.3e-6
CSV_HEADER = "scenario,x,rx_power_dbm,sinr_db,sinr_db_stddev"


def _engine(name: str):
    return importlib.import_module(f"irssim.{name}")


class Checks:
    """Counts output checks attempted and failed, keeping the failed names."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, name: str, ok) -> None:
        self.attempted += 1
        if not bool(ok):
            self.failed += 1
            self.failures.append(name)


@dataclass
class Output:
    csv: Optional[str] = None
    json: Optional[str] = None
    report: object = None

    def identity(self) -> str:
        """What must be byte-identical across iterations with one seed."""
        if self.csv is not None:
            return self.csv
        return repr([(e.irs_position, e.per_rx_sinr_db) for e in self.report.entries])


def _rayleigh(seed: int):
    return irssim.FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=seed)


def _seeded(scenario, spec, seed: int, steps: int, trials: int):
    """Apply the workload seed to the fading model and to the sweep spec."""
    return (dataclasses.replace(scenario, fading=_rayleigh(seed)),
            dataclasses.replace(spec, steps=steps, trials=trials, seed=seed))


def parse_csv(text: str):
    lines = text.splitlines()
    table = {}
    for line in lines[1:]:
        label, *values = line.split(",")
        table.setdefault(label, []).append([float(v) for v in values])
    return lines[0], {label: np.array(rows) for label, rows in table.items()}


def _mean_within(values, expected, slack: float = 0.0) -> bool:
    """Mean of independent samples within Z empirical standard errors of expected."""
    values = np.asarray(values, dtype=float)
    standard_error = values.std(ddof=1) / math.sqrt(values.size)
    return abs(values.mean() - expected) <= Z * standard_error + slack


def check_deterministic_sweep(label: str, rows: np.ndarray, steps: int, checks: Checks) -> None:
    """Every row of a unit-fading sweep matches the oracle."""
    x, rx_dbm, sinr_db, stddev = rows.T
    grid = oracle.sweep_grid(steps)
    checks.expect(f"{label}: deterministic grid",
                  x.shape == grid.shape and np.allclose(x, grid, rtol=0, atol=1e-6))
    checks.expect(f"{label}: deterministic rx_power_dbm",
                  np.abs(rx_dbm - oracle.watts_to_dbm(oracle.preset_rx_power(label, grid))).max()
                  <= DB_TOL)
    checks.expect(f"{label}: deterministic sinr_db",
                  np.abs(sinr_db - oracle.preset_sinr_db(label, grid)).max() <= DB_TOL)
    checks.expect(f"{label}: deterministic stddev is 0", np.all(stddev == 0.0))


def check_rayleigh_sweep(label: str, rows: np.ndarray, steps: int, trials: int,
                         checks: Checks) -> None:
    """Rayleigh rows against the oracle at the statistical level.

    Independent of the stream layout: only the distribution of the draws matters.
    """
    x, rx_dbm, sinr_db, stddev = rows.T
    grid = oracle.sweep_grid(steps)
    checks.expect(f"{label}: rayleigh grid",
                  x.shape == grid.shape and np.allclose(x, grid, rtol=0, atol=1e-6))
    checks.expect(f"{label}: mean sinr_db offset is E[10 log10 Exp(1)]",
                  _mean_within(sinr_db - oracle.preset_sinr_db(label, grid),
                               oracle.RAYLEIGH_MEAN_DB))
    # population variance over `trials` draws has expectation (T-1)/T * sigma^2
    checks.expect(f"{label}: sinr_db_stddev matches sd[10 log10 Exp(1)]",
                  _mean_within(stddev ** 2,
                               (trials - 1) / trials * oracle.RAYLEIGH_STD_DB ** 2))
    # rx_power_dbm is the dB of the mean power, so its linear ratio has mean 1
    ratio = 10.0 ** ((rx_dbm - oracle.watts_to_dbm(oracle.preset_rx_power(label, grid))) / 10.0)
    checks.expect(f"{label}: mean rx power matches oracle", _mean_within(ratio, 1.0))
    if trials >= 1000:
        # per row: the mean of `trials` unit exponentials, sd 1/sqrt(trials)
        checks.expect(f"{label}: every row's rx power within 6 standard errors",
                      np.all(np.abs(ratio - 1.0) <= 6.0 / math.sqrt(trials)))


def _deterministic_sweep_rows(cases):
    sweep = _engine("sweep")
    results = [sweep.run_distance_sweep(
        dataclasses.replace(scenario, fading=irssim.FadingModel()),
        dataclasses.replace(spec, trials=1)) for scenario, spec in cases]
    return parse_csv(_engine("output").render_results(results, "csv"))[1]


class _Sweeps:
    """Distance sweeps of labelled presets, rendered to CSV (and optionally JSON)."""

    formats = ("csv",)

    def iterate(self) -> Output:
        sweep = _engine("sweep")
        results = [sweep.run_distance_sweep(scenario, spec) for scenario, spec in self.cases]
        render = _engine("output").render_results
        rendered = {fmt: render(results, fmt) for fmt in self.formats}
        return Output(csv=rendered["csv"], json=rendered.get("json"))

    def check(self, out: Output, checks: Checks) -> None:
        header, table = parse_csv(out.csv)
        checks.expect("csv header", header == CSV_HEADER)
        checks.expect("csv labels", sorted(table) == sorted(self.labels))
        deterministic = _deterministic_sweep_rows(self.cases)
        for label in self.labels:
            check_deterministic_sweep(label, deterministic[label], self.steps, checks)
            check_rayleigh_sweep(label, table[label], self.steps, self.trials, checks)
        if out.json is not None:
            payload = json.loads(out.json)
            checks.expect("json labels", [r["label"] for r in payload] == list(self.labels))
            for result in payload:
                rows = np.array(result["rows"], dtype=float)
                label = result["label"]
                checks.expect(f"{label}: json rows match csv rows",
                              rows.shape == table[label].shape
                              and np.allclose(rows, table[label], rtol=0, atol=1e-6))
                checks.expect(f"{label}: json metadata carries the seed",
                              result["metadata"].get("seed") == self.seed)


class FigureSweeps(_Sweeps):
    name = "figure_sweeps"
    bound_by = "interpreter"  # per-point Python work dominates
    SIZES = {"full": (1600, 10), "smoke": (40, 10)}
    formats = ("csv", "json")

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.steps, self.trials = self.SIZES[size]
        self.labels = PRESETS
        self.cases = [
            _seeded(*irssim.build_preset(name), seed, self.steps, self.trials)
            for name in PRESETS]
        self.link_evals = len(self.cases) * self.steps * self.trials


def scenario_ini(preset: str, seed: int, steps: int, trials: int) -> str:
    """INI text for a preset's scenario, written from the oracle's parameter table."""
    geometry = oracle.PRESET_GEOMETRY[preset]
    lines = [
        "[channel]",
        f"frequency_hz = {oracle.FREQUENCY_HZ!r}",
        f"tx_power_dbm = {oracle.TX_POWER_DBM!r}",
        f"path_loss_exponent = {oracle.PATH_LOSS_EXPONENT!r}",
        f"noise_bandwidth_hz = {oracle.NOISE_BANDWIDTH_HZ!r}",
        f"interference_dbm = {oracle.INTERFERENCE_DBM!r}",
        "[geometry]",
        f"mode = {'conventional' if geometry is None else 'irs'}",
        f"label = {preset}",
        "tx = {} {} {}".format(*oracle.TX),
    ]
    if geometry is not None:
        irs, theta_t, theta_r = geometry
        lines += [
            "irs = {} {} {}".format(*irs),
            "[panel]",
            f"element_length_m = {oracle.ELEMENT_M!r}",
            f"element_width_m = {oracle.ELEMENT_M!r}",
            f"tx_side_elements = {oracle.ELEMENTS_PER_SIDE}",
            f"rx_side_elements = {oracle.ELEMENTS_PER_SIDE}",
            f"reflection_coefficient = {oracle.REFLECTION_COEFFICIENT!r}",
            f"tx_gain_dbi = {oracle.ANTENNA_GAIN_DBI!r}",
            f"rx_gain_dbi = {oracle.ANTENNA_GAIN_DBI!r}",
            f"theta_t = {theta_t!r}",
            f"theta_r = {theta_r!r}",
        ]
    lines += [
        "[fading]",
        "mode = rayleigh",
        f"seed = {seed}",
        "[sweep]",
        f"start = {oracle.SWEEP_START_M!r}",
        f"stop = {oracle.SWEEP_STOP_M!r}",
        f"steps = {steps}",
        f"trials = {trials}",
        f"seed = {seed}",
    ]
    return "\n".join(lines) + "\n"


class DeepTrials(_Sweeps):
    name = "deep_trials"
    bound_by = "numpy"  # draws over 100 000 trials, and faulting in their arrays, dominate
    SIZES = {"full": (100, 100_000), "smoke": (20, 2000)}

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.steps, self.trials = self.SIZES[size]
        self.labels = ("fig1", "fig2b")
        self.cases = [irssim.parse_scenario(scenario_ini(label, seed, self.steps, self.trials))
                      for label in self.labels]
        self.link_evals = len(self.cases) * self.steps * self.trials


class PlacementSearch:
    name = "placement_search"
    bound_by = "interpreter"  # one scalar call chain per (IRS, rx) pair dominates
    # ((IRS grid along x, along y), receivers, trials)
    SIZES = {"full": ((19, 11), 36, 50), "smoke": ((5, 3), 8, 20)}
    # (position, transmit power in dBm) of the modeled interferers
    INTERFERERS = (((200.0, 0.0, 10.0), 30.0), ((-120.0, 90.0, 10.0), 24.0))
    THETA = 60.0  # fig2b angles

    def __init__(self, seed: int, size: str = "full") -> None:
        (nx, ny), n_rx, self.trials = self.SIZES[size]
        self.seed = seed
        self.irs = np.array([(x, y, 10.0) for x in np.linspace(10.0, 100.0, nx)
                             for y in np.linspace(-50.0, 50.0, ny)])
        # receivers dropped uniformly over the 100 m cell, at handset height
        rng = np.random.default_rng(seed)
        radius = 100.0 * np.sqrt(rng.uniform(0.0, 1.0, n_rx))
        angle = rng.uniform(0.0, 2.0 * math.pi, n_rx)
        self.rx = np.column_stack([radius * np.cos(angle), radius * np.sin(angle),
                                   np.full(n_rx, 1.5)])
        scenario, spec = irssim.build_preset("fig2b")
        interference = irssim.InterfererSet.modeled([
            (irssim.ChannelParams(
                carrier_frequency=oracle.FREQUENCY_HZ,
                tx_power=oracle.dbm_to_watts(dbm),
                path_loss_exponent=oracle.PATH_LOSS_EXPONENT,
                noise_power=oracle.noise_watts()),
             irssim.Point3(*position))
            for position, dbm in self.INTERFERERS])
        self.scenario = dataclasses.replace(
            scenario, fading=_rayleigh(seed), interference=interference)
        self.spec = dataclasses.replace(spec, trials=self.trials, seed=seed)
        self.irs_points = [irssim.Point3(*map(float, p)) for p in self.irs]
        self.rx_points = [irssim.Point3(*map(float, p)) for p in self.rx]
        self.link_evals = len(self.irs) * len(self.rx) * self.trials

    def iterate(self) -> Output:
        report = _engine("sweep").compare_placement(
            self.scenario, self.irs_points, self.rx_points, self.spec)
        return Output(report=report)

    def _interference_terms(self):
        """Unit-fading power of each interferer at each receiver, shape (interferers, rx)."""
        return np.array([
            oracle.conventional_power(np.linalg.norm(self.rx - np.array(position), axis=1), dbm)
            for position, dbm in self.INTERFERERS])

    def _oracle_sinr_db(self, irs: np.ndarray) -> np.ndarray:
        """Unit-fading SINR in dB for each (IRS, rx) pair."""
        r1 = np.linalg.norm(irs - np.array(oracle.TX), axis=1)[:, None]
        r2 = np.linalg.norm(irs[:, None, :] - self.rx[None, :, :], axis=2)
        power = oracle.irs_power(r1, r2, self.THETA, self.THETA)
        return 10.0 * np.log10(power / (self._interference_terms().sum(axis=0)
                                        + oracle.noise_watts()))

    def _matrix(self, report, irs: np.ndarray) -> np.ndarray:
        """Per-rx SINR rows of a report, in the order of the given IRS positions."""
        by_position = {(e.irs_position.x, e.irs_position.y, e.irs_position.z): e.per_rx_sinr_db
                       for e in report.entries}
        return np.array([by_position[tuple(map(float, p))] for p in irs])

    def check(self, out: Output, checks: Checks) -> None:
        entries = out.report.entries
        checks.expect("one entry per candidate", len(entries) == len(self.irs))
        checks.expect("entries ranked by worst-receiver SINR",
                      all(a.min_sinr_db >= b.min_sinr_db for a, b in zip(entries, entries[1:])))
        checks.expect("min/mean/max summarise per-rx SINR", all(
            e.min_sinr_db == min(e.per_rx_sinr_db) and e.max_sinr_db == max(e.per_rx_sinr_db)
            and math.isclose(e.mean_sinr_db, float(np.mean(e.per_rx_sinr_db)), abs_tol=1e-9)
            for e in entries))

        every = max(1, len(self.irs) // 20)
        sample = self.irs[::every]
        deterministic = _engine("sweep").compare_placement(
            dataclasses.replace(self.scenario, fading=irssim.FadingModel()),
            self.irs_points[::every], self.rx_points, self.spec)
        checks.expect("deterministic per-rx SINR matches oracle",
                      np.abs(self._matrix(deterministic, sample)
                             - self._oracle_sinr_db(sample)).max() <= 1e-9)

        offset = self._matrix(out.report, self.irs) - self._oracle_sinr_db(self.irs)
        # common random numbers: all candidates see the same draws at one receiver
        checks.expect("fading offset shared by all candidates",
                      np.ptp(offset, axis=0).max() <= 1e-8)
        terms = self._interference_terms()
        weights = terms / (terms.sum(axis=0) + oracle.noise_watts())
        # the noise share of the denominator (below 3e-4 here) is neglected;
        # it shifts the expectation by under 0.01 dB
        expected = (oracle.RAYLEIGH_MEAN_DB
                    - oracle.mean_db_of_weighted_exponentials(weights[0], weights[1]))
        checks.expect("mean fading offset matches E[signal] - E[interference] in dB",
                      _mean_within(offset.mean(axis=0) - expected, 0.0, slack=0.01))


WORKLOADS = {cls.name: cls for cls in (FigureSweeps, DeepTrials, PlacementSearch)}


def build(name: str, seed: int, size: str = "full"):
    return WORKLOADS[name](seed, size)
