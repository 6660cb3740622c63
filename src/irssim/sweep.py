"""Scenario definition and the sweep engine.

Every entry point (distance and angle sweeps, placement ranking) is one call
of the array kernel :func:`_evaluate`, which scores signal rows against P
receivers over T fading trials; its docstring states
the noise-plus-interference power and the order of the faults it reports. A
row is one panel at one reflector position: a placement search has a row per
candidate position, an angle sweep a row per (theta_t, theta_r) pair. The
kernel owns the whole stream layout, and every random draw is a pure
function of (seed, stream index): trial t at receiver p uses index p*T + t,
and modeled interferer j at receiver p uses index
``_INTERFERENCE_STREAM_BASE + p*J + j`` (J interferers), one gain shared by
every trial. So every row sees the same draws (common random numbers). The
noise-plus-interference power depends on the receiver only, so in dB the
per-trial SINR is the row's unit-fading signal plus a fading term shared by
all rows. The kernel therefore reduces the (P, T) fading terms once, walking
the receivers in chunks sized by memory, and then shifts those statistics by
each row's signal: (P, T) work plus an (R, P) shift for R rows. A chunk never
splits one receiver's trials, so results are bit-identical at any chunk size.

A pass runs on worker threads, at most one per CPU the process may use (its
affinity mask) and at most one per two chunks. The workers take chunks from
one shared queue until it is empty, or until one of them has failed, and the
numpy loops release the interpreter lock. So which worker reduces which
receiver changes from run to run, while each receiver's statistics are a
pure function of its own draws: the bytes are identical at any worker count,
and ``taskset -c 0`` runs the pass serially. The draw function allocates a
chunk's draws and at most one hash block of scratch (see
:func:`irssim.channel.sample_fading_block`), and they are freed before the
worker draws its next chunk, so a pass holds one chunk and one hash block
per worker.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from irssim.channel import (
    ChannelParams,
    ConventionalModel,
    FadingMode,
    FadingModel,
    IrsPanel,
    _check_type,
    _count,
    _read,
    _real,
    _seed,
    _watts_to_dbm_array,
    conventional_rx_power,
    irs_rx_power,
    sample_fading_block,
)
from irssim.errors import DegenerateGeometryError, InvalidInputError
from irssim.geometry import Point3, distance
from irssim.sinr import InterfererSet

# elements of the (receiver, trial) block of fading draws a worker holds at
# once (512 KiB); a receiver with more trials gets a chunk of its own
_CHUNK_ELEMENTS = 1 << 16
# the CPUs this process may run on: the most workers a fading pass starts
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# interferer draws live in their own half of the stream space, so they can
# never collide with the signal draws p*T + t
_INTERFERENCE_STREAM_BASE = 1 << 62
# the direction of every sweep's ray of receivers
_X_AXIS = np.array([1.0, 0.0, 0.0])


@dataclass(frozen=True)
class Scenario:
    """A fully specified downlink to sweep: IRS-assisted when it carries a
    panel and an IRS position, conventional when it carries neither.

    A sweep's receivers lie on the +x ray from the reflector, or from the
    transmitter on a conventional link. Every field is checked for its type;
    ``assumptions`` may be any iterable of strings other than one string, and
    is read once into a tuple.
    """

    channel: ChannelParams
    fading: FadingModel
    interference: InterfererSet
    tx: Point3
    panel: Optional[IrsPanel] = None
    irs: Optional[Point3] = None
    conventional_model: ConventionalModel = ConventionalModel.PAPER
    label: str = "scenario"
    assumptions: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_type("conventional_model", self.conventional_model, ConventionalModel)
        if (self.panel is None) != (self.irs is None):
            raise InvalidInputError(
                "a scenario carries both a panel and an IRS position, or neither")
        kinds = [("channel", ChannelParams), ("fading", FadingModel),
                 ("interference", InterfererSet), ("tx", Point3), ("label", str)]
        if self.irs is not None:
            kinds += [("panel", IrsPanel), ("irs", Point3)]
        for name, kind in kinds:
            _check_type(name, getattr(self, name), kind)
        assumptions = _read(self.assumptions, "assumptions")
        if isinstance(self.assumptions, str):
            raise InvalidInputError("assumptions must be strings other than one str, got str")
        for assumption in assumptions:
            _check_type("assumptions entry", assumption, str)
        object.__setattr__(self, "assumptions", assumptions)


@dataclass(frozen=True)
class SweepSpec:
    """Uniform grid of distances > 0, plus Monte-Carlo repetition count and seed."""

    start: float
    stop: float
    steps: int
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        # kept as Python floats before any arithmetic, so numpy float bounds
        # overflow to inf without a warning, as Python floats do
        start, stop = (float(_real(f"sweep {name}", getattr(self, name)))
                       for name in ("start", "stop"))
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise InvalidInputError(
                f"sweep start and stop must be finite, got [{start!r}, {stop!r}]")
        if not (start < stop):
            raise InvalidInputError(f"sweep start must be < stop, got [{start!r}, {stop!r}]")
        if start <= 0:  # every grid is a set of receiver distances
            raise InvalidInputError(f"sweep start must be > 0, got {start!r}")
        steps = _count("sweep steps", self.steps, 2)
        # kept as Python numbers, so no numpy scalar reaches the metadata
        for name, value in (("start", start), ("stop", stop), ("steps", steps)):
            object.__setattr__(self, name, value)
        grid = f"sweep grid from start {start!r} to stop {stop!r} in {steps} steps"
        # a float64 holds every index below 2**53 exactly, and no host holds
        # such a grid; checked before anything is built
        if steps > 2**53:
            raise InvalidInputError(f"{grid} has too many points: steps must be <= 2**53")
        # the grid does not decrease with i, so its last point is its largest
        last = start + (steps - 1) * self._step
        if not math.isfinite(last):
            raise InvalidInputError(f"{grid} leaves the float range: its last point is {last!r}")
        object.__setattr__(self, "trials", _count("trials", self.trials, 1))
        object.__setattr__(self, "seed", _seed(self.seed))
        # a step below the float spacing rounds neighbouring points together;
        # the grid built here is built again by grid(), but it is one float a
        # point, small next to the four columns a sweep of it returns
        points = self._points()
        repeats = np.flatnonzero(points[1:] <= points[:-1])
        if repeats.size:
            raise InvalidInputError(
                f"{grid} repeats points: its step {self._step!r} is below the float spacing"
                f" at {float(points[repeats[0]])!r}")

    def grid(self) -> List[float]:
        """The points start + i*step, as Python floats."""
        return self._points().tolist()

    @property
    def _step(self) -> float:
        return (self.stop - self.start) / (self.steps - 1)

    def _points(self) -> np.ndarray:
        # bit for bit the Python floats start + i * step
        return self.start + np.arange(self.steps) * self._step


@dataclass(frozen=True)
class SweepResult:
    """One curve as four columns, named as in the CSV header: ``x`` (the swept
    variable), ``rx_power_dbm``, ``sinr_db`` (the mean) and ``sinr_db_stddev``.

    Labels are strings; ``columns`` is any iterable of four iterables of one length, each read
    once into a tuple (a tuple given is kept as it is). Any other value is an InvalidInputError.
    """

    scenario_label: str
    variable_name: str
    columns: Tuple[tuple, tuple, tuple, tuple]
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("scenario_label", "variable_name"):
            _check_type(name, getattr(self, name), str)
        columns = tuple(map(_read, _read(self.columns, "columns"), repeat("columns entry")))
        if len(columns) != 4 or len(set(map(len, columns))) != 1:
            raise InvalidInputError(
                f"{self.scenario_label!r} must hold four columns of one length,"
                f" got lengths {[len(column) for column in columns]}")
        object.__setattr__(self, "columns", columns)

    @property
    def rows(self) -> Tuple[Tuple[float, float, float, float], ...]:
        """The columns transposed: one plain 4-tuple per grid point. Kept because
        bench/tracer.py's ``_points`` counts a result's points as ``len(result.rows)``."""
        return tuple(zip(*self.columns))


class PlacementEntry(NamedTuple):
    """One candidate reflector position, with its SINR at each receiver and
    the worst, mean and best of them."""

    irs_position: Point3
    per_rx_sinr_db: Tuple[float, ...]
    min_sinr_db: float
    mean_sinr_db: float
    max_sinr_db: float


@dataclass(frozen=True)
class PlacementReport:
    entries: Tuple[PlacementEntry, ...]  # by min SINR, best first, ties in input order
    metadata: Dict[str, object] = field(default_factory=dict)


class _LinkStats(NamedTuple):
    """Per (signal row, receiver) statistics over the fading trials.

    Row a*K + k is panel a at reflector position k.
    """

    power: np.ndarray  # (R, P) mean received power, W
    sinr_db: np.ndarray  # (R, P) mean of the per-trial SINR in dB
    sinr_db_stddev: np.ndarray  # (P,) population stddev of the per-trial SINR in dB


def _check_arguments(scenario: Scenario, spec: SweepSpec, irs_only: str = "") -> None:
    """Type-check both arguments; ``irs_only`` names an entry point that needs an IRS scenario."""
    _check_type("scenario", scenario, Scenario)
    _check_type("spec", spec, SweepSpec)
    if irs_only and scenario.irs is None:
        raise InvalidInputError(f"{irs_only} requires an IRS-assisted scenario")


def _as_array(points: Sequence[Point3], name: str = "position") -> np.ndarray:
    """Coordinates of the points, shape (len(points), 3); any other value is
    an InvalidInputError that names the argument ``name``."""
    bad = [p for p in points if not isinstance(p, Point3)]
    if bad:
        _check_type(name, bad[0], Point3)
    coordinates = chain.from_iterable((p.x, p.y, p.z) for p in points)
    return np.fromiter(coordinates, float, 3 * len(points)).reshape(-1, 3)


def _first_fault(masks: Sequence[np.ndarray]) -> Optional[Tuple[Optional[int], int, int]]:
    """The first (k, p) in row-major order where one of ``masks`` holds, each
    of shape (K, P) or (P,) (a (P,) mask holds at every k), and the index f of
    the first mask that holds there, as (k, p, f); k is None when that mask
    has shape (P,), a fault of receiver p alone. None when no mask holds."""
    bad = np.atleast_2d(functools.reduce(np.logical_or, masks[::-1]))  # the (P,) masks first
    if not bad.any():
        return None
    k, p = np.argwhere(bad)[0].tolist()
    # mask & bad is the mask at bad's shape, and bad holds at (k, p)
    f = next(f for f, mask in enumerate(masks) if (mask & bad)[k, p])
    return (None if masks[f].ndim == 1 else k), p, f


def _evaluate(
    scenario: Scenario,
    irs: Optional[np.ndarray],
    rx: np.ndarray,
    trials: int,
    seed: int,
    where: Callable[[Optional[int], int], str],
    panels: Optional[Sequence[IrsPanel]] = None,
) -> _LinkStats:
    """Link statistics of A panels (by default the scenario's own) at K
    reflector positions against P receivers, in rows a*K + k.

    ``irs`` has shape (K, 3), or is None in conventional mode (one row);
    ``rx`` has shape (P, 3). A row's signal is its unit-fading received
    power, from the legs r1 and r2 (the direct link in conventional mode).
    The denominator at receiver p is the noise-plus-interference power: the
    constant floor, plus the direct-link power of each modeled interferer,
    faded by its own gain at the receiver, plus the thermal noise; with no
    interferers nothing is drawn. Each row is scored over ``trials`` fading
    draws seeded by ``seed``, the same draws for every row; deterministic
    fading evaluates one trial, since all are identical.

    Faults are found by array checks, each reporting its first fault in
    row-major (k, p) order, in this order of kinds: a zero leg or an
    interferer on receiver p (DegenerateGeometryError, checked before the
    power formulas see the pair); then a row k whose signal at receiver p is
    0 W or not finite; then an infinite denominator at receiver p; then,
    after the fading pass, a mean received power that is 0 W or not finite
    (InvalidInputError, a link budget outside the float range). A fault of
    the pair is named ``where(k, p)``, one of receiver p alone ``where(None, p)``.
    """
    fading = scenario.fading
    if fading.mode is FadingMode.DETERMINISTIC:
        trials = 1
    else:
        fading = replace(fading, seed=seed)

    def check_range(power: np.ndarray, name: str) -> None:
        fault = _first_fault([~((power > 0) & (power < math.inf))])
        if fault:
            k, p, _ = fault
            raise InvalidInputError(
                f"{where(k, p)}: {name} {float(power[p] if k is None else power[k, p])!r} W"
                " is outside the float range; check the link budget")

    # a power beyond the float range is reported by check_range, not warned about
    with np.errstate(all="ignore"):
        if irs is None:
            legs = (distance(scenario.tx, rx)[None, :],)
            faults = ["link distance must be > 0, got 0.0"]
        else:
            legs = (distance(scenario.tx, irs[:, None, :]), distance(irs[:, None, :], rx))
            faults = ["transmitter and reflector coincide (r1 = 0)",
                      "reflector and receiver coincide (r2 = 0)"]
        interferers = scenario.interference.interferers
        faults += [f"interferer {j} at {position} coincides with the receiver"
                   for j, (_, position) in enumerate(interferers)]
        reach = distance(_as_array([position for _, position in interferers]).reshape(-1, 1, 3), rx)
        # one mask per fault, in the order a single pair is checked
        fault = _first_fault([leg == 0.0 for leg in legs] + list(reach == 0.0))
        if fault:
            k, p, f = fault
            raise DegenerateGeometryError(f"{where(k, p)}: {faults[f]}")
        if irs is None:
            signal = conventional_rx_power(scenario.channel, legs[0], 1.0, scenario.conventional_model)
        else:
            signal = np.concatenate([irs_rx_power(scenario.channel, panel, *legs)
                                     for panel in panels or (scenario.panel,)])
        denominator = np.full(len(rx), scenario.interference.constant_power)
        if interferers:
            gains = sample_fading_block(fading, _INTERFERENCE_STREAM_BASE, reach.size)
            # the gains of interferer j are column j of the (P, J) block
            for (params, _), r, gain in zip(interferers, reach, gains.reshape(len(rx), -1).T):
                denominator += conventional_rx_power(params, r, gain, scenario.conventional_model)
        denominator += scenario.channel.noise_power
    check_range(signal, "received power")
    check_range(denominator, "interference plus noise power")
    mean_gain, fade_db, stddev = _fading_statistics(fading, denominator, trials)
    with np.errstate(all="ignore"):
        power = signal * mean_gain
    check_range(power, "mean received power")

    # then shift by each row's unit-fading signal, (R, P) work
    return _LinkStats(power=power, sinr_db=10.0 * np.log10(signal) + fade_db,
                      sinr_db_stddev=stddev)


def _fading_statistics(
    fading: FadingModel,
    denominator: np.ndarray,
    trials: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-receiver statistics of the fading draws, each of shape (P,).

    The draws and the noise-plus-interference power ``denominator`` depend on
    the receiver only, so the trial part of the per-trial SINR in dB,
    10*log10(gain / denominator), is shared by every reflector position: it
    is reduced over the trials once per receiver, to the mean gain and the
    mean and population stddev of that dB term.
    """
    p_count = len(denominator)
    mean_gain = np.empty(p_count)
    fade_db = np.empty(p_count)
    stddev = np.empty(p_count)
    step = max(1, _CHUNK_ELEMENTS // trials)
    starts = range(0, p_count, step)
    workers = max(1, min(_WORKERS, len(starts) // 2))
    # the chunks' first receivers, shared by the workers: next() on a range
    # iterator runs in C under the interpreter lock, so each chunk is taken once
    queue = iter(starts)
    errors: List[BaseException] = []

    def reduce() -> None:
        # each chunk writes only its own receivers' entries, so workers may
        # reduce chunks concurrently; an exception is recorded, no worker
        # takes a chunk after it, and it is raised once every worker has
        # ended. Sums are np.add.reduce then a division, numpy.mean's own
        # arithmetic without its Python wrapper: the mean dB term is divided
        # here, since the spread subtracts it, the other sums after the join.
        # Every step runs in place: the Python between the array calls holds
        # the interpreter lock that the other workers wait on
        try:
            for start in queue:
                if errors:
                    return
                chunk = slice(start, min(start + step, p_count))
                n = chunk.stop - start
                block = sample_fading_block(fading, start * trials, n * trials).reshape(n, trials)
                np.add.reduce(block, -1, None, mean_gain[chunk])
                block /= denominator[chunk, None]
                np.log10(block, block)
                block *= 10.0
                mean_db = np.add.reduce(block, -1, None, fade_db[chunk])
                mean_db /= trials
                # population stddev, step for step as numpy.std, without its temporary
                block -= mean_db[:, None]
                np.square(block, block)
                np.add.reduce(block, -1, None, stddev[chunk])
                del block  # free this chunk's draws before the next chunk's are made
        except BaseException as exc:
            errors.append(exc)

    # the caller is worker 0
    started = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=reduce)
            thread.start()
            started.append(thread)
        reduce()
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    # each division and root is correctly rounded element by element, so one
    # call over all receivers gives the bytes of one call per chunk
    mean_gain /= trials
    stddev /= trials
    np.sqrt(stddev, stddev)
    return mean_gain, fade_db, stddev


def _base_metadata(scenario: Scenario, spec: SweepSpec) -> Dict[str, object]:
    return {
        "seed": spec.seed,
        "trials": spec.trials,
        "mode": "conventional" if scenario.irs is None else "irs",
        "conventional_model": scenario.conventional_model.value,
        "fading": scenario.fading.mode.value,
        "interference_mode": "modeled" if scenario.interference.interferers else "constant",
        "assumptions": list(scenario.assumptions),
    }


def _sweeps(
    scenario: Scenario,
    spec: SweepSpec,
    panels: Sequence[Optional[IrsPanel]],
    labels: Sequence[str],
) -> List[SweepResult]:
    """One distance sweep per panel, all scored in one kernel call."""
    if not panels:
        return []
    points = spec._points()
    grid = points.tolist()

    def where(k: Optional[int], p: int) -> str:
        # with several panels, row k is the sweep labelled labels[k]
        of = f" of {labels[k]!r}" if k is not None and len(panels) > 1 else ""
        return f"sweep point x={grid[p]!r}{of}"

    irs = None if scenario.irs is None else _as_array([scenario.irs])
    origin = _as_array([scenario.tx]) if irs is None else irs
    # a position beyond the float range is reported by the kernel, not warned about
    with np.errstate(all="ignore"):
        rx = origin + points[:, None] * _X_AXIS
    stats = _evaluate(scenario, irs, rx, spec.trials, spec.seed, where=where, panels=panels)
    # the curves share one grid tuple and one stddev tuple
    grid, stddev = tuple(grid), tuple(stats.sinr_db_stddev.tolist())
    return [
        SweepResult(
            scenario_label=label,
            variable_name="distance_m",
            columns=(grid, tuple(rx_power_dbm), tuple(sinr_db), stddev),
            metadata=_base_metadata(scenario, spec),
        )
        for label, rx_power_dbm, sinr_db in zip(
            labels, _watts_to_dbm_array(stats.power).tolist(), stats.sinr_db.tolist())]


def run_distance_sweep(scenario: Scenario, spec: SweepSpec) -> SweepResult:
    """Sweep the receiver distance and record mean SINR per grid point.

    The swept distance is the reflector-to-receiver leg in IRS mode and the
    transmitter-to-receiver distance otherwise; output rows are ordered by
    distance.
    """
    _check_arguments(scenario, spec)
    return _sweeps(scenario, spec, [scenario.panel], [scenario.label])[0]


def run_angle_sweep(
    scenario: Scenario,
    angle_pairs: Iterable[Tuple[float, float]],
    spec: SweepSpec,
) -> List[SweepResult]:
    """One distance sweep per (theta_t, theta_r) pair, all from one fading pass.

    Every pair is scored against the same draws (the same seed and stream
    indices), so dB gaps between the returned curves reflect only the angle
    change (common random numbers), and the sweep costs about as much as one
    distance sweep. ``angle_pairs`` may be any iterable of two-value pairs.
    """
    _check_arguments(scenario, spec, "an angle sweep")
    pairs = [_read(pair, "angle_pairs entry", 2) for pair in _read(angle_pairs, "angle_pairs")]
    panels = [replace(scenario.panel, theta_t=t, theta_r=r) for t, r in pairs]
    return _sweeps(scenario, spec, panels, [
        f"{scenario.label} theta_t={_angle_text(p.theta_t)} theta_r={_angle_text(p.theta_r)}"
        for p in panels])


def _angle_text(angle: float) -> str:
    """The angle written with :g when that reads back as the same float, else its repr,
    so that two different angles never share a label."""
    text = f"{angle:g}"
    return text if float(text) == angle else repr(float(angle))


def compare_placement(
    scenario: Scenario,
    irs_positions: Iterable[Point3],
    rx_positions: Iterable[Point3],
    spec: SweepSpec,
) -> PlacementReport:
    """Rank candidate reflector positions by their worst-receiver SINR.

    Fading draws are indexed by receiver only, so every candidate position is
    scored against identical channel realizations. Either position list may
    be any iterable; it is read once, and the entries keep the given points.
    """
    _check_arguments(scenario, spec, "placement comparison")
    irs_positions = _read(irs_positions, "irs_positions")
    rx_positions = _read(rx_positions, "rx_positions")
    irs = _as_array(irs_positions, "irs_positions entry")
    rx = _as_array(rx_positions, "rx_positions entry")
    if not (len(irs) and len(rx)):
        raise InvalidInputError("placement comparison needs >= 1 IRS and >= 1 rx position")
    stats = _evaluate(
        scenario, irs, rx, spec.trials, spec.seed,
        where=lambda k, p: "placement ({}rx={})".format(
            "" if k is None else f"irs={irs_positions[k]}, ", rx_positions[p]))
    worst = stats.sinr_db.min(axis=1)
    # best first; stable, so tied candidates keep their input order
    order = np.argsort(-worst, kind="stable")
    sinr_db = stats.sinr_db[order]
    # the mean is the left-to-right sum of per_rx over its length, bit for
    # bit: one add per receiver, over all candidates at once (np.add.reduce
    # would sum a single candidate's contiguous row pairwise)
    means = functools.reduce(np.add, sinr_db.T) / sinr_db.shape[1]
    # tuple.__new__ makes each record in C, without a Python __new__ call
    entries = tuple(map(tuple.__new__, repeat(PlacementEntry), zip(
        map(irs_positions.__getitem__, order.tolist()), map(tuple, sinr_db.tolist()),
        worst[order].tolist(), means.tolist(), sinr_db.max(axis=1).tolist())))
    return PlacementReport(
        entries=entries,
        metadata=_base_metadata(scenario, spec),
    )
