"""Scenario definition and the sweep / Monte-Carlo engine.

Every entry point (distance and angle sweeps, placement ranking, Monte-Carlo
statistics) is one call of the array kernel :func:`_evaluate`, which scores K
reflector positions against P receivers over T fading trials. Every random
draw is a pure function of (seed, stream index): trial t at receiver p uses
index p*T + t, and the interferer draws follow the layout of
:func:`irssim.sinr.aggregate_interference`, so every reflector position sees
the same draws (common random numbers). The kernel walks the receivers in
chunks sized by memory; a chunk never splits one receiver's trials, so
results are bit-identical at any chunk size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from irssim.channel import (
    ChannelParams,
    ConventionalModel,
    FadingModel,
    IrsPanel,
    conventional_rx_power,
    irs_rx_power,
    sample_fading_block,
    watts_to_dbm,
)
from irssim.errors import DegenerateGeometryError, InvalidInputError
from irssim.geometry import Point3, cascade_distances, distance
from irssim.sinr import InterfererSet, aggregate_interference

# elements of the (K, P, T) work block the kernel holds at once (512 KiB);
# a receiver whose K*T trials exceed it gets a chunk of its own
_CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class Scenario:
    """A fully specified downlink to sweep: IRS-assisted when it carries a
    panel and an IRS position, conventional when it carries neither.

    Receivers lie on a ray in direction ``rx_direction`` that starts at the
    reflector, or at the transmitter on a conventional link.
    """

    channel: ChannelParams
    fading: FadingModel
    interference: InterfererSet
    tx: Point3
    panel: Optional[IrsPanel] = None
    irs: Optional[Point3] = None
    rx_direction: Tuple[float, float, float] = (1.0, 0.0, 0.0)
    conventional_model: ConventionalModel = ConventionalModel.PAPER
    label: str = "scenario"
    assumptions: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (self.panel is None) != (self.irs is None):
            raise InvalidInputError(
                "a scenario carries both a panel and an IRS position, or neither")
        norm = math.sqrt(sum(c * c for c in self.rx_direction))
        if not (norm > 0 and math.isfinite(norm)):
            raise InvalidInputError(f"rx_direction must be nonzero, got {self.rx_direction!r}")

    def receivers_at(self, xs: Sequence[float]) -> np.ndarray:
        """Receiver positions, shape (len(xs), 3), at swept distances xs along the ray."""
        origin = self.tx if self.irs is None else self.irs
        norm = math.sqrt(sum(c * c for c in self.rx_direction))
        unit = np.array([c / norm for c in self.rx_direction])
        return _as_array([origin]) + np.asarray(xs, dtype=float)[:, None] * unit


def _check_trials_and_seed(trials: int, seed: int) -> None:
    if trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials!r}")
    if not (0 <= seed < 2 ** 64):
        raise InvalidInputError(f"seed must lie in [0, 2**64), got {seed!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Uniform sweep grid plus Monte-Carlo repetition count and seed."""

    start: float
    stop: float
    steps: int
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.start < self.stop):
            raise InvalidInputError(
                f"sweep start must be < stop, got [{self.start!r}, {self.stop!r}]")
        if self.steps < 2:
            raise InvalidInputError(f"sweep steps must be >= 2, got {self.steps!r}")
        _check_trials_and_seed(self.trials, self.seed)

    def grid(self) -> List[float]:
        step = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * step for i in range(self.steps)]


@dataclass(frozen=True)
class SweepRow:
    x: float
    rx_power_dbm: float
    sinr_db: float
    sinr_db_stddev: float


@dataclass(frozen=True)
class SweepResult:
    scenario_label: str
    variable_name: str
    rows: Tuple[SweepRow, ...]
    metadata: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class MonteCarloStats:
    mean_sinr_db: float
    stddev_sinr_db: float
    p5_sinr_db: float
    p95_sinr_db: float
    mean_rx_power_w: float
    trials: int
    seed: int


@dataclass(frozen=True)
class PlacementEntry:
    irs_position: Point3
    per_rx_sinr_db: Tuple[float, ...]
    min_sinr_db: float
    mean_sinr_db: float
    max_sinr_db: float


@dataclass(frozen=True)
class PlacementReport:
    entries: Tuple[PlacementEntry, ...]  # sorted by min SINR, best first
    metadata: Dict[str, object] = field(default_factory=dict)


class _LinkStats(NamedTuple):
    """Per (reflector position, receiver) statistics over the fading trials."""

    power: np.ndarray  # (K, P) mean received power, W
    sinr_db: np.ndarray  # (K, P) mean of the per-trial SINR in dB
    sinr_db_stddev: np.ndarray  # (K, P) population stddev of the per-trial SINR in dB
    percentiles: np.ndarray  # (Q, K, P) per-trial SINR percentiles in dB


def _as_array(points: Sequence[Point3]) -> np.ndarray:
    """Coordinates of the points, shape (len(points), 3)."""
    return np.array([(p.x, p.y, p.z) for p in points], dtype=float)


def _signal_power(scenario: Scenario, irs: Optional[np.ndarray], rx: np.ndarray) -> np.ndarray:
    """Unit-fading received power, shape (K, P); conventional mode has K = 1."""
    if scenario.irs is not None:
        r1, r2 = cascade_distances(scenario.tx, irs[:, None, :], rx)
        return irs_rx_power(scenario.channel, scenario.panel, r1, r2)
    r = distance(scenario.tx, rx)
    return conventional_rx_power(scenario.channel, r, 1.0, scenario.conventional_model)[None, :]


def _evaluate(
    scenario: Scenario,
    irs: Optional[np.ndarray],
    rx: np.ndarray,
    trials: int,
    seed: int,
    where: Callable[[int, int], str],
    percentiles: Sequence[float] = (),
) -> _LinkStats:
    """Link statistics of K reflector positions against P receivers.

    ``irs`` has shape (K, 3), or is None in conventional mode (K = 1); ``rx``
    has shape (P, 3). Each pair is scored over ``trials`` fading draws seeded
    by ``seed``; deterministic fading evaluates one trial, since all are
    identical. A degenerate pair is reported as ``where(k, p)``.
    """
    fading = scenario.fading
    if fading.is_random:
        fading = replace(fading, seed=seed)
    else:
        trials = 1
    try:
        signal = _signal_power(scenario, irs, rx)
        interference = aggregate_interference(
            scenario.interference, rx, fading, scenario.conventional_model)
    except DegenerateGeometryError:
        # rare path: retry pair by pair to name the first offending one
        for k, p in itertools.product(range(1 if irs is None else len(irs)), range(len(rx))):
            try:
                _signal_power(scenario, None if irs is None else irs[k:k + 1], rx[p:p + 1])
                aggregate_interference(scenario.interference, rx[p:p + 1], FadingModel())
            except DegenerateGeometryError as exc:
                raise DegenerateGeometryError(f"{where(k, p)}: {exc}") from exc
        raise
    denominator = np.broadcast_to(interference + scenario.channel.noise_power, (len(rx),))

    k_count, p_count = signal.shape
    step = max(1, _CHUNK_ELEMENTS // (k_count * trials))
    work = np.empty(k_count * min(step, p_count) * trials)
    stats = _LinkStats(
        power=np.empty((k_count, p_count)),
        sinr_db=np.empty((k_count, p_count)),
        sinr_db_stddev=np.empty((k_count, p_count)),
        percentiles=np.empty((len(percentiles), k_count, p_count)),
    )
    for first in range(0, p_count, step):
        chunk = slice(first, min(first + step, p_count))
        n = chunk.stop - first
        gains = sample_fading_block(fading, first * trials, n * trials).reshape(n, trials)
        block = work[:k_count * n * trials].reshape(k_count, n, trials)
        np.multiply(signal[:, chunk, None], gains, out=block)
        block.mean(axis=-1, out=stats.power[:, chunk])
        np.divide(block, denominator[chunk, None], out=block)
        np.log10(block, out=block)
        np.multiply(block, 10.0, out=block)
        mean_db = block.mean(axis=-1, out=stats.sinr_db[:, chunk])
        if len(percentiles):
            stats.percentiles[:, :, chunk] = np.percentile(block, percentiles, axis=-1)
        # population stddev, step for step as numpy.std, without its temporary
        np.subtract(block, mean_db[:, :, None], out=block)
        np.square(block, out=block)
        spread = block.sum(axis=-1, out=stats.sinr_db_stddev[:, chunk])
        np.divide(spread, trials, out=spread)
        np.sqrt(spread, out=spread)
    return stats


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


def _irs_of(scenario: Scenario) -> Optional[np.ndarray]:
    return None if scenario.irs is None else _as_array([scenario.irs])


def run_distance_sweep(scenario: Scenario, spec: SweepSpec) -> SweepResult:
    """Sweep the receiver distance and record mean SINR per grid point.

    The swept distance is the reflector-to-receiver leg in IRS mode and the
    transmitter-to-receiver distance otherwise; output rows are ordered by
    distance.
    """
    grid = spec.grid()
    if grid[0] <= 0:
        raise InvalidInputError(f"sweep distances must be > 0, start={spec.start!r}")
    stats = _evaluate(scenario, _irs_of(scenario), scenario.receivers_at(grid),
                      spec.trials, spec.seed, where=lambda k, p: f"sweep point x={grid[p]!r}")
    rows = tuple(
        SweepRow(x=x, rx_power_dbm=watts_to_dbm(power), sinr_db=mean, sinr_db_stddev=stddev)
        for x, power, mean, stddev in zip(
            grid, stats.power[0].tolist(), stats.sinr_db[0].tolist(),
            stats.sinr_db_stddev[0].tolist()))
    return SweepResult(
        scenario_label=scenario.label,
        variable_name="distance_m",
        rows=rows,
        metadata=_base_metadata(scenario, spec),
    )


def run_angle_sweep(
    scenario: Scenario,
    angle_pairs: Sequence[Tuple[float, float]],
    spec: SweepSpec,
) -> List[SweepResult]:
    """One distance sweep per (theta_t, theta_r) pair, sharing fading draws.

    All pairs reuse the same seed and stream indices, so dB gaps between the
    returned curves reflect only the angle change (common random numbers).
    """
    if scenario.irs is None:
        raise InvalidInputError("angle sweeps require an IRS-assisted scenario")
    results = []
    for theta_t, theta_r in angle_pairs:
        variant = replace(
            scenario,
            panel=replace(scenario.panel, theta_t=theta_t, theta_r=theta_r),
            label=f"{scenario.label} theta_t={theta_t:g} theta_r={theta_r:g}",
        )
        results.append(run_distance_sweep(variant, spec))
    return results


def monte_carlo_stats(
    scenario: Scenario,
    point: Point3,
    trials: int,
    seed: int,
) -> MonteCarloStats:
    """Fading statistics of the link to a fixed receiver position."""
    _check_trials_and_seed(trials, seed)
    stats = _evaluate(scenario, _irs_of(scenario), _as_array([point]), trials, seed,
                      where=lambda k, p: f"receiver {point}", percentiles=(5, 95))
    return MonteCarloStats(
        mean_sinr_db=float(stats.sinr_db[0, 0]),
        stddev_sinr_db=float(stats.sinr_db_stddev[0, 0]),
        p5_sinr_db=float(stats.percentiles[0, 0, 0]),
        p95_sinr_db=float(stats.percentiles[1, 0, 0]),
        mean_rx_power_w=float(stats.power[0, 0]),
        trials=trials,
        seed=seed,
    )


def compare_placement(
    scenario: Scenario,
    irs_positions: Sequence[Point3],
    rx_positions: Sequence[Point3],
    spec: SweepSpec,
) -> PlacementReport:
    """Rank candidate reflector positions by their worst-receiver SINR.

    Fading draws are indexed by receiver only, so every candidate position is
    scored against identical channel realizations.
    """
    if scenario.irs is None:
        raise InvalidInputError("placement comparison requires an IRS-assisted scenario")
    if not irs_positions or not rx_positions:
        raise InvalidInputError("placement comparison needs >= 1 IRS and >= 1 rx position")
    stats = _evaluate(
        scenario, _as_array(irs_positions), _as_array(rx_positions), spec.trials, spec.seed,
        where=lambda k, p: f"placement (irs={irs_positions[k]}, rx={rx_positions[p]})")
    entries = [
        PlacementEntry(
            irs_position=irs,
            per_rx_sinr_db=tuple(per_rx),
            min_sinr_db=min(per_rx),
            mean_sinr_db=sum(per_rx) / len(per_rx),
            max_sinr_db=max(per_rx),
        )
        for irs, per_rx in zip(irs_positions, stats.sinr_db.tolist())]
    entries.sort(key=lambda e: e.min_sinr_db, reverse=True)
    return PlacementReport(
        entries=tuple(entries),
        metadata=_base_metadata(scenario, spec),
    )
