"""Link-budget and SINR simulator for conventional and IRS-assisted small-cell downlinks."""

from irssim.errors import ConfigError, DegenerateGeometryError, InvalidInputError
from irssim.geometry import Point3, cascade_distances, distance
from irssim.channel import (
    ChannelParams,
    FadingModel,
    IrsPanel,
    conventional_rx_power,
    dbm_to_watts,
    irs_rx_power,
    irs_scattering_gain,
    sample_fading_block,
    watts_to_dbm,
    wavelength,
)
from irssim.sinr import (
    InterfererSet,
    aggregate_interference,
    thermal_noise_watts,
)
from irssim.sweep import (
    MonteCarloStats,
    PlacementEntry,
    PlacementReport,
    Scenario,
    SweepResult,
    SweepRow,
    SweepSpec,
    compare_placement,
    monte_carlo_stats,
    run_angle_sweep,
    run_distance_sweep,
)
from irssim.presets import PRESET_NAMES, build_preset
from irssim.config import parse_scenario
from irssim.output import emit_results

__version__ = "0.3.0"

__all__ = [
    "ChannelParams",
    "ConfigError",
    "DegenerateGeometryError",
    "FadingModel",
    "InterfererSet",
    "InvalidInputError",
    "IrsPanel",
    "MonteCarloStats",
    "PlacementEntry",
    "PlacementReport",
    "Point3",
    "PRESET_NAMES",
    "Scenario",
    "SweepResult",
    "SweepRow",
    "SweepSpec",
    "aggregate_interference",
    "build_preset",
    "cascade_distances",
    "compare_placement",
    "conventional_rx_power",
    "dbm_to_watts",
    "distance",
    "emit_results",
    "irs_rx_power",
    "irs_scattering_gain",
    "monte_carlo_stats",
    "parse_scenario",
    "run_angle_sweep",
    "run_distance_sweep",
    "sample_fading_block",
    "thermal_noise_watts",
    "watts_to_dbm",
    "wavelength",
]
