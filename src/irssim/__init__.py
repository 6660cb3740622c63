"""Link-budget and SINR simulator for conventional and IRS-assisted small-cell downlinks."""

import types

from irssim.errors import ConfigError, DegenerateGeometryError, InvalidInputError
from irssim.geometry import Point3
from irssim.channel import ChannelParams, FadingModel, IrsPanel
from irssim.sinr import InterfererSet
from irssim.sweep import (
    PlacementEntry,
    PlacementReport,
    Scenario,
    SweepResult,
    SweepSpec,
    compare_placement,
    run_angle_sweep,
    run_distance_sweep,
)
from irssim.config import PRESET_NAMES, build_preset, parse_scenario
from irssim.output import emit_results

__version__ = "0.21.0"

# every public name imported above; the import list is the one list of them
__all__ = [name for name, value in list(globals().items())
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]
