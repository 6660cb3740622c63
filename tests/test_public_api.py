"""The package's public surface: what each module defines and exports, and nothing more.

Each set is pinned exactly, so a removed name cannot come back unnoticed and a
new one has to be added here on purpose.
"""

import inspect

import pytest

import irssim

PUBLIC_NAMES = {
    "ChannelParams", "ConfigError", "DegenerateGeometryError", "FadingModel", "InterfererSet",
    "InvalidInputError", "IrsPanel", "MonteCarloStats", "PlacementEntry", "PlacementReport",
    "Point3", "PRESET_NAMES", "Scenario", "SweepResult", "SweepRow", "SweepSpec",
    "aggregate_interference", "build_preset", "cascade_distances", "compare_placement",
    "conventional_rx_power", "dbm_to_watts", "distance", "emit_results", "irs_rx_power",
    "irs_scattering_gain", "monte_carlo_stats", "parse_scenario", "run_angle_sweep",
    "run_distance_sweep", "sample_fading_block", "thermal_noise_watts", "watts_to_dbm",
    "wavelength",
}

# public classes and functions defined in each model module
DEFINED = {
    irssim.geometry: {"Point3", "distance", "cascade_distances"},
    irssim.channel: {
        "FadingMode", "ConventionalModel", "ChannelParams", "IrsPanel", "FadingModel",
        "wavelength", "watts_to_dbm", "dbm_to_watts", "ratio_from_db", "sample_fading_block",
        "conventional_rx_power", "irs_scattering_gain", "irs_rx_power"},
    irssim.sinr: {"InterfererSet", "aggregate_interference", "thermal_noise_watts"},
}

FIELDS = {
    irssim.ChannelParams: ["carrier_frequency", "tx_power", "path_loss_exponent", "noise_power"],
    irssim.InterfererSet: ["constant_power", "interferers"],
    irssim.Scenario: ["channel", "fading", "interference", "tx", "panel", "irs", "rx_direction",
                      "conventional_model", "label", "assumptions"],
}


def test_every_exported_name_resolves():
    assert sorted(irssim.__all__) == sorted(PUBLIC_NAMES)
    assert [name for name in irssim.__all__ if not hasattr(irssim, name)] == []


def test_package_exports_nothing_else():
    public = {name for name, value in vars(irssim).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == PUBLIC_NAMES


@pytest.mark.parametrize("module", list(DEFINED), ids=lambda module: module.__name__)
def test_module_defines_only_its_public_names(module):
    defined = {name for name, value in vars(module).items()
               if not name.startswith("_")
               and (inspect.isclass(value) or inspect.isfunction(value))
               and value.__module__ == module.__name__}
    assert defined == DEFINED[module]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda cls: cls.__name__)
def test_dataclass_fields(cls):
    assert list(cls.__dataclass_fields__) == FIELDS[cls]


@pytest.mark.parametrize("cls", [irssim.Point3, irssim.IrsPanel], ids=lambda cls: cls.__name__)
def test_value_types_have_no_public_methods(cls):
    assert [name for name in vars(cls) if not name.startswith("_")] == []


def test_sinr_attribute_is_the_submodule():
    assert inspect.ismodule(irssim.sinr)
    assert irssim.sinr.aggregate_interference is irssim.aggregate_interference
