"""The package's public surface: what each module defines and exports, and nothing more.

Each set is pinned exactly, so a removed name cannot come back unnoticed and a
new one has to be added here on purpose.
"""

import dataclasses
import inspect

import pytest

import irssim

PUBLIC_NAMES = {
    "ChannelParams", "ConfigError", "DegenerateGeometryError", "FadingModel", "InterfererSet",
    "InvalidInputError", "IrsPanel", "PlacementEntry", "PlacementReport",
    "Point3", "PRESET_NAMES", "Scenario", "SweepResult", "SweepSpec",
    "build_preset", "compare_placement", "emit_results", "parse_scenario", "run_angle_sweep",
    "run_distance_sweep",
}

# public classes and functions defined in each model module; the link formulas,
# the fading draws and the distances are the kernel's own, and private
DEFINED = {
    irssim.geometry: {"Point3"},
    irssim.channel: {"FadingMode", "ConventionalModel", "ChannelParams", "IrsPanel", "FadingModel"},
    irssim.sinr: {"InterfererSet"},
}

FIELDS = {
    irssim.ChannelParams: ["carrier_frequency", "tx_power", "path_loss_exponent", "noise_power"],
    irssim.InterfererSet: ["constant_power", "interferers"],
    irssim.Scenario: ["channel", "fading", "interference", "tx", "panel", "irs",
                      "conventional_model", "label", "assumptions"],
    irssim.SweepResult: ["scenario_label", "variable_name", "columns", "metadata"],
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


@pytest.mark.parametrize("cls", [irssim.Point3, irssim.IrsPanel, irssim.FadingModel,
                                 irssim.Scenario],
                         ids=lambda cls: cls.__name__)
def test_value_types_have_no_public_methods(cls):
    # a field's default is a class attribute too; anything else public is a method
    fields = {field.name for field in dataclasses.fields(cls)}
    assert [name for name in vars(cls) if not name.startswith("_") and name not in fields] == []


def test_sinr_attribute_is_the_submodule():
    assert inspect.ismodule(irssim.sinr)
    assert irssim.sinr.InterfererSet is irssim.InterfererSet
