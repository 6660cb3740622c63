"""Config parsing, result emission, and CLI behavior."""

import configparser
import csv
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from irssim import (
    ChannelParams,
    ConfigError,
    FadingModel,
    InterfererSet,
    InvalidInputError,
    IrsPanel,
    PRESET_NAMES,
    Point3,
    Scenario,
    SweepSpec,
    build_preset,
    dbm_to_watts,
    emit_results,
    parse_scenario,
    run_distance_sweep,
    thermal_noise_watts,
)
from irssim.channel import ConventionalModel, FadingMode, ratio_from_db
from irssim import config
from irssim.cli import main
from irssim.output import CSV_HEADER, render_results

CONVENTIONAL_CONFIG = """\
[channel]
frequency_hz = 28e9
tx_power_dbm = 30
path_loss_exponent = 2
noise_dbm = -94
interference_dbm = -100

[geometry]
mode = conventional
tx = 0 0 10

[sweep]
start = 5
stop = 100
steps = 20
"""

IRS_CONFIG = """\
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

[fading]
mode = rayleigh
seed = 42

[sweep]
start = 5
stop = 100
steps = 20
trials = 10
seed = 42
"""


def readme_config() -> str:
    """The example config of README.md, its only ini block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


# integer key -> (its line in IRS_CONFIG, that line with the value left open)
INTEGER_KEYS = {
    "sweep.steps": ("steps = 20", "steps = {}"),
    "sweep.trials": ("trials = 10", "trials = {}"),
    "sweep.seed": ("trials = 10\nseed = 42", "trials = 10\nseed = {}"),
    "fading.seed": ("mode = rayleigh\nseed = 42", "mode = rayleigh\nseed = {}"),
    "panel.tx_side_elements": ("tx_side_elements = 100", "tx_side_elements = {}"),
    "panel.rx_side_elements": ("rx_side_elements = 100", "rx_side_elements = {}"),
}


class TestParseScenario:
    def test_minimal_conventional(self):
        scenario, spec = parse_scenario(CONVENTIONAL_CONFIG)
        assert scenario.irs is None and scenario.panel is None
        assert scenario.channel.tx_power == pytest.approx(1.0, rel=1e-12)
        assert scenario.interference.constant_power == pytest.approx(
            dbm_to_watts(-100.0), rel=1e-12)
        assert scenario.interference.interferers == ()
        assert spec.steps == 20

    def test_readme_example_parses(self):
        scenario, spec = parse_scenario(readme_config())
        assert scenario.irs == Point3(50, 0, 10)
        assert scenario.fading.mode is FadingMode.RAYLEIGH_EXPONENTIAL
        assert spec.trials == 100

    def test_irs_config(self):
        scenario, spec = parse_scenario(IRS_CONFIG)
        assert scenario.irs == Point3(50, 0, 10)
        assert scenario.panel.theta_t == 60.0
        # 10 dBi -> linear 10
        assert scenario.panel.tx_gain == pytest.approx(10.0, rel=1e-12)
        assert scenario.fading.mode is FadingMode.RAYLEIGH_EXPONENTIAL
        assert scenario.fading.seed == 42
        assert spec.trials == 10

    def test_fading_seed_must_repeat_sweep_seed(self):
        with pytest.raises(ConfigError, match=r"fading\.seed.*sweep\.seed"):
            parse_scenario(IRS_CONFIG.replace("[fading]\nmode = rayleigh\nseed = 42",
                                              "[fading]\nmode = rayleigh\nseed = 7"))
        # equal seeds, or no fading seed at all, are one seed
        assert parse_scenario(IRS_CONFIG)[0].fading.seed == 42
        scenario, spec = parse_scenario(IRS_CONFIG.replace("mode = rayleigh\nseed = 42\n",
                                                           "mode = rayleigh\n"))
        assert scenario.fading.seed == spec.seed == 42

    def test_theta_boundary_rejected(self):
        bad = IRS_CONFIG.replace("theta_t = 60", "theta_t = 90")
        with pytest.raises(ConfigError, match=r"theta_t must lie in \[0, 90\)"):
            parse_scenario(bad)

    def test_missing_key_named(self):
        bad = CONVENTIONAL_CONFIG.replace("frequency_hz = 28e9\n", "")
        with pytest.raises(ConfigError, match="channel.frequency_hz"):
            parse_scenario(bad)

    @pytest.mark.parametrize("old,new,name", [
        ("trials = 10", "trails = 100", r"unknown key sweep\.trails;"),
        ("mode = rayleigh", "mod = rayleigh", r"unknown key fading\.mod;"),
        ("irs = 50 0 10", "irs = 50 0 10\nrx_direciton = 0 1 0",
         r"unknown key geometry\.rx_direciton;"),
        ("[fading]", "[fadding]", r"unknown section \[fadding\]"),
        ("[sweep]", "[DEFAULT]\ntrials = 10\n[sweep]", r"\[DEFAULT\] is not supported"),
    ], ids=["sweep.trails", "fading.mod", "geometry.rx_direciton", "section", "DEFAULT"])
    def test_unknown_key_or_section_named(self, old, new, name):
        with pytest.raises(ConfigError, match=name):
            parse_scenario(IRS_CONFIG.replace(old, new))

    @pytest.mark.parametrize("old,new,message", [
        ("[sweep]\nstart = 5\nstop = 100\nsteps = 20\ntrials = 10\nseed = 42\n", "",
         "missing required section [sweep]"),
        ("tx = 0 0 10", "tx = 0 0", "geometry.tx must be three finite numbers 'x y z', got '0 0'"),
        # a config cannot model an interferer, so the receivers' ray changes no run
        ("irs = 50 0 10", "irs = 50 0 10\nrx_direction = 0 0 0",
         "unknown key geometry.rx_direction; [geometry] accepts mode, label, tx, irs"),
        ("steps = 20", "steps 20",
         "malformed configuration: Source contains parsing errors: '<string>' [line 31]: "
         "'steps 20\\n'"),
        ("[channel]\n", "frequency_hz = 28e9\n[channel]\n",
         "malformed configuration: File contains no section headers. file: '<string>', "
         "line: 1 'frequency_hz = 28e9\\n'"),
        ("element_length_m = 0.005", "element_length_m = 0",
         "panel: element_length must be finite and > 0, got 0.0"),
    ], ids=["no_sweep_section", "two_coordinates", "zero_rx_direction", "no_equals_sign",
            "no_section_header", "panel_element_length"])
    def test_diagnostic(self, old, new, message):
        assert IRS_CONFIG.count(old) == 1
        with pytest.raises(ConfigError) as caught:
            parse_scenario(IRS_CONFIG.replace(old, new))
        assert str(caught.value) == message

    def test_panel_in_conventional_mode_rejected(self):
        bad = CONVENTIONAL_CONFIG + "\n[panel]\nelement_length_m = 0.005\n"
        with pytest.raises(ConfigError, match=r"\[panel\]"):
            parse_scenario(bad)

    def test_negative_reflection_rejected(self):
        bad = IRS_CONFIG.replace("reflection_coefficient = 0.9",
                                 "reflection_coefficient = -0.1")
        with pytest.raises(ConfigError, match="reflection_coefficient"):
            parse_scenario(bad)

    def test_bad_sweep_bounds_rejected(self):
        bad = CONVENTIONAL_CONFIG.replace("stop = 100", "stop = 5")
        with pytest.raises(ConfigError, match="start must be < stop"):
            parse_scenario(bad)

    def test_model_flag(self):
        text = CONVENTIONAL_CONFIG.replace("[geometry]", "model = friis\n\n[geometry]")
        scenario, _ = parse_scenario(text)
        assert scenario.conventional_model is ConventionalModel.FRIIS

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    @pytest.mark.parametrize("name", list(INTEGER_KEYS))
    def test_non_finite_integer_named(self, name, value):
        old, new = INTEGER_KEYS[name]
        assert IRS_CONFIG.count(old) == 1
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be an integer")):
            parse_scenario(IRS_CONFIG.replace(old, new.format(value)))

    @pytest.mark.parametrize("old,new,name", [
        ("tx_power_dbm = 30", "tx_power_dbm = 4000", "tx_power"),
        ("noise_dbm = -94", "noise_dbm = inf", "noise_power"),
        ("interference_dbm = -100", "interference_dbm = 4000", "constant interference"),
        # -inf dBm is 0 W, which the Python API accepts as no interference floor
        ("interference_dbm = -100", "interference_dbm = -inf", "interference_dbm"),
        ("tx_gain_dbi = 10", "tx_gain_dbi = 4000", "tx_gain"),
        ("stop = 100", "stop = inf", "stop"),
    ])
    def test_non_finite_parameter_named(self, old, new, name):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            parse_scenario(IRS_CONFIG.replace(old, new))

    def test_values_are_literal(self):
        text = IRS_CONFIG.replace("irs = 50 0 10", "irs = 50 0 10\nlabel = 50% of %(mode)s")
        scenario, _ = parse_scenario(text)
        assert scenario.label == "50% of %(mode)s"

    def test_noise_requires_exactly_one_form(self):
        bad = CONVENTIONAL_CONFIG.replace(
            "noise_dbm = -94", "noise_dbm = -94\nnoise_bandwidth_hz = 100e6")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(bad)
        thermal = CONVENTIONAL_CONFIG.replace("noise_dbm = -94", "noise_bandwidth_hz = 100e6")
        scenario, _ = parse_scenario(thermal)
        assert scenario.channel.noise_power == pytest.approx(
            1.380649e-23 * 290.0 * 100e6, rel=1e-12)

    def test_integer_literal_is_exact(self):
        for seed in (9007199254740993, 2 ** 64 - 1):
            scenario, spec = parse_scenario(
                IRS_CONFIG.replace("seed = 42", f"seed = {seed}"))
            assert spec.seed == scenario.fading.seed == seed

    @pytest.mark.parametrize("value", ["9007199254740993.0", "1e16", "2.5"])
    def test_inexact_numeral_rejected(self, value):
        old, new = INTEGER_KEYS["sweep.seed"]
        message = f"sweep.seed must be an integer, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_scenario(IRS_CONFIG.replace(old, new.format(value)))

    @pytest.mark.parametrize("value,steps", [("1e2", 100), ("96.0", 96), ("+7", 7)])
    def test_whole_numeral_accepted(self, value, steps):
        _, spec = parse_scenario(IRS_CONFIG.replace("steps = 20", f"steps = {value}"))
        assert spec.steps == steps

    @pytest.mark.parametrize("config,mode", [(CONVENTIONAL_CONFIG, "conventional"),
                                             (IRS_CONFIG, "irs")])
    def test_mode_is_optional(self, config, mode):
        assert parse_scenario(config.replace(f"mode = {mode}\n", "")) == parse_scenario(config)

    @pytest.mark.parametrize("config,mode,wrong", [
        (CONVENTIONAL_CONFIG, "conventional", "irs"),
        (IRS_CONFIG, "irs", "conventional"),
        (IRS_CONFIG, "irs", "IRS"),
    ])
    def test_mode_must_agree_with_geometry(self, config, mode, wrong):
        with pytest.raises(ConfigError, match=r"geometry\.mode is '%s'.*make the link '%s'"
                           % (wrong, mode)):
            parse_scenario(config.replace(f"mode = {mode}\n", f"mode = {wrong}\n"))

    def test_irs_without_panel_rejected(self):
        text = IRS_CONFIG[:IRS_CONFIG.index("[panel]")] + IRS_CONFIG[IRS_CONFIG.index("[fading]"):]
        with pytest.raises(ConfigError, match=r"geometry\.irs and \[panel\] go together"):
            parse_scenario(text.replace("mode = irs\n", ""))


finite = st.floats(-1e3, 1e3)
positive = st.floats(1e-3, 1e3)
points = st.tuples(finite, finite, finite)
integers = st.integers(1, 10 ** 6)
labels = st.text(alphabet="abcXYZ019_%()-.,", min_size=1, max_size=12)
seeds = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(2 ** 53 - 2, 2 ** 53 + 2))


def optional(strategy):
    """A value, or None for a key left out of the config."""
    return st.one_of(st.none(), strategy)


@st.composite
def configs(draw):
    """An INI document with valid values and the Scenario/SweepSpec built from them directly."""
    channel = {"frequency_hz": draw(st.floats(1e6, 1e12)), "tx_power_dbm": draw(finite),
               "path_loss_exponent": draw(st.floats(0, 6)),
               "interference_dbm": draw(st.floats(-200, 100)),
               "model": draw(optional(st.sampled_from(ConventionalModel)))}
    noise_key = draw(st.sampled_from(["noise_dbm", "noise_bandwidth_hz"]))
    channel[noise_key] = draw(finite if noise_key == "noise_dbm" else positive)
    geometry = {"tx": draw(points), "irs": draw(optional(points)), "label": draw(optional(labels))}
    geometry["mode"] = draw(optional(st.just("conventional" if geometry["irs"] is None
                                             else "irs")))
    panel = None if geometry["irs"] is None else {
        "element_length_m": draw(positive), "element_width_m": draw(positive),
        "tx_side_elements": draw(integers), "rx_side_elements": draw(integers),
        "reflection_coefficient": draw(st.floats(1e-3, 1)),
        "tx_gain_dbi": draw(st.floats(-50, 50)), "rx_gain_dbi": draw(st.floats(-50, 50)),
        "theta_t": draw(st.floats(0, 89.9)), "theta_r": draw(st.floats(0, 89.9))}
    start = draw(positive)
    sweep = {"start": start, "stop": start + draw(positive),
             "steps": draw(st.integers(2, 10 ** 4)), "trials": draw(optional(integers)),
             "seed": draw(optional(seeds))}
    fading = draw(optional(st.fixed_dictionaries({
        "mode": optional(st.sampled_from(FadingMode)),
        "seed": optional(st.just(sweep["seed"] or 0))})))

    def ini(name, section):
        lines = [f"[{name}]"]
        for key, value in section.items():
            if value is None:
                continue
            if isinstance(value, tuple):
                value = " ".join(map(repr, value))
            elif isinstance(value, (float, int)):
                value = repr(value)
            lines.append(f"{key} = {getattr(value, 'value', value)}")
        return "\n".join(lines)

    sections = [("channel", channel), ("geometry", geometry), ("panel", panel),
                ("fading", fading), ("sweep", sweep)]
    text = "\n\n".join(ini(name, section) for name, section in sections if section is not None)

    def present(section, **names):
        return {arg: section[key] for arg, key in names.items() if section.get(key) is not None}

    spec = SweepSpec(start=sweep["start"], stop=sweep["stop"], steps=sweep["steps"],
                     **present(sweep, trials="trials", seed="seed"))
    noise = (dbm_to_watts(channel["noise_dbm"]) if noise_key == "noise_dbm"
             else thermal_noise_watts(channel["noise_bandwidth_hz"]))
    scenario = Scenario(
        channel=ChannelParams(carrier_frequency=channel["frequency_hz"],
                              tx_power=dbm_to_watts(channel["tx_power_dbm"]),
                              path_loss_exponent=channel["path_loss_exponent"],
                              noise_power=noise),
        fading=FadingModel(seed=spec.seed, **present(fading or {}, mode="mode")),
        interference=InterfererSet(constant_power=dbm_to_watts(channel["interference_dbm"])),
        tx=Point3(*geometry["tx"]),
        panel=None if panel is None else IrsPanel(
            element_length=panel["element_length_m"], element_width=panel["element_width_m"],
            tx_side_elements=panel["tx_side_elements"],
            rx_side_elements=panel["rx_side_elements"],
            reflection_coefficient=panel["reflection_coefficient"],
            tx_gain=ratio_from_db(panel["tx_gain_dbi"]),
            rx_gain=ratio_from_db(panel["rx_gain_dbi"]),
            theta_t=panel["theta_t"], theta_r=panel["theta_r"]),
        irs=None if geometry["irs"] is None else Point3(*geometry["irs"]),
        **present(channel, conventional_model="model"),
        **present(geometry, label="label"),
    )
    return text, scenario, spec


@settings(max_examples=200, deadline=None)
@given(configs())
def test_config_round_trip(case):
    text, scenario, spec = case
    assert parse_scenario(text) == (scenario, spec)


# A second value for every config key: each must change the JSON of the fig1
# or the fig2b document below (a document may reject it instead).
SECOND_VALUES = {
    "channel.frequency_hz": "3.5e9", "channel.tx_power_dbm": "20",
    "channel.path_loss_exponent": "3", "channel.noise_dbm": "-80",
    "channel.noise_bandwidth_hz": "20e6", "channel.interference_dbm": "-80",
    "channel.model": "friis",
    "geometry.label": "other", "geometry.tx": "0 0 20", "geometry.irs": "60 0 10",
    "panel.element_length_m": "0.01", "panel.element_width_m": "0.01",
    "panel.tx_side_elements": "50", "panel.rx_side_elements": "50",
    "panel.reflection_coefficient": "0.5", "panel.tx_gain_dbi": "5", "panel.rx_gain_dbi": "5",
    "panel.theta_t": "30", "panel.theta_r": "30",
    "fading.mode": "deterministic",
    "sweep.start": "10", "sweep.stop": "50", "sweep.steps": "5", "sweep.trials": "4",
    "sweep.seed": "7",
}
# Keys that restate what other keys already fix: document -> (agreeing, disagreeing)
REDUNDANT_VALUES = {
    "geometry.mode": {"fig1": ("conventional", "irs"), "fig2b": ("irs", "conventional")},
    "fading.seed": {"fig1": ("0", "7"), "fig2b": ("0", "7")},
}
# channel noise takes exactly one of these two keys
NOISE_KEYS = {"noise_dbm", "noise_bandwidth_hz"}


def key_document(name, key=None, value=None):
    """A preset document, Rayleigh on a 4-step 3-trial grid, with ``key`` set to ``value``."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(config._preset_text(name))
    parser["sweep"].update(steps="4", trials="3")
    parser["fading"] = {"mode": "rayleigh"}
    if key is not None:
        section, option = key.split(".")
        if option in NOISE_KEYS:
            parser.remove_option(section, next(iter(NOISE_KEYS - {option})))
        if not parser.has_section(section):
            parser.add_section(section)
        parser[section][option] = value
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


def key_document_json(text):
    return render_results([run_distance_sweep(*parse_scenario(text))], "json")


@pytest.mark.parametrize("key", [f"{section}.{option}" for section, kinds in config._KEYS.items()
                                 for option in kinds])
def test_every_key_changes_the_result_or_is_rejected(key):
    documents = {name: key_document_json(key_document(name)) for name in ("fig1", "fig2b")}
    if key in REDUNDANT_VALUES:
        for name, (agreeing, disagreeing) in REDUNDANT_VALUES[key].items():
            assert key_document_json(key_document(name, key, agreeing)) == documents[name]
            with pytest.raises(ConfigError, match=re.escape(key)):
                parse_scenario(key_document(name, key, disagreeing))
        return
    changed = []
    for name, unchanged in documents.items():
        try:
            changed.append(key_document_json(key_document(name, key, SECOND_VALUES[key]))
                           != unchanged)
        except ConfigError:
            pass
    assert any(changed), key


# Each preset built directly in Python, without a config document: the
# reference that build_preset must match.
REFERENCE_ASSUMPTIONS = (
    "cell radius assumed 100 m",
    "carrier 28 GHz, tx power 30 dBm, path-loss exponent 2",
    "noise floor k*T*B at 290 K over 100 MHz",
    "constant interference -100 dBm",
    "IRS sweeps vary the reflector-to-receiver leg along a fixed ray; "
    "the transmitter-to-reflector leg and both angles stay fixed",
)
# name -> (IRS position, theta_t, theta_r, assumptions beyond the defaults)
REFERENCE_IRS = {
    "fig1": None,
    "fig2a": (Point3(50.0, 0.0, 10.0), 45.0, 45.0, ()),
    "fig2b": (Point3(50.0, 0.0, 10.0), 60.0, 60.0, ()),
    "fig2c": (Point3(50.0, 0.0, 10.0), 45.0, 60.0, ()),
    "fig2d": (Point3(150.0, 0.0, 10.0), 60.0, 60.0,
              ("IRS placed 50 m beyond the cell edge on the deployment axis",)),
}


def reference_preset(name):
    irs = panel = None
    assumptions = ()
    if REFERENCE_IRS[name] is not None:
        irs, theta_t, theta_r, assumptions = REFERENCE_IRS[name]
        panel = IrsPanel(element_length=0.005, element_width=0.005, tx_side_elements=100,
                         rx_side_elements=100, reflection_coefficient=0.9, tx_gain=10.0,
                         rx_gain=10.0, theta_t=theta_t, theta_r=theta_r)
    scenario = Scenario(
        channel=ChannelParams(carrier_frequency=28e9, tx_power=dbm_to_watts(30.0),
                              path_loss_exponent=2.0, noise_power=thermal_noise_watts(100e6)),
        fading=FadingModel(),
        interference=InterfererSet(constant_power=dbm_to_watts(-100.0)),
        tx=Point3(0.0, 0.0, 10.0), panel=panel, irs=irs, label=name,
        assumptions=REFERENCE_ASSUMPTIONS + assumptions,
    )
    return scenario, SweepSpec(start=5.0, stop=100.0, steps=96)


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_the_python_construction(self, name):
        scenario, spec = build_preset(name)
        expected, expected_spec = reference_preset(name)
        for field in dataclasses.fields(Scenario):
            value, reference = getattr(scenario, field.name), getattr(expected, field.name)
            if field.name == "fading":  # every run sets the seed from its sweep
                value, reference = value.mode, reference.mode
            assert value == reference, field.name
        assert spec == expected_spec

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_text_runs_as_a_config(self, name, tmp_path, capsys):
        path = tmp_path / f"{name}.ini"
        path.write_text(config._preset_text(name), encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["sweep", "--config", str(path)]) == 0
        from_text = capsys.readouterr().out
        assert main(["sweep", "--preset", name]) == 0
        assert from_text == capsys.readouterr().out

    def test_inventory(self):
        assert PRESET_NAMES == ("fig1", "fig2a", "fig2b", "fig2c", "fig2d")

    def test_fig2b_angles(self):
        scenario, _ = build_preset("fig2b")
        assert scenario.panel.theta_t == 60.0
        assert scenario.panel.theta_r == 60.0

    def test_fig1_is_conventional(self):
        scenario, _ = build_preset("fig1")
        assert scenario.irs is None and scenario.panel is None

    def test_fig2d_irs_beyond_edge(self):
        scenario, _ = build_preset("fig2d")
        assert scenario.irs.x == 150.0

    def test_assumptions_present(self):
        scenario, _ = build_preset("fig1")
        assert any("cell radius" in note for note in scenario.assumptions)

    def test_unknown_preset_named(self):
        with pytest.raises(InvalidInputError) as caught:
            build_preset("fig3")
        assert str(caught.value) == (
            "unknown preset 'fig3'; available: fig1, fig2a, fig2b, fig2c, fig2d")


def run_preset(name, **spec_overrides):
    scenario, spec = build_preset(name)
    if spec_overrides:
        spec = dataclasses.replace(spec, **spec_overrides)
    return run_distance_sweep(scenario, spec)


class TestEmitResults:
    def test_csv_row_count_and_header(self):
        result = run_preset("fig1", steps=3)
        text = render_results([result], "csv")
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert text.endswith("\n")

    def test_csv_byte_identical(self, tmp_path):
        result = run_preset("fig2b", steps=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results([result], "csv", a)
        emit_results([result], "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_round_trip(self, tmp_path):
        result = run_preset("fig2a", steps=5)
        path = tmp_path / "out.json"
        emit_results([result], "json", path)
        payload = json.loads(path.read_text())
        assert payload[0]["label"] == "fig2a"
        assert payload[0]["metadata"]["seed"] == 0
        assert payload[0]["rows"] == [list(row) for row in zip(*result.columns)]

    def test_empty_results_rejected(self, tmp_path):
        path = tmp_path / "out"
        for results in ([], iter([])):  # an iterator is not falsy until it is read
            for fmt in ("csv", "json"):
                with pytest.raises(InvalidInputError, match="no results to emit"):
                    render_results(results, fmt)
                with pytest.raises(InvalidInputError, match="no results to emit"):
                    emit_results(results, fmt, path)
        assert not path.exists()

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidInputError) as caught:
            render_results([run_preset("fig1", steps=2)], "xml")
        assert str(caught.value) == "format must be 'csv' or 'json', got 'xml'"


class TestCli:
    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        names = [line.split("\t")[0] for line in out.strip().splitlines()]
        assert names == list(PRESET_NAMES)

    def test_sweep_preset_monotone(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert main(["sweep", "--preset", "fig1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        sinr_db = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(a > b for a, b in zip(sinr_db, sinr_db[1:]))

    def test_sweep_config_file(self, tmp_path):
        config = tmp_path / "scenario.ini"
        config.write_text(IRS_CONFIG)
        out = tmp_path / "out.json"
        assert main(["sweep", "--config", str(config), "--out", str(out),
                     "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert payload[0]["metadata"]["seed"] == 42
        assert len(payload[0]["rows"]) == 20

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_non_finite_integer_is_a_diagnostic(self, tmp_path, capsys, command):
        config = tmp_path / "steps.ini"
        config.write_text(CONVENTIONAL_CONFIG.replace("steps = 20", "steps = inf"))
        args = ["sweep", "--config", str(config)] if command == "sweep" else [command, str(config)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err == "error: sweep.steps must be an integer, got 'inf'\n"

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_byte_order_mark_is_ignored(self, tmp_path, capsys, command):
        config = tmp_path / "bom.ini"
        config.write_bytes(b"\xef\xbb\xbf" + CONVENTIONAL_CONFIG.encode("utf-8"))
        args = ["sweep", "--config", str(config)] if command == "sweep" else [command, str(config)]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if command == "sweep":
            assert captured.out.splitlines()[0] == CSV_HEADER
            assert len(captured.out.splitlines()) == 21

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_config_that_is_not_utf8_is_a_diagnostic(self, tmp_path, capsys, command):
        config = tmp_path / "utf16.ini"
        config.write_bytes(b"\xff\xfe" + CONVENTIONAL_CONFIG.encode("utf-16-le"))
        args = ["sweep", "--config", str(config)] if command == "sweep" else [command, str(config)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config} is not UTF-8 text: invalid start byte at byte 0\n"

    @pytest.mark.parametrize("command", ["sweep", "validate"])
    def test_malformed_config_diagnostic_names_the_file(self, tmp_path, capsys, command):
        config = tmp_path / "bad.ini"
        config.write_text("[channel]\nfoo\n")
        args = ["sweep", "--config", str(config)] if command == "sweep" else [command, str(config)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: malformed configuration: Source contains parsing errors: "
                                f"{str(config)!r} [line  2]: 'foo\\n'\n")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_percent_label_reaches_output(self, tmp_path, fmt):
        config = tmp_path / "load.ini"
        config.write_text(
            CONVENTIONAL_CONFIG.replace("tx = 0 0 10", "tx = 0 0 10\nlabel = 50% load"))
        out = tmp_path / f"out.{fmt}"
        assert main(["validate", str(config)]) == 0
        assert main(["sweep", "--config", str(config), "--format", fmt, "--out", str(out)]) == 0
        if fmt == "json":
            assert json.loads(out.read_text())[0]["label"] == "50% load"
        else:
            assert out.read_text().splitlines()[1].startswith("50% load,5.000000,")

    def test_csv_label_with_comma_and_quote_is_quoted(self, tmp_path):
        label = 'a"b é,x'
        config = tmp_path / "quoted.ini"
        config.write_text(
            CONVENTIONAL_CONFIG.replace("tx = 0 0 10", f"tx = 0 0 10\nlabel = {label}"),
            encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        with out.open(encoding="utf-8", newline="") as handle:
            table = list(csv.reader(handle))
        assert table[0] == CSV_HEADER.split(",")
        assert len(table) == 21
        assert all(len(row) == 5 and row[0] == label for row in table[1:])

    def test_validate_rejects_infinite_stop(self, tmp_path, capsys):
        config = tmp_path / "stop.ini"
        config.write_text(CONVENTIONAL_CONFIG.replace("stop = 100", "stop = inf"))
        assert main(["validate", str(config)]) == 1
        assert capsys.readouterr().err == (
            "error: sweep: sweep start and stop must be finite, got [5.0, inf]\n")

    def test_validate_rejects_the_readme_config_starting_at_zero(self, tmp_path, capsys):
        """validate runs the same grid checks as sweep: every point is a distance > 0."""
        config = tmp_path / "start.ini"
        assert readme_config().count("\nstart = 5\n") == 1
        config.write_text(readme_config().replace("\nstart = 5\n", "\nstart = 0\n"))
        assert main(["validate", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sweep: sweep start must be > 0, got 0.0\n"

    def test_sweep_rejects_a_grid_that_repeats_points(self, capsys):
        """A step below the float spacing at start would write rows with equal x."""
        assert main(["sweep", "--preset", "fig1", "--start", "1e16",
                     "--stop", "1.0000000000000002e16", "--steps", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sweep grid from start 1e+16 to stop 1.0000000000000002e+16 in 5 steps"
            " repeats points: its step 0.5 is below the float spacing at 1e+16\n")

    def test_sweep_rejects_more_steps_than_a_float_index_holds(self, capsys):
        """Rejected before any array is built, so it allocates nothing."""
        assert main(["sweep", "--preset", "fig1", "--steps", str(2**62)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: sweep grid from start 5.0 to stop 100.0 in {2**62} steps"
            " has too many points: steps must be <= 2**53\n")

    def test_memory_error_is_a_diagnostic(self, monkeypatch, capsys):
        def exhausted(scenario, spec):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr("irssim.cli.run_distance_sweep", exhausted)
        assert main(["sweep", "--preset", "fig1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Unable to allocate 7.28 TiB for an array\n"

    @pytest.mark.parametrize("changes,power", [
        ({"tx_power_dbm = 30": "tx_power_dbm = -3200"}, "0.0"),
        ({"tx_power_dbm = 30": "tx_power_dbm = 3070", "_gain_dbi = 10": "_gain_dbi = 200"}, "inf"),
    ])
    def test_link_budget_outside_float_range_is_a_diagnostic(
            self, tmp_path, capsys, changes, power):
        text = readme_config()
        for old, new in changes.items():
            assert old in text
            text = text.replace(old, new)
        config = tmp_path / "budget.ini"
        config.write_text(text)
        assert main(["validate", str(config)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(config)]) == 1
        assert capsys.readouterr().err == (
            f"error: sweep point x=5.0: received power {power} W is outside the float range;"
            " check the link budget\n")

    def test_degenerate_geometry_is_a_single_diagnostic(self, tmp_path, capsys):
        text = readme_config()
        assert "irs = 50 0 10\n" in text
        config = tmp_path / "degenerate.ini"
        config.write_text(text.replace("irs = 50 0 10\n", "irs = 0 0 10\n"))
        assert main(["sweep", "--config", str(config)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: sweep point x=5.0: transmitter and reflector coincide (r1 = 0)\n")

    def test_huge_finite_link_budget_gives_finite_rows(self, tmp_path, capsys):
        # no reflector, 3070 dBm (1e304 W): the SINR ratio itself exceeds the
        # float range, its dB value does not
        text = re.sub(r"\[panel\].*?\n\n", "", readme_config(), flags=re.DOTALL)
        text = text.replace("irs = 50 0 10\n", "").replace(
            "tx_power_dbm = 30", "tx_power_dbm = 3070")
        assert "[panel]" not in text and "irs" not in text
        config = tmp_path / "huge.ini"
        config.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(config)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 96
        values = [float(v) for row in rows for v in row.split(",")[1:]]
        assert all(math.isfinite(v) for v in values)
        assert float(rows[0].split(",")[3]) > 3000.0

    def test_validate_good_and_bad(self, tmp_path, capsys):
        good = tmp_path / "good.ini"
        good.write_text(CONVENTIONAL_CONFIG)
        assert main(["validate", str(good)]) == 0

        bad = tmp_path / "bad.ini"
        bad.write_text(IRS_CONFIG.replace("theta_t = 60", "theta_t = 95"))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "theta_t" in err
        assert err.count("\n") == 1  # single-line diagnostic

    def test_missing_config_file_errors(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.ini")]) == 1

    def test_overrides_apply(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["sweep", "--preset", "fig1", "--seed", "9", "--trials", "4",
                     "--steps", "7", "--out", str(out), "--format", "json"]) == 0
        metadata = json.loads(out.read_text())[0]["metadata"]
        assert metadata["seed"] == 9
        assert metadata["trials"] == 4
        assert len(json.loads(out.read_text())[0]["rows"]) == 7

    def test_conventional_model_flag(self, tmp_path):
        out_paper = tmp_path / "paper.json"
        out_friis = tmp_path / "friis.json"
        main(["sweep", "--preset", "fig1", "--out", str(out_paper), "--format", "json"])
        main(["sweep", "--preset", "fig1", "--conventional-model", "friis",
              "--out", str(out_friis), "--format", "json"])
        paper = json.loads(out_paper.read_text())[0]
        friis = json.loads(out_friis.read_text())[0]
        assert friis["metadata"]["conventional_model"] == "friis"
        # friis carries one extra wavelength factor (about -19.7 dB at 28 GHz)
        lam_db = 10.0 * math.log10(299792458.0 / 28e9)
        assert friis["rows"][0][2] - paper["rows"][0][2] == pytest.approx(lam_db, abs=1e-9)

    def test_negative_seed_is_a_diagnostic(self, capsys):
        assert main(["sweep", "--preset", "fig1", "--fading", "rayleigh", "--seed", "-1"]) == 1
        assert "seed must lie in [0, 2**64)" in capsys.readouterr().err

    def test_rayleigh_json_byte_identical(self, tmp_path):
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["sweep", "--preset", "fig2b", "--fading", "rayleigh", "--seed", "42",
                         "--trials", "100", "--format", "json", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_module_entry_point_prints_what_main_prints(self, capsys):
        proc = subprocess.run([sys.executable, "-m", "irssim", "presets"],
                              capture_output=True, text=True)
        assert main(["presets"]) == 0
        assert proc.returncode == 0
        assert proc.stdout == capsys.readouterr().out
        assert proc.stderr == ""

    def test_cli_module_prints_what_the_package_prints(self):
        # runs the __main__ block of irssim.cli, which python -m irssim does not
        printed = [subprocess.run([sys.executable, "-m", module, "presets"],
                                  capture_output=True, text=True)
                   for module in ("irssim.cli", "irssim")]
        assert [proc.returncode for proc in printed] == [0, 0]
        assert printed[0].stdout == printed[1].stdout != ""
        assert [proc.stderr for proc in printed] == ["", ""]

    def test_unknown_flag_exits_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "irssim", "sweep", "--bogus"],
            capture_output=True, text=True)
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower()
