"""Config parsing, result emission, and CLI behavior."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from irssim import (
    ConfigError,
    PRESET_NAMES,
    Point3,
    build_preset,
    dbm_to_watts,
    emit_results,
    parse_scenario,
    run_distance_sweep,
)
from irssim.channel import ConventionalModel, FadingMode
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
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
        assert len(blocks) == 1
        scenario, spec = parse_scenario(blocks[0])
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

    def test_noise_requires_exactly_one_form(self):
        bad = CONVENTIONAL_CONFIG.replace(
            "noise_dbm = -94", "noise_dbm = -94\nnoise_bandwidth_hz = 100e6")
        with pytest.raises(ConfigError, match="exactly one"):
            parse_scenario(bad)
        thermal = CONVENTIONAL_CONFIG.replace("noise_dbm = -94", "noise_bandwidth_hz = 100e6")
        scenario, _ = parse_scenario(thermal)
        assert scenario.channel.noise_power == pytest.approx(
            1.380649e-23 * 290.0 * 100e6, rel=1e-12)


class TestPresets:
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


def run_preset(name, **spec_overrides):
    import dataclasses

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
        for row, expected in zip(payload[0]["rows"], result.rows):
            assert row == [expected.x, expected.rx_power_dbm,
                           expected.sinr_db, expected.sinr_db_stddev]

    def test_empty_results_rejected(self):
        from irssim.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            render_results([], "csv")


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

    def test_unknown_flag_exits_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "irssim", "sweep", "--bogus"],
            capture_output=True, text=True)
        assert proc.returncode != 0
        assert "usage" in proc.stderr.lower()
