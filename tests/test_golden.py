"""Pinned outputs: the engine must reproduce these files byte for byte.

The files under tests/golden/ were written by the scalar per-point engine that
preceded the array kernel: every preset at its default 96-step grid, both
deterministic and with Rayleigh fading (seed 42, 100 trials), and a small
placement ranking with two modeled interferers. The two JSON files (fig1
deterministic, fig2b Rayleigh) hold every value at full precision. They were
rewritten once, when the kernel began to add the per-receiver fading term to
each position's signal in dB instead of taking the log of their product: 95
and 159 of their 384 values moved, by at most 5.3e-14 dB (1.9e-15 relative),
and no CSV byte changed. Two files were added later, written by the array
kernel before the presets became config documents: fig2d_deterministic.json
pins the metadata of the one preset with an assumption of its own, and
fig1_friis_deterministic.csv pins the `friis` direct-link formula
(`--conventional-model friis`). placement_fig2b_seed7_interferers.json holds the
placement ranking at full precision, and the fading statistics of the
same scenario at one receiver (its `monte_carlo` block), so that a last-bit
change in the interference sum shows; it was written before the interference
sum moved into the sweep kernel. That block is the kernel's one-receiver
statistics. It lost its `p5_sinr_db` and `p95_sinr_db` lines when the
percentile option was deleted with the public function that alone used it;
no other byte of the file changed. Regenerate them only with a change that is
meant to alter results, and say why and by how much in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import dataclasses
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from irssim import (
    PRESET_NAMES,
    ChannelParams,
    FadingModel,
    InterfererSet,
    Point3,
    SweepSpec,
    build_preset,
    compare_placement,
)
from irssim import sweep
from irssim.channel import FadingMode
from irssim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RAYLEIGH_FLAGS = ("--fading", "rayleigh", "--seed", "42", "--trials", "100")
SWEEPS = {
    **{f"{name}_deterministic.csv": ("--preset", name) for name in PRESET_NAMES},
    **{f"{name}_rayleigh_seed42_trials100.csv": ("--preset", name) + RAYLEIGH_FLAGS
       for name in PRESET_NAMES},
    "fig1_deterministic.json": ("--preset", "fig1", "--format", "json"),
    "fig2b_rayleigh_seed42_trials100.json": ("--preset", "fig2b", "--format", "json")
    + RAYLEIGH_FLAGS,
    "fig2d_deterministic.json": ("--preset", "fig2d", "--format", "json"),
    "fig1_friis_deterministic.csv": ("--preset", "fig1", "--conventional-model", "friis"),
}
PLACEMENT = "placement_fig2b_seed7.csv"
INTERFERERS = "placement_fig2b_seed7_interferers.json"
CANDIDATES = [Point3(x, y, 10.0) for x in (20.0, 45.0, 70.0, 95.0) for y in (-30.0, 0.0, 30.0)]
RECEIVERS = [Point3(10.0 * k, 7.0 * (k - 3), 1.5) for k in range(1, 7)]
SPEC = SweepSpec(start=1.0, stop=2.0, steps=2, trials=20, seed=7)


def sweep_output(args) -> str:
    """What `irssim sweep ARGS` writes to stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["sweep", *args]) == 0
    return out.getvalue()


def interferer_scenario():
    """fig2b with Rayleigh fading (seed 7) and two modeled 1 W (30 dBm) interferers."""
    scenario, _ = build_preset("fig2b")
    interferer = ChannelParams(carrier_frequency=28e9, tx_power=1.0,
                               path_loss_exponent=2.0, noise_power=1e-12)
    return dataclasses.replace(
        scenario,
        fading=FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=7),
        interference=InterfererSet.modeled([
            (interferer, Point3(200.0, 0.0, 10.0)),
            (interferer, Point3(-120.0, 90.0, 10.0)),
        ]))


def placement_csv() -> str:
    """IRS ranking on fig2b: 4x3 candidates, 6 receivers, 20 trials, two interferers."""
    report = compare_placement(interferer_scenario(), CANDIDATES, RECEIVERS, SPEC)
    lines = ["irs_x,irs_y,irs_z,min_sinr_db," + ",".join(f"rx{k}" for k in range(len(RECEIVERS)))]
    for entry in report.entries:
        p = entry.irs_position
        values = [p.x, p.y, p.z, entry.min_sinr_db, *entry.per_rx_sinr_db]
        lines.append(",".join(f"{v:.6f}" for v in values))
    return "\n".join(lines) + "\n"


def interferers_json() -> str:
    """The ranking of placement_csv and the kernel's fading statistics at its
    third receiver (1 000 trials), every float written with repr."""
    scenario = interferer_scenario()
    report = compare_placement(scenario, CANDIDATES, RECEIVERS, SPEC)
    trials, seed = 1000, 7
    stats = sweep._evaluate(scenario, sweep._as_array([scenario.irs]),
                            sweep._as_array([RECEIVERS[2]]), trials, seed, where=lambda k, p: "")
    return json.dumps({
        "placement": [{**entry._asdict(), "irs_position": dataclasses.asdict(entry.irs_position)}
                      for entry in report.entries],
        "monte_carlo": {"mean_sinr_db": float(stats.sinr_db[0, 0]),
                        "stddev_sinr_db": float(stats.sinr_db_stddev[0]),
                        "mean_rx_power_w": float(stats.power[0, 0]),
                        "trials": trials, "seed": seed},
    }, indent=1) + "\n"


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_matches_golden(name):
    assert sweep_output(SWEEPS[name]).encode("utf-8") == (GOLDEN / name).read_bytes()


def test_placement_matches_golden():
    assert placement_csv().encode("utf-8") == (GOLDEN / PLACEMENT).read_bytes()


def test_interferers_match_golden():
    assert interferers_json().encode("utf-8") == (GOLDEN / INTERFERERS).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, args in SWEEPS.items():
        (GOLDEN / name).write_text(sweep_output(args), encoding="utf-8", newline="\n")
    (GOLDEN / PLACEMENT).write_text(placement_csv(), encoding="utf-8", newline="\n")
    (GOLDEN / INTERFERERS).write_text(interferers_json(), encoding="utf-8", newline="\n")
