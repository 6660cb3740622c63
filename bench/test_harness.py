"""Fast smoke test of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/test_harness.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def one_setup_launch(monkeypatch):
    monkeypatch.setattr(run, "SETUP_LAUNCHES", 1)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_run_checks_pass(name):
    result = run.measure(name, seed=3, seconds=0.05, trace=False, size="smoke")["result"]
    assert result["failed"] == 0 and result["attempted"] > 0
    metrics = {k: v["unit"] for k, v in result["metrics"].items()}
    assert metrics == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_self_times_account_for_wall_time(name):
    run_out = run.measure(name, seed=3, seconds=0.05, trace=True, size="smoke")
    result = run_out["result"]
    assert result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    self_s = sum(v for k, v in values.items()
                 if k.endswith(".self_s") and not k.startswith("setup."))
    assert self_s + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])
    assert 0 <= values["trace.unattributed_s"] <= 0.05 * values["trace.wall_s"]
    assert values["output.json_bytes_identical"] == run_out["context"]["output.json_bytes_identical"]


def test_layer_counts_at_smoke_size():
    counts = {}
    for name in workloads.WORKLOADS:
        metrics = run.measure(name, seed=3, seconds=0.01, trace=True, size="smoke")["result"]["metrics"]
        counts[name] = {k: v["value"] for k, v in metrics.items()}
    steps, trials = workloads.FigureSweeps.SIZES["smoke"]
    figures = counts["figure_sweeps"]
    assert figures["sweep.points"] == 5 * steps
    assert figures["geometry.calls"] == figures["channel.power.calls"] == 5 * steps
    assert figures["channel.fading.draws"] == 5 * steps * trials
    # the five presets share one seed and stream layout
    assert figures["channel.fading.useful_ratio"] == pytest.approx(0.2)
    assert figures["output.bytes"] > 0

    (nx, ny), n_rx, trials = workloads.PlacementSearch.SIZES["smoke"]
    placement = counts["placement_search"]
    pairs = nx * ny * n_rx
    assert placement["sweep.points"] == pairs
    # one cascaded power per pair plus one direct power per interferer
    assert placement["channel.power.links"] == 3 * pairs
    assert placement["sinr.calls"] == pairs
    assert placement["channel.fading.draws"] == pairs * (trials + 2)
    assert placement["channel.fading.useful_ratio"] == pytest.approx(1.0 / (nx * ny))
    assert placement["output.bytes"] == 0 and placement["output.self_s"] == 0


def test_oracle_catches_a_small_power_error(monkeypatch):
    sweep = sys.modules["irssim.sweep"]
    original = sweep.irs_rx_power
    monkeypatch.setattr(sweep, "irs_rx_power", lambda *a, **k: original(*a, **k) * 1.0001)
    workload = workloads.build("figure_sweeps", 3, "smoke")
    checks = workloads.Checks()
    workload.check(workload.iterate(), checks)
    assert checks.failed > 0
    assert any("deterministic" in name for name in checks.failures)


def test_tracer_restores_engine_functions():
    import tracer

    sweep = sys.modules["irssim.sweep"]
    before = sweep.run_distance_sweep
    with tracer.Tracer():
        assert sweep.run_distance_sweep is not before
    assert sweep.run_distance_sweep is before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figure_sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
