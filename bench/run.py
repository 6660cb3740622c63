"""irssim benchmark: time to a correct result, per workload.

Usage (from the repository root):
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all --seconds S     # every workload, one table

NAME is figure_sweeps, deep_trials or placement_search (see workloads.py).
A run builds the workload, runs one warm-up iteration whose output is checked
against the oracle, then repeats identical iterations for S seconds, each
checked for identical bytes; cold set-up in a fresh interpreter is timed after
every third untraced iteration. --trace 0 reports the end-to-end metrics, with
times in reference seconds (see reference_s); --trace 1 spends half of S
untraced and half traced and reports per-layer counts and self times in wall
seconds. The last line of stdout is
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count output checks; the line before it records the machine and run context.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 5  # cold starts at least, topped up after a short run
SETUP_EVERY = 3  # untraced iterations per cold start
# About the median wall time of each reference kernel on a 2-vCPU Xeon host.
REFERENCE_NOMINAL_S = {"interpreter": 0.009, "numpy": 0.018}
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "link_evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "sweep.self_s": "s", "sweep.points": "count",
    "geometry.calls": "count", "geometry.self_s": "s",
    "channel.power.calls": "count", "channel.power.links": "count",
    "channel.power.self_s": "s",
    "channel.fading.calls": "count", "channel.fading.draws": "count",
    "channel.fading.self_s": "s", "channel.fading.useful_ratio": "ratio",
    "sinr.calls": "count", "sinr.self_s": "s",
    "output.self_s": "s", "output.bytes": "bytes", "output.json_bytes_identical": "count",
    "setup.import_s": "s", "setup.scenario_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_s": "s",
}


# The kernels allocate nothing from the heap above malloc's mmap threshold
# (128 KiB): freeing such a block raises glibc's dynamic threshold, after which
# deep_trials runs twice as fast as it does on its own.
def _interpreter_kernel() -> None:
    acc, table = 0.0, {}
    for i in range(40_000):
        acc += (i * 1.0001) ** 0.5
        table[i & 255] = acc


def _numpy_kernel() -> None:
    """Draws and reductions in 80 KB blocks, plus first-touch page faults.

    An iteration of deep_trials spends about half its time in the operating
    system, faulting in the fresh pages of its 800 KB arrays; the faults here
    come from 1 MiB anonymous mappings made outside malloc, one at a time so
    that they add nothing to peak memory.
    """
    counters = np.arange(10_000, dtype=np.uint64)
    for block in range(30):
        # exponential draws from hashed counters, in the program's own style;
        # numpy.random would page in code the workloads never load
        mixed = (counters + np.uint64(block)) * np.uint64(0x9E3779B97F4A7C15)
        mixed ^= mixed >> np.uint64(29)
        uniform = (mixed >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54
        decibels = 10.0 * np.log10(-np.log(uniform))
        decibels.mean()
        decibels.std()
    for _ in range(16):
        with mmap.mmap(-1, 1 << 20) as fresh:
            pages = np.frombuffer(fresh, dtype=np.float64)
            pages[::512] = 1.0  # one write per 4 KiB page
            del pages


REFERENCE_KERNELS = {"interpreter": _interpreter_kernel, "numpy": _numpy_kernel}


def reference_s(kind: str) -> float:
    """Wall time of one run of a fixed reference kernel that uses no irssim code.

    A shared host changes speed by up to 2x in phases lasting seconds to
    minutes, and the workloads slow down with it. Gated times are therefore
    reported in reference seconds: wall time scaled by REFERENCE_NOMINAL_S over
    this kernel's time next to the timed interval. The kernel is of the kind
    of work that dominates the workload (its `bound_by`): an interpreter loop,
    or numpy draws with page faults, which follow the host's phases differently.
    The host's speed cancels; a change to the program does not. Raw wall
    times go to the context line.
    """
    start = perf_counter()
    REFERENCE_KERNELS[kind]()
    return perf_counter() - start


def adjusted(walls, ref_times, kind: str):
    """Wall times in reference seconds; ref_times[i] is the reference time around walls[i]."""
    return [wall * REFERENCE_NOMINAL_S[kind] / ref for wall, ref in zip(walls, ref_times)]


def cold_start(workload: str, seed: int) -> tuple:
    """One fresh interpreter importing irssim and building the scenarios.

    Returns (wall, import_s, scenario_s) in wall seconds.
    """
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    wall = perf_counter() - start
    probe = json.loads(proc.stdout.splitlines()[-1])
    return wall, probe["import_s"], probe["scenario_s"]


def summarise_setup(starts, ref_times, kind: str) -> dict:
    """Median cold start, also in reference seconds.

    One launch is too short for the reference time next to it to track the
    host's speed, so the run's median reference time scales the median launch;
    the launches are spread over the run for that reason.
    """
    walls, imports, scenarios = zip(*starts)
    wall = statistics.median(walls)
    return {"setup_s": wall * REFERENCE_NOMINAL_S[kind] / statistics.median(ref_times),
            "setup_wall_s": wall,
            "setup.import_s": statistics.median(imports),
            "setup.scenario_s": statistics.median(scenarios),
            "launches": len(starts)}


def run_iterations(workload, seconds: float, reference, checks, tracer=None, starts=None):
    """Repeat the workload for `seconds` (at least once).

    Returns wall times, the mean reference time before and after each,
    tracer snapshots and the count of JSON outputs identical to the reference
    output. Given a list `starts`, a cold start is appended after every
    SETUP_EVERY-th iteration, so that set-up is sampled across the whole run
    rather than in one phase of the host's speed.
    """
    walls, ref_times, snapshots, json_identical = [], [], [], 0
    deadline = perf_counter() + seconds
    while not walls or perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        before = reference_s(workload.bound_by)
        start = perf_counter()
        out = workload.iterate()
        walls.append(perf_counter() - start)
        ref_times.append((before + reference_s(workload.bound_by)) / 2.0)
        if tracer is not None:
            snapshots.append(tracer.snapshot())
        checks.expect("same seed gives identical output bytes",
                      out.identity() == reference.identity())
        # metadata.timestamp makes JSON differ between runs; counted, not checked
        if out.json is not None:
            json_identical += out.json == reference.json
        if starts is not None and len(walls) % SETUP_EVERY == 0:
            starts.append(cold_start(workload.name, workload.seed))
    return walls, ref_times, snapshots, json_identical


def tail(samples):
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    if len(samples) <= TAIL_BEYOND:
        return None, None
    ordered = sorted(samples)
    index = len(ordered) - 1 - TAIL_BEYOND
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(workload, walls, ref_times, setup) -> tuple:
    runs = adjusted(walls, ref_times, workload.bound_by)
    tail_value, tail_percentile = tail(runs)
    metrics = {
        "setup_s": setup["setup_s"],
        "run_s": statistics.median(runs),
        # work completed per reference second over the whole measured interval
        "link_evals_per_s": workload.link_evals * len(runs) / sum(runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # the tail is reported but not gated: later changes are judged on the
    # median, and on a shared host the tail moves by about a fifth between runs
    context = {"run_s_tail": tail_value, "run_s_tail_percentile": tail_percentile,
               "reference_kernel": workload.bound_by,
               "wall": {"setup_s": setup["setup_wall_s"], "run_s": statistics.median(walls),
                        "reference_s": statistics.median(ref_times)},
               "samples": {"setup_s": setup["launches"], "run_s": len(runs),
                           "run_s_tail": len(runs), "link_evals_per_s": len(runs),
                           "peak_rss_mb": 1},
               "link_evals_per_iteration": workload.link_evals}
    return metrics, context


def per_layer(plain, traced, snapshots, setup) -> tuple:
    """Mean per traced iteration of each layer's numbers, plus set-up and tracing cost."""
    metrics = {name: sum(s[name] for s in snapshots) / len(snapshots) for name in snapshots[0]}
    wall = sum(traced) / len(traced)
    self_s = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    metrics.update({
        "setup.import_s": setup["setup.import_s"],
        "setup.scenario_s": setup["setup.scenario_s"],
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - self_s,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    })
    context = {"samples": {"untraced_run_s": len(plain), "traced_run_s": len(traced),
                           "setup": setup["launches"]}}
    return metrics, context


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_context() -> dict:
    import irssim

    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "irssim": irssim.__version__, "git_sha": git_sha()}


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    import tracer
    import workloads

    cold_start(name, seed)  # compiles bytecode; not counted
    workload = workloads.build(name, seed, size)
    checks = workloads.Checks()
    reference = workload.iterate()
    starts = []
    if trace:
        plain, ref_times, _, same_plain = run_iterations(
            workload, seconds / 2, reference, checks, starts=starts)
        while len(starts) < SETUP_LAUNCHES:
            starts.append(cold_start(name, seed))
        setup = summarise_setup(starts, ref_times, workload.bound_by)
        with tracer.Tracer() as active:
            traced, _, snapshots, same_traced = run_iterations(
                workload, seconds / 2, reference, checks, active)
        json_identical = same_plain + same_traced
        iterations = len(plain) + len(traced)
        metrics, context = per_layer(plain, traced, snapshots, setup)
        metrics["output.json_bytes_identical"] = json_identical
    else:
        walls, ref_times, _, json_identical = run_iterations(
            workload, seconds, reference, checks, starts=starts)
        while len(starts) < SETUP_LAUNCHES:
            starts.append(cold_start(name, seed))
        setup = summarise_setup(starts, ref_times, workload.bound_by)
        iterations = len(walls)
        metrics, context = end_to_end(workload, walls, ref_times, setup)
    try:
        workload.check(reference, checks)
    except Exception:  # a check that cannot run on this output counts as failed
        traceback.print_exc()
        checks.expect("output checks ran to completion", False)
    context.update(machine_context())
    context.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "check_fail_rate": checks.failed / checks.attempted,
        "output.json_bytes_identical": json_identical,
        "json_iterations_compared": iterations if reference.json is not None else 0,
        "failed_checks": sorted(set(checks.failures)),
    })
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {"context": context,
            "result": {"correct": checks.failed == 0, "attempted": checks.attempted,
                       "failed": checks.failed,
                       "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}}


def print_table(workload: str, result: dict, context: dict) -> None:
    rows = [(metric, entry["value"], entry["unit"]) for metric, entry in result["metrics"].items()]
    if context.get("run_s_tail") is not None:
        rows.append((f"run_s_tail (p{context['run_s_tail_percentile']:.0f})",
                     context["run_s_tail"], "s"))
    rows.append(("check_fail_rate", result["failed"] / result["attempted"],
                 f"({result['failed']}/{result['attempted']} checks)"))
    for metric, value, unit in rows:
        print(f"{workload:<18} {metric:<30} {value:>14.6g} {unit}")


def run_all(names, args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *_, context_line, result_line = proc.stdout.splitlines()
        result = json.loads(result_line)
        print_table(name, result, json.loads(context_line)["context"])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{metric}": entry for metric, entry in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    if not (SRC / "irssim" / "__init__.py").is_file():
        print(f"error: no irssim sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = tuple(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seed >= 2 ** 63:
        parser.error("--seed must lie in [0, 2**63)")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(names, args)

    import irssim

    if Path(irssim.__file__).resolve().parent != SRC / "irssim":
        print(f"error: imported irssim from {irssim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_table(args.workload, run["result"], run["context"])
    print(json.dumps({"context": run["context"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
