"""Command-line front end: run sweeps, list presets, validate configs."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from irssim.channel import ConventionalModel, FadingMode, FadingModel
from irssim.config import parse_scenario
from irssim.errors import SimulatorError
from irssim.output import emit_results
from irssim.presets import PRESET_DESCRIPTIONS, PRESET_NAMES, build_preset
from irssim.sweep import run_distance_sweep


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irssim",
        description="Link-budget and SINR sweeps for conventional and IRS-assisted downlinks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a sweep from a preset or config file")
    source = sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES, help="built-in experiment")
    source.add_argument("--config", type=Path, help="scenario configuration file")
    sweep.add_argument("--out", type=Path, help="output file (default: stdout)")
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--seed", type=int, help="override sweep seed")
    sweep.add_argument("--trials", type=int, help="override Monte-Carlo trials per point")
    sweep.add_argument("--start", type=float, help="override sweep start distance (m)")
    sweep.add_argument("--stop", type=float, help="override sweep stop distance (m)")
    sweep.add_argument("--steps", type=int, help="override sweep step count")
    sweep.add_argument("--conventional-model", choices=("paper", "friis"),
                       help="direct-link formula variant")
    sweep.add_argument("--fading", choices=("deterministic", "rayleigh"),
                       help="override the fading model")

    sub.add_parser("presets", help="list built-in experiments")

    validate = sub.add_parser("validate", help="parse a config and report diagnostics")
    validate.add_argument("config", type=Path)
    return parser


def _apply_overrides(scenario, spec, args):
    spec_updates = {}
    for name in ("seed", "trials", "start", "stop", "steps"):
        value = getattr(args, name)
        if value is not None:
            spec_updates[name] = value
    if spec_updates:
        spec = dataclasses.replace(spec, **spec_updates)
    if args.conventional_model is not None:
        scenario = dataclasses.replace(
            scenario, conventional_model=ConventionalModel(args.conventional_model))
    if args.fading is not None:
        if args.fading == "rayleigh":
            fading = FadingModel(mode=FadingMode.RAYLEIGH_EXPONENTIAL, seed=spec.seed)
        else:
            fading = FadingModel(mode=FadingMode.DETERMINISTIC)
        scenario = dataclasses.replace(scenario, fading=fading)
    return scenario, spec


def _cmd_sweep(args) -> int:
    if args.preset is not None:
        scenario, spec = build_preset(args.preset)
    else:
        scenario, spec = parse_scenario(args.config.read_text(encoding="utf-8"))
    scenario, spec = _apply_overrides(scenario, spec, args)
    result = run_distance_sweep(scenario, spec)
    emit_results([result], args.format, args.out if args.out else sys.stdout)
    return 0


def _cmd_presets() -> int:
    for name, description in PRESET_DESCRIPTIONS.items():
        print(f"{name}\t{description}")
    return 0


def _cmd_validate(args) -> int:
    parse_scenario(args.config.read_text(encoding="utf-8"))
    print(f"{args.config}: OK")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "presets":
            return _cmd_presets()
        return _cmd_validate(args)
    except (SimulatorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
