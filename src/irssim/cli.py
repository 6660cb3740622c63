"""Command-line front end: run sweeps, list presets, validate configs."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from irssim.channel import ConventionalModel, FadingMode, FadingModel
from irssim.config import PRESET_DESCRIPTIONS, PRESET_NAMES, build_preset, parse_scenario
from irssim.errors import ConfigError, SimulatorError
from irssim.output import emit_results
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
    sweep.add_argument("--conventional-model", choices=[m.value for m in ConventionalModel],
                       help="direct-link formula variant")
    sweep.add_argument("--fading", choices=[m.value for m in FadingMode],
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
        scenario = dataclasses.replace(
            scenario, fading=FadingModel(mode=FadingMode(args.fading), seed=spec.seed))
    return scenario, spec


def _parse_config(path: Path):
    """The scenario and sweep of a config file: UTF-8 text, a leading BOM ignored."""
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_scenario(text, source=str(path))


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name, description in PRESET_DESCRIPTIONS.items():
                print(f"{name}\t{description}")
        elif args.command == "validate":
            _parse_config(args.config)
            print(f"{args.config}: OK")
        else:
            scenario, spec = (build_preset(args.preset) if args.preset is not None
                              else _parse_config(args.config))
            result = run_distance_sweep(*_apply_overrides(scenario, spec, args))
            emit_results([result], args.format, args.out if args.out else sys.stdout)
        return 0
    except (SimulatorError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
