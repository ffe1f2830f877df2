"""Command-line entry point: run scenarios and eps sweeps.

Usage:
    vacuumcorr run --scenario root-cert --layout 2,2 --seed 7 --eps 0.01
    vacuumcorr sweep --scenario root-cert --layout 2,2 --eps-list 0.1,0.01

A JSON config file may supply any field; explicit flags override it.
Exit status: 0 all assertions passed, 1 some failed, 2 invalid config,
3 a pipeline stage missed its bound (the message names the stage).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .harness import (
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
    emit_report,
    render_report,
    run_scenario,
    sweep_eps,
)
from .root_theorem import StageFailure


def _parse_list(text: str, cast, field: str, kind: str) -> list:
    try:
        return [cast(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(field, f"expected comma-separated {kind}, got {text!r}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=SCENARIOS)
    parser.add_argument("--layout", help="comma-separated local dims, e.g. 2,2 or 2,2,4")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(prog="vacuumcorr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run one scenario")
    _add_common(run_p)
    run_p.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (non-deterministic output)")
    sweep_p = sub.add_parser("sweep", help="run a scenario over a list of eps values")
    _add_common(sweep_p)
    sweep_p.add_argument("--eps-list", help="comma-separated, strictly decreasing")
    sweep_p.set_defaults(timings=False)  # a sweep table records no timings
    return parser


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON in {args.config}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config", f"expected a JSON object, got {data!r}")
    if args.scenario:
        data["scenario"] = args.scenario
    if args.layout:
        data["layout"] = _parse_list(args.layout, int, "layout", "integers")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.eps is not None:
        data["eps"] = args.eps
    if getattr(args, "eps_list", None):
        data["sweep"] = _parse_list(args.eps_list, float, "sweep", "numbers")
    return ScenarioConfig.from_dict(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "run":
            report = run_scenario(cfg)
        else:
            report = sweep_eps(cfg)
    except (ConfigError, StageFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 3
    if args.out:
        emit_report(report, args.format, args.out, include_timings=args.timings)
    else:
        sys.stdout.write(render_report(report, args.format, include_timings=args.timings))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
