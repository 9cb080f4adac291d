"""Command-line interface: `wqsim simulate | preset | verify`."""
from __future__ import annotations

import argparse
import sys

from . import errors, presets, runio
from .verify import SCOPES, verify as run_verify


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqsim",
        description="Coherent-feedback dynamics of one or two atoms coupled "
                    "to a mirror-terminated waveguide.")
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags of a run: output, the RunSettings overrides, plots
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--out", required=True, help="output directory")
    for name, kind in runio.RUN_FIELD_TYPES.items():
        run.add_argument("--" + name.replace("_", "-"), type=kind,
                         default=None, help=f"override the plan's {name}")
    run.add_argument("--plot", action="store_true", help="also write SVG plots")

    sim = sub.add_parser("simulate", parents=[run],
                         help="run a user-supplied config file")
    sim.add_argument("--config", required=True, help="path to the config file")
    sim.add_argument("--mode", choices=("auto", *presets.PIPELINES),
                     default="auto", help="solver pipeline (default: by atom count)")

    pre = sub.add_parser("preset", parents=[run],
                         help="run a named scenario preset")
    pre.add_argument("name", help=" | ".join(presets.PRESETS))

    ver = sub.add_parser("verify", help="run a verification scope")
    ver.add_argument("scope", nargs="?", default="all",
                     help=" | ".join((*SCOPES, "all")))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            report = run_verify(args.scope)
            print(report.format())
            return 0 if report.passed else 1
        plan = {name: getattr(args, name) for name in runio.RUN_FIELD_TYPES}
        if args.command == "simulate":
            config, settings = runio.parse_config_file(args.config)
            kind = None if args.mode == "auto" else args.mode
            summary = presets.run_pipeline(config, settings.merged(**plan),
                                           args.out, kind=kind, plot=args.plot)
        else:
            summary = presets.run_preset(args.name, args.out, plot=args.plot,
                                         **plan)
        _print_summary(summary, args.out)
        return 0
    except (errors.WqsimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _print_summary(summary: dict, out: str) -> None:
    print(f"classify: {summary['classify']}")
    for key in sorted(summary):
        if key != "classify":
            val = summary[key]
            print(f"{key}: {val:.6g}" if isinstance(val, float) else
                  f"{key}: {val}")
    print(f"outputs written to {out}")


if __name__ == "__main__":
    sys.exit(main())
