"""Command-line interface: `wqsim simulate | preset | verify`."""
from __future__ import annotations

import argparse
import sys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wqsim",
        description="Coherent-feedback dynamics of one or two atoms coupled "
                    "to a mirror-terminated waveguide.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a user-supplied config file")
    sim.add_argument("--config", required=True, help="path to the config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--t-end", type=float, default=None)
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--k-points", type=int, default=None)
    sim.add_argument("--k-halfwidth", type=float, default=None)
    sim.add_argument("--mode", choices=("auto", "cascade", "cee", "spatial"),
                     default="auto", help="solver pipeline (default: by atom count)")
    sim.add_argument("--plot", action="store_true", help="also write SVG plots")

    pre = sub.add_parser("preset", help="run a named scenario preset")
    pre.add_argument("name", help="fig2 | fig3 | fig4_solid | fig4_dashed | fig5 | fig6")
    pre.add_argument("--out", required=True, help="output directory")
    pre.add_argument("--t-end", type=float, default=None)
    pre.add_argument("--dt", type=float, default=None)
    pre.add_argument("--k-points", type=int, default=None)
    pre.add_argument("--k-halfwidth", type=float, default=None)
    pre.add_argument("--plot", action="store_true")

    ver = sub.add_parser("verify", help="run a verification scope")
    ver.add_argument("scope", nargs="?", default="all",
                     help="theorem1..theorem4 | markov | oracle | all")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from . import errors, presets, runio
    from .verify import verify as run_verify

    try:
        if args.command == "simulate":
            config, settings = runio.parse_config_file(args.config)
            settings = settings.merged(t_end=args.t_end, dt=args.dt,
                                       k_points=args.k_points,
                                       k_halfwidth=args.k_halfwidth)
            kind = None if args.mode == "auto" else args.mode
            summary = presets.run_pipeline(config, settings, args.out,
                                           kind=kind, plot=args.plot)
            _print_summary(summary, args.out)
            return 0
        if args.command == "preset":
            summary = presets.run_preset(
                args.name, args.out, plot=args.plot, t_end=args.t_end,
                dt=args.dt, k_points=args.k_points,
                k_halfwidth=args.k_halfwidth)
            _print_summary(summary, args.out)
            return 0
        if args.command == "verify":
            report = run_verify(args.scope)
            print(report.format())
            return 0 if report.passed else 1
    except (errors.WqsimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
