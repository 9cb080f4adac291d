"""The benchmark's three workloads: set-up, one pass, and the output check.

Every pass calls wqsim in-process through its public functions and writes
its files under a fresh directory.  `setup` imports wqsim itself, so the
caller can time the import as part of set-up.
"""
from __future__ import annotations

import hashlib
import importlib
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# ---------------------------------------------------------------------------
# cascade_fig2: reference summary of the committed fig2 plan
# ---------------------------------------------------------------------------

FIG2_REFERENCE = {
    "t_final": 16.0,
    "cee_abs2_final": 8.669429487025442e-06,
    "pe1_final": 0.0025090715344074387,
    "pe2_final": 0.003525779696926188,
    "two_photon_norm_final": 1.0428433683144904,
    "total_norm_final": 1.048869550116337,
    "spectral_argmax_k": 50.18,
}
# Absolute tolerances: twice the plan's own discretization error, estimated
# by rerunning fig2 with dt halved (RK4 and Hermite error; the record
# spacing stays 2 * 0.0015625) plus rerunning it with pair record stride 1
# instead of 2 (trapezoid error of the two-photon quadrature):
#   cee_abs2_final 1.2e-10, pe1_final 3.9e-8, pe2_final 4.9e-8,
#   two_photon_norm_final 1.51e-5 + 5e-8, total_norm_final 1.52e-5 + 5e-8.
# Twice covers a different implementation of the same plan whose error is
# of the same size with the opposite sign.  Runs of the same code agree
# bit for bit, so run-to-run noise plays no part.  spectral_argmax_k is a
# grid point: half the spacing dk = 0.09 keeps it on the same mode.
FIG2_TOLERANCE = {
    "t_final": 1e-12,
    "cee_abs2_final": 3e-10,
    "pe1_final": 8e-8,
    "pe2_final": 1e-7,
    "two_photon_norm_final": 4e-5,
    "total_norm_final": 4e-5,
    "spectral_argmax_k": 0.045,
}

# ---------------------------------------------------------------------------
# sweep_small: seeded small-system configurations
# ---------------------------------------------------------------------------

SWEEP_POINTS = 48
SWEEP_KINDS = (("cee", 2), ("spatial", 1), ("spatial", 2))
SWEEP_STEPS = 1280
# z2 / z1 >= 3 makes the round trip 2 z1 the shortest delay, so every point
# runs the default plan t_end = 40 z1, dt = 2 z1 / 64: 1280 steps.  z2 stays
# below 0.25 and omega_a at 50, inside the short-delay regime the
# classifier assumes.  Couplings span the presets' range.
Z1_RANGE = (0.02, 0.06)
RATIO_RANGE = (3.0, 4.0)
GAMMA_RANGE = (0.1, 0.5)
OMEGA_A = 50.0
# Seed kept out of every tuning run, for checking a later claim.
HELD_OUT_SEED = 90210


@dataclass(frozen=True)
class SweepPoint:
    kind: str
    config: object      # wqsim NetworkConfig
    settings: object    # wqsim RunSettings


def sweep_points(seed: int, n_points: int = SWEEP_POINTS) -> list[SweepPoint]:
    """Seeded configurations cycling through SWEEP_KINDS.

    Each parameter is drawn once per equal-width stratum of its range and
    shuffled, per kind, so every seed covers the parameter box evenly: the
    seed changes the physics, not the amount of work.
    """
    from wqsim.model import AtomParams, NetworkConfig
    from wqsim.runio import RunSettings

    rng = random.Random(seed)
    per_kind = -(-n_points // len(SWEEP_KINDS))

    def strata(lo: float, hi: float) -> list[float]:
        width = (hi - lo) / per_kind
        values = [lo + (j + rng.random()) * width for j in range(per_kind)]
        rng.shuffle(values)
        return values

    draws = [{name: strata(*span) for name, span in (
        ("z1", Z1_RANGE), ("ratio", RATIO_RANGE), ("g1l", GAMMA_RANGE),
        ("g1r", GAMMA_RANGE), ("g2l", GAMMA_RANGE), ("g2r", GAMMA_RANGE))}
        for _ in SWEEP_KINDS]
    points = []
    for i in range(n_points):
        kind, n_atoms = SWEEP_KINDS[i % len(SWEEP_KINDS)]
        d = {k: v[i // len(SWEEP_KINDS)]
             for k, v in draws[i % len(SWEEP_KINDS)].items()}
        z1 = d["z1"]
        atoms = [AtomParams(z1, d["g1l"], d["g1r"])]
        if n_atoms == 2:
            atoms.append(AtomParams(d["ratio"] * z1, d["g2l"], d["g2r"]))
        config = NetworkConfig(atoms=tuple(atoms), omega_a=OMEGA_A,
                               label=f"sweep{i}")
        settings = RunSettings(t_end=40.0 * z1, dt=2.0 * z1 / 64.0)
        points.append(SweepPoint(kind, config, settings))
    return points


def plan_steps(t_end: float, dt: float) -> int:
    """Fixed-step count of a plan, as the integrator counts it."""
    return int(math.ceil(t_end / dt - 1e-9))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    """`run(out_dir)` does one pass and returns its outcome; `check(outcome,
    out_dir)` lists what is wrong with it; `numerics(outcome)` is the
    workload's accuracy figure."""

    plan: dict
    run: Callable[[Path], object]
    check: Callable[[object, Path], list[str]]
    numerics: Callable[[object], float]
    numerics_name: str


def setup(name: str, seed: int) -> Workload:
    """Import wqsim and build the workload's inputs."""
    importlib.import_module("wqsim")
    return {"cascade_fig2": _cascade_fig2, "oracle_desk": _oracle_desk,
            "sweep_small": _sweep_small}[name](seed)


def _cascade_fig2(seed: int) -> Workload:
    presets = importlib.import_module("wqsim.presets")
    preset = presets.get_preset("fig2")
    s = preset.settings
    plan = {"preset": "fig2", "kind": preset.kind, "t_end": s.t_end,
            "dt": s.dt, "steps": plan_steps(s.t_end, s.dt),
            "k_points": s.k_points, "k_halfwidth": s.k_halfwidth,
            "two_photon_checkpoints": 9,
            "seed": "unused: the plan is fixed"}

    def run(out: Path) -> dict:
        return presets.run_preset("fig2", out)

    def check(summary: dict, out: Path) -> list[str]:
        bad = [f"{k} = {summary[k]!r}, reference {ref!r} +- {FIG2_TOLERANCE[k]}"
               for k, ref in FIG2_REFERENCE.items()
               if not abs(summary[k] - ref) <= FIG2_TOLERANCE[k]]
        if summary["classify"] != "TwoPhoton":
            bad.append(f"classify = {summary['classify']!r}, want 'TwoPhoton'")
        asym = _csv_asymmetry(out / "two_photon.csv")
        if asym is not None:
            bad.append(asym)
        return bad

    return Workload(plan, run, check,
                    lambda summary: abs(summary["total_norm_final"] - 1.0),
                    "norm_drift = |total_norm_final - 1|")


def _csv_asymmetry(path: Path) -> str | None:
    """The |c_kk| grid in two_photon.csv must be exchange symmetric, to the
    tolerance TwoExcitationState enforces on c_kk."""
    import numpy as np
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    n = math.isqrt(len(data))
    if n * n != len(data):
        return f"{path.name}: {len(data)} rows is not a square grid"
    grid = data[:, 2].reshape(n, n)
    asym = float(np.abs(grid - grid.T).max())
    if asym > 1e-12 * max(1.0, float(np.abs(grid).max())):
        return f"{path.name}: c_kk asymmetry {asym:.3g}"
    return None


def _oracle_desk(seed: int) -> Workload:
    verify = importlib.import_module("wqsim.verify")
    plan = {"scope": "verify oracle", "atoms": "fig2", "k_points": 801,
            "k_halfwidth": 30.0, "ckk_stride": 4, "dt": 0.0025, "t_end": 5.0,
            "steps": 2000, "state_complex_values": 1 + 2 * 801 + 801 * 201,
            "gap_bound": 0.02, "seed": "unused: the plan is fixed"}

    def run(out: Path):
        return verify.verify("oracle")

    def check(report, out: Path) -> list[str]:
        return [c.line() for c in report.checks if not c.passed]

    return Workload(plan, run, check,
                    lambda report: float(report.checks[0].measured),
                    "oracle_gap = Linf | |c_ee|_cascade - |c_ee|_oracle |")


def _sweep_small(seed: int) -> Workload:
    presets = importlib.import_module("wqsim.presets")
    points = sweep_points(seed)
    plan = {"points": len(points), "kinds_and_atoms": SWEEP_KINDS,
            "steps_per_point": SWEEP_STEPS, "t_end": "40 z1",
            "dt": "2 z1 / 64", "z1": Z1_RANGE, "z2_over_z1": RATIO_RANGE,
            "gamma": GAMMA_RANGE, "omega_a": OMEGA_A, "seed": seed,
            "held_out_seed": HELD_OUT_SEED}

    def run(out: Path) -> list[dict]:
        return [presets.run_pipeline(p.config, p.settings, out / f"{i:02d}",
                                     kind=p.kind, name=p.config.label)
                for i, p in enumerate(points)]

    def check(summaries: list[dict], out: Path) -> list[str]:
        bad = []
        for i, s in enumerate(summaries):
            if "mirror_residual_max" not in s:
                continue
            if s["mirror_residual_max"] != 0.0:
                bad.append(f"point {i}: mirror residual "
                           f"{s['mirror_residual_max']!r} != 0")
            if not s["norm_drift_max"] < 1e-3:
                bad.append(f"point {i}: norm drift "
                           f"{s['norm_drift_max']!r} >= 1e-3")
        return bad

    def numerics(summaries: list[dict]) -> float:
        # the mean, not the largest: over seeds 1-40 the interquartile range
        # of the largest of the 32 spatial drifts is 24% of its median, that
        # of the mean 8%.  `check` bounds every point.
        drifts = [s["norm_drift_max"] for s in summaries
                  if "norm_drift_max" in s]
        return sum(drifts) / len(drifts)

    return Workload(plan, run, check, numerics,
                    "norm_drift = mean spatial norm_drift_max over points")


WORKLOADS = ("cascade_fig2", "oracle_desk", "sweep_small")


def output_digest(out: Path) -> dict[str, str]:
    """sha256 of every file a pass wrote; the manifest's timestamp line, the
    only line that differs between identical runs, is left out."""
    digests = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.txt":
            data = b"\n".join(line for line in data.split(b"\n")
                              if not line.startswith(b"timestamp = "))
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests
