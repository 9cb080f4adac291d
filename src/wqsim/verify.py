"""Desk-scale verification harness: theorem predictions, the short-delay
closed form, and the cascade-vs-direct-integration cross-check.

Each scope runs its checks and reports measured value against bound; a
report with any failing check carries a nonzero process exit status through
the CLI.  The dark-state scope checks the finite-delay law of the closed
c_ee equation, not its short-delay limit; the law is exact for that
equation only: the model it reduces puts the fig4_solid dip and plateau
near 0.8292 and 0.8308.  One check fails and is reported rather than
hidden: the short-delay closed form misses c_ee on fig2, whose delays are
too long for that idealization; see README notes.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .frequency import (analytic_cee_markov, classify_steady_state,
                        markov_exponent, oracle_full_grid, solve_cee,
                        solve_spectral_pair, SteadyStateLabel)
from .model import AtomParams, KGrid, NetworkConfig
from .presets import PRESETS
from .runio import RunSettings

_RELATIONS = {"<": operator.lt, ">=": operator.ge, "==": operator.eq}


@dataclass
class VerificationCheck:
    name: str
    measured: float | str
    bound: float | str
    relation: str            # "<", ">=" or "=="; a NaN fails each

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.measured, self.bound))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: measured {_fmt(self.measured)} "
                f"{self.relation} {_fmt(self.bound)}")


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


@dataclass
class VerificationReport:
    scope: str
    checks: list[VerificationCheck] = field(default_factory=list)

    @property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.n_failed == 0

    def format(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append(f"{self.scope}: {len(self.checks) - self.n_failed}"
                     f"/{len(self.checks)} checks passed")
        return "\n".join(lines)

    def extend(self, other: "VerificationReport") -> None:
        self.checks.extend(other.checks)


def _check(name, measured, relation, bound) -> VerificationCheck:
    """A check of a number, or of a steady-state label by its value."""
    if isinstance(measured, SteadyStateLabel):
        return VerificationCheck(name, measured.value, bound.value, relation)
    return VerificationCheck(name, float(measured), float(bound), relation)


def _scaled(config: NetworkConfig, s: float) -> NetworkConfig:
    return NetworkConfig(
        atoms=tuple(AtomParams(a.position, s * a.gamma_l, s * a.gamma_r)
                    for a in config.atoms),
        omega_a=config.omega_a, label=f"{config.label}*{s}")


def verify_theorem1() -> VerificationReport:
    """Chiral coupling forces the doubly excited amplitude to zero."""
    rep = VerificationReport("theorem1")
    for cfg in (PRESETS["fig2"].config, _scaled(PRESETS["fig2"].config, 0.5)):
        rate = markov_exponent(cfg).real
        t_end = math.log(200.0) / (2.0 * abs(rate))
        traj = solve_cee(cfg, t_end, RunSettings().resolved(cfg).dt)
        rep.checks.append(_check(
            f"|c_ee(T)|^2 decays ({cfg.label})",
            abs(traj.states[-1, 0]) ** 2, "<", 0.01))
        rep.checks.append(_check(
            f"classifier ({cfg.label})", classify_steady_state(cfg).label,
            "==", SteadyStateLabel.TWO_PHOTON))
    return rep


def verify_theorem2() -> VerificationReport:
    """Population trapping: atom 1 keeps its excitation, one photon out."""
    rep = VerificationReport("theorem2")
    cfg = PRESETS["fig3"].config
    z1 = cfg.atoms[0].position
    t_end = PRESETS["fig3"].settings.t_end
    dt = min(cfg.delays) / 32.0
    kgrid = KGrid.centered(cfg.omega_a, 12.0, 501)
    cee = solve_cee(cfg, t_end, dt)
    pair = solve_spectral_pair(cfg, cee, kgrid)
    times, p1, p2 = pair.populations_series()

    rep.checks.append(_check(
        "classifier (fig3)", classify_steady_state(cfg).label, "==",
        SteadyStateLabel.ONE_PHOTON_TRAPPED))
    rep.checks.append(_check("|c_ee(T)|^2 decays (fig3)",
                             abs(pair.cee[-1]) ** 2, "<", 0.01))
    rep.checks.append(_check("P_e1(T) trapped significantly (fig3)",
                             p1[-1], ">=", 0.5))
    rep.checks.append(_check("P_e2(T) decays (fig3)", p2[-1], "<", 0.02))
    window = (times >= 20 * z1) & (times <= 40 * z1)
    rep.checks.append(_check("P_e1 flat on [20 z1, 40 z1] (fig3)",
                             p1[window].max() - p1[window].min(), "<",
                             0.01 * 2))
    k_at_max = kgrid.k_values[np.argmax(np.abs(pair.cegk[-1]))]
    rep.checks.append(_check("spectral bump peaks at omega_a (fig3)",
                             abs(k_at_max - cfg.omega_a), "<", 1.5 * kgrid.dk))
    ratio = np.abs(pair.cgek[-1]).max() / np.abs(pair.cegk[-1]).max()
    rep.checks.append(_check("atom-2 photon channel empties (fig3)",
                             ratio, "<", 0.05))
    return rep


def _node_dark_state_law(config: NetworkConfig) -> tuple[float, float]:
    """Finite-delay |c_ee|^2 of two atoms at node positions with zero field
    pre-history: (the dip at t = tau_2, the final plateau), exact for the
    closed c_ee equation, not for the model it reduces (on fig4_solid that
    model's dip and plateau lie near 0.8292 and 0.8308).

    At nodes every delay phase e^{i omega_a tau_j} is 1 and the feedback
    a_j = gamma_jL gamma_jR balances the damping, sum_j a_j = gamma_RL.  The
    method of steps on [tau_1, tau_2] gives
    c = e^{-gamma_RL t}[1 + a_1 e^{gamma_RL tau_1}(t - tau_1)], which falls
    until the second echo arrives at tau_2; the Laplace final-value theorem
    gives c(inf) = 1/(1 + sum_j a_j tau_j).
    """
    rate = config.gamma_rl
    a = [atom.feedback for atom in config.atoms]
    taus = config.round_trip_delays
    t1, t2 = taus
    dip = math.exp(-rate * t2) * (1 + a[0] * math.exp(rate * t1) * (t2 - t1))
    plateau = 1 / (1 + sum(aj * tau for aj, tau in zip(a, taus)))
    return dip ** 2, plateau ** 2


# RK4 misses the law's dip and plateau by 1.4e-4 at the fig4_solid step, and
# the gap halves with dt; a lost dark state misses them by more than 0.1.
_DARK_STATE_TOL = 1e-3


def verify_theorem3() -> VerificationReport:
    """Dark state at node positions; decay off the nodes."""
    rep = VerificationReport("theorem3")
    solid = PRESETS["fig4_solid"]
    dashed = PRESETS["fig4_dashed"]
    rep.checks.append(_check(
        "classifier (fig4_solid)", classify_steady_state(solid.config).label,
        "==", SteadyStateLabel.DARK_STATE))
    traj = solve_cee(solid.config, solid.settings.t_end, solid.settings.dt)
    sq = np.abs(traj.states[:, 0]) ** 2
    dip, plateau = _node_dark_state_law(solid.config)
    rep.checks.append(_check(
        "min |c_ee(t)|^2 vs the exact dip at tau_2 (fig4_solid)",
        float(sq.min()), ">=", dip - _DARK_STATE_TOL))
    late = traj.times >= 20 * solid.config.atoms[0].position
    rep.checks.append(_check(
        f"max ||c_ee|^2 - {plateau:.6g}| on [20 z1, 40 z1] (fig4_solid)",
        float(np.abs(sq[late] - plateau).max()), "<", _DARK_STATE_TOL))
    traj = solve_cee(dashed.config, dashed.settings.t_end, dashed.settings.dt)
    rep.checks.append(_check(
        "|c_ee(T)|^2 decays off node (fig4_dashed)",
        abs(traj.states[-1, 0]) ** 2, "<", 0.5))
    return rep


def verify_theorem4() -> VerificationReport:
    """Single nonchiral atom at a node keeps its excitation."""
    rep = VerificationReport("theorem4")
    cfg = NetworkConfig(
        atoms=(AtomParams(math.pi / 50.0, 0.2, 0.2),), omega_a=50.0,
        label="atomic-mirror")
    plan = RunSettings().resolved(cfg)
    traj = solve_cee(cfg, plan.t_end, plan.dt)
    rep.checks.append(_check("|c_e(40 z1)|^2 trapped (atomic mirror)",
                             abs(traj.states[-1, 0]) ** 2, ">=", 0.95))
    rep.checks.append(_check(
        "classifier (atomic mirror)", classify_steady_state(cfg).label, "==",
        SteadyStateLabel.DARK_STATE))
    return rep


def verify_markov() -> VerificationReport:
    """Delay solution against the short-delay closed form."""
    rep = VerificationReport("markov")
    fig2 = PRESETS["fig2"].config
    deep = NetworkConfig(
        atoms=(AtomParams(0.02, 0.25, 0.5), AtomParams(0.03, 0.25, 0.5)),
        omega_a=50.0, label="deep-regime")
    # the default plan, over five default horizons in the deep regime
    for cfg, horizons in ((fig2, 1), (deep, 5)):
        plan = RunSettings().resolved(cfg)
        traj = solve_cee(cfg, horizons * plan.t_end, plan.dt)
        diff = np.abs(traj.states[:, 0]
                      - analytic_cee_markov(traj.times, cfg)).max()
        rep.checks.append(_check(
            f"max |c_ee - closed form| ({cfg.label})", float(diff), "<", 0.02))
    return rep


def verify_oracle() -> VerificationReport:
    """Cascade |c_ee| against direct integration of the discretized system."""
    rep = VerificationReport("oracle")
    cfg = PRESETS["fig2"].config
    t_end, dt, half_width = 5.0, 0.0025, 30.0
    kgrid = KGrid.centered(cfg.omega_a, half_width, 801)
    cee = solve_cee(cfg, t_end, dt)
    oracle = oracle_full_grid(cfg, kgrid, t_end, dt, ckk_stride=4)
    n = min(len(cee.times), len(oracle.times))
    diff = np.abs(np.abs(cee.states[:n, 0]) - np.abs(oracle.cee[:n])).max()
    rep.checks.append(_check(
        f"Linf | |c_ee|_cascade - |c_ee|_direct | (fig2; N {len(kgrid)}, "
        f"dk {kgrid.dk:g}, half-width {half_width:g}, dt {dt:g})",
        float(diff), "<", 0.02))
    return rep


_SCOPE_FUNCS = {
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "theorem3": verify_theorem3,
    "theorem4": verify_theorem4,
    "markov": verify_markov,
    "oracle": verify_oracle,
}
SCOPES = tuple(_SCOPE_FUNCS)


def verify(scope: str = "all") -> VerificationReport:
    """Run one named scope, or all of them."""
    if scope == "all":
        rep = VerificationReport("all")
        for scope_func in _SCOPE_FUNCS.values():
            rep.extend(scope_func())
        return rep
    if scope not in _SCOPE_FUNCS:
        raise ValueError(
            f"unknown scope {scope!r}; choose from {', '.join(SCOPES)} or 'all'")
    return _SCOPE_FUNCS[scope]()
