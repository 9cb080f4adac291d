"""Acceptance suite: ten headline criteria, one test and one printed
PASS/FAIL line each.

Two criteria fail against the delay-form cascade because of a fault in the
program, not in the integrator: the pair equations of
`frequency.solve_spectral_pair` keep only the terms local in k and drop the
reabsorption channel through c_kk, in which one atom absorbs the other
atom's photon while its own photon is in flight.  Without it the cascade is
not unitary.  The mend changes the pinned fig2 cascade output, so it waits
for a change that also re-baselines that reference.

* criterion 8 on fig2/fig3, cascade norm drift < 0.01: the norm drifts
  0.049 on fig2 and 0.017 on fig3; the direct discretized integration, run
  in criterion 6 and in test_frequency, conserves the norm to 1e-8;
* criterion 1, the trapped population window [0.83, 0.89]: the cascade
  keeps P_e1 = 0.973.  Direct integration of fig3 at T = 25 moves with its
  k-window: P_e1 0.8631, 0.9601 and 0.9840 and a two-photon weight 0.1052,
  0.0340 and 0.0154 at half-widths 20, 40 and 80, so a converged model
  does not support the window either.  This criterion is also at fault
  itself: unitarity gives P_2ph = 1 - P_e1 - P_e2 + |c_ee|^2, so with
  P_e1 <= 0.89 and P_e2 < 0.02 the two-photon weight exceeds 0.09, and
  its bound < 0.05 holds for no unitary model.

Criterion 3 checks the dark state against the finite-delay law of the
closed c_ee equation (the dip 0.8307 at tau_2 and the plateau 1/(1 +
sum_j gamma_jL gamma_jR tau_j)^2 = 0.8352), which the solver meets to
1.4e-4.  The law is exact for the closed equation, not for the model it
reduces: the direct integration, its window widened past omega_a,
extrapolates to a dip of 0.8292 and an end value of 0.8308.
"""
import cmath
import math
import time

import numpy as np
import pytest

from wqsim import (AtomParams, KGrid, NetworkConfig, oracle_full_grid,
                   run_preset, solve_cee, solve_single_atom,
                   solve_two_atom_single_excitation, integrate, DelaySystem,
                   field_snapshot, check_mirror_boundary, PRESETS,
                   GridRevivalWarning)

WA = 50.0


def _report(num: int, title: str, checks: list[tuple[str, bool, str]]) -> None:
    ok = all(c[1] for c in checks)
    print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {title}")
    for label, passed, detail in checks:
        print(f"    [{'pass' if passed else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {num}: " + "; ".join(
        f"{label} ({detail})" for label, passed, detail in checks if not passed)


def _load_csv(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    return data


@pytest.fixture(scope="module")
def fig3_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3")
    t0 = time.time()
    summary = run_preset("fig3", out)
    return summary, time.time() - t0, out


@pytest.fixture(scope="module")
def fig2_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2")
    t0 = time.time()
    summary = run_preset("fig2", out)
    return summary, time.time() - t0, out


@pytest.fixture(scope="module")
def fig6_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig6")
    summary = run_preset("fig6", out)
    return summary, out


def test_criterion_1_fig3_trapping(fig3_run):
    summary, elapsed, out = fig3_run
    dk = 2 * 20.0 / (1001 - 1)
    checks = [
        ("P_e1(T) in [0.83, 0.89]",
         0.83 <= summary["pe1_final"] <= 0.89,
         f"P_e1 = {summary['pe1_final']:.4f}"),
        ("P_e2(T) < 0.02", summary["pe2_final"] < 0.02,
         f"P_e2 = {summary['pe2_final']:.4f}"),
        ("|c_ee(T)|^2 < 0.01", summary["cee_abs2_final"] < 0.01,
         f"|c_ee|^2 = {summary['cee_abs2_final']:.4f}"),
        ("spectral argmax at omega_a +- dk",
         abs(summary["spectral_argmax_k"] - WA) <= dk + 1e-12,
         f"argmax k = {summary['spectral_argmax_k']:.4f}, dk = {dk:.4f}"),
        ("two-photon norm < 0.05",
         summary["two_photon_norm_final"] < 0.05,
         f"norm = {summary['two_photon_norm_final']:.4f}"),
        ("runtime < 2 min at N=1001, dt=tau_min/64", elapsed < 120.0,
         f"{elapsed:.0f}s"),
    ]
    _report(1, "population trapping scenario", checks)


def test_criterion_2_fig2_two_photon(fig2_run):
    summary, elapsed, out = fig2_run
    checks = [
        ("|c_ee(T)|^2 < 0.01", summary["cee_abs2_final"] < 0.01,
         f"|c_ee|^2 = {summary['cee_abs2_final']:.2e}"),
        ("P_e1(T) < 0.02", summary["pe1_final"] < 0.02,
         f"P_e1 = {summary['pe1_final']:.4f}"),
        ("P_e2(T) < 0.02", summary["pe2_final"] < 0.02,
         f"P_e2 = {summary['pe2_final']:.4f}"),
        ("two-photon norm >= 0.95",
         summary["two_photon_norm_final"] >= 0.95,
         f"norm = {summary['two_photon_norm_final']:.4f}"),
        ("runtime < 2 min", elapsed < 120.0, f"{elapsed:.0f}s"),
    ]
    _report(2, "two-photon emission scenario", checks)


def test_criterion_3_dark_state():
    solid = PRESETS["fig4_solid"]
    cfg = solid.config
    traj = solve_cee(cfg, solid.settings.t_end, solid.settings.dt)
    sq = np.abs(traj.states[:, 0]) ** 2
    min_sq = float(sq.min())
    z1 = cfg.atoms[0].position
    late = traj.times >= 20 * z1
    dashed = PRESETS["fig4_dashed"]
    traj_d = solve_cee(dashed.config, dashed.settings.t_end, dashed.settings.dt)
    end_sq = float(abs(traj_d.states[-1, 0]) ** 2)

    # Exact finite-delay law from the preset's parameters alone.  At node
    # positions every delay phase e^{i omega_a tau_j} is 1 and the feedback
    # a_j = gamma_jL gamma_jR balances the damping, sum_j a_j = gamma_RL.
    taus = cfg.round_trip_delays
    a = [atom.feedback for atom in cfg.atoms]
    rate = cfg.gamma_rl
    assert all(abs(cmath.exp(1j * cfg.omega_a * tau) - 1) < 1e-12
               for tau in taus), "fig4_solid atoms must sit at nodes"
    assert math.isclose(sum(a), rate), "fig4_solid feedback must balance"
    # Method of steps on [tau_1, tau_2]: c = e^{-rate t}[1 + a_1 e^{rate
    # tau_1}(t - tau_1)], falling until the second echo arrives at tau_2.
    t1, t2 = taus
    dip = (math.exp(-rate * t2)
           * (1 + a[0] * math.exp(rate * t1) * (t2 - t1))) ** 2
    # Laplace final-value theorem: c(inf) = 1/(1 + sum_j a_j tau_j).
    plateau = (1 / (1 + sum(aj * tau for aj, tau in zip(a, taus)))) ** 2
    # The solver misses both by 1.4e-4 at the preset dt, and the gap halves
    # with dt; a lost dark state misses them by more than 0.1.
    tol = 1e-3
    plateau_dev = float(np.abs(sq[late] - plateau).max())
    checks = [
        (f"node positions: |c_ee(t)|^2 >= {dip:.6f} - {tol:g} on [0, 40 z1]",
         min_sq >= dip - tol,
         f"min = {min_sq:.6f} (exact dip at tau_2 {dip:.6f})"),
        (f"plateau: ||c_ee|^2 - {plateau:.6f}| <= {tol:g} on [20 z1, 40 z1]",
         plateau_dev <= tol,
         f"max deviation = {plateau_dev:.2e}"),
        ("off-node contrast: |c_ee(40 z1)|^2 < 0.5", end_sq < 0.5,
         f"end = {end_sq:.4f}"),
    ]
    _report(3, "dark state and off-node contrast", checks)


def test_criterion_4_quarter_phase_decay_law():
    atom = AtomParams(2.25 * math.pi / WA, 0.2, 0.2)
    t_end = 40.0 * atom.position
    traj = solve_single_atom(atom, WA, t_end, 2 * atom.position / 64)
    err = float(np.abs(np.abs(traj.states[:, 0]) ** 2
                       - np.exp(-0.08 * traj.times)).max())
    checks = [("max | |c_e|^2 - e^{-0.08 t} | < 0.02", err < 0.02,
               f"max err = {err:.4f}")]
    _report(4, "quarter-phase analytic decay law", checks)


def test_criterion_5_atomic_mirror():
    atom = AtomParams(math.pi / WA, 0.2, 0.2)
    t_end = 40.0 * atom.position
    traj = solve_single_atom(atom, WA, t_end, 2 * atom.position / 64)
    final = float(abs(traj.states[-1, 0]) ** 2)
    checks = [("|c_e(40 z1)|^2 >= 0.95", final >= 0.95, f"{final:.4f}")]
    _report(5, "single atom at a node stays excited", checks)


def test_criterion_6_oracle_equivalence():
    cfg = PRESETS["fig2"].config
    t_end, dt = 6.0, 0.004
    t0 = time.time()
    cee = solve_cee(cfg, t_end, dt)

    def diff_at(n, stride):
        kg = KGrid.centered(cfg.omega_a, 45.0, n)
        orc = oracle_full_grid(cfg, kg, t_end, dt, ckk_stride=stride)
        m = min(len(cee.times), len(orc.times))
        return float(np.abs(np.abs(cee.states[:m, 0])
                            - np.abs(orc.cee[:m])).max())

    # the coarse rungs revive their c_kk subgrid at 2 pi / (4 dk) = 1.40,
    # 2.79 and 5.59, inside the horizon 6, by design: each run warns
    with pytest.warns(GridRevivalWarning) as revivals:
        d_coarse = diff_at(81, 4)     # dk = 1.125
        d_half = diff_at(161, 4)      # dk halved
        d_quarter = diff_at(321, 4)   # dk halved again
    assert len(revivals) == 3
    d_full = diff_at(2001, 4)     # headline grid
    elapsed = time.time() - t0
    checks = [
        ("Linf | |c_ee| | cascade vs direct < 0.02 at N=2001",
         d_full < 0.02, f"diff = {d_full:.4f}"),
        ("halving dk reduces the difference",
         d_coarse > d_half > d_quarter,
         f"dk ladder 1.125 -> 0.5625 -> 0.28: {d_coarse:.4f} -> "
         f"{d_half:.4f} -> {d_quarter:.4f} (floor {d_full:.4f})"),
        ("runtime < 10 min", elapsed < 600.0, f"{elapsed:.0f}s"),
    ]
    _report(6, "cascade vs direct-integration oracle", checks)


def test_criterion_7_cross_domain_identity():
    atom = AtomParams(0.12, 0.2, 0.45)
    cfg = NetworkConfig(atoms=(atom, AtomParams(0.3, 0.0, 0.0)), omega_a=WA)
    dt = 2 * atom.position / 64
    a = solve_cee(cfg, 6.0, dt)
    b = solve_single_atom(atom, WA, 6.0, dt)
    diff = float(np.abs(a.states[:, 0] - b.states[:, 0]).max())
    checks = [("pointwise |difference| < 1e-10", diff < 1e-10,
               f"max diff = {diff:.2e}")]
    _report(7, "frequency/spatial single-atom identity", checks)


def test_criterion_8_conservation(fig2_run, fig3_run, fig6_run):
    _, _, out2 = fig2_run
    _, _, out3 = fig3_run
    _, out6 = fig6_run
    drift2 = float(np.abs(_load_csv(out2 / "norm.csv")["total_norm"] - 1).max())
    drift3 = float(np.abs(_load_csv(out3 / "norm.csv")["total_norm"] - 1).max())
    drift6 = float(np.abs(_load_csv(out6 / "norm.csv")["total_norm"] - 1).max())
    checks = [
        ("two-photon scenario norm drift < 0.01", drift2 < 0.01,
         f"drift = {drift2:.4f}"),
        ("trapping scenario norm drift < 0.01", drift3 < 0.01,
         f"drift = {drift3:.4f}"),
        ("spatial single-excitation norm drift < 0.02", drift6 < 0.02,
         f"drift = {drift6:.4f}"),
    ]
    _report(8, "norm conservation on the reference runs", checks)


def test_criterion_9_integrator_order():
    system = DelaySystem(dim=1, delays=(), rhs=lambda t, y, yd: -y)
    errs = []
    for dt in (0.05, 0.025):
        traj = integrate(system, prehistory=1.0, t_span=(0.0, 2.0), dt=dt)
        errs.append(abs(traj.states[-1, 0] - np.exp(-2.0)))
    ratio = float(errs[0] / errs[1])

    dde = DelaySystem(dim=1, delays=(1.0,), rhs=lambda t, y, yd: -yd[0])
    traj = integrate(dde, prehistory=1.0, t_span=(0.0, 2.0), dt=1.0 / 64)
    t = traj.times
    exact = np.where(t <= 1.0, 1.0 - t, 1.0 - t + 0.5 * (t - 1.0) ** 2)
    poly_err = float(np.abs(traj.states[:, 0] - exact).max())
    checks = [
        ("error ratio under dt halving in [12, 20]", 12.0 <= ratio <= 20.0,
         f"ratio = {ratio:.2f}"),
        ("piecewise-polynomial delay solution to 1e-6", poly_err < 1e-6,
         f"max err = {poly_err:.2e}"),
    ]
    _report(9, "integrator order and delay handling", checks)


def test_criterion_10_boundary_and_causality():
    fig5 = PRESETS["fig5"]
    atom = fig5.config.atoms[0]
    traj5 = solve_single_atom(atom, WA, fig5.settings.t_end, fig5.settings.dt)
    fig6 = PRESETS["fig6"]
    traj6 = solve_two_atom_single_excitation(fig6.config, 15.0,
                                             fig6.settings.dt)
    residuals = []
    for frac in (0.3, 0.6, 1.0):
        residuals.append(check_mirror_boundary(
            field_snapshot(fig5.config, traj5, frac * traj5.t_end)))
        residuals.append(check_mirror_boundary(
            field_snapshot(fig6.config, traj6, frac * traj6.t_end)))
    max_res = max(residuals)

    t = 0.6 * traj5.t_end
    snap5 = field_snapshot(fig5.config, traj5, t,
                           z_values=[atom.position + t + 0.1])
    t6 = 12.0
    snap6 = field_snapshot(fig6.config, traj6, t6,
                           z_values=[fig6.config.atoms[1].position + t6 + 0.1])
    pr5, pl5, pr6, pl6 = snap5.phi_r, snap5.phi_l, snap6.phi_r, snap6.phi_l
    all_zero = (pr5[0] == 0.0 and pl5[0] == 0.0
                and pr6[0] == 0.0 and pl6[0] == 0.0)
    checks = [
        ("mirror residual < 1e-10 on all snapshots", max_res < 1e-10,
         f"max residual = {max_res:.2e}"),
        ("fields exactly zero outside the light cone", all_zero,
         f"values: {abs(pr5[0]):.1e}, {abs(pl5[0]):.1e}, "
         f"{abs(pr6[0]):.1e}, {abs(pl6[0]):.1e}"),
    ]
    _report(10, "mirror boundary and causality", checks)
