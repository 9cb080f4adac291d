"""One photon out, one atom trapped: the atom-photon bound state.

Atom 1 is nonchiral and sits exactly at a node of its own emitted field
(z1 = pi / omega_a), so the mirror round trip cancels its decay.  Atom 2
couples only to the left-moving field: it emits one photon toward the
mirror and cannot reabsorb the reflected, right-moving packet.  The photon
spectrum is a bump centered on the atomic resonance.

The demo also cross-checks the delay-form cascade against direct
integration of the discretized mode continuum.  The two agree on c_ee to
better than 1%, but differ at late times in how strictly the bound state is
protected: the delay equations protect it exactly, while the full mode
dynamics leaks it slowly into a second photon.

Run:  python demos/population_trapping.py [--full]
"""
import argparse

import numpy as np

import wqsim

parser = argparse.ArgumentParser()
parser.add_argument("--full", action="store_true",
                    help="run the slow direct-integration comparison too")
args = parser.parse_args()

preset = wqsim.get_preset("fig3")
cfg = preset.config
print(f"scenario: {preset.notes}")
print(f"steady-state classifier: {wqsim.classify_steady_state(cfg).label}")

kgrid = wqsim.KGrid.centered(cfg.omega_a, 12.0, 501)
dt = min(cfg.delays) / 32
t_end = preset.settings.t_end
cee = wqsim.solve_cee(cfg, t_end, dt)
pair = wqsim.solve_spectral_pair(cfg, cee, kgrid)
times, p1, p2 = pair.populations_series()

print("\n  t      |c_ee|^2    P_e1      P_e2")
for t_mark in (0.0, 2.5, 5.0, 10.0, 25.0):
    i = pair.index_at(t_mark)
    print(f"{times[i]:6.2f}  {abs(pair.cee[i])**2:9.5f} "
          f"{p1[i]:9.5f} {p2[i]:9.5f}")

spectrum = np.abs(pair.cegk[-1])
k_peak = kgrid.k_values[np.argmax(spectrum)]
half = spectrum > 0.5 * spectrum.max()
print(f"\nphoton spectrum: bump at k = {k_peak:g} "
      f"(omega_a = {cfg.omega_a:g}), FWHM ~ {half.sum() * kgrid.dk:.3f}")

if args.full:
    print("\ndirect integration of the mode continuum (takes ~2 min) ...")
    kg = wqsim.KGrid.centered(cfg.omega_a, 12.0, 301)
    orc = wqsim.oracle_full_grid(cfg, kg, t_end, 0.004, ckk_stride=1,
                                 checkpoint_times=[t_end])
    st = orc.checkpoints[-1]
    pe1, pe2 = wqsim.populations(st)
    print(f"  direct:  P_e1(T) = {pe1:.4f}, two-photon norm = "
          f"{wqsim.two_photon_norm(st.c_kk, st.ckk_grid):.4f}, "
          f"total norm = {wqsim.total_norm(st):.6f}")
    print(f"  cascade: P_e1(T) = {p1[-1]:.4f} (bound state exactly "
          "protected by the delay equations)")
