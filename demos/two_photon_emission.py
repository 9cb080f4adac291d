"""Both atoms chirally coupled: everything ends up as two photons.

Two excited atoms sit at z1 = 0.1 and z2 = 0.2 in front of the mirror, each
coupled twice as strongly to the right-moving field as to the left-moving
one (gamma_R = 2 gamma_L = 0.5).  Chirality breaks the mirror-feedback
cancellation, so the doubly excited amplitude decays (population rate ~0.73)
and, once the single-photon sectors drain as well, the waveguide holds a
two-photon state.

Run:  python demos/two_photon_emission.py [--plot]
"""
import argparse

import numpy as np

import wqsim

parser = argparse.ArgumentParser()
parser.add_argument("--plot", action="store_true", help="write SVG plots")
parser.add_argument("--out", default="demo_out/two_photon_emission")
args = parser.parse_args()

preset = wqsim.get_preset("fig2")
cfg = preset.config
print(f"scenario: {preset.notes}")
print(f"steady-state classifier: {wqsim.classify_steady_state(cfg).label}")

kgrid = wqsim.KGrid.centered(cfg.omega_a, 45.0, 601)
dt = preset.settings.dt
t_end = preset.settings.t_end
cee = wqsim.solve_cee(cfg, t_end, dt)
pair = wqsim.solve_spectral_pair(cfg, cee, kgrid)
times, p1, p2 = pair.populations_series()
mats = wqsim.solve_two_photon(pair, at_times=[t_end / 4, t_end / 2, t_end])

print("\n  t      |c_ee|^2    P_e1      P_e2")
for frac in (0.0, 0.125, 0.25, 0.5, 1.0):
    i = int(frac * (len(times) - 1))
    print(f"{times[i]:6.2f}  {abs(pair.cee[i])**2:9.5f} "
          f"{p1[i]:9.5f} {p2[i]:9.5f}")

print("\ntwo-photon norm growth:")
for t, m in mats:
    print(f"  t = {t:5.1f}: {wqsim.two_photon_norm(m, kgrid):.4f}")
print("(the reconstructed two-photon sector runs a few percent above the "
 "unitary value; see README model-fidelity notes)")

if args.plot:
    from pathlib import Path
    from wqsim import plots
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plots.cascade_plots(out, cee, pair, mats[-1][1])
    print(f"plots written to {out}")
