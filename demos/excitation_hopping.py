"""Excitation hopping between two distant atoms, one excitation total.

Atom 1 (z1 = 1, nonchiral) is excited; atom 2 sits far away at z2 = 10.
Nothing reaches atom 2 before the direct flight time z2 - z1 = 9 -- its
amplitude is exactly zero until then (the integrator's zero pre-history
makes causality exact, not approximate).  After t = 9 the right-moving
packet excites it transiently, the more so the stronger its right coupling;
the mirror echo path (z1 + z2 = 11) follows two time units later.

Run:  python demos/excitation_hopping.py [--plot]
"""
import argparse

import numpy as np

import wqsim

parser = argparse.ArgumentParser()
parser.add_argument("--plot", action="store_true")
parser.add_argument("--out", default="demo_out/excitation_hopping")
args = parser.parse_args()

preset = wqsim.get_preset("fig6")
cfg = preset.config
dt = preset.settings.dt
t_end = 30.0

print(f"scenario: {preset.notes}")
traj = wqsim.solve_two_atom_single_excitation(cfg, t_end, dt)
c2 = np.abs(traj.states[:, 1]) ** 2
t9 = np.searchsorted(traj.times, 9.0)
print(f"max |c_2|^2 before t = 9: {c2[:t9].max():.1e} (exactly zero)")
print("\n  t     |c_1|^2   |c_2|^2")
for t_mark in (5.0, 9.5, 11.0, 13.0, 20.0, 30.0):
    i = np.searchsorted(traj.times, t_mark)
    print(f"{traj.times[i]:6.2f} {abs(traj.states[i,0])**2:9.5f} "
          f"{c2[i]:9.5f}")

swapped = wqsim.NetworkConfig(
    atoms=(cfg.atoms[0],
           wqsim.AtomParams(cfg.atoms[1].position, cfg.atoms[1].gamma_r,
                            cfg.atoms[1].gamma_l)),
    omega_a=cfg.omega_a)
traj_sw = wqsim.solve_two_atom_single_excitation(swapped, t_end, dt)
print(f"\npeak |c_2|^2, right-favored (gR=0.5, gL=0.1): {c2.max():.4f}")
print(f"peak |c_2|^2, left-favored  (gR=0.1, gL=0.5): "
      f"{(np.abs(traj_sw.states[:, 1])**2).max():.4f}")

snap = wqsim.field_snapshot(cfg, traj, t_end)
print(f"\nsnapshot at t = {t_end:g}: mirror residual "
      f"{wqsim.check_mirror_boundary(snap):.1e}, norm "
      f"{wqsim.single_excitation_norm(snap, traj):.5f}")

if args.plot:
    from pathlib import Path
    from wqsim import plots
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plots.spatial_plots(out, traj, snap, ["c1", "c2"])
    print(f"plots written to {out}")
