"""Single-atom emission: decay laws and the emitted packet in space.

One atom at z1 = 2.25 pi / omega_a, where the round-trip phase is a quarter
turn and the feedback neither protects nor accelerates: the excited
population follows |c_e|^2 = e^{-(gL^2 + gR^2) t}.  At fixed total coupling
gL + gR, chirality therefore speeds up the decay (gL^2 + gR^2 is minimal at
gL = gR).  The emitted field is the image sum over the atom's retarded
amplitude: the right-moving packet carries the direct emission plus the
mirror image of the left-moving one, so Phi_R(0, t) = -Phi_L(0, t).

Run:  python demos/single_atom_packet.py [--plot]
"""
import argparse
import math

import numpy as np

import wqsim

parser = argparse.ArgumentParser()
parser.add_argument("--plot", action="store_true")
parser.add_argument("--out", default="demo_out/single_atom_packet")
args = parser.parse_args()

WA = 50.0
z1 = 2.25 * math.pi / WA
t_end = 40 * z1
dt = 2 * z1 / 64

print("decay-rate comparison at fixed gamma_L + gamma_R = 0.4:")
for gl, gr, tag in ((0.2, 0.2, "nonchiral"), (0.1, 0.3, "3:1 chiral"),
                    (0.05, 0.35, "7:1 chiral")):
    atom = wqsim.AtomParams(z1, gl, gr)
    traj = wqsim.solve_single_atom(atom, WA, t_end, dt)
    print(f"  {tag:11s} gL={gl:.2f} gR={gr:.2f}: |c_e(T)|^2 = "
          f"{abs(traj.states[-1, 0])**2:.4f}, law e^(-(gL^2+gR^2)T) = "
          f"{math.exp(-(gl**2 + gr**2) * t_end):.4f}")

atom = wqsim.AtomParams(z1, 0.1, 0.3)
cfg = wqsim.NetworkConfig(atoms=(atom,), omega_a=WA)
traj = wqsim.solve_single_atom(atom, WA, t_end, dt)
snap = wqsim.field_snapshot(cfg, traj, t_end)
print(f"\npacket snapshot at t = {t_end:.2f}:")
print(f"  mirror residual |Phi_R(0)+Phi_L(0)| = "
      f"{wqsim.check_mirror_boundary(snap):.1e}")
dens = np.abs(snap.phi_r) ** 2
front = snap.z_values[np.flatnonzero(dens > 1e-12)[-1]]
peak = snap.z_values[np.argmax(dens)]
print(f"  right-moving density: peak at z = {peak:.2f}, "
      f"front at z = {front:.2f} (light cone z1 + t = {z1 + t_end:.2f})")
print(f"  norm |c_e|^2 + field = "
      f"{wqsim.single_excitation_norm(snap, traj):.5f}")

if args.plot:
    from pathlib import Path
    from wqsim import plots
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plots.spatial_plots(out, traj, snap, ["c_e"])
    print(f"plots written to {out}")
