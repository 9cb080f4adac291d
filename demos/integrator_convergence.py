"""Engine sanity: RK4 order, dense history, and method-of-steps exactness.

The backbone integrator is classical RK4 on a uniform grid.  Each delayed
read of a stage resolves once, at setup, to a node offset and a cubic
Hermite fraction; the history is a ring of node states plus the Hermite
rows of closed node intervals, so a read is a row copy, and reads before
t = 0 return the pre-history constant.  Three checks below: 4th-order
endpoint convergence on a smooth problem, the piecewise-polynomial solution
of x'(t) = -x(t-1), and decay-rate accuracy for the atomic delay equation
against its characteristic root.

Run:  python demos/integrator_convergence.py
"""
import math

import numpy as np

import wqsim

print("RK4 endpoint error vs step (dy/dt = -y, T = 2):")
prev = None
for dt in (0.1, 0.05, 0.025, 0.0125):
    system = wqsim.DelaySystem(dim=1, delays=(), rhs=lambda t, y, yd: -y)
    traj = wqsim.integrate(system, prehistory=1.0, t_span=(0.0, 2.0), dt=dt)
    err = abs(traj.states[-1, 0] - math.exp(-2.0))
    ratio = "" if prev is None else f"   ratio {prev / err:5.1f}"
    print(f"  dt = {dt:7.4f}: err = {err:.3e}{ratio}")
    prev = err

print("\nmethod of steps, x'(t) = -x(t-1), unit pre-history:")
system = wqsim.DelaySystem(dim=1, delays=(1.0,), rhs=lambda t, y, yd: -yd[0])
traj = wqsim.integrate(system, prehistory=1.0, t_span=(0.0, 2.0), dt=1 / 64)
t = traj.times
exact = np.where(t <= 1.0, 1.0 - t, 1.0 - t + 0.5 * (t - 1.0) ** 2)
print(f"  max deviation from the piecewise polynomial: "
      f"{np.abs(traj.states[:, 0] - exact).max():.2e}")

print("\natomic delay equation vs characteristic root (chiral atom):")
atom = wqsim.AtomParams(0.1, 0.25, 0.5)
wa = 50.0
traj = wqsim.solve_single_atom(atom, wa, 8.0, 2 * atom.position / 64)
# dominant root of s + (gR^2+gL^2)/2 - gL gR e^{i wa tau} e^{-s tau} = 0
s = complex(-atom.damping)
for _ in range(60):
    s = -atom.damping + atom.feedback * np.exp(1j * wa * 0.2) * np.exp(-0.2 * s)
measured = (np.log(np.abs(traj.states[-1, 0]))
            - np.log(np.abs(traj.states[len(traj.times) // 2, 0]))) / 4.0
print(f"  root Re(s) = {s.real:+.6f},  measured late-time rate = "
      f"{measured:+.6f}")
