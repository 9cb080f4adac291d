"""Spatial-domain models: emitted wave packets and mirror boundary checks.

Amplitudes for the propagating photon are piecewise functions of retarded
(t - z) or advanced (t + z) arguments, with pieces delimited by the mirror
and the atom positions.  A `SegmentedPacket` stores those retarded-time
formulas as callables over the already-solved amplitude trajectories, so a
field evaluation at any (z, t) costs one trajectory sample per segment and
no (z, t) grid is ever stored.

Evaluation follows the step-function convention Theta(0) = 1/2: each segment
enters with weight Theta(z - z_lo) - Theta(z - z_hi), which averages adjacent
segments at interior boundaries and halves the exterior edges.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .dde import DelaySystem, Trajectory, integrate
from .errors import InvalidGeometry, MissingOrigin
from .model import AtomParams, NetworkConfig, validate_config
from .frequency import exchange_table, solve_cee


# ---------------------------------------------------------------------------
# amplitude trajectories
# ---------------------------------------------------------------------------

def solve_single_atom(atom: AtomParams, omega_a: float, t_end: float,
                      dt: float) -> Trajectory:
    """Excited-state amplitude of one atom in front of the mirror,
    c_e(0) = 1:  dc/dt = -(gr^2+gl^2)/2 c + gl gr e^{2i omega_a z} c(t - 2z).

    This is the same delay equation, equation coefficients and integrator as
    the frequency-domain doubly-excited solve with the second atom removed.
    """
    config = NetworkConfig(atoms=(atom,), omega_a=omega_a)
    return solve_cee(config, t_end, dt)


def solve_two_atom_single_excitation(config: NetworkConfig, t_end: float,
                                     dt: float) -> Trajectory:
    """Amplitudes (c_1, c_2) with only atom 1 initially excited.

    Atom j is damped at (gjr^2+gjl^2)/2, fed back by its own mirror round
    trip, and exchanges excitation with the other atom over the mirror path
    (z1 + z2) and the direct path (z2 - z1).
    """
    validate_config(config)
    if len(config.atoms) != 2:
        raise InvalidGeometry("two atoms required")
    delays, table = exchange_table(config)
    damping = np.array([a.damping for a in config.atoms])

    def rhs(t, y, ydel):
        # at dim 2 an elementwise product beats a BLAS matrix-vector call
        return (table * ydel.reshape(-1)).sum(axis=1) - damping * y

    system = DelaySystem(dim=2, delays=delays, rhs=rhs)
    return integrate(system, prehistory=np.zeros(2, complex),
                     t_span=(0.0, t_end), dt=dt,
                     initial_state=np.array([1.0 + 0j, 0.0 + 0j]))


# ---------------------------------------------------------------------------
# segmented wave packets
# ---------------------------------------------------------------------------

class Direction(Enum):
    RIGHT = "right"
    LEFT = "left"


@dataclass(frozen=True)
class SegmentedPacket:
    """Piecewise wave packet: (z_lo, z_hi, amplitude-of-retarded-argument).

    Right-moving packets take the argument u = t - z, left-moving ones
    w = t + z.  Segments partition [0, inf) for right packets; left packets
    end at the outermost atom.
    """

    direction: Direction
    segments: tuple[tuple[float, float, Callable[[np.ndarray], np.ndarray]], ...]

    def evaluate(self, z, t: float) -> np.ndarray:
        """Amplitude at positions z (scalar or array) at one time t."""
        z = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.zeros(z.shape, dtype=complex)
        arg = (t - z) if self.direction is Direction.RIGHT else (t + z)
        for z_lo, z_hi, amp in self.segments:
            w = _theta(z - z_lo) - (_theta(z - z_hi) if math.isfinite(z_hi) else 0.0)
            mask = w != 0.0
            if np.any(mask):
                out[mask] += w[mask] * amp(arg[mask])
        return out


def _theta(x: np.ndarray) -> np.ndarray:
    """Heaviside with Theta(0) = 1/2."""
    return np.where(x > 0.0, 1.0, np.where(x == 0.0, 0.5, 0.0))


def _carrier(traj: Trajectory, component: int, shift: float, omega_a: float
             ) -> Callable[[np.ndarray], np.ndarray]:
    """arg -> c(arg + shift) e^{-i omega_a (arg + shift)}, zero before t=0."""

    def amp(arg: np.ndarray) -> np.ndarray:
        tt = arg + shift
        c = traj.sample_grid(tt)[:, component]
        return c * np.exp(-1j * omega_a * tt)

    return amp


def single_atom_packets(ce_traj: Trajectory, atom: AtomParams, omega_a: float
                        ) -> tuple[SegmentedPacket, SegmentedPacket]:
    """(right, left) packets emitted by a single mirror-fed atom.

    Between mirror and atom the right-mover is the reflected image of the
    left-mover (f_r = -f_l); beyond the atom the outgoing amplitude combines
    direct emission and the mirror echo delayed by the round trip.
    """
    z1 = atom.position
    base = _carrier(ce_traj, 0, -z1, omega_a)          # c_e(arg - z1) carrier
    direct = _carrier(ce_traj, 0, +z1, omega_a)        # c_e(arg + z1) carrier

    def f_l(w):
        return atom.gamma_l * base(w)

    def f_r(u):
        return -f_l(u)

    def g_r(u):
        return atom.gamma_r * direct(u) - atom.gamma_l * base(u)

    right = SegmentedPacket(Direction.RIGHT,
                            ((0.0, z1, f_r), (z1, math.inf, g_r)))
    left = SegmentedPacket(Direction.LEFT, ((0.0, z1, f_l),))
    return right, left


def two_atom_packets(traj: Trajectory, config: NetworkConfig
                     ) -> tuple[SegmentedPacket, SegmentedPacket]:
    """(right, left) packets for the two-atom single-excitation network.

    Right segments cover [0, z1], [z1, z2], [z2, inf); the left packet
    vanishes beyond the outer atom.
    """
    if len(config.atoms) != 2:
        raise InvalidGeometry("two atoms required")
    a1, a2 = config.atoms
    z1, z2 = a1.position, a2.position
    wa = config.omega_a
    c1_m = _carrier(traj, 0, -z1, wa)     # c_1(arg - z1) carrier
    c1_p = _carrier(traj, 0, +z1, wa)
    c2_m = _carrier(traj, 1, -z2, wa)
    c2_p = _carrier(traj, 1, +z2, wa)

    def g_l(w):
        return a2.gamma_l * c2_m(w)

    def f_l(w):
        return a2.gamma_l * c2_m(w) + a1.gamma_l * c1_m(w)

    def f_r(u):
        return -f_l(u)

    def g_r(u):
        return f_r(u) + a1.gamma_r * c1_p(u)

    def h_r(u):
        return g_r(u) + a2.gamma_r * c2_p(u)

    right = SegmentedPacket(Direction.RIGHT,
                            ((0.0, z1, f_r), (z1, z2, g_r), (z2, math.inf, h_r)))
    left = SegmentedPacket(Direction.LEFT,
                           ((0.0, z1, f_l), (z1, z2, g_l)))
    return right, left


def packets_for(config: NetworkConfig, traj: Trajectory
                ) -> tuple[SegmentedPacket, SegmentedPacket]:
    """Dispatch on atom count."""
    if len(config.atoms) == 1:
        return single_atom_packets(traj, config.atoms[0], config.omega_a)
    return two_atom_packets(traj, config)


def eval_single_atom_field(z, t: float, ce_traj: Trajectory, atom: AtomParams,
                           omega_a: float) -> tuple[np.ndarray, np.ndarray]:
    """(Phi_R, Phi_L) at positions z, time t, for the single-atom network."""
    right, left = single_atom_packets(ce_traj, atom, omega_a)
    return right.evaluate(z, t), left.evaluate(z, t)


def eval_two_atom_field(z, t: float, traj: Trajectory, config: NetworkConfig
                        ) -> tuple[np.ndarray, np.ndarray]:
    """(Phi_r, Phi_l) at positions z, time t, for the two-atom network."""
    right, left = two_atom_packets(traj, config)
    return right.evaluate(z, t), left.evaluate(z, t)


# ---------------------------------------------------------------------------
# snapshots, boundary and norm checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSnapshot:
    """Both field amplitudes sampled on a z-grid at one instant."""

    t: float
    z_values: np.ndarray
    phi_r: np.ndarray
    phi_l: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.z_values) == len(self.phi_r) == len(self.phi_l)):
            raise ValueError("z/phi arrays must have equal length")


def field_snapshot(config: NetworkConfig, traj: Trajectory, t: float,
                   z_values: np.ndarray | None = None,
                   dz: float | None = None) -> FieldSnapshot:
    """Sample both packets on a z-grid at time t.

    Default grid: spacing ~ the trajectory step over [0, z_outer + t], so
    retarded arguments land near trajectory nodes.
    """
    z_outer = config.atoms[-1].position
    if z_values is None:
        if dz is None:
            dz = traj.dt * traj.stride
        n = int(np.ceil((z_outer + t) / dz)) + 1
        z_values = np.linspace(0.0, z_outer + t, n)
    right, left = packets_for(config, traj)
    return FieldSnapshot(t=float(t), z_values=np.asarray(z_values, float),
                         phi_r=right.evaluate(z_values, t),
                         phi_l=left.evaluate(z_values, t))


def check_mirror_boundary(snapshot: FieldSnapshot) -> float:
    """|Phi_R(0, t) + Phi_L(0, t)|; the mirror forces it to vanish."""
    at0 = np.flatnonzero(snapshot.z_values == 0.0)
    if at0.size == 0:
        raise MissingOrigin("snapshot grid does not include z = 0")
    i = int(at0[0])
    return float(abs(snapshot.phi_r[i] + snapshot.phi_l[i]))


def single_excitation_norm(config: NetworkConfig, traj: Trajectory, t: float,
                           dz: float | None = None) -> float:
    """sum_j |c_j(t)|^2 + integral (|Phi_r|^2 + |Phi_l|^2) dz on [0, z_out+t].

    Trapezoid in z with spacing <= the trajectory node spacing.
    """
    snap = field_snapshot(config, traj, t, dz=dz)
    c = traj.sample(t)
    atom_part = float(np.sum(np.abs(c) ** 2))
    dens = np.abs(snap.phi_r) ** 2 + np.abs(snap.phi_l) ** 2
    field_part = float(np.trapezoid(dens, snap.z_values))
    return atom_part + field_part
