"""Spatial-domain picture: the emitted photon as a field on the half-line,
and the mirror boundary and norm checks on it.

With C_i(s) = c_i(s) e^{-i omega_a s}, zero for s < 0, the right- and
left-moving amplitudes are one image sum over the atoms:

    Phi_R(z, t) = Theta(z) [ -sum_i gamma_iL C_i(t - z - z_i)
                             + sum_i Theta(z - z_i) gamma_iR C_i(t - z + z_i) ]
    Phi_L(z, t) = Theta(z) sum_i Theta(z_i - z) gamma_iL C_i(t + z - z_i)

The first sum is the mirror image of the left-moving photon, which makes
Phi_R(0, t) = -Phi_L(0, t).  Steps follow Theta(0) = 1/2, so the field at
an atom is the average of its two sides and the mirror edge is halved.
The amplitudes are sampled from the already-solved trajectory; no (z, t)
grid is ever stored.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# integrate and solve_cee are not called here: bench/tracing.py wraps
# wqsim.spatial.integrate and wqsim.spatial.solve_cee by name
from .dde import Trajectory, integrate, integrate_block, step_count  # noqa: F401
from .errors import InvalidGeometry, MissingOrigin, OutOfRange
from .model import AtomParams, NetworkConfig
from .frequency import cee_equation, exchange_table, solve_cee  # noqa: F401


# ---------------------------------------------------------------------------
# amplitude trajectories
# ---------------------------------------------------------------------------

def solve_single_atom(atom: AtomParams, omega_a: float, t_end: float,
                      dt: float) -> Trajectory:
    """Excited-state amplitude of one atom in front of the mirror,
    c_e(0) = 1:  dc/dt = -(gr^2+gl^2)/2 c + gl gr e^{2i omega_a z} c(t - 2z).

    The same delay equation and coefficients as the doubly excited solve
    with the second atom removed (`cee_equation`), on the block engine.
    """
    config = NetworkConfig(atoms=(atom,), omega_a=omega_a)
    return _trajectory(np.array([1.0]), *cee_equation(config), t_end, dt)


def solve_two_atom_single_excitation(config: NetworkConfig, t_end: float,
                                     dt: float) -> Trajectory:
    """Amplitudes (c_1, c_2) with only atom 1 initially excited.

    Atom j is damped at (gjr^2+gjl^2)/2, fed back by its own mirror round
    trip, and exchanges excitation with the other atom over the mirror path
    (z1 + z2) and the direct path (z2 - z1).
    """
    if len(config.atoms) != 2:
        raise InvalidGeometry("two atoms required")
    return _trajectory(np.array([1.0, 0.0]), *exchange_table(config), t_end,
                       dt)


def _trajectory(y0, damping, delays, table, t_end, dt) -> Trajectory:
    """y' = -damping y + table @ Y, y(0) = y0 and zero before, on the block
    engine, keeping every node and its derivative."""
    n = step_count(t_end, dt)
    nodes = np.empty((n + 1, 2, len(y0)), dtype=complex)
    for first, y, dy in integrate_block(y0[:, None], damping, table, delays,
                                        dt, n):
        nodes[first:first + y.shape[1]] = np.moveaxis([y, dy], 2, 0)[..., 0]
    return Trajectory(nodes[:, 0], nodes[:, 1], dt,
                      np.zeros(len(y0), dtype=complex))


# ---------------------------------------------------------------------------
# the image sum
# ---------------------------------------------------------------------------

def _theta(x: np.ndarray) -> np.ndarray:
    """Heaviside with Theta(0) = 1/2."""
    return np.where(x > 0.0, 1.0, np.where(x == 0.0, 0.5, 0.0))


def _image_sum(config: NetworkConfig, traj: Trajectory, t: float,
               z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Phi_R, Phi_L) at positions z at time t; component i of `traj` is
    atom i's amplitude.

    A term is sampled only where its weight is nonzero: points past the
    light cone stay exact zeros, and an argument beyond the trajectory's
    end raises OutOfRange only where the field needs it.  At z = 0 the
    image terms and the left-moving terms take the same arguments and are
    summed in the same atom order, so Phi_R(0, t) + Phi_L(0, t) is exactly
    zero.
    """
    atoms = config.atoms
    z_i = np.array([[a.position] for a in atoms])
    g_l = np.array([[a.gamma_l] for a in atoms])
    g_r = np.array([[a.gamma_r] for a in atoms])
    inside = _theta(z)
    # (term, atom, point): Phi_R's image and direct terms, then Phi_L's
    weight = np.stack([-g_l * inside, g_r * _theta(z - z_i),
                       g_l * inside * _theta(z_i - z)])
    arg = np.stack([t - z - z_i, t - z + z_i, t + z - z_i])
    live = weight != 0.0
    s = arg[live]
    c = traj.sample_grid(s)[np.arange(s.size), np.nonzero(live)[1]]
    terms = np.zeros(weight.shape, dtype=complex)
    terms[live] = weight[live] * (c * np.exp(-1j * config.omega_a * s))
    phi_r = terms[0].sum(axis=0)
    # atom by atom from the mirror out: past atom i, Phi_R gains its emission
    for direct in terms[1]:
        phi_r += direct
    return phi_r, terms[2].sum(axis=0)


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
                   z_values: np.ndarray | None = None) -> FieldSnapshot:
    """Both fields at positions `z_values` at time t.

    Default grid: spacing ~ the trajectory step over [0, z_outer + t], so
    retarded arguments land near trajectory nodes.  Raises InvalidGeometry
    unless `traj` has one component per atom of `config`, and OutOfRange
    where the field needs the trajectory past its end, t is negative or
    not finite, or a position is not finite.
    """
    if traj.dim != len(config.atoms):
        raise InvalidGeometry(f"trajectory has {traj.dim} components for "
                              f"{len(config.atoms)} atom(s)")
    if not 0.0 <= t < np.inf:                     # NaN fails it too
        raise OutOfRange(f"snapshot time t={t!r} is not finite and >= 0")
    if z_values is None:
        z_end = config.atoms[-1].position + t
        z_values = np.linspace(0.0, z_end, int(np.ceil(z_end / traj.dt)) + 1)
    z = np.atleast_1d(np.asarray(z_values, dtype=float))
    if not (finite := np.isfinite(z)).all():
        raise OutOfRange(f"position z={float(z[~finite][0])!r} is not finite")
    phi_r, phi_l = _image_sum(config, traj, t, z)
    return FieldSnapshot(t=float(t), z_values=z, phi_r=phi_r, phi_l=phi_l)


def check_mirror_boundary(snapshot: FieldSnapshot) -> float:
    """|Phi_R(0, t) + Phi_L(0, t)|; the mirror forces it to vanish."""
    at0 = np.flatnonzero(snapshot.z_values == 0.0)
    if at0.size == 0:
        raise MissingOrigin("snapshot grid does not include z = 0")
    i = int(at0[0])
    return float(abs(snapshot.phi_r[i] + snapshot.phi_l[i]))


def single_excitation_norm(snapshot: FieldSnapshot, traj: Trajectory) -> float:
    """sum_j |c_j(t)|^2 + integral (|Phi_r|^2 + |Phi_l|^2) dz at the
    snapshot's time, the integral by trapezoid over its grid, which should
    cover [0, z_out + t] (the default grid of `field_snapshot` does).
    """
    c = traj.sample(snapshot.t)
    atom_part = float(np.sum(np.abs(c) ** 2))
    dens = np.abs(snapshot.phi_r) ** 2 + np.abs(snapshot.phi_l) ** 2
    field_part = float(np.trapezoid(dens, snapshot.z_values))
    return atom_part + field_part
