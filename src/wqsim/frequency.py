"""Two-excitation dynamics of the mirror-terminated two-atom network.

The cascade solves, in order: the closed delay equation for the doubly
excited amplitude, the per-mode pair equations for the single-photon
amplitudes (vectorized over the whole mode grid and advanced by the
closed-form linear RK4 step `dde.integrate_linear`), and the two-photon
amplitudes by time quadrature.  `oracle_full_grid` integrates the raw
discretized integro-differential system instead - no delay reduction - and
serves as the brute-force cross-check for everything above.

Two-photon amplitudes are stored in the normalized convention in which the
plain quadrature  sum |c_kk|^2 dk^2  is the physical two-photon probability;
the symmetrized evolution equation produces an amplitude sqrt(2) larger, and
the conversion happens at the reporting boundary.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dde import (Trajectory, integrate, integrate_linear, linear_system,
                  step_count)
from .errors import InvalidGeometry, NonFiniteState, OutsideMarkovRegimeWarning
from .model import KGrid, NetworkConfig, coupling_row

TWO_PHOTON_SCALE = 1.0 / math.sqrt(2.0)

# phase advance per recorded node kept below this bound so that trapezoid
# quadrature of e^{i(k - omega_a) t} integrands stays at the few-1e-3 level
_MAX_PHASE_PER_NODE = 0.15
# half-steps per coarse row of the pair solve's two-level phase table
_PHASE_BLOCK = 128
# record nodes per chunk of the two-photon GEMM (2 * 128 stacked rows) and
# of the population sums
_RECORD_CHUNK = 128
# steps per block of the oracle's two-photon update
_ORACLE_BLOCK = 4


# ---------------------------------------------------------------------------
# closed c_ee equation and its Markov limit
# ---------------------------------------------------------------------------

def cee_equation(config: NetworkConfig
                 ) -> tuple[np.ndarray, tuple[float, ...], np.ndarray]:
    """Delay equation of the doubly excited amplitude,
    dc/dt = -gamma_RL c + sum_j gamma_jL gamma_jR e^{i omega_a tau_j} c(t - tau_j),
    as (damping, delays, table) for `dde.linear_system`: the delays are the
    mirror round trips tau_j, and the (1, len(delays)) table holds their
    coefficients."""
    taus = config.round_trip_delays
    table = np.array([[a.feedback * np.exp(1j * config.omega_a * tau)
                       for a, tau in zip(config.atoms, taus)]])
    return np.array([config.gamma_rl]), taus, table


def exchange_table(config: NetworkConfig
                   ) -> tuple[np.ndarray, tuple[float, ...], np.ndarray]:
    """Delay equations of the two-atom single-excitation amplitudes.

    Returns (damping, delays, table) for `dde.integrate_block`: the
    per-atom dampings (gamma_jR^2 + gamma_jL^2)/2, `config.delays`, and the
    (2, 8) table of delayed couplings, one column pair per delay (coinciding
    delays keep theirs; the tap table merges their reads).  Each atom is
    fed back by its own mirror round trip and exchanges excitation with the
    other over the mirror path (z1 + z2) and the direct path (z2 - z1).
    """
    a1, a2 = config.atoms
    delays = config.delays
    table = np.zeros((2, 8), dtype=complex)
    # (receiving atom, index into delays, emitting atom, gain)
    for row, d, col, gain in ((0, 0, 0, a1.feedback),
                              (0, 2, 1, a1.gamma_r * a2.gamma_l),
                              (0, 3, 1, -a1.gamma_l * a2.gamma_l),
                              (1, 1, 1, a2.feedback),
                              (1, 2, 0, a1.gamma_l * a2.gamma_r),
                              (1, 3, 0, -a1.gamma_r * a2.gamma_r)):
        table[row, 2 * d + col] = gain * np.exp(1j * config.omega_a * delays[d])
    return np.array([a1.damping, a2.damping]), delays, table


def solve_cee(config: NetworkConfig, t_end: float, dt: float) -> Trajectory:
    """Doubly excited amplitude on [0, t_end] with c_ee(0) = 1 and zero
    field history before the initial instant."""
    return integrate(linear_system(*cee_equation(config)),
                     prehistory=0.0 + 0.0j, t_span=(0.0, t_end), dt=dt,
                     initial_state=1.0 + 0.0j)


def markov_exponent(config: NetworkConfig) -> complex:
    """Short-delay (Markov) exponent of c_ee: delayed amplitudes replaced by
    instantaneous ones while the delay phases are retained.  The real part
    is the amplitude's decay rate (<= 0), the imaginary part its shift."""
    damping, _, table = cee_equation(config)
    return complex(table.sum() - damping[0])


def analytic_cee_markov(t, config: NetworkConfig):
    """Short-delay closed form  c_ee = exp(markov_exponent * t).  Modulus is
    <= 1 and non-increasing for t >= 0."""
    t = np.asarray(t, dtype=float)
    out = np.exp(markov_exponent(config) * t)
    return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# per-mode single-photon pair equations
# ---------------------------------------------------------------------------

@dataclass
class SpectralPairResult:
    """Single-photon amplitudes on the mode grid, recorded on every
    stride-th integration node (spacing dt * stride) and the final node."""

    times: np.ndarray
    cee: np.ndarray            # c_ee sampled at `times`
    cegk: np.ndarray           # (n_times, n_modes): atom 1 excited + photon
    cgek: np.ndarray           # (n_times, n_modes): atom 2 excited + photon
    kgrid: KGrid
    config: NetworkConfig
    stride: int

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def index_at(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))

    def populations_series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, P_e1, P_e2): per-atom excited-state populations."""
        return (self.times, *_excited_populations(
            self.cee, self.cegk, self.cgek, self.kgrid.dk))


def _pair_record_stride(kgrid: KGrid, dt: float) -> int:
    half_width = float(np.max(np.abs(kgrid.k_values - kgrid.center)))
    if half_width <= 0.0:
        return 1
    return max(1, int(_MAX_PHASE_PER_NODE / (half_width * dt)))


def solve_spectral_pair(config: NetworkConfig, cee_traj: Trajectory,
                        kgrid: KGrid) -> SpectralPairResult:
    """Solve the driven pair equations for c_egk, c_gek on the whole grid,
    on the step grid of `cee_traj`.

    Both amplitudes start at zero and are driven by the precomputed c_ee;
    the four delays are the two mirror round trips and the mirror-path and
    direct inter-atom delays.  The per-mode systems share their delays,
    damping and exchange table, differ only in the drive, and are advanced
    together as one (2, N) state by `integrate_linear`: per step, one
    gather of delayed rows and one `exchange_table @` product at the half
    step and at the full step, then RK4's stages eliminated in closed form.
    The record keeps every stride-th node, the stride set by the phase
    bound `_MAX_PHASE_PER_NODE`, and the final node, so its last interval
    is shorter when the stride does not divide the step count.
    """
    if len(config.atoms) != 2:
        raise InvalidGeometry("the two-excitation cascade needs two atoms")
    dt = cee_traj.dt
    n_steps = len(cee_traj.times) - 1
    a1, a2 = config.atoms
    n = len(kgrid)
    damping, delays, table = exchange_table(config)
    # drive of (c_egk, c_gek): atom 2 resp. atom 1 emits from |ee>
    drive_row = -1j * np.stack([coupling_row(kgrid, a2), coupling_row(kgrid, a1)])

    # c_ee and e^{i(k - omega_a) t} at every half-step: the phase as a
    # coarse row (every _PHASE_BLOCK half-steps) times a fine row
    half_grid = 0.5 * dt * np.arange(2 * n_steps + 1)
    cee_half = cee_traj.sample_grid(half_grid)[:, 0]
    detuning = kgrid.k_values - config.omega_a
    coarse = np.exp(1j * np.outer(half_grid[::_PHASE_BLOCK], detuning))
    fine = np.exp(1j * np.outer(half_grid[:_PHASE_BLOCK], detuning))

    def drive(h: int) -> np.ndarray:
        ph = coarse[h // _PHASE_BLOCK] * fine[h % _PHASE_BLOCK]
        return (cee_half[h] * drive_row) * ph

    record_stride = _pair_record_stride(kgrid, dt)
    times, states = integrate_linear(np.zeros((2, n), dtype=complex),
                                     damping[:, None], table, delays, drive,
                                     dt, n_steps, record_stride)
    cee_rec = cee_traj.sample_grid(times)[:, 0]
    return SpectralPairResult(times=times, cee=cee_rec,
                              cegk=states[:, :n], cgek=states[:, n:],
                              kgrid=kgrid, config=config,
                              stride=record_stride)


# ---------------------------------------------------------------------------
# two-photon sector by time quadrature
# ---------------------------------------------------------------------------

def solve_two_photon(pair: SpectralPairResult,
                     at_times: list[float] | None = None
                     ) -> list[tuple[float, np.ndarray]]:
    """Two-photon amplitude matrices c_kk(k1, k2, t) at the requested times
    (default: the end of the pair record), by trapezoid quadrature of the
    symmetrized pair sources over the recorded nodes t_j <= t:
    c_kk = -i/sqrt(2) (S + S^T), S = sum_j w_j (c_egk(t_j) (x) g_1 +
    c_gek(t_j) (x) g_2) e^{i(k_2 - omega_a) t_j}, w the trapezoid weights.
    Checkpoints are taken in time order; S gains the integral since the
    previous one as one GEMM per `_RECORD_CHUNK` nodes, stacked
    (c_egk | c_gek) rows against their phase-weighted couplings.  Besides
    the results it holds two N x N buffers and one chunk.

    Each time is taken at its nearest recorded node; a time that is not
    finite raises ValueError.  Matrices are exactly symmetric and returned
    in the normalized convention (see module docstring).
    """
    cfg = pair.config
    g1 = coupling_row(pair.kgrid, cfg.atoms[0])
    g2 = coupling_row(pair.kgrid, cfg.atoms[1])
    det = pair.kgrid.k_values - cfg.omega_a
    times = pair.times
    if at_times is None:
        at_times = [float(times[-1])]
    for t in at_times:
        if not math.isfinite(t):
            raise ValueError(f"two-photon time {t!r} is not finite")
    idx = [pair.index_at(t) for t in at_times]

    n = len(pair.kgrid)
    acc = np.zeros((n, n), dtype=complex)
    prod = np.empty_like(acc)
    rows = np.empty((2 * _RECORD_CHUNK, n), dtype=complex)
    coup = np.empty_like(rows)
    out: list[tuple[float, np.ndarray]] = [(0.0, np.zeros((0, 0)))] * len(at_times)
    start = 0   # acc holds the quadrature over [0, times[start]]
    for pos in np.argsort(idx):
        m = idx[pos]
        half_gap = 0.5 * np.diff(times[start:m + 1])
        w = np.append(half_gap, 0.0) + np.insert(half_gap, 0, 0.0)
        for j0 in range(start, m + 1, _RECORD_CHUNK):
            j1 = min(m + 1, j0 + _RECORD_CHUNK)
            r = j1 - j0
            rows[:r] = pair.cegk[j0:j1]
            rows[r:2 * r] = pair.cgek[j0:j1]
            phase = coup[r:2 * r]
            np.exp(1j * np.multiply.outer(times[j0:j1], det), out=phase)
            phase *= w[j0 - start:j1 - start, None]
            np.multiply(phase, g1, out=coup[:r])
            phase *= g2
            np.matmul(rows[:2 * r].T, coup[:2 * r], out=prod)
            acc += prod
        start = m
        # x + x.T is exactly symmetric in floating point, and so is any
        # multiple of it
        ckk = acc + acc.T
        ckk *= -1j * TWO_PHOTON_SCALE
        out[pos] = (float(times[m]), ckk)
    return out


def two_photon_norm(ckk: np.ndarray, kgrid: KGrid) -> float:
    """Plain quadrature  sum |c_kk|^2 dk^2  (physical probability in the
    normalized convention)."""
    return float((np.abs(ckk) ** 2).sum() * kgrid.dk**2)


# ---------------------------------------------------------------------------
# state container, populations, norms
# ---------------------------------------------------------------------------

@dataclass
class TwoExcitationState:
    """Snapshot of the two-excitation amplitudes on a mode grid.

    `c_kk` lives on `ckk_grid` (defaults to `kgrid`); the oracle coarsens it
    to bound memory at n^2.  Symmetry of c_kk is validated on construction.
    """

    c_ee: complex
    c_egk: np.ndarray
    c_gek: np.ndarray
    c_kk: np.ndarray
    kgrid: KGrid
    ckk_grid: KGrid | None = None
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.ckk_grid is None:
            self.ckk_grid = self.kgrid
        m = len(self.ckk_grid)
        if self.c_kk.shape != (m, m):
            raise ValueError(f"c_kk must be ({m}, {m}), got {self.c_kk.shape}")
        asym = float(np.abs(self.c_kk - self.c_kk.T).max()) if m else 0.0
        if asym > 1e-12 * max(1.0, float(np.abs(self.c_kk).max())):
            raise ValueError(f"c_kk must be exchange symmetric, asym={asym}")


def _excited_populations(cee, cegk: np.ndarray, cgek: np.ndarray, dk: float):
    """P_e1 = |c_ee|^2 + sum_k |c_egk|^2 dk and P_e2 likewise with c_gek:
    plain-dk sums over the last (mode) axis, for one state or a series,
    `_RECORD_CHUNK` rows at a time to bound the |c|^2 temporaries."""
    def mode_sums(c: np.ndarray) -> np.ndarray:
        rows = c.reshape(-1, c.shape[-1])
        return np.concatenate([
            (np.abs(rows[i:i + _RECORD_CHUNK]) ** 2).sum(axis=-1)
            for i in range(0, len(rows), _RECORD_CHUNK)]).reshape(c.shape[:-1])

    pee = np.abs(cee) ** 2
    return pee + mode_sums(cegk) * dk, pee + mode_sums(cgek) * dk


def populations(state: TwoExcitationState) -> tuple[float, float]:
    """(P_e1, P_e2): each atom's excited population, plain-dk sums."""
    p1, p2 = _excited_populations(state.c_ee, state.c_egk, state.c_gek,
                                  state.kgrid.dk)
    return float(p1), float(p2)


def total_norm(state: TwoExcitationState) -> float:
    """|c_ee|^2 + sum |c_egk|^2 dk + sum |c_gek|^2 dk + sum |c_kk|^2 dk^2."""
    p1, p2 = populations(state)
    return (p1 + p2 - np.abs(state.c_ee) ** 2
            + two_photon_norm(state.c_kk, state.ckk_grid))


# ---------------------------------------------------------------------------
# brute-force oracle: direct integration of the discretized continuum
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    times: np.ndarray
    cee: np.ndarray
    checkpoints: list[TwoExcitationState]
    kgrid: KGrid
    ckk_grid: KGrid


def oracle_full_grid(config: NetworkConfig, kgrid: KGrid, t_end: float,
                     dt: float, ckk_stride: int = 4,
                     checkpoint_times: list[float] | None = None) -> OracleResult:
    """Integrate the full discretized integro-differential system by RK4:
    k-integrals become plain-dk sums, no delay reduction anywhere.

    The two-photon sector runs on (full grid) x (every ckk_stride-th mode) to
    bound memory; checkpoints report its symmetric square restriction, one
    per distinct step, in time order, nearest each of `checkpoint_times`
    (default: the last step), which must lie within half a step of the
    run [0, n_steps dt]; n_steps = `dde.step_count(t_end, dt)`, so the run
    ends past t_end when dt does not divide it.

    The stages are low rank.  d c_kk/dt = -i (c_egk g1s^T + g1 c_egk[sub]^T
    + c_gek g2s^T + g2 c_gek[sub]^T) is rank 4 and free of c_kk, and c_kk
    enters the other equations only through the projections c_kk conj(g1s)
    and c_kk conj(g2s).  Stage j's c_kk is thus C + a_j K_{j-1}, and a step
    adds a rank-12 term to C.  The couplings are known in advance, so a
    block of B = `_ORACLE_BLOCK` steps (cut short at checkpoints) is one
    (6B x m) @ C^T projection on their values at t, t + dt/2 and t + dt,
    per step a correction by the block's earlier terms and O(n + m) work
    per stage, and one rank-12B update of C, `_RECORD_CHUNK` rows at a time.
    """
    if len(config.atoms) != 2:
        raise InvalidGeometry("the two-excitation oracle needs two atoms")
    n = len(kgrid)
    sub = kgrid.subsample(ckk_stride)
    sub_idx = np.arange(0, n, ckk_stride)
    dk, dks = kgrid.dk, sub.dk
    idet = 1j * (kgrid.k_values - config.omega_a)
    g_0 = np.stack([coupling_row(kgrid, a) for a in config.atoms])

    n_steps = step_count(t_end, dt)
    t_last = n_steps * dt
    if checkpoint_times is None:
        checkpoint_times = [t_last]
    for t in checkpoint_times:
        if not -0.5 * dt <= t <= t_last + 0.5 * dt:   # NaN fails it too
            raise ValueError(f"checkpoint time {t!r} outside [0, {t_last!r}]")
    chk_steps = {min(n_steps, max(0, round(t / dt))) for t in checkpoint_times}
    edges = sorted({n_steps, *chk_steps, *range(0, n_steps, _ORACLE_BLOCK)})

    # y = (c_ee, c_egk, c_gek); C = c_kk and a block's pending U @ V apart
    y = np.zeros(1 + 2 * n, dtype=complex)
    y[0] = 1.0
    ckk = np.zeros((n, len(sub)), dtype=complex)
    ut = np.empty((12 * _ORACLE_BLOCK, n), dtype=complex)
    v = np.empty((12 * _ORACLE_BLOCK, len(sub)), dtype=complex)
    ks = [np.empty_like(y) for _ in range(4)]
    stages = [y] + [np.empty_like(y) for _ in range(3)]

    def rhs(state: np.ndarray, g: np.ndarray, proj: np.ndarray,
            out: np.ndarray) -> None:
        """(c_ee, c_egk, c_gek) derivative; proj's rows c_kk conj(g1s, g2s)."""
        out[0] = -1j * dk * np.vdot(g[::-1], state[1:])
        out[1:].reshape(2, n)[:] = -1j * state[0] * g[::-1] - 1j * dks * proj

    def factors(state: np.ndarray, g: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """(U^T, V), d c_kk/dt = -i U @ V, of one stage or a stack: U^T's rows
        c_egk, g1, c_gek, g2 per stage, V's their partners on the c_kk modes."""
        u = np.concatenate([state[..., 1:].reshape(-1, 2, 1, n),
                            g.reshape(-1, 2, 1, n)], axis=2)
        return u.reshape(-1, n), u[..., ::-1, ::ckk_stride].reshape(-1, len(sub))

    times = dt * np.arange(n_steps + 1)
    cee_rec = np.empty(n_steps + 1, dtype=complex)
    cee_rec[0] = y[0]
    checkpoints: list[TwoExcitationState] = []

    def snapshot(step: int) -> None:
        square = ckk[sub_idx, :] * TWO_PHOTON_SCALE
        square = 0.5 * (square + square.T)   # symmetric up to roundoff
        checkpoints.append(TwoExcitationState(
            c_ee=complex(y[0]), c_egk=y[1:1 + n].copy(),
            c_gek=y[1 + n:].copy(), c_kk=square,
            kgrid=kgrid, ckk_grid=sub, t=float(step * dt)))

    if 0 in chk_steps:
        snapshot(0)
    for b0, b1 in zip(edges, edges[1:]):
        # C projected on each step's conj(g1s, g2s) at t, t + dt/2, t + dt
        s = dt * np.arange(b0, b1)[:, None] + np.array([0.0, 0.5 * dt, dt])
        w = np.conj(g_0[:, sub_idx] * np.exp(idet[sub_idx] * s[..., None, None]))
        proj = w.reshape(-1, len(sub)) @ ckk.T
        for q, sq in enumerate(s):
            gq = g_0 * np.exp(idet * sq[:, None, None])
            wq, pq = w[q].reshape(6, -1), proj[6 * q:6 * q + 6]
            pq += (wq @ v[:12 * q].T) @ ut[:12 * q]
            # stage j runs on gq[i]; stage j + 1 (on gq[nxt]) has c_kk =
            # C + a K_j, so its projection is pq's row pair plus a K_j conj(w)
            p = pq[0:2]
            for j, (a, i, nxt) in enumerate(((0.5 * dt, 0, 1), (0.5 * dt, 1, 1),
                                             (dt, 1, 2))):
                rhs(stages[j], gq[i], p, ks[j])
                np.multiply(ks[j], a, out=stages[j + 1])
                stages[j + 1] += y
                u, vj = factors(stages[j], gq[i])
                c = slice(2 * nxt, 2 * nxt + 2)
                p = pq[c] + ((-1j * a) * (wq[c] @ vj.T)) @ u
            rhs(stages[3], gq[2], p, ks[3])
            # the step's term dt/6 (K_1 + 2 K_2 + 2 K_3 + K_4); K is linear in
            # the stage amplitudes, and stages 2 and 3 share their couplings
            ut[12 * q:12 * q + 12], vq = factors(np.stack(
                [stages[0], 2.0 * (stages[1] + stages[2]), stages[3]]), gq)
            v[12 * q:12 * q + 12] = vq * (-1j * dt / 6.0)
            y += ((ks[1] + ks[2]) * 2.0 + ks[0] + ks[3]) * (dt / 6.0)
            cee_rec[b0 + q + 1] = y[0]
        k = 12 * len(s)
        for r in range(0, n, _RECORD_CHUNK):   # C += U @ V, chunk by chunk
            ckk[r:r + _RECORD_CHUNK] += ut[:k, r:r + _RECORD_CHUNK].T @ v[:k]
        if b1 // 512 > b0 // 512 and not np.isfinite(y).all():
            raise NonFiniteState(f"oracle state non-finite at t={b1 * dt}")
        if b1 in chk_steps:
            snapshot(b1)

    if not (np.isfinite(y).all() and np.isfinite(ckk).all()):
        raise NonFiniteState("oracle state non-finite at end")
    return OracleResult(times=times, cee=cee_rec, checkpoints=checkpoints,
                        kgrid=kgrid, ckk_grid=sub)


# ---------------------------------------------------------------------------
# theorem-based steady-state classifier
# ---------------------------------------------------------------------------

class SteadyStateLabel(Enum):
    TWO_PHOTON = "TwoPhoton"
    ONE_PHOTON_TRAPPED = "OnePhotonTrapped"
    DARK_STATE = "DarkState"
    MIXED = "Mixed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class SteadyStateClass:
    """Predicted long-time fate of the network (short-delay limit values)."""

    label: SteadyStateLabel
    cee_limit_sq: float
    pe1_limit: float
    pe2_limit: float
    markov_regime: bool


_NODE_TOL = 1e-6


def _at_node(z: float, omega_a: float) -> bool:
    """z = n pi / omega_a for a positive integer n, within 1e-6."""
    x = z * omega_a / math.pi
    return abs(x - round(x)) < _NODE_TOL and round(x) >= 1


def classify_steady_state(config: NetworkConfig) -> SteadyStateClass:
    """Apply the steady-state predicates in priority order:

    DarkState         nonchiral everywhere and every atom at a node position;
    OnePhotonTrapped  atom 1 nonchiral at a node and atom 2 coupled in
                      exactly one direction;
    TwoPhoton         some atom strictly chiral (forces decay of c_ee);
    Mixed             anything else.

    Warns OutsideMarkovRegimeWarning when the short-delay assumptions that
    back the predicates are violated; the label is still returned.
    """
    wa = config.omega_a
    markov_ok = wa >= 10.0 and all(a.position <= 0.25 for a in config.atoms)
    if not markov_ok:
        warnings.warn(
            "configuration is outside the short-delay regime "
            "(omega_a >= 10 and z_j <= 0.25); classification is the "
            "short-delay prediction and may not match the full dynamics",
            OutsideMarkovRegimeWarning, stacklevel=2)

    atoms = config.atoms
    nonchiral = [not a.is_chiral for a in atoms]
    at_node = [_at_node(a.position, wa) for a in atoms]

    if all(nonchiral) and all(at_node):
        return SteadyStateClass(SteadyStateLabel.DARK_STATE, 1.0, 1.0, 1.0,
                                markov_ok)
    if (len(atoms) == 2 and nonchiral[0] and at_node[0]
            and ((atoms[1].gamma_r > 0.0) != (atoms[1].gamma_l > 0.0))):
        return SteadyStateClass(SteadyStateLabel.ONE_PHOTON_TRAPPED,
                                0.0, 1.0, 0.0, markov_ok)
    if any(a.is_chiral for a in atoms):
        return SteadyStateClass(SteadyStateLabel.TWO_PHOTON, 0.0, 0.0, 0.0,
                                markov_ok)
    decays = markov_exponent(config).real < -1e-12
    lim = 0.0 if decays else 1.0
    return SteadyStateClass(SteadyStateLabel.MIXED, lim, lim, lim, markov_ok)
