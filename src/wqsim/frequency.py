"""Two-excitation dynamics of the mirror-terminated two-atom network.

The cascade solves, in order: the closed delay equation for the doubly
excited amplitude, the per-mode pair equations for the single-photon
amplitudes (vectorized over a mode tile and advanced a block of steps at
a time by the closed-form RK4 of `dde.integrate_block`), and the
two-photon amplitudes by Gauss quadrature of the pair amplitudes' cubic
Hermite interpolant times a Chebyshev-interpolated phase kernel, a
Filon-type rule (Iserles and Norsett, Proc. R. Soc. A 461, 1383 (2005)).
`oracle_full_grid` integrates the raw discretized integro-differential
system instead - no delay reduction - and serves as the brute-force
cross-check for everything above.

The pair solve and the quadrature run on mode tiles whose bounds depend on
N alone (`_run_tiles`), so their bytes do not depend on WQSIM_THREADS.

Two-photon amplitudes are stored in the normalized convention in which the
plain quadrature  sum |c_kk|^2 dk^2  is the physical two-photon probability;
the symmetrized evolution equation produces an amplitude sqrt(2) larger, and
the conversion happens at the reporting boundary.
"""
from __future__ import annotations

import contextvars
import functools
import math
import os
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .dde import (Trajectory, _hermite_weights, integrate, integrate_block,
                  linear_system, step_count)
from .errors import (GridRevivalWarning, InvalidGeometry, NonFiniteState,
                     OutsideMarkovRegimeWarning)
from .model import KGrid, NetworkConfig, coupling_row

TWO_PHOTON_SCALE = 1.0 / math.sqrt(2.0)

# phase advance (k - omega_a) h per interval of the pair's time grid
_MAX_PHASE_PER_INTERVAL = 0.5
# half-steps per coarse row of the pair solve's two-level phase table
_PHASE_BLOCK = 128
# accumulator rows per chunk of a two-photon rank update (`_accumulate`):
# its product buffer is that many rows, not a second accumulator
_ROW_CHUNK = 128
# record intervals per block of the two-photon quadrature's phase interpolant
_QUAD_BLOCK = 512
# steps per block of the oracle's two-photon update
_ORACLE_BLOCK = 12
# modes per tile, at most, of the pair solve and the two-photon quadrature
_TILE_MODES = 512


# ---------------------------------------------------------------------------
# mode tiles on a thread pool
# ---------------------------------------------------------------------------

def _tiles(n: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of the near-equal tiles of at most `_TILE_MODES`
    modes of an n-mode grid: a function of n alone, never of the pool."""
    count = -(-n // _TILE_MODES)
    return [(n * i // count, n * (i + 1) // count) for i in range(count)]


def _thread_count(raw: str | None) -> int | None:
    """WQSIM_THREADS as a positive integer, None when unset or empty;
    ValueError for anything else, so every run refuses it at import."""
    raw = (raw or "").strip()
    if raw and not (raw.isdecimal() and int(raw) > 0):
        raise ValueError(f"WQSIM_THREADS must be a positive integer, got {raw!r}")
    return int(raw) if raw else None


# the tile pool's width, and WQSIM_THREADS' one effect: BLAS keeps its own
_THREADS = _thread_count(os.environ.get("WQSIM_THREADS"))


def _pool_width(tiles: int) -> int:
    """The tile pool's width: WQSIM_THREADS (parsed at import), else the
    usable cores; at most `tiles`."""
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    return min(_THREADS or cores, tiles)


@functools.cache
def _openblas() -> tuple[Callable, Callable] | None:
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where numpy's BLAS exports neither (looked up on the first tiled call)."""
    import ctypes
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _run_tiles(tasks: list[Callable[[], None]]) -> None:
    """Run one task per mode tile with numpy's OpenBLAS held to one thread,
    on `_pool_width` threads, or in order here at width 1 or where `_openblas`
    finds no thread control.  Each task runs to its end in a copy of the
    caller's context (`np.errstate` holds); then the error of the earliest
    non-finite node (`NonFiniteState.t`), else the first error, is raised."""
    def attempt(task, context):
        try:
            context.run(task)
        except Exception as err:   # raised once every task has ended
            return err

    width, blas = _pool_width(len(tasks)), _openblas()
    get, put = blas or (lambda: None, lambda threads: None)
    contexts = [contextvars.copy_context() for _ in tasks]
    threads = get()
    put(1)
    try:
        if blas is None or width == 1:
            ends = list(map(attempt, tasks, contexts))
        else:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(width) as pool:
                ends = list(pool.map(attempt, tasks, contexts))
    finally:
        put(threads)
    if failed := [err for err in ends if err is not None]:
        raise min(failed, key=lambda err: getattr(err, "t", math.inf))


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
    """Single-photon amplitudes on the mode grid at `times`, every
    stride-th integration node and the final node.  `record`: (n_times,
    value | derivative, c_egk | c_gek, n_modes), the cubic Hermite record
    of the two-photon quadrature (c_egk: atom 1 excited and a photon)."""

    times: np.ndarray
    cee: np.ndarray            # c_ee at `times`
    populations: np.ndarray    # (2, n_times): P_e1, P_e2 at `times`
    record: np.ndarray
    kgrid: KGrid
    config: NetworkConfig
    stride: int

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def cegk(self) -> np.ndarray:
        return self.record[:, 0, 0]

    @property
    def cgek(self) -> np.ndarray:
        return self.record[:, 0, 1]

    def index_at(self, t: float) -> int:
        return int(np.argmin(np.abs(self.times - t)))

    def populations_series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, P_e1, P_e2): per-atom excited-state populations."""
        return (self.times, *self.populations)


def _phase_width(kgrid: KGrid, omega_a: float) -> float:
    """W = max |k - omega_a|, the fastest phase rate of the pair record."""
    return float(np.max(np.abs(kgrid.k_values - omega_a)))


def solve_spectral_pair(config: NetworkConfig, cee_traj: Trajectory,
                        kgrid: KGrid) -> SpectralPairResult:
    """Solve the driven pair equations for c_egk, c_gek on the whole grid,
    on the step grid of `cee_traj`.

    Both amplitudes start at zero and are driven by the precomputed c_ee;
    the four delays are the two mirror round trips and the mirror-path and
    direct inter-atom delays.  The per-mode systems share their delays,
    damping and exchange table, and differ only in the drive.  Each mode
    tile (`_tiles`) is advanced as one (2, tile) state by its own
    `integrate_block`, with RK4's stages eliminated in closed form: 32 steps
    at a time on each of the two tiles at N = 1001.  The tiles run on
    `_run_tiles`, and each block writes the values and derivatives of its
    tile's modes at its nodes on one grid: at most
    `_MAX_PHASE_PER_INTERVAL` of phase and half the shortest delay per
    interval.  The grid ends at the final node, so its last interval is
    shorter when the stride does not divide the step count.  The
    populations are the record's mode sums, whatever the tiling.
    """
    if len(config.atoms) != 2:
        raise InvalidGeometry("the two-excitation cascade needs two atoms")
    dt = cee_traj.dt
    n_steps = len(cee_traj.states) - 1
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

    def drive(h: np.ndarray, cols: slice) -> np.ndarray:
        ph = coarse[h // _PHASE_BLOCK, cols] * fine[h % _PHASE_BLOCK, cols]
        ph *= cee_half[h, None]
        return drive_row[:, None, cols] * ph

    stride = max(1, min(int(min(delays) / (2 * dt)), int(
        _MAX_PHASE_PER_INTERVAL / (_phase_width(kgrid, config.omega_a) * dt))))
    steps = np.append(np.arange(0, n_steps, stride), n_steps)
    cee_out = cee_half[2 * steps]
    record = np.empty((len(steps), 2, 2, n), dtype=complex)

    def fill(cols: slice, blocks) -> None:
        for first, y, dy in blocks:
            lo, hi = np.searchsorted(steps, (first, first + y.shape[1]))
            at = steps[lo:hi] - first
            for i, v in enumerate((y, dy)):
                record[lo:hi, i, :, cols] = np.moveaxis(v[:, at], 1, 0)

    # each tile's engine sets up here, in this thread's malloc arena
    _run_tiles([functools.partial(fill, slice(lo, hi), integrate_block(
        np.zeros((2, hi - lo)), damping, table, delays, dt, n_steps,
        functools.partial(drive, cols=slice(lo, hi)))) for lo, hi in _tiles(n)])
    pops = np.empty((2, len(steps)))
    # the record's mode sums, a chunk of nodes at a time: whole-record
    # temporaries (12 MB each on fig2) would stay in the heap after the solve
    for i in range(0, len(steps), _ROW_CHUNK):
        rows = record[i:i + _ROW_CHUNK, 0]
        pops[:, i:i + _ROW_CHUNK] = _excited_populations(
            cee_out[i:i + _ROW_CHUNK], rows[:, 0], rows[:, 1], kgrid.dk)
    return SpectralPairResult(times=dt * steps, cee=cee_out, populations=pops,
                              record=record, kgrid=kgrid, config=config,
                              stride=stride)


# ---------------------------------------------------------------------------
# two-photon sector by time quadrature
# ---------------------------------------------------------------------------

def _phase_interpolant(t: np.ndarray, width: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Points s and a real (len(s), len(t)) basis l with e^{i w t_j} =
    sum_q l_qj e^{i w s_q} for |w| <= width: the barycentric Lagrange basis
    of the p Chebyshev points of the first kind on [t_0, t_-1], p the least
    count with 2 (width a / 2)^p / p! <= 2^-53, a the half-length (the
    error bound of the real and of the imaginary part; Trefethen,
    Approximation Theory and Approximation Practice, ch. 8).  When no p
    below len(t) meets it: s = t and l = I."""
    centre, half = 0.5 * (t[-1] + t[0]), 0.5 * (t[-1] - t[0])
    x = 0.5 * width * half
    p, bound = 1, 2.0 * x
    while bound > 2.0 ** -53 and p < len(t):
        p += 1
        bound *= x / p
    if p == len(t):
        return t, np.eye(p)
    theta = (np.arange(p) + 0.5) * (np.pi / p)
    points = centre + half * np.cos(theta)
    # from the rounded points: l interpolates where the caller's phases are
    diff = np.subtract.outer(points, t)
    hit = diff == 0.0   # a node on a point: its basis column is exact
    diff[hit] = 1.0
    basis = ((-1.0) ** np.arange(p) * np.sin(theta))[:, None] / diff
    basis /= basis.sum(axis=0)
    on_point = hit.any(axis=0)
    basis[:, on_point] = hit[:, on_point]
    return points, basis


def _phases(s: np.ndarray, det: np.ndarray, out: np.ndarray) -> None:
    """out = e^{i s (x) det}, with the rounding of s det added back by
    Dekker's exact product: it would move the phase by up to |s det| 2^-53,
    5e-14 at `fig3`'s end."""
    def halves(a):   # a = hi + lo exactly, hi of 26 bits (Veltkamp)
        hi = 134217729.0 * a
        hi -= hi - a
        return hi, a - hi
    (s1, s2), (d1, d2) = halves(s), halves(det)
    arg = np.multiply.outer(s, det)
    low = (np.multiply.outer(s1, d1) - arg + np.multiply.outer(s1, d2)
           + np.multiply.outer(s2, d1) + np.multiply.outer(s2, d2))
    np.exp(1j * arg, out=out)
    out *= 1.0 + 1j * low


def _accumulate(acc: np.ndarray, u: np.ndarray, v: np.ndarray,
                prod: np.ndarray | None = None) -> None:
    """acc += u^T v, `_ROW_CHUNK` rows of acc at a time, through `prod` (a
    buffer of that many rows of acc) when given, else a temporary."""
    for r in range(0, len(acc), _ROW_CHUNK):
        rows = acc[r:r + _ROW_CHUNK]
        rows += np.matmul(u[:, r:r + _ROW_CHUNK].T, v,
                          out=None if prod is None else prod[:len(rows)])


def _symmetric(a: np.ndarray, scale: complex) -> np.ndarray:
    """scale (a + a^T) as a new array, exactly symmetric: x + y and y + x
    round alike, and so do their equal multiples."""
    out = a + a.T
    out *= scale
    return out


def stream_two_photon(pair: SpectralPairResult, at_times: list[float]
                      ) -> Iterator[tuple[float, np.ndarray]]:
    """Two-photon amplitude matrices c_kk(k1, k2, t) at the requested times,
    yielded one at a time in time order (repeats included): c_kk =
    -i/sqrt(2) (S + S^T), S = int_0^t (c_egk (x) g_1 + c_gek (x) g_2)
    e^{i(k_2 - omega_a) s} ds over the cubic Hermite interpolant of the
    record (a Filon-type rule).

    S gains the integral since the previous checkpoint in blocks of at
    most `_QUAD_BLOCK` record intervals.  Each interval gets G
    Gauss-Legendre points, G the least with theta^(2G-3) / (2G-3)! <= 2^-53,
    theta = W h_max for W = max|k - omega_a| and the longest record
    interval (G = 9 on `fig2`); the Hermite basis at them is one (G, 4)
    table.  Over a block the phase is `_phase_interpolant`'s sum over p
    points, so a block is one rank-2p update of S (`_accumulate`) by the 2p
    sums, the folded value and derivative weights times the record, against
    their phase-weighted couplings.  Each mode tile (`_run_tiles`) forms its
    columns of the sums and updates its rows of S.  Besides the matrix it
    builds it holds S and the block's 2p sums and couplings, and each tile
    one `_ROW_CHUNK`-row product; no matrix it has yielded.

    Each time is taken at its nearest record node (`pair.times`); a time
    outside the record by more than half its longest interval, or not
    finite, raises ValueError at the call.  Matrices are exactly symmetric
    and in the normalized convention (see module docstring).
    """
    times = pair.times
    slack = 0.5 * float(np.diff(times).max(initial=0.0))
    for t in at_times:
        if not -slack <= t <= times[-1] + slack:   # NaN fails it too
            raise ValueError(
                f"two-photon time {t!r} outside [0, {float(times[-1])!r}]")
    return _two_photon_stream(pair, sorted(pair.index_at(t) for t in at_times))


def _two_photon_stream(pair: SpectralPairResult, stops: list[int]
                       ) -> Iterator[tuple[float, np.ndarray]]:
    """`stream_two_photon` past its checks, at sorted node indices."""
    from numpy.polynomial.legendre import leggauss   # 5 ms: not at import

    cfg = pair.config
    g1, g2 = (coupling_row(pair.kgrid, a) for a in cfg.atoms)
    det = pair.kgrid.k_values - cfg.omega_a
    width = _phase_width(pair.kgrid, cfg.omega_a)
    nodes = pair.times

    # G = (m + 3) / 2 for the least odd m = 2G - 3 with theta^m / m! <= 2^-53
    theta, m = width * float(np.diff(nodes).max(initial=0.0)), 1
    while theta and m * math.log(theta) - math.lgamma(m + 1) > -53 * math.log(2):
        m += 2
    x, w = leggauss((m + 3) // 2)
    herm = np.stack(_hermite_weights(0.5 * (x + 1.0)), axis=-1)   # (G, 4)
    n = len(pair.kgrid)
    acc = np.zeros((n, n), dtype=complex)

    def tile(acc, record, weights, u, v, prod):
        # acc += u^T v, u's rows 2q, 2q + 1 (c_egk, c_gek at point q) the
        # real weights times the real and imaginary parts of the tile's record
        for c in range(2):
            np.matmul(weights, record[:, :, c].view(float).reshape(
                weights.shape[1], -1), out=u[:, c].view(float))
        _accumulate(acc, u.reshape(-1, u.shape[-1]), v, prod)

    start = 0   # acc holds the integral up to node `start`
    for stop in stops:
        for j0 in range(start, stop, _QUAD_BLOCK):
            t_j = nodes[j0:min(stop, j0 + _QUAD_BLOCK) + 1]
            h = np.diff(t_j)[:, None]
            gauss = 0.5 * (t_j[1:] + t_j[:-1])[:, None] + 0.5 * h * x
            points, basis = _phase_interpolant(gauss.ravel(), width)
            basis = basis.reshape(len(points), *gauss.shape) * (0.5 * h * w)
            # (p, intervals, 4) folded into the weights of the (p, nodes, 2)
            # value and derivative rows; a derivative's weight scales by h
            part = np.einsum("qig,gc->qic", basis, herm)
            part[..., 1::2] *= h
            weights = np.zeros((len(points), len(t_j), 2))
            weights[:, :-1] = part[..., :2]
            weights[:, 1:] += part[..., 2:]
            p = len(points)
            coup = np.empty((p, 2, n), dtype=complex)
            _phases(points, det, coup[:, 1])
            np.multiply(coup[:, 1], g1, out=coup[:, 0])
            coup[:, 1] *= g2
            # the tiles' buffers come from this thread's malloc arena: a
            # worker's arena would keep them after the call
            u = np.empty((p, 2, n), dtype=complex)
            _run_tiles([functools.partial(
                tile, acc[lo:hi], pair.record[j0:j0 + len(t_j), ..., lo:hi],
                weights.reshape(p, -1), u[..., lo:hi], coup.reshape(2 * p, n),
                np.empty((min(hi - lo, _ROW_CHUNK), n), dtype=complex))
                for lo, hi in _tiles(n)])
        start = stop
        yield float(nodes[stop]), _symmetric(acc, -1j * TWO_PHOTON_SCALE)


def solve_two_photon(pair: SpectralPairResult,
                     at_times: list[float] | None = None
                     ) -> list[tuple[float, np.ndarray]]:
    """`stream_two_photon`'s (t, c_kk) pairs as one list in the order of
    `at_times` (default: the end of the record), every matrix held at once."""
    at_times = [pair.t_end] if at_times is None else at_times
    order = np.argsort([pair.index_at(t) for t in at_times], kind="stable")
    mats = dict(zip(order, stream_two_photon(pair, at_times)))
    return [mats[pos] for pos in range(len(at_times))]


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
        n, m = len(self.kgrid), len(self.ckk_grid)
        if np.shape(self.c_egk) != (n,) or np.shape(self.c_gek) != (n,):
            raise ValueError(f"c_egk and c_gek must be ({n},), got "
                             f"{np.shape(self.c_egk)}, {np.shape(self.c_gek)}")
        if self.c_kk.shape != (m, m):
            raise ValueError(f"c_kk must be ({m}, {m}), got {self.c_kk.shape}")
        # one buffer: |c_kk - c_kk^T|, then |c_kk|; an inf makes the bound inf
        buf = np.subtract(self.c_kk, self.c_kk.T)
        asym = float(np.abs(buf, out=buf).real.max(initial=0.0))
        peak = float(np.abs(self.c_kk, out=buf).real.max(initial=0.0))
        if not asym <= 1e-12 * max(1.0, peak) < math.inf:   # NaN fails it too
            raise ValueError(
                f"c_kk must be finite and exchange symmetric, asym={asym}")


def _excited_populations(cee, cegk: np.ndarray, cgek: np.ndarray, dk: float):
    """P_e1 = |c_ee|^2 + sum_k |c_egk|^2 dk and P_e2 likewise with c_gek:
    plain-dk sums over the last (mode) axis, for one state or a series."""
    pee = np.abs(cee) ** 2
    return (pee + (np.abs(cegk) ** 2).sum(axis=-1) * dk,
            pee + (np.abs(cgek) ** 2).sum(axis=-1) * dk)


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
    ends past t_end when dt does not divide it.  Warns GridRevivalWarning
    when 2 pi / (ckk_stride dk), the subgrid's revival time, is below that.

    The stages are low rank.  d c_kk/dt = -i sum_a (s_a g_as^T + g_a s_as^T),
    (s_1, s_2) = (c_egk, c_gek) and s on the c_kk modes, is rank 4 and free
    of c_kk, which enters the other equations only through the projections
    c_kk conj(g_as).  Stage j's c_kk is thus C + a_j K_{j-1}, and a step
    adds one rank-4 term per half step h to C, its s summed over the stages
    on g(t_h) (a step's K_4 and the next one's K_1 share theirs).  A block of
    B = `_ORACLE_BLOCK` steps (cut short at checkpoints) keeps its 2B + 1
    terms pending; each step projects C and the earlier ones.  Over a block
    the couplings are `_phase_interpolant`'s sum over p points, within 2^-53
    of g_a(0) e^{i (k - omega_a) t}, so the terms fold onto the points: C
    gains one rank-4p update (`_accumulate`), and the next block projects C
    at its p points (p = 12 for B = 12 on `wqsim verify oracle`'s plan).
    The points are one interpolant's, on a full block's half steps: a block
    cut short reads the basis columns of its leading half steps.
    """
    if len(config.atoms) != 2:
        raise InvalidGeometry("the two-excitation oracle needs two atoms")
    n = len(kgrid)
    sub = kgrid.subsample(ckk_stride)
    m = len(sub)
    dk, dks = kgrid.dk, sub.dk
    det = kgrid.k_values - config.omega_a
    width = _phase_width(kgrid, config.omega_a)
    # (g_2, g_1) at t = 0: the order in which rhs reads them
    g_0 = np.stack([coupling_row(kgrid, a) for a in config.atoms[::-1]])

    n_steps = step_count(t_end, dt)
    t_last = n_steps * dt
    if (revival := 2.0 * math.pi / (ckk_stride * dk)) < t_last:
        warnings.warn(f"c_kk subgrid revives at t = {revival:.3g} < run end "
                      f"{t_last:.3g}", GridRevivalWarning, stacklevel=2)
    if checkpoint_times is None:
        checkpoint_times = [t_last]
    for t in checkpoint_times:
        if not -0.5 * dt <= t <= t_last + 0.5 * dt:   # NaN fails it too
            raise ValueError(f"checkpoint time {t!r} outside [0, {t_last!r}]")
    chk_steps = {min(n_steps, max(0, round(t / dt))) for t in checkpoint_times}
    edges = sorted({n_steps, *chk_steps, *range(0, n_steps, _ORACLE_BLOCK)})

    # y = (c_ee, c_egk, c_gek); C = c_kk and a block's pending terms apart:
    # sum_h U_h^T V_h, with U_h's rows (s_1, s_2, g_2, g_1) at half step h and
    # V_h's (g_1s, g_2s, s_2s, s_1s) times -i dt/6, s RK4-weighted
    y = np.zeros(1 + 2 * n, dtype=complex)
    y[0] = 1.0
    ckk = np.zeros((n, m), dtype=complex)
    offsets = 0.5 * dt * np.arange(2 * _ORACLE_BLOCK + 1)
    ut = np.empty((len(offsets), 4, n), dtype=complex)
    v = np.empty((len(offsets), 4, m), dtype=complex)
    w = np.empty((len(offsets), 2, m), dtype=complex)
    # a full block's p points and e^{i (k - omega_a) s} at them
    points, basis = _phase_interpolant(offsets, width)
    p = len(points)
    phases = np.empty((p, 1, n), dtype=complex)
    _phases(points, det, phases[:, 0])
    # the same rows folded onto the points: the s rows, then the g rows
    uc = np.empty((2, p, 2, n), dtype=complex)
    vc = np.empty((2, p, 2, m), dtype=complex)
    scale = -1j * dt / 6.0
    ks = [np.empty_like(y) for _ in range(4)]
    stages = [y] + [np.empty_like(y) for _ in range(3)]
    amps = [s[1:].reshape(2, n) for s in stages]

    def rhs(state: np.ndarray, g: np.ndarray, proj: np.ndarray,
            out: np.ndarray) -> None:
        """(c_ee, c_egk, c_gek) derivative; g = (g_2, g_1), proj's rows
        c_kk conj(g_1s, g_2s)."""
        out[0] = -1j * dk * np.vdot(g, state[1:])
        out[1:].reshape(2, n)[:] = -1j * state[0] * g - 1j * dks * proj

    times = dt * np.arange(n_steps + 1)
    cee_rec = np.empty(n_steps + 1, dtype=complex)
    cee_rec[0] = y[0]
    checkpoints: list[TwoExcitationState] = []

    def snapshot(step: int) -> None:
        checkpoints.append(TwoExcitationState(
            c_ee=complex(y[0]), c_egk=y[1:1 + n].copy(),
            c_gek=y[1 + n:].copy(),
            c_kk=_symmetric(ckk[::ckk_stride], 0.5 * TWO_PHOTON_SCALE),
            kgrid=kgrid, ckk_grid=sub, t=float(step * dt)))

    if 0 in chk_steps:
        snapshot(0)
    for b0, b1 in zip(edges, edges[1:]):
        nh = 2 * (b1 - b0) + 1
        lead = basis[:, :nh]
        # the couplings at the p points and, interpolated, at the block's
        # half steps (step q reads 2q to 2q + 2); C's projections at the points
        np.multiply(g_0 * np.exp(1j * det * (b0 * dt)), phases, out=uc[1])
        g = ut[:nh, 2:]
        np.matmul(lead.T, uc[1].reshape(p, -1), out=g.reshape(nh, -1))
        gs, cs = g[:, ::-1, ::ckk_stride], uc[1, :, ::-1, ::ckk_stride]
        np.conjugate(gs, out=w[:nh])
        np.multiply(gs, scale, out=v[:nh, :2])
        np.multiply(cs, scale, out=vc[0])
        proj = uc[0].reshape(p, -1)
        np.matmul(np.conj(cs).reshape(2 * p, m), ckk.T,
                  out=proj.reshape(2 * p, n))
        ut[0, :2] = v[0, 2:] = 0.0   # no K_4 before the first step
        for q in range(b1 - b0):
            h = 2 * q
            pq = (basis.T[h:h + 3] @ proj).reshape(3, 2, n)
            pq += ((w[h:h + 3].reshape(6, m) @ v[:h + 1].reshape(-1, m).T)
                   @ ut[:h + 1].reshape(-1, n)).reshape(3, 2, n)
            # stage j runs on g[h + i]; stage j + 1 (on g[h + nxt]) has c_kk =
            # C + a K_j, so its projection is pq's plus a K_j conj(g_s)
            proj_j = pq[0]
            for j, (a, i, nxt) in enumerate(((0.5 * dt, 0, 1), (0.5 * dt, 1, 1),
                                             (dt, 1, 2))):
                rhs(stages[j], g[h + i], proj_j, ks[j])
                np.multiply(ks[j], a, out=stages[j + 1])
                stages[j + 1] += y
                s, wn = amps[j], w[h + nxt]
                proj_j = (pq[nxt] + ((-1j * a) * (wn @ gs[h + i].T)) @ s
                          + ((-1j * a) * (wn @ s[::-1, ::ckk_stride].T))
                          @ g[h + i])
            rhs(stages[3], g[h + 2], proj_j, ks[3])
            # the step's terms: K_1 completes half step h, 2 (K_2 + K_3)
            # fills h + 1, and K_4 starts h + 2
            ut[h, :2] += amps[0]
            ut[h + 1, :2] = 2.0 * (amps[1] + amps[2])
            ut[h + 2, :2] = amps[3]
            np.multiply(ut[h:h + 3, 1::-1, ::ckk_stride], scale,
                        out=v[h:h + 3, 2:])
            y += ((ks[1] + ks[2]) * 2.0 + ks[0] + ks[3]) * (dt / 6.0)
            cee_rec[b0 + q + 1] = y[0]
        # fold the terms' s rows onto the p points, over the projections,
        # which are used up: C += Uc^T Vc
        np.matmul(lead, ut[:nh, :2].reshape(nh, -1), out=proj)
        np.matmul(lead, v[:nh, 2:].reshape(nh, -1), out=vc[1].reshape(p, -1))
        _accumulate(ckk, uc.reshape(4 * p, n), vc.reshape(4 * p, m))
        if not np.isfinite(y).all():
            raise NonFiniteState(f"oracle state non-finite at t={b1 * dt}",
                                 b1 * dt)
        if b1 in chk_steps:
            snapshot(b1)

    if not (np.isfinite(y).all() and np.isfinite(ckk).all()):
        raise NonFiniteState(f"oracle state non-finite at t={t_last}", t_last)
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
