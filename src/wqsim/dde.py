"""Fixed-step method-of-steps integrators for complex delay systems.

Classical RK4 on a uniform grid with constant delays, so every delayed read
c(t_n + c dt - tau) of a stage at offset c (1/2 for k2 and k3, 1 for k4 and
the next node's derivative) lands at the same node offset and the same
cubic-Hermite fraction at every step.  `resolve_taps` resolves these taps
once into a table, which alone decides which reads coincide (up to
rounding), so delays may come in any order and may repeat.  It refuses
dt > min(positive delay)/8, so no tap reads a node the current step has not
produced yet.

Two engines run this scheme on one history ring (`HistoryBuffer`) of node
states and, per distinct off-node fraction, Hermite rows of the closed node
intervals.  No step of a block (`_block_size`) reads a node or interval the
block produces, so both write the ring once per block, and every read is a
ring row or slice.  Reads before t = 0 return the constant pre-history.
`integrate` calls an rhs closure at every stage (`linear_system` builds the
one of a linear system) and serves any `DelaySystem`: the doubly excited
solve (`solve_cee`) and user systems.  `integrate_block` runs the scheme in
closed form for linear systems whose delayed part and drive do not depend
on the step's own stages, a block at a time: the wide, driven pair
equations and both narrow spatial single-excitation solves.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NonFiniteState, OutOfRange, StepTooLarge

RhsFunc = Callable[[float, np.ndarray, np.ndarray], np.ndarray]

# stage offsets (in units of dt past the current node) that read the history
_STAGE_OFFSETS = (0.5, 1.0)
_SNAP = 1e-9
# longest block of steps an engine advances at once, and the bytes of the
# block's states that keep its arrays in the cache
_MAX_BLOCK = 64
_BLOCK_BYTES = 2**19


@dataclass(frozen=True)
class DelaySystem:
    """A pure delay system: dim, finite delays >= 0, and the rhs map.

    The delays may come in any order and may repeat.  rhs(t, y, ydel)
    receives a read-only (len(delays), dim) array whose row i is the state
    at t - delays[i], and must return dy/dt without side effects.
    """

    dim: int
    delays: tuple[float, ...]
    rhs: RhsFunc

    def __post_init__(self) -> None:
        d = tuple(float(x) for x in self.delays)
        if not all(math.isfinite(x) and x >= 0 for x in d):
            raise ValueError(f"delays must be finite and >= 0, got {d}")
        object.__setattr__(self, "delays", d)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


def linear_system(damping: np.ndarray, delays: Sequence[float],
                  table: np.ndarray) -> DelaySystem:
    """The DelaySystem  y' = -damping * y + table @ Y,  Y the delayed
    states in `integrate_block`'s layout (row u * dim + r is component r
    at t - delays[u])."""
    def rhs(t, y, ydel):
        return table @ ydel.reshape(-1) - damping * y

    return DelaySystem(dim=len(damping), delays=delays, rhs=rhs)


def _hermite_weights(s):
    """Cubic Hermite basis (h00, h10, h01, h11) at fraction s (scalar or
    array); exactly (1, 0, 0, 0) at s = 0 and (0, 0, 1, 0) at s = 1."""
    return ((1.0 + 2.0 * s) * (1.0 - s) ** 2, s * (1.0 - s) ** 2,
            s * s * (3.0 - 2.0 * s), s * s * (s - 1.0))


def _snap(x: float) -> float:
    nearest = round(x)
    return float(nearest) if abs(x - nearest) < _SNAP else x


def step_count(t_end: float, dt: float) -> int:
    """Number of dt steps that reach t_end: the last node is the first at
    or past t_end (up to 1e-9 of a step).  Raises ValueError unless both
    are finite and positive."""
    if not (0.0 < t_end < np.inf and 0.0 < dt < np.inf):
        raise ValueError(f"need finite T > 0 and dt > 0, got {t_end!r}, {dt!r}")
    return int(np.ceil(t_end / dt - 1e-9))


def resolve_taps(delays: Sequence[float], dt: float
                 ) -> list[list[tuple[int, float]]]:
    """Tap table: for each stage offset c and each delay tau, the (m, s)
    with t_n + c dt - tau = t_{n+m} + s dt, 0 <= s < 1, snapped to the node
    within 1e-9 and to an earlier tap's fraction within 1e-9.  A zero delay
    reads the stage state itself and gets (0, 0).

    Raises StepTooLarge when dt exceeds min(positive delays)/8.  Within that
    bound every tap reads node n - 7 or earlier, which the ring holds before
    step n starts.
    """
    positive = [tau for tau in delays if tau > 0.0]
    if positive:
        bound = min(positive) / 8.0
        if dt > bound * (1.0 + 1e-12):
            raise StepTooLarge(
                f"dt={dt!r} exceeds min(delay)/8 = {bound!r}; "
                "reduce dt or the delay evaluation would need extrapolation")
    table, seen = [], []
    for c in _STAGE_OFFSETS:
        row = []
        for tau in delays:
            if tau == 0.0:
                row.append((0, 0.0))
                continue
            x = _snap(c - _snap(tau / dt))
            m = math.floor(x)
            s = next((f for f in seen if abs(f - x + m) < _SNAP), x - m)
            seen.append(s)
            row.append((m, s))
        table.append(row)
    return table


class HistoryBuffer:
    """The history ring both engines read, for a tap table (`resolve_taps`),
    a constant (rows, cols) pre-history and a block of `size` steps.

    `ring[kind, :, j]` is a (rows, cols) state: kind 0 holds node states,
    kind 1 + f the Hermite rows at the f-th distinct off-node fraction of
    each closed node interval.  Node i and interval [i, i+1] live in column
    i % period, and columns period + j copy columns j < size, so every read
    of a block is one slice.  The period is the longest reach in whole
    blocks, which keeps each column, the pre-history before t = 0 included,
    while a read needs it.  `taps` holds the (kind, node lag) of each tap.
    """

    def __init__(self, taps: list[list[tuple[int, float]]], dt: float,
                 prehistory: np.ndarray, size: int) -> None:
        fractions = sorted({s for row in taps for _, s in row if s > 0.0})
        h00, h10, h01, h11 = _hermite_weights(np.array(fractions))
        self.weights = [w[:, None, None, None]
                        for w in (h00, h10 * dt, h01, h11 * dt)]
        self.size = size
        self.period = size * -(-max(_reaches(taps), default=size) // size)
        rows, cols = prehistory.shape
        self.ring = np.empty((1 + len(fractions), rows, self.period + size,
                              cols), dtype=complex)
        self.ring[:] = prehistory[:, None]
        self.taps = [[(0 if s == 0.0 else 1 + fractions.index(s), m)
                      for m, s in row] for row in taps]

    def sample(self, k: int, i: int, n: int) -> np.ndarray:
        """The state delay i reads in tap set k during step n."""
        kind, lag = self.taps[k][i]
        return self.ring[kind, :, (n + lag) % self.period]

    def write(self, n0: int, dy: np.ndarray) -> None:
        """Close the intervals [n0, n0 + k] of a block (n0 a multiple of
        size, k = dy.shape[1] - 1 <= size), whose end nodes are already in
        the ring: write their Hermite rows at every fraction at once, then
        refresh the copy columns.  dy (rows, k + 1, cols) holds the
        derivatives of nodes n0, ..., n0 + k."""
        k, p0, ring = dy.shape[1] - 1, n0 % self.period, self.ring
        y, h = ring[0, :, p0:p0 + k + 1], ring[1:, :, p0:p0 + k]
        w00, w10, w01, w11 = self.weights
        np.multiply(w00, y[:, :-1], out=h)
        h += w10 * dy[:, :-1]
        h += w01 * y[:, 1:]
        h += w11 * dy[:, 1:]
        if p0 + k == self.period:
            ring[0, :, 0] = ring[0, :, self.period]
        if p0 == 0:
            ring[:, :, self.period:] = ring[:, :, :self.size]


@dataclass
class Trajectory:
    """Immutable record of a solve: the state and its derivative at every
    node t_n = n dt of the integration grid on [0, t_end], and dense
    samples between.
    """

    states: np.ndarray
    derivatives: np.ndarray
    dt: float
    prehistory: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])

    @property
    def times(self) -> np.ndarray:
        """The node times n dt."""
        return self.dt * np.arange(len(self.states))

    @property
    def t_end(self) -> float:
        return float(self.dt * (len(self.states) - 1))

    def sample(self, t: float) -> np.ndarray:
        """State at one time t; see `sample_grid`."""
        return self.sample_grid(np.array([float(t)]))[0]

    def sample_grid(self, ts: np.ndarray) -> np.ndarray:
        """States at an array of times -> (len(ts), dim): prehistory for
        t < 0, node-exact at grid points, cubic Hermite between nodes.
        Raises OutOfRange beyond t_end or at NaN.
        """
        ts = np.asarray(ts, dtype=float)
        n, t_end = len(self.states), self.t_end
        tol = 1e-12 * max(1.0, abs(t_end))
        bad = ~(ts <= t_end + tol)               # NaN fails it too
        if np.any(bad):
            raise OutOfRange(f"t={float(ts[bad][0])!r} not within trajectory "
                             f"end {t_end!r}")
        h = self.dt
        x = np.maximum(ts, 0.0) / h
        nearest = np.round(x)
        snap = np.abs(x - nearest) < _SNAP
        x = np.where(snap, nearest, x)
        pre_mask = ts < 0.0
        x = np.clip(x, 0.0, n - 1)
        i = np.floor(x).astype(int)
        i = np.minimum(i, n - 2) if n > 1 else i * 0
        s = x - i
        # the weights are exact at s = 0 and s = 1, so node hits come out
        # bit-exact without special-casing
        h00, h10, h01, h11 = _hermite_weights(s[:, None])
        out = (h00 * self.states[i] + h10 * h * self.derivatives[i]
               + h01 * self.states[i + 1] + h11 * h * self.derivatives[i + 1])
        out[pre_mask] = self.prehistory
        return out


def integrate(system: DelaySystem, prehistory: np.ndarray | complex,
              t_span: tuple[float, float], dt: float,
              initial_state: np.ndarray | complex | None = None
              ) -> Trajectory:
    """Integrate a DelaySystem over t_span = (0, T) with fixed step dt.

    The state before t = 0 is the constant `prehistory`; the state AT t = 0
    is `initial_state` (defaults to prehistory), which allows the jump
    initial conditions used by the amplitude equations (zero field history,
    unit initial amplitude).  RK4 steps across the kinks such a jump leaves
    at every sum of delays, so the solution is then first order in dt, not
    fourth.

    Raises StepTooLarge when dt exceeds min(positive delays)/8 and
    NonFiniteState naming the first non-finite node.
    """
    t0, t_final = t_span
    if t0 != 0.0:
        raise ValueError("t_span must start at 0")
    n_steps = step_count(t_final, dt)
    taps = resolve_taps(system.delays, dt)

    dim = system.dim
    pre = np.atleast_1d(np.asarray(prehistory, dtype=complex))
    if pre.shape != (dim,):
        raise ValueError(f"prehistory must have shape ({dim},)")
    y = pre.copy() if initial_state is None else \
        np.atleast_1d(np.asarray(initial_state, dtype=complex)).copy()
    if y.shape != (dim,):
        raise ValueError(f"initial_state must have shape ({dim},)")

    size = _block_size(taps, dim)
    hist = HistoryBuffer(taps, dt, pre[None], size)
    lagged = [i for i, d in enumerate(system.delays) if d > 0.0]
    zero_idx = [i for i, d in enumerate(system.delays) if d == 0.0]
    buf = np.empty((len(system.delays), dim), dtype=complex)
    ydel = buf.view()                         # what rhs sees: read-only
    ydel.flags.writeable = False

    def rhs(t: float, yy: np.ndarray, k: int, n: int) -> np.ndarray:
        for i in lagged:
            buf[i] = hist.sample(k, i, n)
        if zero_idx:
            buf[zero_idx] = yy
        # copied: the rhs may return a row of ydel, which later reads overwrite
        return np.array(system.rhs(t, yy, ydel), dtype=complex)

    dy = rhs(0.0, y, 1, -1)
    hist.ring[0, 0, 0] = y

    nodes = np.empty((n_steps + 1, 2, dim), dtype=complex)
    nodes[0, 0], nodes[0, 1] = y, dy

    half = 0.5 * dt
    for n0 in range(0, n_steps, size):
        n1 = min(n0 + size, n_steps)
        for n in range(n0, n1):
            t = n * dt
            k1 = dy                   # rhs at the node, reused from last step
            k2 = rhs(t + half, y + half * k1, 0, n)   # k2, k3: half-step taps
            k3 = rhs(t + half, y + half * k2, 0, n)
            k4 = rhs(t + dt, y + dt * k3, 1, n)       # k4, next dy: full-step
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            dy = rhs((n + 1) * dt, y, 1, n)
            nodes[n + 1, 0], nodes[n + 1, 1] = y, dy
        bad = ~np.isfinite(nodes[n0:n1 + 1, 0]).all(axis=1)
        if bad.any():
            t = (n0 + int(np.argmax(bad))) * dt
            raise NonFiniteState(f"non-finite state at t={t!r}", t)
        p0 = n0 % hist.period
        hist.ring[0, 0, p0 + 1:p0 + n1 - n0 + 1] = nodes[n0 + 1:n1 + 1, 0]
        hist.write(n0, nodes[None, n0:n1 + 1, 1])

    return Trajectory(states=nodes[:, 0], derivatives=nodes[:, 1], dt=dt,
                      prehistory=pre)


def _rk4_coefficients(damping: np.ndarray, dt: float) -> tuple:
    """(R, P_a, P_b, P_c) of the closed-form RK4 step (`integrate_block`)."""
    z = -dt * np.asarray(damping, dtype=float)
    return (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0,
            dt / 6.0 * (1.0 + z + z**2 / 2.0 + z**3 / 4.0),
            dt / 6.0 * (4.0 + 2.0 * z + z**2 / 2.0), dt / 6.0)


def _reaches(taps: list[list[tuple[int, float]]]) -> list[int]:
    """Per tap (m, s), the steps from node n0 on whose reads lie at or
    before n0: 1 - m for a node read, -m for an interval read.  A zero
    delay, the only tap with m = 0, reads the stage state, not the ring."""
    return [1 - m if s == 0.0 else -m for row in taps for m, s in row if m]


def _block_size(taps: list[list[tuple[int, float]]], width: int) -> int:
    """The shortest reach, capped at `_MAX_BLOCK` and at the steps whose
    states of `width` complex values fit in `_BLOCK_BYTES`."""
    return min([_MAX_BLOCK, max(1, _BLOCK_BYTES // (16 * width))]
               + _reaches(taps))


def integrate_block(y0: np.ndarray, damping: np.ndarray, table: np.ndarray,
                    delays: Sequence[float], dt: float, n_steps: int,
                    drive: Callable[[np.ndarray], np.ndarray] | None = None
                    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """`integrate`'s RK4 in closed form for the linear system

        y' = -D y + table @ Y + f(t),    y(0) = y0, zero before t = 0,

    where y is (rows, cols), D scales row r by damping[r], row u * rows + r
    of Y is row r of y(t - delays[u]) (every delay positive), and drive(h),
    for an integer array h, is f at t = h dt/2 as (rows, len(h), cols).

    The delayed part and the drive do not depend on the step's own stages,
    so each RK4 stage is -D (stage state) plus a known part g: a = g(t_n)
    (the previous step's c), b = g(t_n + dt/2) and c = g(t_n + dt).
    Eliminating the stages, with z = -D dt:

        y_{n+1} = R y_n + P_a a + P_b b + P_c c,   dy_{n+1} = c - D y_{n+1},
        R = 1 + z + z^2/2 + z^3/6 + z^4/24,      P_c = dt/6,
        P_a = dt/6 (1 + z + z^2/2 + z^3/4),      P_b = dt/6 (4 + 2z + z^2/2).

    No step of a block reads a node or interval the block produces
    (`_block_size`: 8 to 64 steps, fewer for wide states), so a block's b
    and c sum slices of a ring of recent nodes and Hermite rows, one per
    nonzero coupling, and its nodes are one product with a triangular
    table of powers of R.  The values are `integrate`'s up to rounding.

    Returns an iterator over blocks (first, y, dy): the states and
    derivatives of nodes first, ..., first + k - 1 as (rows, k, cols)
    views, valid until the next block; node 0 comes alone.  Raises
    ValueError and StepTooLarge at the call, NonFiniteState naming the
    first non-finite node while iterating.
    """
    if not all(math.isfinite(tau) and tau > 0.0 for tau in delays):
        raise ValueError(f"delays must be finite and > 0, got {tuple(delays)}")
    if not (0.0 < dt < np.inf and n_steps >= 0):
        raise ValueError(f"need finite dt > 0 and n_steps >= 0, got {dt!r}, "
                         f"{n_steps!r}")
    y0 = np.asarray(y0, dtype=complex)
    damping = np.asarray(damping, dtype=float)
    if y0.ndim != 2 or damping.shape != y0.shape[:1]:
        raise ValueError(f"need y0 (rows, cols) and damping (rows,), got "
                         f"{y0.shape} and {damping.shape}")
    return _blocks(y0, damping, table, resolve_taps(delays, dt), dt, n_steps,
                   drive)


def _blocks(y0, damping, table, taps, dt, n_steps, drive):
    rows, cols = y0.shape
    size = _block_size(taps, y0.size)
    hist = HistoryBuffer(taps, dt, np.zeros((rows, cols)), size)
    ring, period = hist.ring, hist.period
    nodes = ring[0]
    # per tap set, the nonzero couplings (row, kind, lag, source row, gain)
    # of the distinct reads; reads that coincide add their table blocks
    reads = []
    for row in hist.taps:
        merged: dict[tuple[int, int], np.ndarray] = {}
        for u, key in enumerate(row):
            merged[key] = merged.get(key, 0.0) + table[:, u * rows:(u + 1) * rows]
        reads.append([(i, kind, lag, q, gain)
                      for (kind, lag), block in merged.items()
                      for (i, q), gain in np.ndenumerate(block) if gain != 0.0])

    rate, gain_a, gain_b, p_c = _rk4_coefficients(damping, dt)
    pows = rate[:, None] ** np.arange(size + 1)        # (rows, size + 1)

    def node_table(k):
        """(rows, k, 2 + 2k): node n0 + 1 + j of a k-step block is row j
        times the stack (y_n0, c_{n0-1}, b_n0, ..., c_n0, ...), but for
        the last node's fl(R^k) y_n0.  Every block carries y_n0 by the same
        rounded R^k, whose error would compound (7e-14 over `fig3`'s 1592
        blocks), so the last row holds R^k - fl(R^k) among the block's
        small terms, and fl(R^k) y_n0 is added after the product."""
        e = np.subtract.outer(np.arange(k), np.arange(k))
        power = np.where(e >= 0, pows[:, np.maximum(e, 0)], 0.0)  # R^(j-i)
        p_a, p_b = gain_a[:, None, None], gain_b[:, None, None]
        gain_c = p_c * power
        gain_c[:, :, :-1] += p_a * power[:, :, 1:]
        carry = pows[:, 1:k + 1, None].copy()
        carry[:, -1, 0] = [float(Fraction(x) ** k - Fraction(x_k))
                           if math.isfinite(x_k) else 0.0
                           for x, x_k in zip(rate, pows[:, k])]
        return np.concatenate([carry, p_a * power[:, :, :1], p_b * power,
                               gain_c], axis=2)

    full = node_table(size)
    r, p_a, p_b, minus_d = (x[:, None, None]
                            for x in (rate, gain_a, gain_b, -damping))
    stack = np.zeros((rows, 2 + 2 * size, cols), dtype=complex)
    dy = np.empty((rows, size + 1, cols), dtype=complex)
    # every read of the step before node 0 lies before t = 0
    c_last = stack[:, 1 + 2 * size]
    c_last += 0.0 if drive is None else drive(np.zeros(1, dtype=int))[:, 0]
    nodes[:, 0] = nodes[:, period] = y0
    dy[:, 0] = c_last + minus_d[:, 0] * y0
    yield 0, nodes[:, :1], dy[:, :1]
    for n0 in range(0, n_steps, size):
        k = min(size, n_steps - n0)
        p0 = n0 % period
        stack[:, 0], stack[:, 1] = nodes[:, p0], c_last
        b, c = stack[:, 2:2 + k], stack[:, 2 + k:2 + 2 * k]
        for out, tap_set, h in ((b, reads[0], 1), (c, reads[1], 2)):
            out[:] = 0.0 if drive is None else drive(2 * (n0 + np.arange(k)) + h)
            for row, kind, lag, q, gain in tap_set:
                start = (n0 + lag) % period
                out[row] += gain * ring[kind, q, start:start + k]
        # the real table times the stack's real and imaginary parts at once
        gains = full if k == size else node_table(k)
        new = nodes[:, p0 + 1:p0 + k + 1]
        np.matmul(gains, stack[:, :2 + 2 * k].view(float),
                  out=ring.view(float)[0, :, p0 + 1:p0 + k + 1])
        new[:, -1] += pows[:, k, None] * stack[:, 0]
        if not np.isfinite(new).all():
            # the table spreads an overflow over the block: step through it
            a = np.concatenate([stack[:, 1:2], c[:, :-1]], axis=1)
            u = p_a * a + p_b * b + p_c * c
            y = stack[:, 0]
            for n in range(n0 + 1, n0 + k + 1):
                y = r[:, 0] * y + u[:, n - n0 - 1]
                if not np.isfinite(y).all():
                    break
            raise NonFiniteState(f"non-finite state at t={n * dt!r}", n * dt)
        np.multiply(minus_d, new, out=dy[:, 1:k + 1])
        dy[:, 1:k + 1] += c
        hist.write(n0, dy[:, :k + 1])
        yield n0 + 1, new, dy[:, 1:k + 1]
        dy[:, 0] = dy[:, k]
        c_last = c[:, -1]
