"""Fixed-step method-of-steps integrators for complex delay systems.

Classical RK4 on a uniform grid with constant delays, so every delayed read
c(t_n + c dt - tau) of a stage at offset c (1/2 for k2 and k3, 1 for k4 and
the next node's derivative) lands at the same node offset and the same
cubic-Hermite fraction at every step.  `integrate` resolves these taps once
into a table and keeps the history in a ring (`HistoryBuffer`): one row per
node state plus, for each distinct off-node fraction, one Hermite row per node
interval, all written by one product as the interval closes.  Every delayed
read is then a row copy.  Delays may come in any order and may repeat: the
tap table alone decides which reads coincide (up to rounding), and those
share one ring row.  Reads before the initial instant return the constant
pre-history (zero by default: the field does not exist before t = 0).  The
tap table keeps the explicit scheme honest by refusing dt > min(positive
delay)/8, so no tap reads a node the current step has not produced yet.

Three engines run this scheme.  `integrate` calls an rhs closure at every
stage (`linear_system` builds the one of a linear system) and serves any
`DelaySystem`: the doubly excited solve (`solve_cee`) and user systems.
`integrate_linear` runs it in closed form for linear systems whose delayed
part and drive do not depend on the step's own stages, one ring gather per
tap set and step: the wide, driven pair equations.  `integrate_block` runs
that closed form a block of steps at a time, one gather of the kept nodes
per tap set and block, without a ring: both narrow spatial
single-excitation solves, with one atom and with two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NoReturn, Sequence

import numpy as np

from .errors import NonFiniteState, OutOfRange, StepTooLarge

RhsFunc = Callable[[float, np.ndarray, np.ndarray], np.ndarray]

# stage offsets (in units of dt past the current node) that read the history
_STAGE_OFFSETS = (0.5, 1.0)
_SNAP = 1e-9
# steps between finiteness checks of the state (and at the last step)
_CHECK_EVERY = 64
# longest block of steps `integrate_block` advances at once
_MAX_BLOCK = 64


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
    states in `integrate_linear`'s layout (row u * dim + r is component r
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
    """The integrator's working history for a tap table (`resolve_taps`).

    A ring of `depth` slots per block: block 0 holds node states, block
    1 + f the Hermite rows at the f-th distinct off-node fraction of each
    closed node interval.  Node i and interval [i, i+1] live in slot
    i % depth; slots of nodes and intervals before t = 0 hold the
    pre-history until overwritten, which one slot past the deepest read
    keeps from happening too early.
    """

    def __init__(self, taps: list[list[tuple[int, float]]], dt: float,
                 prehistory: np.ndarray) -> None:
        fractions = sorted({s for row in taps for _, s in row if s > 0.0})
        h00, h10, h01, h11 = _hermite_weights(np.array(fractions))
        w = np.stack([h00, h10 * dt, h01, h11 * dt], axis=1).astype(complex)
        self.weights = (w, w[:, [2, 3, 0, 1]])   # the second: node n+1 first
        self.depth = 1 - min((m for row in taps for m, _ in row), default=0)
        self.ring = np.empty(((1 + len(fractions)) * self.depth,
                              len(prehistory)), dtype=complex)
        self.ring[:] = prehistory
        self.hermite = self.ring.reshape(-1, self.depth, len(prehistory))[1:]
        # (first slot of the block, node lag) of each tap
        self.taps = [[(0 if s == 0.0 else (1 + fractions.index(s)) * self.depth,
                       m) for m, s in row] for row in taps]
        self._gather = [(np.array([b for b, _ in row], dtype=int),
                         np.array([m for _, m in row], dtype=int))
                        for row in self.taps]

    def sample(self, k: int, i: int, n: int) -> np.ndarray:
        """The state delay i reads in tap set k during step n: a ring row."""
        base, lag = self.taps[k][i]
        return self.ring[base + (n + lag) % self.depth]

    def gather(self, k: int, n: int, out: np.ndarray) -> None:
        """The rows every delay reads in tap set k during step n, into
        out (n_delays, dim): one `np.take` instead of one `sample` each."""
        base, lag = self._gather[k]
        np.take(self.ring, base + (n + lag) % self.depth, axis=0, out=out,
                mode="clip")

    def push(self, n: int, ends: np.ndarray, old: int = 0) -> None:
        """Close the interval [n, n+1]: store node n+1, then write every
        Hermite row of the interval with one product.  ends (4, dim) holds
        node n's (y, dy) in rows old, old + 1 (old 0 or 2), node n+1's in
        the other two."""
        self.ring[(n + 1) % self.depth] = ends[2 - old]
        np.matmul(self.weights[old // 2], ends,
                  out=self.hermite[:, n % self.depth])


@dataclass
class Trajectory:
    """Immutable record of a solve: the state and its derivative at every
    node of the integration grid on [0, t_end], and dense samples between.
    """

    times: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray
    dt: float
    prehistory: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        self.dim = int(self.states.shape[1])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def sample(self, t: float) -> np.ndarray:
        """State at one time t; see `sample_grid`."""
        return self.sample_grid(np.array([float(t)]))[0]

    def sample_grid(self, ts: np.ndarray) -> np.ndarray:
        """States at an array of times -> (len(ts), dim): prehistory for
        t < 0, node-exact at grid points, cubic Hermite between nodes.
        Raises OutOfRange beyond t_end or at NaN.
        """
        ts = np.asarray(ts, dtype=float)
        tol = 1e-12 * max(1.0, abs(self.t_end))
        bad = ~(ts <= self.t_end + tol)          # NaN fails it too
        if np.any(bad):
            raise OutOfRange(f"t={float(ts[bad][0])!r} not within trajectory "
                             f"end {self.t_end!r}")
        h = self.dt
        x = (np.maximum(ts, self.times[0]) - self.times[0]) / h
        nearest = np.round(x)
        snap = np.abs(x - nearest) < _SNAP
        x = np.where(snap, nearest, x)
        pre_mask = ts < self.times[0]
        x = np.clip(x, 0.0, len(self.times) - 1)
        i = np.floor(x).astype(int)
        i = np.minimum(i, len(self.times) - 2) if len(self.times) > 1 else i * 0
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
    unit initial amplitude).

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

    hist = HistoryBuffer(taps, dt, pre)
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
    hist.ring[0] = y

    times = dt * np.arange(n_steps + 1)
    nodes = np.empty((n_steps + 1, 2, dim), dtype=complex)
    nodes[0, 0], nodes[0, 1] = y, dy

    half = 0.5 * dt
    for n in range(n_steps):
        t = n * dt
        k1 = dy                       # rhs at the node, reused from last step
        k2 = rhs(t + half, y + half * k1, 0, n)   # k2, k3: half-step taps
        k3 = rhs(t + half, y + half * k2, 0, n)
        k4 = rhs(t + dt, y + dt * k3, 1, n)       # k4, next dy: full-step taps
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t_new = (n + 1) * dt
        dy = rhs(t_new, y, 1, n)
        nodes[n + 1, 0], nodes[n + 1, 1] = y, dy
        hist.push(n, nodes[n:n + 2].reshape(4, dim))
        if (n + 1) % _CHECK_EVERY == 0 or n + 1 == n_steps:
            if not np.all(np.isfinite(y.view(float))):
                _raise_at_first_non_finite(nodes[:n + 2, 0], 0, dt)

    return Trajectory(times=times, states=nodes[:, 0],
                      derivatives=nodes[:, 1], dt=dt, prehistory=pre)


def integrate_linear(y0: np.ndarray, damping: np.ndarray, table: np.ndarray,
                     delays: Sequence[float],
                     drive: Callable[[int], np.ndarray], dt: float,
                     n_steps: int, record_stride: int = 1
                     ) -> tuple[np.ndarray, np.ndarray]:
    """`integrate`'s RK4 in closed form for the linear system

        y' = -D y + table @ Y + f(t),    y(0) = y0, zero before t = 0,

    where y is (rows, cols), D = `damping` broadcasts against y, row
    u * rows + r of Y is row r of y(t - delays[u]), and `drive(h)` is f at
    t = h dt/2.  Every delay must be positive.

    The delayed part and the drive do not depend on the step's own stages,
    so each RK4 stage is -D (stage state) plus a known part g: a = g(t_n)
    (the previous step's c), b = g(t_n + dt/2) and c = g(t_n + dt).
    Eliminating the stages, with z = -D dt:

        y_{n+1} = R y_n + P_a a + P_b b + P_c c,   dy_{n+1} = c - D y_{n+1},
        R = 1 + z + z^2/2 + z^3/6 + z^4/24,      P_c = dt/6,
        P_a = dt/6 (1 + z + z^2/2 + z^3/4),      P_b = dt/6 (4 + 2z + z^2/2).

    A step is one ring gather and one `table @` product per tap set; the
    values are `integrate`'s up to rounding.  Returns (times, states): the
    states flattened, without derivatives, at every `record_stride`-th step
    and at the final step.  When the stride does not divide `n_steps` the
    last interval is short, so the record is no `Trajectory`, whose
    sampling assumes uniform spacing.  Raises StepTooLarge and
    NonFiniteState as `integrate` does.
    """
    if not all(math.isfinite(tau) and tau > 0.0 for tau in delays):
        raise ValueError(f"delays must be finite and > 0, got {tuple(delays)}")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    y = np.array(y0, dtype=complex)
    rows, cols = y.shape
    hist = HistoryBuffer(resolve_taps(delays, dt), dt,
                         np.zeros(y.size, dtype=complex))
    r, p_a, p_b, p_c = _rk4_coefficients(damping, dt)
    ydel = np.empty((len(delays), y.size), dtype=complex)
    stacked = ydel.reshape(len(delays) * rows, cols)

    def known(k: int, n: int, h: int) -> np.ndarray:
        hist.gather(k, n, ydel)
        out = table @ stacked
        out += drive(h)
        return out

    c = known(1, -1, 0)
    ends = np.empty((2, 2, rows, cols), dtype=complex)  # node j: ends[j % 2]
    ends[0] = y, c - damping * y
    hist.ring[0] = y.reshape(-1)

    # a failed check scans the ring: check before it drops a node unchecked
    check_every = min(_CHECK_EVERY, hist.depth - 1)
    steps = np.append(np.arange(0, n_steps, record_stride), n_steps)
    states = np.empty((len(steps), y.size), dtype=complex)
    states[0] = y.reshape(-1)
    rec = 1
    for n in range(n_steps):
        a = c
        b = known(0, n, 2 * n + 1)
        c = known(1, n, 2 * n + 2)
        y, (y_new, dy_new) = ends[n % 2, 0], ends[(n + 1) % 2]
        np.multiply(r, y, out=y_new)
        y_new += p_a * a
        y_new += p_b * b
        y_new += p_c * c
        np.subtract(c, damping * y_new, out=dy_new)
        hist.push(n, ends.reshape(4, -1), 2 * (n % 2))
        if (n + 1) % check_every == 0 or n + 1 == n_steps:
            if not np.all(np.isfinite(y_new)):
                first = (n // check_every) * check_every + 1
                _raise_at_first_non_finite(
                    hist.ring[np.arange(first, n + 2) % hist.depth], first, dt)
        if n + 1 == steps[rec]:
            states[rec] = y_new.reshape(-1)
            rec += 1
    return dt * steps, states


def _raise_at_first_non_finite(states: np.ndarray, first: int,
                               dt: float) -> NoReturn:
    """Raise NonFiniteState naming the first non-finite row of `states`,
    whose row 0 is node `first`."""
    bad = ~np.isfinite(states).all(axis=1)
    node = first + int(np.argmax(bad))
    raise NonFiniteState(f"non-finite state at t={node * dt!r}")


def _rk4_coefficients(damping: np.ndarray, dt: float) -> tuple:
    """(R, P_a, P_b, P_c) of the closed-form RK4 step (`integrate_linear`)."""
    z = -dt * np.asarray(damping, dtype=float)
    return (1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0,
            dt / 6.0 * (1.0 + z + z**2 / 2.0 + z**3 / 4.0),
            dt / 6.0 * (4.0 + 2.0 * z + z**2 / 2.0), dt / 6.0)


def _block_size(taps: list[list[tuple[int, float]]]) -> int:
    """Most steps from node n0 on that read only nodes <= n0 and intervals
    closed before it, capped at `_MAX_BLOCK`."""
    return min([_MAX_BLOCK] + [1 - m if s == 0.0 else -m
                               for row in taps for m, s in row])


def _node_reads(taps: list[tuple[int, float]], table: np.ndarray, dt: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One tap set as (offsets, lags, weights): at step n, read r is row
    2 n + offsets[r] of the stacked (y_0, dy_0, y_1, ...), zero while
    n + lags[r] < 0, and the delayed part is the reads @ weights.  Reads
    that coincide share one weight block."""
    dim = table.shape[0]
    merged: dict[tuple[int, int], np.ndarray] = {}
    for u, (m, s) in enumerate(taps):
        block = table[:, u * dim:(u + 1) * dim].T
        h00, h10, h01, h11 = _hermite_weights(s)
        terms = [(0, 1.0)] if s == 0.0 else \
            [(0, h00), (1, h10 * dt), (2, h01), (3, h11 * dt)]
        for off, w in terms:
            key = (2 * m + off, m)
            merged[key] = merged.get(key, 0.0) + w * block
    offsets, lags = np.array(list(merged)).T
    return offsets, lags, np.concatenate(list(merged.values()))


def integrate_block(y0: np.ndarray, damping: np.ndarray, table: np.ndarray,
                    delays: Sequence[float], dt: float, n_steps: int
                    ) -> Trajectory:
    """`integrate_linear`'s closed form for y' = -D y + table @ Y, y(0) = y0
    and zero before, with no drive and y, D = `damping` of shape (dim,),
    advanced a block of steps at a time.

    No step of a block reads a node or interval the block produces
    (`_block_size`: 8 to 64 steps under the dt <= min(delay)/8 bound), so
    the block's a, b, c come from one gather and one table product per tap
    set, and y_{n+1} = R y_n + P_a a + P_b b + P_c c is one product with a
    triangular table of powers of R.  Node 0 reads y0, as in `integrate`,
    whose values these are up to rounding.  Delays must be positive; raises
    StepTooLarge, and NonFiniteState naming the first non-finite node.
    """
    if not all(math.isfinite(tau) and tau > 0.0 for tau in delays):
        raise ValueError(f"delays must be finite and > 0, got {tuple(delays)}")
    if not (0.0 < dt < np.inf and n_steps >= 0):
        raise ValueError(f"need finite dt > 0 and n_steps >= 0, got {dt!r}, "
                         f"{n_steps!r}")
    taps = resolve_taps(delays, dt)
    y = np.array(y0, dtype=complex)
    damping = np.asarray(damping, dtype=float)
    r, p_a, p_b, p_c = _rk4_coefficients(damping, dt)
    size = _block_size(taps)
    reads = [_node_reads(row, table, dt) for row in taps]
    pows = r ** np.arange(size + 1)[:, None]          # row j: R^j
    e = np.subtract.outer(np.arange(size), np.arange(size))
    # node n0 + k + 1 is R^(k + 1) y_n0 + power[:, k] @ u
    power = np.where(e >= 0, pows.T[:, np.maximum(e, 0)], 0.0)

    nodes = np.empty((n_steps + 1, 2, y.size), dtype=complex)
    stacked = nodes.reshape(-1, y.size)

    def delayed(steps, offsets, lags, weights):
        rows = np.take(stacked, 2 * steps + offsets, axis=0, mode="clip")
        if steps[0, 0] + lags.min() < 0:    # reads before t = 0 are zero
            rows[steps + lags < 0] = 0.0
        return rows.reshape(len(steps), -1) @ weights

    # every read of the step before node 0 lies before t = 0: c_{-1} = 0
    nodes[0] = y, -damping * y
    c_last = np.zeros(y.size, dtype=complex)
    for n0 in range(0, n_steps, size):
        steps = n0 + np.arange(min(size, n_steps - n0))[:, None]
        k = len(steps)
        b, c = (delayed(steps, *tap_set) for tap_set in reads)
        u = p_a * np.concatenate([c_last[None], c[:-1]]) + p_b * b + p_c * c
        c_last = c[-1]
        # the real power table times u's real and imaginary parts at once
        parts = np.ascontiguousarray(u.T).view(float).reshape(y.size, k, 2)
        swept = (power[:, :k, :k] @ parts).reshape(y.size, 2 * k)
        block = nodes[n0 + 1:n0 + k + 1]
        block[:, 0] = swept.view(complex).T + pows[1:k + 1] * nodes[n0, 0]
        block[:, 1] = c - damping * block[:, 0]
        if not np.isfinite(block[:, 0]).all():
            # the table spreads an overflow over the block: step through it
            y = nodes[n0, 0]
            for n, u_n in enumerate(u, start=n0 + 1):
                y = r * y + u_n
                if not np.isfinite(y).all():
                    break
            raise NonFiniteState(f"non-finite state at t={n * dt!r}")
    return Trajectory(times=dt * np.arange(n_steps + 1), states=nodes[:, 0],
                      derivatives=nodes[:, 1], dt=dt,
                      prehistory=np.zeros(y.size, dtype=complex))
