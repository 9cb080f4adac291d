"""Fixed-step method-of-steps integrator for complex delay systems.

Classical RK4 on a uniform grid with constant delays, so every delayed read
c(t_n + c dt - tau) of a stage at offset c (1/2 for k2 and k3, 1 for k4 and
the next node's derivative) lands at the same node offset and the same
cubic-Hermite fraction at every step.  `integrate` resolves these taps once
into a table and keeps the history in a ring (`HistoryBuffer`): one row per
node state plus, for each distinct off-node fraction, one Hermite row per node
interval, all written by one product as the interval closes.  Every delayed
read is then a row copy.  Reads before the initial instant return the
constant pre-history (zero by default: the field does not exist before
t = 0).  The tap table keeps the explicit scheme honest by refusing
dt > min(positive delay)/8, so no tap reads a node the current step has not
produced yet.

`integrate` calls an rhs closure at every stage; `linear_system` builds the
one of a linear system with constant coefficients.  `integrate_linear` runs
the same RK4 scheme in closed form for linear systems whose delayed part
and drive do not depend on the step's own stages (the per-mode pair
equations): one gather of ring rows per tap set and step, no rhs calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteState, OutOfRange, StepTooLarge

RhsFunc = Callable[[float, np.ndarray, np.ndarray], np.ndarray]

# stage offsets (in units of dt past the current node) that read the history
_STAGE_OFFSETS = (0.5, 1.0)
_SNAP = 1e-9
# steps between finiteness checks of the state (and at the last step)
_CHECK_EVERY = 64


def dedupe_delays(delays: Sequence[float]) -> tuple[tuple[float, ...], list[int]]:
    """Collapse duplicates and sort ascending; returns (unique sorted delays,
    index of each original delay in that tuple).  Degenerate geometries (for
    example z2 = 3 z1, where a round trip equals the direct inter-atom delay)
    would otherwise violate the distinct-delays contract."""
    unique = sorted({float(d) for d in delays})
    index = [unique.index(float(d)) for d in delays]
    return tuple(unique), index


@dataclass(frozen=True)
class DelaySystem:
    """A pure delay system: dim, sorted distinct delays, and the rhs map.

    rhs(t, y, ydel) receives a read-only (len(delays), dim) array whose row
    i is the state at t - delays[i], and must return dy/dt without side
    effects.
    """

    dim: int
    delays: tuple[float, ...]
    rhs: RhsFunc

    def __post_init__(self) -> None:
        d = tuple(float(x) for x in self.delays)
        if any(x < 0 for x in d):
            raise ValueError(f"delays must be >= 0, got {d}")
        if len(set(d)) != len(d):
            raise ValueError(f"delays must be distinct, got {d}")
        if any(a > b for a, b in zip(d, d[1:])):
            raise ValueError(f"delays must be sorted ascending, got {d}")
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


def resolve_taps(delays: Sequence[float], dt: float
                 ) -> list[list[tuple[int, float]]]:
    """Tap table: for each stage offset c and each delay tau, the (m, s)
    with t_n + c dt - tau = t_{n+m} + s dt, 0 <= s < 1, snapped to the node
    within 1e-9.  A zero delay reads the stage state itself and gets (0, 0).

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
    table = []
    for c in _STAGE_OFFSETS:
        row = []
        for tau in delays:
            if tau == 0.0:
                row.append((0, 0.0))
                continue
            x = _snap(c - _snap(tau / dt))
            m = math.floor(x)
            row.append((m, x - m))
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
        Raises OutOfRange beyond t_end.
        """
        ts = np.asarray(ts, dtype=float)
        tol = 1e-12 * max(1.0, abs(self.t_end))
        if np.any(ts > self.t_end + tol):
            bad = float(ts[np.argmax(ts)])
            raise OutOfRange(f"t={bad!r} beyond trajectory end {self.t_end!r}")
        h = self.dt
        x = (ts - self.times[0]) / h
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
    NonFiniteState when the state leaves the finite range.
    """
    t0, t_final = t_span
    if t0 != 0.0:
        raise ValueError("t_span must start at 0")
    if not (0.0 < t_final < np.inf and 0.0 < dt < np.inf):
        raise ValueError(f"need finite T > 0 and dt > 0, got {t_span}, {dt!r}")
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

    n_steps = int(np.ceil(t_final / dt - 1e-9))
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
                raise NonFiniteState(f"non-finite state at t={t_new!r}")

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
    if any(tau <= 0.0 for tau in delays):
        raise ValueError(f"delays must be > 0, got {tuple(delays)}")
    if record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    y = np.array(y0, dtype=complex)
    rows, cols = y.shape
    hist = HistoryBuffer(resolve_taps(delays, dt), dt,
                         np.zeros(y.size, dtype=complex))
    z = -dt * np.asarray(damping, dtype=float)
    r = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    p_a = dt / 6.0 * (1.0 + z + z**2 / 2.0 + z**3 / 4.0)
    p_b = dt / 6.0 * (4.0 + 2.0 * z + z**2 / 2.0)
    p_c = dt / 6.0
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
        if (n + 1) % _CHECK_EVERY == 0 or n + 1 == n_steps:
            if not np.all(np.isfinite(y_new)):
                raise NonFiniteState(f"non-finite state at t={(n + 1) * dt!r}")
        if n + 1 == steps[rec]:
            states[rec] = y_new.reshape(-1)
            rec += 1
    return dt * steps, states
