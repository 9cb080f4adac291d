import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqsim import (AtomParams, DelaySystem, NetworkConfig, NonFiniteState,
                   OutOfRange, StepTooLarge, Trajectory, integrate)
from wqsim import dde
from wqsim.dde import (HistoryBuffer, _block_size, _hermite_weights,
                       integrate_block, resolve_taps)
from wqsim.frequency import exchange_table
from wqsim.spatial import solve_two_atom_single_excitation


def exp_decay_system():
    return DelaySystem(dim=1, delays=(), rhs=lambda t, y, yd: -y)


class TestBasics:
    def test_exponential_decay(self):
        traj = integrate(exp_decay_system(), prehistory=1.0, t_span=(0.0, 1.0),
                         dt=1e-3)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_zero_rhs_constant(self):
        sys0 = DelaySystem(dim=2, delays=(), rhs=lambda t, y, yd: 0.0 * y)
        y0 = np.array([0.3 + 0.1j, -1.0 + 0j])
        traj = integrate(sys0, prehistory=y0, t_span=(0.0, 2.0), dt=0.01)
        assert np.all(traj.states == y0)

    def test_method_of_steps_polynomial(self):
        # x'(t) = -x(t-1), x(t<=0) = 1:
        #   x(t) = 1 - t                     on [0, 1]
        #   x(t) = 1 - t + (t-1)^2 / 2       on [1, 2]
        system = DelaySystem(dim=1, delays=(1.0,), rhs=lambda t, y, yd: -yd[0])
        traj = integrate(system, prehistory=1.0, t_span=(0.0, 2.0), dt=1.0 / 64)
        t = traj.times
        exact = np.where(t <= 1.0, 1.0 - t, 1.0 - t + 0.5 * (t - 1.0) ** 2)
        assert np.abs(traj.states[:, 0] - exact).max() < 1e-6

    def test_jump_initial_condition(self):
        # zero pre-history with a unit value at t = 0
        system = DelaySystem(dim=1, delays=(0.5,),
                             rhs=lambda t, y, yd: -y + 0.0 * yd[0])
        traj = integrate(system, prehistory=0.0, t_span=(0.0, 1.0), dt=0.01,
                         initial_state=1.0)
        assert traj.sample(-0.2)[0] == 0.0
        assert traj.states[0, 0] == 1.0


class TestSampling:
    def test_node_exact(self):
        traj = integrate(exp_decay_system(), prehistory=1.0, t_span=(0.0, 1.0),
                         dt=1e-3)
        for i in (0, 7, 500, 1000):
            assert traj.sample(traj.times[i])[0] == traj.states[i, 0]

    def test_prehistory_before_zero(self):
        traj = integrate(exp_decay_system(), prehistory=1.0, t_span=(0.0, 1.0),
                         dt=1e-3)
        assert traj.sample(-1e-9)[0] == 1.0

    def test_midstep_value(self):
        traj = integrate(exp_decay_system(), prehistory=1.0, t_span=(0.0, 1.0),
                         dt=1e-3)
        assert abs(traj.sample(0.0005)[0] - np.exp(-0.0005)) < 1e-10

    def test_out_of_range(self):
        traj = integrate(exp_decay_system(), prehistory=1.0, t_span=(0.0, 1.0),
                         dt=1e-3)
        with pytest.raises(OutOfRange):
            traj.sample(1.0 + 1e-6)

    @pytest.mark.filterwarnings("error")
    def test_nan_is_out_of_range(self):
        traj = integrate(exp_decay_system(), prehistory=1.0, t_span=(0.0, 1.0),
                         dt=1e-3)
        with pytest.raises(OutOfRange, match="t=nan"):
            traj.sample(math.nan)
        with pytest.raises(OutOfRange, match="t=nan"):
            traj.sample_grid(np.array([0.5, math.nan]))
        # -inf lies before t = 0: the prehistory, without a warning
        assert traj.sample(-math.inf)[0] == 1.0

    def test_sample_grid_matches_scalar(self):
        traj = integrate(exp_decay_system(), prehistory=1.0, t_span=(0.0, 1.0),
                         dt=1e-3)
        ts = np.array([-0.5, 0.0, 0.12345, 0.5, 0.7771, 1.0])
        grid = traj.sample_grid(ts)
        for j, t in enumerate(ts):
            assert grid[j, 0] == traj.sample(t)[0]


class TestGuards:
    def test_step_too_large(self):
        system = DelaySystem(dim=1, delays=(0.1,), rhs=lambda t, y, yd: -yd[0])
        with pytest.raises(StepTooLarge):
            integrate(system, prehistory=1.0, t_span=(0.0, 1.0), dt=0.02)
        # dt exactly at the bound is allowed
        integrate(system, prehistory=1.0, t_span=(0.0, 1.0), dt=0.1 / 8)

    def test_non_finite_detection(self):
        blow = DelaySystem(dim=1, delays=(),
                           rhs=lambda t, y, yd: 1e8 * y * np.abs(y) ** 2)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteState):
            integrate(blow, prehistory=10.0, t_span=(0.0, 10.0), dt=0.05)

    @pytest.mark.parametrize("solve, node", [
        (lambda growth, zero: integrate(
            dde.linear_system(growth, (0.1,), zero), prehistory=0.0,
            t_span=(0.0, 4.0), dt=0.01, initial_state=1.0), 252),
        (lambda growth, zero: run_block(
            np.ones(1), growth, zero, (0.1,), 0.01, 400), 254),
        (lambda growth, zero: run_block(
            np.ones((1, 3)), growth, zero, (0.1,), 0.01, 400,
            lambda h: np.zeros((1, len(h), 3))), 254),
    ], ids=["integrate", "integrate_block", "integrate_block-driven"])
    def test_overflow_names_the_first_non_finite_node(self, solve, node):
        # y' = 300 y at dt = 0.01 overflows between two finiteness checks.
        # The closed form steps y_{n+1} = 16.375 y_n: node 254 overflows
        # first.  integrate's k4 stage, 4575 y_n, overflows in the step
        # from node 251: node 252 overflows first.
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteState, match=re.escape(f"t={node * 0.01!r}")):
            solve(np.array([-300.0]), np.zeros((1, 1)))

    def test_non_finite_horizon_or_step_refused(self):
        for t_end, dt in ((np.inf, 0.01), (np.nan, 0.01), (1.0, np.nan),
                          (1.0, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                integrate(exp_decay_system(), prehistory=1.0,
                          t_span=(0.0, t_end), dt=dt)

    @pytest.mark.parametrize("tau", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("build", [
        lambda tau: DelaySystem(dim=1, delays=(0.5, tau),
                                rhs=lambda t, y, yd: -y),
        lambda tau: integrate_block(np.zeros((1, 1)), np.zeros(1),
                                    np.zeros((1, 2)), (0.5, tau), 0.01, 10,
                                    lambda h: np.zeros((1, len(h), 1))),
    ], ids=["integrate", "integrate_block"])
    def test_non_finite_delay_refused(self, build, tau):
        with pytest.raises(ValueError, match="finite"):
            build(tau)

    def test_tap_reading_an_unfinished_node_raises(self):
        dt = 0.1
        # stage offset 1 of a half-step delay reads t_n + dt/2, inside the
        # step being computed: the Hermite blend would need node n + 1
        with pytest.raises(StepTooLarge):
            resolve_taps((0.05,), dt)
        # a delay of one step reads node n, which exists, but breaks the
        # dt <= min(delay)/8 bound that the table now enforces itself
        with pytest.raises(StepTooLarge):
            resolve_taps((0.1,), dt)
        # at the bound, every tap reads node n - 7 or earlier
        assert resolve_taps((0.8,), dt) == [[(-8, 0.5)], [(-7, 0.0)]]

    def test_rhs_receives_read_only_history(self):
        seen = []

        def rhs(t, y, yd):
            seen.append((yd.shape, yd.flags.writeable))
            return -yd[1]

        system = DelaySystem(dim=1, delays=(0.0, 0.25), rhs=rhs)
        integrate(system, prehistory=1.0, t_span=(0.0, 0.1), dt=0.01)
        assert seen and set(seen) == {((2, 1), False)}


class TestProperties:
    def test_rk4_convergence_order(self):
        # halving dt shrinks the endpoint error by ~2^4
        errs = []
        for dt in (0.05, 0.025):
            traj = integrate(exp_decay_system(), prehistory=1.0,
                             t_span=(0.0, 2.0), dt=dt)
            errs.append(abs(traj.states[-1, 0] - np.exp(-2.0)))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_delay_causality(self):
        # perturbing the rhs only on t > a leaves [0, a] untouched exactly
        a = 0.5

        def make(perturbed):
            def rhs(t, y, yd):
                base = -y + 0.5 * yd[0]
                if perturbed and t > a:
                    base = base + 10.0
                return base
            return DelaySystem(dim=1, delays=(0.25,), rhs=rhs)

        dt = 0.01
        ref = integrate(make(False), prehistory=1.0, t_span=(0.0, 1.0), dt=dt)
        per = integrate(make(True), prehistory=1.0, t_span=(0.0, 1.0), dt=dt)
        # nodes whose full RK4 stencil lies at or below t = a
        safe = ref.times + dt <= a + 1e-12
        np.testing.assert_array_equal(ref.states[safe], per.states[safe])
        assert np.any(np.abs(ref.states[-1] - per.states[-1]) > 1e-3)

    def test_interpolation_consistency(self):
        # Hermite dense output vs a refined-grid solve: O(dt^4)
        coarse = integrate(exp_decay_system(), prehistory=1.0,
                           t_span=(0.0, 1.0), dt=0.02)
        fine = integrate(exp_decay_system(), prehistory=1.0,
                         t_span=(0.0, 1.0), dt=0.002)
        ts = np.linspace(0.0, 1.0, 301)
        diff = np.abs(coarse.sample_grid(ts) - fine.sample_grid(ts)).max()
        assert diff < 5.0 * 0.02**4


# ---------------------------------------------------------------------------
# equivalence with a per-query reference engine
# ---------------------------------------------------------------------------

def reference_integrate(system, prehistory, t_end, dt, initial_state=None):
    """Plain RK4 in which every delayed read is its own Hermite query through
    the full node history (no tap table, no ring); returns the node states."""
    pre = np.atleast_1d(np.asarray(prehistory, dtype=complex))
    y = pre.copy() if initial_state is None else \
        np.atleast_1d(np.asarray(initial_state, dtype=complex)).copy()
    n_steps = int(np.ceil(t_end / dt - 1e-9))
    ys = np.empty((n_steps + 1, system.dim), dtype=complex)
    dys = np.empty_like(ys)
    count = 0

    def sample(t):
        # snap to a node first, as `resolve_taps` does, so that a read within
        # rounding of node 0 takes the node, not the pre-history
        x = t / dt
        nearest = round(x)
        if abs(x - nearest) < 1e-9 and 0 <= nearest <= count - 1:
            x = float(nearest)
        if x < 0.0:
            return pre
        i = min(int(np.floor(x)), count - 1)
        s = x - i
        if s == 0.0:
            return ys[i]
        assert i + 1 < count, "query inside the current step"
        h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
        h10 = s * (1.0 - s) ** 2
        h01 = s * s * (3.0 - 2.0 * s)
        h11 = s * s * (s - 1.0)
        return (h00 * ys[i] + h10 * dt * dys[i]
                + h01 * ys[i + 1] + h11 * dt * dys[i + 1])

    def f(t, yy):
        ydel = np.array([yy if tau == 0.0 else sample(t - tau)
                         for tau in system.delays]).reshape(-1, system.dim)
        return np.asarray(system.rhs(t, yy, ydel), dtype=complex)

    dy = f(0.0, y)
    ys[0], dys[0], count = y, dy, 1
    for n in range(n_steps):
        t = n * dt
        k2 = f(t + 0.5 * dt, y + 0.5 * dt * dy)
        k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (dy + 2.0 * k2 + 2.0 * k3 + k4)
        dy = f((n + 1) * dt, y)
        ys[n + 1], dys[n + 1], count = y, dy, count + 1
    return ys


def linear_system(delays, dim=3, seed=0):
    """dy/dt = A y + sum_j B_j y(t - tau_j) with fixed complex matrices."""
    rng = np.random.default_rng(seed)

    def mat():
        return 0.5 * (rng.standard_normal((dim, dim))
                      + 1j * rng.standard_normal((dim, dim)))

    a = mat() - 1.0 * np.eye(dim)
    b = np.stack([mat() for _ in delays])
    return DelaySystem(dim=dim, delays=delays,
                       rhs=lambda t, y, yd: a @ y + np.einsum("jab,jb->a", b, yd))


class TestEngineEquivalence:
    def check(self, system, dt, t_end, prehistory, initial_state=None):
        traj = integrate(system, prehistory=prehistory, t_span=(0.0, t_end),
                         dt=dt, initial_state=initial_state)
        ref = reference_integrate(system, prehistory, t_end, dt, initial_state)
        assert traj.states.shape == ref.shape
        return traj.states, ref

    def test_off_grid_delays_dim3(self):
        dt = 0.01
        system = linear_system((0.3 + dt / 3, 0.41 + 0.6 * dt))
        # the horizon wraps the history ring (depth ~ max delay / dt) > 5 times
        states, ref = self.check(system, dt, 6.0 * 0.42, np.array([1.0, 0.5j, -0.2]))
        np.testing.assert_allclose(states, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_zero_delay(self):
        dt = 0.01
        system = linear_system((0.0, 0.2 + dt / 3), seed=1)
        states, ref = self.check(system, dt, 1.5, np.array([0.2, 1.0, 0.3j]))
        np.testing.assert_allclose(states, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_jump_initial_state_on_grid_is_exact(self):
        # dt, delays and stage times are exact binary fractions, so every
        # tap is an exact node or an exact midpoint in both engines
        dt = 1.0 / 64
        system = linear_system((0.25, 0.5), seed=2)
        states, ref = self.check(system, dt, 4.0, np.zeros(3),
                                 initial_state=np.array([1.0, 0.0, -0.5j]))
        np.testing.assert_array_equal(states, ref)

    def test_jump_initial_state_with_a_delay_on_a_non_binary_grid(self):
        # t - tau falls within rounding of 0 (0.1 / 0.01 is not exact), so
        # both engines must read the post-jump node 0, not the pre-history
        dt = 0.01
        system = linear_system((0.1,), seed=3)
        states, ref = self.check(system, dt, 1.0, np.zeros(3),
                                 initial_state=np.array([1.0, 0.5j, -0.2]))
        np.testing.assert_allclose(states, ref, rtol=0, atol=1e-13 * np.abs(ref).max())

    def test_zero_delay_alone_is_exact(self):
        # no off-node fraction: the history holds no Hermite rows at all
        dt = 0.01
        assert HistoryBuffer(resolve_taps((0.0,), dt), dt, np.zeros((1, 3)),
                             64).ring.shape[0] == 1
        system = linear_system((0.0,), seed=4)
        states, ref = self.check(system, dt, 1.0, np.array([1.0, 0.5j, -0.2]))
        np.testing.assert_array_equal(states, ref)

    def test_zero_delay_keeps_a_full_block(self):
        # a zero delay reads the stage state, not the ring, so it does not
        # shorten the block to one step
        dt = 0.01
        assert _block_size(resolve_taps((0.0,), dt), 3) == 64
        assert _block_size(resolve_taps((0.0, 0.2 + dt / 3), dt), 3) == 20

    @pytest.mark.parametrize("row", [0, 1])
    def test_rhs_returning_a_history_row(self, row):
        # x' = x(t) or x' = x(t - tau) hands back a row of ydel itself; a
        # later read into ydel must not change a stage the step still uses
        dt = 1.0 / 32
        system = DelaySystem(dim=2, delays=(0.0, 0.5 + dt / 3),
                             rhs=lambda t, y, yd: yd[row])
        states, ref = self.check(system, dt, 3.0, np.array([1.0, 0.5j]))
        np.testing.assert_allclose(states, ref, rtol=0, atol=1e-13 * np.abs(ref).max())


class TestHistoryWrite:
    """`HistoryBuffer.write` closes a block's intervals: every Hermite row at
    every fraction at once, then the copy columns."""

    # the two-atom point 2 of the seed-1 benchmark sweep: its four loop
    # delays are off the dt grid; z1 + z2 and z2 - z1 lie 64 steps apart,
    # so their taps share fractions (up to rounding): five, not seven
    Z1, Z2 = 0.05473439699423947, 0.1992946755240927
    DT = 2.0 * Z1 / 64

    # one step and a full 64-step block, at the ring's first column and
    # ending at its last, whose end node wraps to column 0
    @pytest.mark.parametrize("block, wrap", [(False, False), (False, True),
                                             (True, False), (True, True)],
                             ids=["step-first", "step-wrap", "block-first",
                                  "block-wrap"])
    def test_one_write_fills_every_hermite_row_and_the_copy_columns(
            self, block, wrap):
        z1, z2 = self.Z1, self.Z2
        taps = resolve_taps((2 * z1, 2 * z2, z1 + z2, z2 - z1), self.DT)
        fractions = sorted({s for row in taps for _, s in row if s > 0.0})
        assert len(fractions) == 5 and _block_size(taps, 2) == 64
        size = 64 if block else 1
        hist = HistoryBuffer(taps, self.DT, np.zeros((1, 2)), size)
        period = hist.period
        rng = np.random.default_rng(size + wrap)
        hist.ring[0] = (rng.standard_normal((1, period + size, 2))
                        + 1j * rng.standard_normal((1, period + size, 2)))
        dy = (rng.standard_normal((1, size + 1, 2))
              + 1j * rng.standard_normal((1, size + 1, 2)))
        p0 = period - size if wrap else 0
        y = hist.ring[0, :, p0:p0 + size + 1].copy()
        hist.write(11 * period + p0, dy)
        for f, s in enumerate(fractions):
            h00, h10, h01, h11 = _hermite_weights(s)
            want = (h00 * y[:, :-1] + h10 * self.DT * dy[:, :-1]
                    + h01 * y[:, 1:] + h11 * self.DT * dy[:, 1:])
            got = hist.ring[1 + f, :, p0:p0 + size]
            assert np.all(np.abs(got - want)
                          <= 4 * np.spacing(np.abs(want).max())), f
        if wrap:
            # the end node, written to the copy column period, is node 0's
            assert np.array_equal(hist.ring[0, :, 0], y[:, -1])
        else:
            assert np.array_equal(hist.ring[:, :, period:],
                                  hist.ring[:, :, :size])


class TestLinearStepper:
    """`integrate_block` with a drive and a (rows, cols) state against
    `integrate` on the same linear system."""

    def test_matches_generic_engine_from_a_jump(self):
        dt = 0.01
        delays = (0.13 + dt / 3, 0.3 + 0.6 * dt)
        rng = np.random.default_rng(3)
        table = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        damping = np.array([0.7, 0.2])
        force = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        y0 = np.array([[1.0, 0.5j, 0.0], [-0.3, 0.0, 2.0]])
        # 200 steps: 13-step blocks (the shortest delay), the last one short
        assert _block_size(resolve_taps(delays, dt), y0.size) == 13
        want, got = driven_pair(y0, damping, table, delays, force,
                                np.array([0.0, 5.0, -9.0]), dt, 200)
        assert_same_trajectory(got, want)

    def test_guards(self):
        y0, d, table = np.zeros((1, 2)), np.zeros(1), np.zeros((1, 1))
        with pytest.raises(ValueError):
            integrate_block(y0, d, table, (0.0,), 0.01, 10)
        with pytest.raises(StepTooLarge):
            integrate_block(y0, d, table, (0.1,), 0.02, 10)
        # one damping per row of a two-dimensional state
        with pytest.raises(ValueError, match="rows"):
            integrate_block(np.zeros(2), np.zeros(2), table, (0.1,), 0.01, 10)
        with pytest.raises(ValueError, match="rows"):
            integrate_block(y0, np.zeros((1, 1)), table, (0.1,), 0.01, 10)

    def test_sets_up_at_the_call(self):
        # the ring, the block buffers and node 0 are made on the calling
        # thread, so a consumer that iterates on another thread allocates
        # no history in that thread's malloc arena
        calls = []

        def drive(h):
            calls.append(h.tolist())
            return np.ones((1, len(h), 2), dtype=complex)

        blocks = integrate_block(np.zeros((1, 2)), np.ones(1), np.zeros((1, 1)),
                                 (0.1,), 0.01, 20, drive)
        assert calls == [[0]]
        first, y, dy = next(blocks)
        assert first == 0 and calls == [[0]]
        assert np.array_equal(dy, np.ones((1, 1, 2)))   # c = f(0), D y0 = 0

    def test_window_wraps_with_reads_across_it(self):
        # a 30.33-step delay reads 30 steps back at fractions 1/6 and 2/3,
        # and a state of 2 x 1024 values caps the block at 16 steps: the
        # window holds 32 nodes, so 400 steps wrap it 12 times, and every
        # other block (the first from node 16) reads the Hermite rows in
        # window slots 18 to 33, across the wrap
        dt = 0.01
        delays = (0.3 + dt / 3,)
        rng = np.random.default_rng(8)
        y0 = rng.standard_normal((2, 1024)) + 1j * rng.standard_normal((2, 1024))
        assert resolve_taps(delays, dt)[0][0][0] == -30
        assert _block_size(resolve_taps(delays, dt), y0.size) == 16
        table = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        want, got = driven_pair(y0, np.array([1.0, 0.3]), table, delays,
                                np.ones((2, 1024)), np.linspace(-3, 3, 1024),
                                dt, 400)
        assert_same_trajectory(got, want)


def run_block(y0, damping, table, delays, dt, n_steps, drive=None):
    """Every node of an `integrate_block` run as a Trajectory whose component
    r * cols + j is y[r, j]; a y0 of shape (rows,) is one column."""
    y0 = np.asarray(y0, dtype=complex)
    y0 = y0[:, None] if y0.ndim == 1 else y0
    nodes = []
    for first, y, dy in integrate_block(y0, damping, table, delays, dt,
                                        n_steps, drive):
        assert first == sum(map(len, nodes))     # in order, without gaps
        # (rows, k, cols) twice -> (k, 2, rows * cols)
        nodes.append(np.stack([y, dy]).transpose(2, 0, 1, 3)
                     .reshape(y.shape[1], 2, -1))
    nodes = np.concatenate(nodes)
    assert len(nodes) == n_steps + 1
    return Trajectory(states=nodes[:, 0], derivatives=nodes[:, 1], dt=dt,
                      prehistory=np.zeros(y0.size, dtype=complex))


def driven_pair(y0, damping, table, delays, force, freq, dt, n_steps):
    """(`integrate`, `integrate_block`) trajectories of y' = -D y + table @ Y
    + force e^{i freq t} from y0 (rows, cols); force is None for no drive."""
    rows, cols = y0.shape

    def f(t):
        if force is None:
            return np.zeros((rows, np.size(t), cols))
        return force[:, None] * np.exp(1j * np.multiply.outer(t, freq))

    def rhs(t, y, ydel):
        return (table @ ydel.reshape(-1, cols) - damping[:, None]
                * y.reshape(rows, cols) + f(t)[:, 0]).ravel()

    want = integrate(DelaySystem(dim=y0.size, delays=delays, rhs=rhs),
                     prehistory=np.zeros(y0.size), dt=dt,
                     t_span=(0.0, n_steps * dt), initial_state=y0.ravel())
    drive = None if force is None else (lambda h: f(0.5 * dt * h))
    return want, run_block(y0, damping, table, delays, dt, n_steps, drive)


# ---------------------------------------------------------------------------
# delay sets in any order, with repeats and rounding-level coincidences
# ---------------------------------------------------------------------------

DT = 0.01


@st.composite
def delay_sets(draw, allow_zero=False):
    """Delays >= 8 dt in any order: exact repeats, and (b / dt + k) dt,
    which reads b's Hermite fraction up to rounding, k nodes further back
    (b's own position when k = 0); with allow_zero, maybe a zero delay."""
    base = draw(st.lists(st.floats(8 * DT, 0.3), min_size=1, max_size=3))
    repeats = draw(st.lists(st.sampled_from(base), max_size=2))
    shifted = [(b / DT + k) * DT for b, k in draw(st.lists(
        st.tuples(st.sampled_from(base), st.integers(0, 20)), max_size=2))]
    zero = [0.0] if allow_zero and draw(st.booleans()) else []
    return tuple(draw(st.permutations(base + repeats + shifted + zero)))


def random_linear(delays, dim, seed):
    """(damping, table, y0) of a random dim-component linear delay system."""
    rng = np.random.default_rng(seed)
    table = 0.5 * (rng.standard_normal((dim, len(delays) * dim))
                   + 1j * rng.standard_normal((dim, len(delays) * dim)))
    y0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return 1.0 + rng.random(dim), table, y0


class TestDelaySets:
    T_END = 1.0

    @given(delays=delay_sets(allow_zero=True), dim=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_integrate_matches_reference(self, delays, dim, seed):
        damping, table, y0 = random_linear(delays, dim, seed)
        fractions = sorted({s for row in resolve_taps(delays, DT)
                            for _, s in row})
        # reads that coincide up to rounding were given one fraction
        assert np.all(np.diff(fractions) >= 1e-9)
        # a continuous start; TestEngineEquivalence checks jumps at t = 0
        system = dde.linear_system(damping, delays, table)
        traj = integrate(system, prehistory=y0, t_span=(0.0, self.T_END),
                         dt=DT)
        ref = reference_integrate(system, y0, self.T_END, DT)
        np.testing.assert_allclose(traj.states, ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())

    @given(delays=delay_sets(), dim=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    @settings(max_examples=20)
    def test_integrate_block_matches_integrate(self, delays, dim, seed):
        # the spatial solves' shape: one column, no drive
        damping, table, y0 = random_linear(delays, dim, seed)
        want = integrate(dde.linear_system(damping, delays, table),
                         prehistory=np.zeros(dim), t_span=(0.0, self.T_END),
                         dt=DT, initial_state=y0)
        got = run_block(y0, damping, table, delays, DT,
                        round(self.T_END / DT))
        assert_same_trajectory(got, want)

    @given(delays=delay_sets(), rows=st.integers(1, 3), cols=st.integers(1, 3),
           driven=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=30)
    def test_integrate_linear_matches_integrate(self, delays, rows, cols,
                                                driven, seed):
        # the pair solve's linear system on the block engine: a
        # (rows, cols) state with an optional drive
        damping, table, _ = random_linear(delays, rows, seed)
        rng = np.random.default_rng(seed + 1)
        y0, force = (rng.standard_normal((2, rows, cols))
                     + 1j * rng.standard_normal((2, rows, cols)))
        want, got = driven_pair(y0, damping, table, delays,
                                force if driven else None,
                                rng.uniform(-10, 10, cols), DT,
                                round(self.T_END / DT))
        assert_same_trajectory(got, want)

    def test_coinciding_loops_match_a_hand_merged_system(self):
        # z2 = 3 z1 on binary fractions: 2 z1 == z2 - z1 exactly, so the
        # first and last of the four loop delays are one delay
        config = NetworkConfig(atoms=(AtomParams(0.25, 0.9, 1.1),
                                      AtomParams(0.75, 1.2, 0.7)),
                               omega_a=10.0)
        damping, delays, table = exchange_table(config)
        assert delays[0] == delays[3]
        merged = table[:, :6].copy()
        merged[:, :2] += table[:, 6:]
        dt, t_end = 0.5 / 64, 4.0
        want = integrate(dde.linear_system(damping, delays[:3], merged),
                         prehistory=np.zeros(2), t_span=(0.0, t_end), dt=dt,
                         initial_state=np.array([1.0, 0.0]))
        got = solve_two_atom_single_excitation(config, t_end, dt)
        np.testing.assert_allclose(got.states, want.states, rtol=0,
                                   atol=1e-13 * np.abs(want.states).max())


def assert_same_trajectory(got, want):
    """Identical times; states and derivatives within 1e-12 of each one's
    maximum."""
    assert got.times.tobytes() == want.times.tobytes()
    for name in ("states", "derivatives"):
        ref = getattr(want, name)
        np.testing.assert_allclose(getattr(got, name), ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max(),
                                   err_msg=name)


class TestBlockEngine:
    """`integrate_block` against `integrate` where the block length bites:
    a block may not read a node or interval it produces itself, and a wide
    state's block stays within the cache."""

    def compare(self, delays, n_steps, dim=2, seed=5):
        """Compare the two engines; return the block length."""
        damping, table, y0 = random_linear(delays, dim, seed)
        want = integrate(dde.linear_system(damping, delays, table),
                         prehistory=np.zeros(dim),
                         t_span=(0.0, n_steps * DT), dt=DT, initial_state=y0)
        got = run_block(y0, damping, table, delays, DT, n_steps)
        assert_same_trajectory(got, want)
        return _block_size(resolve_taps(delays, DT), dim)

    def test_steps_not_a_multiple_of_the_block(self):
        # 30-step delay: 30-step blocks; 1 s: capped at 64
        assert self.compare((0.3,), 100) == 30
        assert self.compare((1.0, 0.7 + DT / 3), 150, dim=3) == 64

    def test_deepest_read_a_node_whole_blocks_back(self):
        # a 30.5-step delay reads node n - 30 and interval n - 30 in
        # 30-step blocks: the window must hold 31 nodes, two blocks
        assert resolve_taps((0.305,), DT) == [[(-30, 0.0)], [(-30, 0.5)]]
        assert self.compare((0.305,), 200) == 30

    @pytest.mark.parametrize("shortest", [8 * DT, 8 * DT * (1 + 1e-6),
                                          8.5 * DT, 8.7 * DT])
    def test_shortest_delay_near_eight_steps(self, shortest):
        assert self.compare((0.237, shortest), 120) == 8

    def test_on_and_off_grid_fractions_and_coinciding_delays(self):
        # on the grid, off it, an exact repeat, and the off-grid fraction
        # again five nodes further back
        delays = (0.25, 0.13 + DT / 3, 0.25, 0.18 + DT / 3, 0.2 + 0.5 * DT)
        self.compare(delays, 140, dim=2, seed=11)

    def test_default_plan_block(self):
        config = NetworkConfig(atoms=(AtomParams(0.05, 0.3, 0.2),
                                      AtomParams(0.17, 0.1, 0.4)),
                               omega_a=50.0)
        dt = min(config.delays) / 64
        assert _block_size(resolve_taps(config.delays, dt), 2) == 64
        # the fig2 pair solve: 2 x 1001 modes
        fig2 = NetworkConfig(atoms=(AtomParams(0.1, 0.25, 0.5),
                                    AtomParams(0.2, 0.25, 0.5)), omega_a=50.0)
        assert _block_size(resolve_taps(fig2.delays, 0.1 / 64), 2002) == 16

    @pytest.mark.parametrize("tau", [0.0, -0.1, math.inf, math.nan])
    def test_non_positive_or_non_finite_delay_refused(self, tau):
        with pytest.raises(ValueError, match="finite and > 0"):
            integrate_block(np.ones((1, 1)), np.ones(1), np.ones((1, 2)),
                            (0.5, tau), DT, 10)

    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            integrate_block(np.ones((1, 1)), np.ones(1), np.ones((1, 1)),
                            (8 * DT,), 1.01 * DT, 10)

    def test_growth_names_the_first_non_finite_node(self):
        # y' = 300 y: R = 16.375 a step, so R^n first overflows at n = 254
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteState, match=re.escape(f"t={254 * DT!r}")):
            run_block(np.ones(1), np.array([-300.0]), np.zeros((1, 1)),
                      (0.1,), DT, 400)

    def test_overflow_through_a_delayed_read_names_its_node(self):
        # y' = 1e300 y(t - 0.1), y(0) = 1: step 9 first reads node 0, so
        # y_10 ~ 1e297, and step 19 reads 1e300 y_10: y_20 overflows.  The
        # power table spreads that over the block's earlier nodes.
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteState, match=re.escape(f"t={20 * DT!r}")):
            run_block(np.ones(1), np.zeros(1), np.array([[1e300]]),
                      (0.1,), DT, 40)
