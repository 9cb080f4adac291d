import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqsim import (PRESETS, AtomParams, DelaySystem, GridRevivalWarning,
                   InvalidGrid, KGrid, NetworkConfig, NonFiniteState,
                   OutsideMarkovRegimeWarning, RunSettings, StepTooLarge,
                   SteadyStateLabel, TwoExcitationState, analytic_cee_markov,
                   classify_steady_state, integrate, oracle_full_grid,
                   populations, solve_cee, solve_spectral_pair,
                   solve_two_photon, stream_two_photon, total_norm,
                   two_photon_norm)
from wqsim import frequency
from wqsim.dde import _block_size, resolve_taps
from wqsim.frequency import (_MAX_PHASE_PER_INTERVAL, _ORACLE_BLOCK,
                             _QUAD_BLOCK, TWO_PHOTON_SCALE,
                             SpectralPairResult, _excited_populations,
                             _phase_interpolant, exchange_table,
                             markov_exponent)
from wqsim.model import MODE_MEASURE, coupling_g, coupling_row
from wqsim.verify import _DARK_STATE_TOL

WA = 50.0
# two mode tiles against one at N = 1001, relative to each array's peak:
# rounding only, from the engine's 32-step blocks on a tile against its
# 16-step blocks on the whole grid
TILE_TOL = 1e-15

FIG2 = NetworkConfig(atoms=(AtomParams(0.1, 0.25, 0.5),
                            AtomParams(0.2, 0.25, 0.5)), omega_a=WA)
FIG3 = NetworkConfig(atoms=(AtomParams(math.pi / WA, 0.25, 0.25),
                            AtomParams(2 * math.pi / WA, 0.5, 0.0)),
                     omega_a=WA)


def decoupled_config():
    return NetworkConfig(atoms=(AtomParams(0.1, 0.0, 0.0),
                                AtomParams(0.2, 0.0, 0.0)), omega_a=WA)


class TestSolveCee:
    def test_decoupled_stays_excited(self):
        traj = solve_cee(decoupled_config(), 2.0, 0.01)
        assert np.abs(traj.states[:, 0] - 1.0).max() < 1e-14

    def test_chiral_decay(self):
        # population decay rate ~0.73 for this geometry
        traj = solve_cee(FIG2, 8.0, 0.1 / 64)
        assert abs(traj.states[-1, 0]) ** 2 < 0.01

    def test_nonchiral_node_dark(self):
        cfg = NetworkConfig(atoms=(AtomParams(math.pi / WA, 0.5, 0.5),
                                   AtomParams(2 * math.pi / WA, 0.5, 0.5)),
                            omega_a=WA)
        traj = solve_cee(cfg, 40 * math.pi / WA, (math.pi / WA) / 64)
        # stabilizes at the finite-delay residue (1 + sum gl gr tau)^-2
        tau = cfg.round_trip_delays
        residue = 1.0 / (1.0 + 0.25 * (tau[0] + tau[1]))
        assert abs(traj.states[-1, 0]) ** 2 == pytest.approx(residue**2,
                                                             abs=5e-3)
        assert np.min(np.abs(traj.states[:, 0]) ** 2) > 0.8


class TestMarkovForm:
    def test_initial_value(self):
        assert analytic_cee_markov(0.0, FIG2) == pytest.approx(1.0)

    def test_quarter_phase_single_atom_rate(self):
        # 2 omega_a z = pi/2 (mod 2 pi): the feedback term is purely a phase
        cfg = NetworkConfig(atoms=(AtomParams(2.25 * math.pi / WA, 0.1, 0.3),),
                            omega_a=WA)
        t = np.linspace(0.0, 10.0, 11)
        got = np.abs(analytic_cee_markov(t, cfg)) ** 2
        want = np.exp(-(0.1**2 + 0.3**2) * t)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_modulus_decreasing_for_chiral(self):
        t = np.linspace(0.0, 20.0, 101)
        mod = np.abs(analytic_cee_markov(t, FIG2))
        assert mod[0] == pytest.approx(1.0)
        assert np.all(np.diff(mod) < 0)
        assert np.all(mod <= 1.0 + 1e-15)

    def test_agreement_in_deep_regime(self):
        cfg = NetworkConfig(atoms=(AtomParams(0.02, 0.25, 0.5),
                                   AtomParams(0.03, 0.25, 0.5)), omega_a=WA)
        traj = solve_cee(cfg, 4.0, 0.01 / 64)
        diff = np.abs(traj.states[:, 0]
                      - analytic_cee_markov(traj.times, cfg)).max()
        assert diff < 0.02

    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig4_solid"])
    def test_exponent_matches_the_closed_form(self, name):
        cfg = PRESETS[name].config
        want = complex(-cfg.gamma_rl, 0.0)
        for atom, tau in zip(cfg.atoms, cfg.round_trip_delays):
            want += atom.feedback * complex(math.cos(WA * tau),
                                            math.sin(WA * tau))
        assert abs(markov_exponent(cfg) - want) <= 1e-15


@st.composite
def networks(draw, z1=st.floats(0.02, 0.5), omega_a=st.floats(1.0, 100.0)):
    """One or two atoms with any chirality; the second, if any, at 1.5 to 4
    times z1."""
    g = st.floats(0.0, 1.0)
    atoms = [AtomParams(draw(z1), draw(g), draw(g))]
    if draw(st.booleans()):
        atoms.append(AtomParams(atoms[0].position * draw(st.floats(1.5, 4.0)),
                                draw(g), draw(g)))
    return NetworkConfig(atoms=tuple(atoms), omega_a=draw(omega_a))


@st.composite
def dark_networks(draw):
    """Nonchiral atoms at nodes z_j = n_j pi / omega_a of the short-delay
    regime (omega_a >= 10, z_j <= 0.25), with n_1 < n_2 <= 2 n_1: atom 2's
    first echo comes no later than atom 1's second."""
    omega_a = draw(st.floats(26.0, 100.0))
    top = int(0.25 * omega_a / math.pi)
    n1 = draw(st.integers(1, top - 1))
    n2 = draw(st.integers(n1 + 1, min(2 * n1, top)))
    g = st.floats(0.0, 0.5)
    return NetworkConfig(atoms=tuple(
        AtomParams(n * math.pi / omega_a, gamma, gamma)
        for n, gamma in ((n1, draw(g)), (n2, draw(g)))), omega_a=omega_a)


class TestRandomNetworks:
    @given(config=dark_networks())
    @settings(max_examples=20)
    def test_nonchiral_nodes_follow_the_dark_state_law(self, config):
        # every delay phase is 1 at a node; the method of steps gives
        # c = e^{-gamma t} on [0, tau_1] and, until the next echo at tau_2,
        # c = e^{-gamma t}[1 + a_1 e^{gamma tau_1}(t - tau_1)]
        t1, t2 = config.round_trip_delays
        plan = RunSettings(t_end=t2).resolved(config)
        traj = solve_cee(config, plan.t_end, plan.dt)
        t, rate, a1 = traj.times, config.gamma_rl, config.atoms[0].feedback
        law = np.exp(-rate * t) * np.where(
            t <= t1, 1.0, 1.0 + a1 * math.exp(rate * t1) * (t - t1))
        assert np.abs(traj.states[:, 0] - law).max() < _DARK_STATE_TOL

    @given(config=networks(z1=st.floats(1e-3, 10.0),
                           omega_a=st.floats(0.1, 1e3)))
    @settings(max_examples=200)
    def test_markov_exponent_decays(self, config):
        # sum_j gamma_jL gamma_jR cos(omega_a tau_j) - gamma_RL is at most
        # -sum_j (gamma_jR - gamma_jL)^2 / 2 <= 0, up to rounding
        bound = -sum((a.gamma_r - a.gamma_l) ** 2 for a in config.atoms) / 2
        rounding = 1e-15 * (1.0 + config.gamma_rl)
        assert markov_exponent(config).real <= bound + rounding

    @given(config=networks(), horizon=st.floats(1.0, 3.0))
    @settings(max_examples=40)
    def test_cee_modulus_at_most_one(self, config, horizon):
        # default plan, over one to three round trips of the outer atom
        plan = RunSettings(
            t_end=horizon * config.round_trip_delays[-1]).resolved(config)
        traj = solve_cee(config, plan.t_end, plan.dt)
        assert np.abs(traj.states[:, 0]).max() <= 1.0 + 1e-9


def small_pair(config, t_end, n=101, half=8.0, dt_div=32):
    dt = min(config.delays) / dt_div
    kgrid = KGrid.centered(config.omega_a, half, n)
    cee = solve_cee(config, t_end, dt)
    return solve_spectral_pair(config, cee, kgrid), cee


class TestSpectralPair:
    def test_pure_drive_when_second_atom_decoupled(self):
        cfg = NetworkConfig(atoms=(AtomParams(0.1, 0.2, 0.3),
                                   AtomParams(0.25, 0.0, 0.0)), omega_a=WA)
        pair, cee = small_pair(cfg, 2.0, n=41, half=6.0)
        # with gamma_2 = 0, c_gek has no damping and no feedback: its
        # derivative is the drive -i c_ee g_1(k, t), and it is the bare
        # quadrature of that drive
        k = pair.kgrid.k_values
        drive = np.empty((len(cee.times), len(k)), dtype=complex)
        for j, t in enumerate(cee.times):
            drive[j] = -1j * cee.states[j, 0] * MODE_MEASURE * coupling_g(
                k, t, cfg.atoms[0], WA)
        # trapezoid on every step, read at the pair's nodes (its last
        # interval is short)
        quad = np.zeros_like(drive)
        quad[1:] = np.cumsum(0.5 * cee.dt * (drive[1:] + drive[:-1]), axis=0)
        rec = np.rint(pair.times / cee.dt).astype(int)
        assert rec[-1] - rec[-2] < rec[1] - rec[0]
        assert np.abs(pair.cgek - quad[rec]).max() < 2e-4
        np.testing.assert_allclose(pair.record[:, 1, 1], drive[rec], rtol=0,
                                   atol=1e-12 * np.abs(drive).max())

    def test_trapping_spectrum_peaks_at_resonance(self):
        pair, _ = small_pair(FIG3, 5.0)
        final = np.abs(pair.cegk[-1])
        k_max = pair.kgrid.k_values[np.argmax(final)]
        assert abs(k_max - WA) <= pair.kgrid.dk + 1e-12

    def test_second_atom_channel_empties(self):
        pair, _ = small_pair(FIG3, 5.0)
        ratio = np.abs(pair.cgek[-1]).max() / np.abs(pair.cegk[-1]).max()
        assert ratio < 0.05

    def test_output_stride_longer_than_a_block(self):
        # half-width 0.5 at dt = min delay / 128: the stride (2037 steps by
        # the phase) is cut to half the shortest delay, 64 steps, which
        # exceeds the pair engine's 32-step blocks on each of the two mode
        # tiles at N = 1001, so every other block holds no node
        pair, cee = small_pair(FIG3, 1.0, n=1001, half=0.5, dt_div=128)
        taps = resolve_taps(exchange_table(FIG3)[1], cee.dt)
        widths = {hi - lo for lo, hi in frequency._tiles(1001)}
        assert {_block_size(taps, 2 * m) for m in widths} == {32}
        assert pair.stride == 64
        _, p1, p2 = pair.populations_series()
        assert len(p1) == len(pair.times) == -(-2038 // 64) + 1
        state = TwoExcitationState(
            c_ee=complex(pair.cee[-1]), c_egk=pair.cegk[-1],
            c_gek=pair.cgek[-1], c_kk=np.zeros((1001, 1001)),
            kgrid=pair.kgrid)
        assert (p1[-1], p2[-1]) == populations(state)

    def test_one_grid(self):
        # c_ee, the populations, the Hermite record and the two-photon
        # checkpoints share one grid; 644 steps at stride 16, so its last
        # interval is short
        pair, _ = small_pair(FIG2, 2.01, n=61, half=10.0)
        assert pair.stride == 16 and len(pair.times) == 42
        dk = pair.kgrid.dk
        for i in range(len(pair.times)):
            want = _excited_populations(pair.cee[i], *pair.record[i, 0], dk)
            assert tuple(pair.populations[:, i]) == want
        at = [1.234, 0.0, pair.t_end, 0.71, 1.234]
        got = [t for t, _ in stream_two_photon(pair, at)]
        assert len(got) == len(at) and np.isin(got, pair.times).all()

    def test_populations_start_at_one(self):
        pair, _ = small_pair(FIG3, 1.0)
        _, p1, p2 = pair.populations_series()
        assert p1[0] == pytest.approx(1.0)
        assert p2[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# closed-form pair stepper against the pair rhs on the generic engine
# ---------------------------------------------------------------------------

def reference_pair(config, cee, kgrid, dt, n_steps):
    """The pair equations as an rhs closure on the generic `integrate` (four
    rhs calls per step, one history read per delay and call).  Returns its
    `Trajectory`: states and derivatives (c_egk | c_gek) at every step."""
    a1, a2 = config.atoms
    n = len(kgrid)
    damping, delays, table = exchange_table(config)
    damping = damping[:, None]
    drive_row = -1j * np.stack([coupling_row(kgrid, a2),
                                coupling_row(kgrid, a1)])
    detuning = kgrid.k_values - config.omega_a

    def rhs(t, y, ydel):
        out = table @ ydel.reshape(-1, n)
        out -= damping * y.reshape(2, n)
        out += (cee.sample(t)[0] * drive_row) * np.exp(1j * detuning * t)
        return out.reshape(-1)

    return integrate(DelaySystem(dim=2 * n, delays=delays, rhs=rhs),
                     prehistory=np.zeros(2 * n, complex),
                     t_span=(0.0, n_steps * dt), dt=dt)


OFF_GRID = NetworkConfig(atoms=(AtomParams(0.1, 0.3, 0.45),
                                AtomParams(0.23, 0.4, 0.2)), omega_a=WA)


class TestPairStepper:
    """`solve_spectral_pair` (closed-form RK4) against `reference_pair`."""

    @pytest.mark.parametrize("config, half, dt, n_steps, stride", [
        # the fig2 atoms, step and half-width: stride 7 and a final
        # interval of 3 steps
        (FIG2, 45.0, 0.1 / 64, 640, 7),
        # delays 0.13, 0.2, 0.33, 0.46 at dt 0.0107: eight distinct Hermite
        # fractions, none of them 0 or 1/2, and a stride of half the
        # shortest delay (6 steps; 7 by the phase)
        (OFF_GRID, 6.0, 0.0107, 150, 6),
        # stride 32, half the shortest delay (40 by the phase), does not
        # divide 650 steps: 21 nodes on the stride grid, then the final
        # node 10 steps after the last of them
        (FIG2, 8.0, 0.1 / 64, 650, 32),
        # a prime step count: stride 7 and a final interval of 4 steps
        (FIG2, 45.0, 0.1 / 64, 641, 7),
    ], ids=["fig2-plan", "off-grid-fractions", "stride-not-dividing",
            "prime-steps"])
    def test_matches_generic_engine(self, config, half, dt, n_steps, stride):
        kg = KGrid.centered(WA, half, 41)
        fractions = {s for row in resolve_taps(exchange_table(config)[1], dt)
                     for _, s in row}
        if config is OFF_GRID:
            assert len(fractions) == 8 and not fractions & {0.0, 0.5}
        cee = solve_cee(config, n_steps * dt, dt)
        pair = solve_spectral_pair(config, cee, kg)
        assert pair.stride == stride
        assert len(pair.times) == -(-n_steps // stride) + 1
        assert pair.times[-1] == n_steps * dt
        ref = reference_pair(config, cee, kg, dt, n_steps)
        steps = list(range(0, n_steps, stride)) + [n_steps]
        np.testing.assert_array_equal(pair.times, ref.times[steps])
        sums = (np.abs(ref.states[steps]) ** 2).reshape(-1, 2, 41).sum(axis=2)
        np.testing.assert_allclose(
            pair.populations.T, np.abs(cee.states[steps]) ** 2 + sums * kg.dk,
            rtol=0, atol=1e-12)
        for got, want in ((pair.record[:, 0], ref.states[steps]),
                          (pair.record[:, 1], ref.derivatives[steps])):
            np.testing.assert_allclose(got.reshape(len(steps), -1), want,
                                       rtol=0, atol=1e-12 * np.abs(want).max())

    def test_off_centre_grid_keeps_the_phase_bound(self):
        # the grid's half-width is 5 but its modes lie up to 15 from
        # omega_a: the stride follows the phase e^{i(k - omega_a) t}, 10
        # steps where a centred half-width 5 would allow half the shortest
        # delay, 16
        dt = min(FIG2.delays) / 32
        cee = solve_cee(FIG2, 0.5, dt)

        def stride(kgrid):
            return solve_spectral_pair(FIG2, cee, kgrid).stride

        assert stride(KGrid.centered(WA + 10.0, 5.0, 21)) == 10
        assert 10 * dt * 15.0 <= _MAX_PHASE_PER_INTERVAL < 11 * dt * 15.0
        assert stride(KGrid.centered(WA, 15.0, 21)) == 10
        assert stride(KGrid.centered(WA, 5.0, 21)) == 16

    def test_step_above_the_pair_delay_bound_raises(self):
        # dt = 0.02 is within the c_ee bound 2 z1 / 8 = 0.025 but above the
        # pair's, (z2 - z1) / 8 = 0.0125
        cee = solve_cee(FIG2, 1.0, 0.02)
        with pytest.raises(StepTooLarge):
            solve_spectral_pair(FIG2, cee, KGrid.centered(WA, 8.0, 21))


class TestTwoPhoton:
    def test_decoupled_yields_nothing(self):
        pair, _ = small_pair(decoupled_config(), 1.0, n=21, half=4.0)
        (t_kk, ckk), = solve_two_photon(pair)
        assert np.all(ckk == 0.0)

    def test_exchange_symmetry_exact(self):
        pair, _ = small_pair(FIG2, 2.0, n=61, half=10.0)
        (_, ckk), = solve_two_photon(pair)
        assert np.abs(ckk - ckk.T).max() < 1e-12 * np.abs(ckk).max()

    def test_checkpoints_monotone_growth(self):
        pair, _ = small_pair(FIG2, 2.0, n=61, half=10.0)
        mats = solve_two_photon(pair, at_times=[0.5, 1.0, 2.0])
        norms = [two_photon_norm(m, pair.kgrid) for _, m in mats]
        assert norms[0] < norms[1] < norms[2]


# ---------------------------------------------------------------------------
# two-photon quadrature against an explicit Hermite-Gauss loop
# ---------------------------------------------------------------------------

def hermite_gauss_two_photon(pair, t, n_gauss=16):
    """c_kk at the record node nearest t, interval by interval: n_gauss
    Gauss-Legendre points on each record interval in [0, t], the cubic
    Hermite interpolant of the interval's end values and derivatives there,
    and exact phases (no interpolation).  The Hermite basis is taken at the
    points' exact fractions (x + 1) / 2: at the fractions of their rounded
    times it would be off by ulp(t) / h, 1.6e-13 of the result over 1024
    intervals."""
    cfg = pair.config
    t = float(pair.times[pair.index_at(t)])
    g1 = coupling_row(pair.kgrid, cfg.atoms[0])
    g2 = coupling_row(pair.kgrid, cfg.atoms[1])
    det = pair.kgrid.k_values - cfg.omega_a
    x, w = np.polynomial.legendre.leggauss(n_gauss)
    u = (0.5 * (x + 1))[:, None, None]
    nodes, rec = pair.times, pair.record
    n = len(pair.kgrid)
    s = np.zeros((n, n), dtype=complex)
    for j in range(len(nodes) - 1):
        a, b = nodes[j], nodes[j + 1]
        if b > t:
            break
        h = b - a
        tg = 0.5 * (a + b) + 0.5 * h * x
        y = ((1 + 2 * u) * (1 - u) ** 2 * rec[j, 0]
             + h * u * (1 - u) ** 2 * rec[j, 1]
             + u * u * (3 - 2 * u) * rec[j + 1, 0]
             + h * u * u * (u - 1) * rec[j + 1, 1])
        ph = (0.5 * (b - a) * w)[:, None] * np.exp(1j * np.outer(tg, det))
        s += y[:, 0].T @ (ph * g1) + y[:, 1].T @ (ph * g2)
    return -1j * TWO_PHOTON_SCALE * (s + s.T)


def random_pair(kgrid, times, seed):
    """A `SpectralPairResult` with a random Hermite record (values and
    derivatives) and zero c_ee and populations on `times`."""
    rng = np.random.default_rng(seed)
    shape = (len(times), 2, 2, len(kgrid))
    record = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralPairResult(
        times=times, cee=np.zeros(len(times), complex),
        populations=np.zeros((2, len(times))), record=record, kgrid=kgrid,
        config=FIG2, stride=1)


@st.composite
def records(draw):
    """A random record of 1 to 1300 nodes on an off-centre grid, its last
    interval short or not; 1 to 6 checkpoints (unsorted, repeated, at 0, on
    block edges, at the end).  At most 0.5 rad per record interval and 400
    rad over the record, where rounding the reference's phase arguments
    stays well below the tolerance."""
    theta = draw(st.floats(1e-3, 0.5))
    n_rec = min(int(400 / theta), draw(
        st.integers(1, 1300) | st.sampled_from([1, 2, 513, 1025, 1300])))
    kgrid = KGrid.centered(WA + draw(st.floats(-15.0, 15.0)),
                           draw(st.floats(1.0, 20.0)),
                           draw(st.integers(2, 9)))
    h = theta / float(np.abs(kgrid.k_values - WA).max())
    nodes = h * np.arange(n_rec)
    if n_rec > 1 and draw(st.booleans()):
        nodes[-1] = nodes[-2] + h * draw(st.floats(0.01, 0.99))
    marks = [0, n_rec - 1, *(i for i in (_QUAD_BLOCK - 1, _QUAD_BLOCK,
                                         _QUAD_BLOCK + 1, 2 * _QUAD_BLOCK)
                              if i < n_rec)]
    picks = draw(st.lists(st.integers(0, n_rec - 1) | st.sampled_from(marks),
                          min_size=1, max_size=6))
    pair = random_pair(kgrid, nodes, draw(st.integers(0, 2**32 - 1)))
    return pair, [float(nodes[i]) for i in picks]


def filon_moments(theta, a):
    """int_0^a u^m e^{i theta u} du for m = 0..3, in 40-digit arithmetic:
    M_0 = (e^{i theta a} - 1) / (i theta),
    M_m = (a^m e^{i theta a} - m M_{m-1}) / (i theta)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        if theta == 0.0:
            return [complex(a ** (m + 1) / (m + 1)) for m in range(4)]
        it = 1j * mpmath.mpf(theta)
        e = mpmath.exp(it * a)
        moments = [(e - 1) / it]
        for m in range(1, 4):
            moments.append((a ** m * e - m * moments[-1]) / it)
        return [complex(x) for x in moments]


class TestTwoPhotonQuadrature:
    """`solve_two_photon` (Gauss points on the Hermite record, the phase
    interpolated per block of intervals, one accumulator) against
    `hermite_gauss_two_photon` and closed-form Filon moments."""

    @staticmethod
    def check(got, ref):
        scale = max(np.abs(r).max() for _, r in ref)
        assert [t for t, _ in got] == [t for t, _ in ref]
        for (_, g), (_, r) in zip(got, ref, strict=True):
            assert np.array_equal(g, g.T)
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("config, t_end, at_times", [
        # 41 record nodes: checkpoints unsorted, repeated, at t = 0, off the
        # nodes (0.7125, taken at 0.7) and at the end
        (FIG2, 2.0, [1.5, 0.0, 2.0, 0.7, 1.5, 0.7125]),
        # 601 record nodes: the second segment spans two blocks, and a
        # block folds onto more than 128 Chebyshev points
        (FIG2, 30.0, [128 * 4 * 0.1 / 32, 30.0]),
        # atom 2 decoupled: c_egk and g2 vanish, so c_kk must be exactly 0
        (NetworkConfig(atoms=(AtomParams(0.1, 0.25, 0.5),
                              AtomParams(0.2, 0.0, 0.0)), omega_a=WA),
         2.0, [1.0, 2.0]),
    ], ids=["unsorted-duplicate-zero", "segment-over-two-blocks",
            "atom2-decoupled"])
    def test_matches_per_segment_loop(self, config, t_end, at_times):
        pair, _ = small_pair(config, t_end, n=61, half=10.0)
        assert pair.stride == 16
        np.testing.assert_allclose(np.diff(pair.times), pair.times[1],
                                   rtol=1e-12)
        got = solve_two_photon(pair, at_times)
        self.check(got, [(float(pair.times[pair.index_at(t)]),
                          hermite_gauss_two_photon(pair, t)) for t in at_times])
        if config.atoms[1].gamma_l == 0.0:
            assert all(np.all(g == 0.0) for _, g in got)

    def test_short_last_interval(self):
        # 641 steps at stride 16: the final node is one step past the last
        # stride node
        dt = min(FIG2.delays) / 32
        pair, _ = small_pair(FIG2, 641 * dt, n=61, half=10.0)
        assert pair.stride == 16 and len(pair.times) == 42
        assert pair.times[-1] - pair.times[-2] == pytest.approx(dt, rel=1e-12)
        at = [float(pair.times[-1]), float(pair.times[-2]), 1.0]
        got = solve_two_photon(pair, at)
        self.check(got, [(t, hermite_gauss_two_photon(pair, t)) for t in at])

    def test_one_interval_matches_filon_moments(self):
        # one record interval [0, h] with theta = (k - omega_a) h over
        # [-1.1, 1.1], a checkpoint at its end.  The Hermite cubic
        # sum_m c_m u^m (u = s / h) integrates against the phase to
        # h sum_m c_m M_m(theta, 1) exactly
        kgrid = KGrid.centered(WA, 11.0, 9)
        h = 0.1
        pair = random_pair(kgrid, np.array([0.0, h]), seed=3)
        (t, got), = solve_two_photon(pair, [h])
        assert t == h
        det = kgrid.k_values - WA
        moments = np.array([filon_moments(d * h, 1.0) for d in det]).T
        y0, d0, y1, d1 = pair.record[0, 0], h * pair.record[0, 1], \
            pair.record[1, 0], h * pair.record[1, 1]
        coeffs = np.stack([y0, d0, -3 * y0 - 2 * d0 + 3 * y1 - d1,
                           2 * y0 + d0 - 2 * y1 + d1])   # (4, 2, N)
        g = np.stack([coupling_row(kgrid, a) for a in FIG2.atoms])
        s = h * sum(coeffs[:, i].T @ (moments * g[i]) for i in range(2))
        want = -1j * TWO_PHOTON_SCALE * (s + s.T)
        self.check([(t, got)], [(t, want)])

    # fig3's half-width 20: stride 25 (0.49 rad per interval); narrower
    # windows allow more phase steps, but an interval spans at most half
    # the shortest delay (32 steps)
    @pytest.mark.parametrize("half, stride", [(20.0, 25), (8.0, 32),
                                              (2.0, 32), (0.5, 32)])
    def test_record_stride_error_is_small(self, monkeypatch, half, stride):
        # fig3's geometry and plan (dt = min delay / 64) at N = 41 over
        # [0, 5] against the same rule on every step, at the record nodes
        # nearest 1.25, 2.5 and 5
        pair, _ = small_pair(FIG3, 5.0, n=41, half=half, dt_div=64)
        at = [float(pair.times[pair.index_at(t)]) for t in (1.25, 2.5, 5.0)]
        got = solve_two_photon(pair, at)
        monkeypatch.setattr(frequency, "_MAX_PHASE_PER_INTERVAL", 1e-12)
        fine, cee = small_pair(FIG3, 5.0, n=41, half=half, dt_div=64)
        assert len(fine.times) == len(cee.states)
        n_steps = len(cee.states) - 1
        assert len(pair.times) == -(-n_steps // stride) + 1
        want = solve_two_photon(fine, at)
        assert [t for t, _ in got] == [t for t, _ in want]
        for (_, g), (_, r) in zip(got, want):
            assert np.abs(g - r).max() < 1e-7

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_refused(self, t):
        pair, _ = small_pair(FIG2, 0.5, n=21, half=6.0)
        with pytest.raises(ValueError, match=re.escape(repr(t))):
            solve_two_photon(pair, [0.25, t])

    @given(drawn=records())
    @settings(max_examples=60)
    def test_matches_hermite_gauss_on_random_records(self, drawn):
        pair, at = drawn
        got = solve_two_photon(pair, at)
        self.check(got, [(float(pair.times[pair.index_at(t)]),
                          hermite_gauss_two_photon(pair, t)) for t in at])

    @pytest.mark.parametrize("wa", [0.25, 3.0, 20.0, 60.0])
    def test_phase_interpolant_meets_its_bound(self, wa):
        # on u in [-1, 1] at width wa, for |w| <= wa: the interpolant on p
        # exact Chebyshev points reproduces e^{i w u} within 2^-52, and the
        # float basis on the rounded points within 2^-52 (4 + wa), as the
        # points' own rounding moves each phase by up to wa 2^-53
        mpmath = pytest.importorskip("mpmath")
        u = np.linspace(-1.0, 1.0, 129)
        points, basis = _phase_interpolant(u, wa)
        p = len(points)
        assert p < len(u)
        with mpmath.workdps(40):
            theta = [(q + mpmath.mpf(0.5)) * mpmath.pi / p for q in range(p)]
            cheb = [mpmath.cos(th) for th in theta]
            exact = []
            for x in u:
                terms = [(-1) ** q * mpmath.sin(th) / (mpmath.mpf(x) - c)
                         for q, (th, c) in enumerate(zip(theta, cheb))]
                total = mpmath.fsum(terms)
                exact.append([term / total for term in terms])
            for w in (wa, -wa, 0.6 * wa):
                want = [mpmath.expj(w * mpmath.mpf(x)) for x in u]
                ph = [mpmath.expj(w * c) for c in cheb]
                err = max(abs(mpmath.fsum(l * e for l, e in zip(row, ph)) - f)
                          for row, f in zip(exact, want))
                assert err <= 2.0 ** -52
                ph = np.array([complex(mpmath.expj(w * mpmath.mpf(s)))
                               for s in points])
                err = np.abs(basis.T @ ph - np.array(want, dtype=complex)).max()
                assert err <= 2.0 ** -52 * (4 + wa)

    def test_time_outside_the_record_refused(self):
        pair, _ = small_pair(FIG2, 0.5, n=21, half=6.0)
        h = pair.times[1] - pair.times[0]
        for t in (100.0, -1.0, pair.t_end + 0.6 * h, -0.6 * h):
            with pytest.raises(ValueError, match=re.escape(repr(t))):
                solve_two_photon(pair, [0.25, t])
        # within half an interval of an end: taken at that end
        got = solve_two_photon(pair, [pair.t_end + 0.4 * h, -0.4 * h])
        assert [t for t, _ in got] == [pair.t_end, 0.0]

    def test_working_memory_is_bounded(self, monkeypatch):
        # N = 1001 modes and 200 record nodes, so that a block's
        # temporaries (its 2p sums and couplings, their phase temporaries
        # and one `_accumulate` chunk of rows; p = 19 here) stay below half
        # an N x N matrix.  Before the k-th result the quadrature holds the
        # k - 1 earlier ones, S and one block; making the k-th adds one
        # matrix while the last block's sums and couplings are still bound.
        import tracemalloc
        n, n_rec = 1001, 200
        matrix = n * n * 16
        nodes = 0.003 * np.arange(n_rec)
        pair = random_pair(KGrid.centered(WA, 20.0, n), nodes, seed=5)
        at_times = [float(pair.times[-1]), 0.2, 0.4]
        symmetric, before = frequency._symmetric, []

        def traced(a, scale):   # the peak since the previous checkpoint
            before.append(tracemalloc.get_traced_memory()[1] - base)
            tracemalloc.reset_peak()
            return symmetric(a, scale)

        monkeypatch.setattr(frequency, "_symmetric", traced)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = solve_two_photon(pair, at_times)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(result) == len(before) == 3
        for k, held in enumerate(before, 1):
            assert held <= (k + 0.5) * matrix
        assert peak <= (len(at_times) + 1.5) * matrix

    def test_stream_matches_the_list(self):
        # unsorted, repeated, at t = 0 and off the record nodes
        pair, _ = small_pair(FIG2, 2.0, n=61, half=10.0)
        at_times = [1.5, 0.0, 2.0, 0.7, 1.5, 0.7125]
        listed = solve_two_photon(pair, at_times)
        streamed = list(stream_two_photon(pair, at_times))
        order = np.argsort([t for t, _ in listed], kind="stable")
        assert [t for t, _ in streamed] == sorted(t for t, _ in listed)
        for (t, g), pos in zip(streamed, order, strict=True):
            assert t == listed[pos][0]
            assert np.array_equal(g, listed[pos][1])
        # a time outside the record is refused before the first matrix
        h = pair.times[1] - pair.times[0]
        for t in (pair.t_end + 0.6 * h, math.nan):
            with pytest.raises(ValueError, match=re.escape(repr(t))):
                stream_two_photon(pair, [0.25, t])

    @pytest.mark.parametrize("count", [3, 8])
    def test_stream_holds_no_yielded_matrix(self, monkeypatch, count):
        # the record of `test_working_memory_is_bounded`.  A consumer that
        # takes each matrix's norm and drops it: each step of the stream
        # holds S, one block's temporaries (below half a matrix) and the
        # matrix it builds, whatever the number of checkpoints
        import tracemalloc
        n, n_rec = 1001, 200
        matrix = n * n * 16
        nodes = 0.003 * np.arange(n_rec)
        pair = random_pair(KGrid.centered(WA, 20.0, n), nodes, seed=5)
        at_times = list(np.linspace(0.0, pair.t_end, count + 1)[1:])
        symmetric, held = frequency._symmetric, []

        def traced(a, scale):   # what the stream holds as it builds one
            held.append(tracemalloc.get_traced_memory()[0] - base)
            return symmetric(a, scale)

        monkeypatch.setattr(frequency, "_symmetric", traced)
        peaks, norms = [], []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stream = stream_two_photon(pair, at_times)
            while True:
                tracemalloc.reset_peak()
                item = next(stream, None)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                if item is None:
                    break
                norms.append(two_photon_norm(item[1], pair.kgrid))
                del item
        finally:
            tracemalloc.stop()
        assert len(norms) == len(held) == count
        assert max(held) <= 1.5 * matrix
        assert max(peaks) <= 2.5 * matrix


BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def without_blas_vars():
    """This process's environment without the BLAS/OpenMP thread caps."""
    return {k: v for k, v in os.environ.items() if k not in BLAS_VARS}


def fake_blas(counts):
    """A stand-in for `frequency._openblas` over a thread count held in
    counts[-1]: every set appends, so a test sees the pin and the restore
    without touching the real library."""
    return lambda: (lambda: counts[-1], counts.append)


class TestModeTiles:
    @pytest.mark.parametrize("n, bounds", [
        (2, [(0, 2)]), (512, [(0, 512)]), (513, [(0, 256), (256, 513)]),
        (1001, [(0, 500), (500, 1001)]),
        (1536, [(0, 512), (512, 1024), (1024, 1536)])])
    def test_tile_bounds_depend_on_n_alone(self, monkeypatch, n, bounds):
        for width in (1, 2, 7):
            monkeypatch.setattr(frequency, "_THREADS", width)
            assert frequency._tiles(n) == bounds

    @pytest.mark.parametrize("threads, cores, tiles, width", [
        (None, 2, 2, 2), (None, 8, 2, 2), (None, 1, 2, 1), (None, 8, 1, 1),
        (1, 8, 2, 1), (2, 1, 2, 2), (2, 2, 1, 1), (3, 2, 5, 3), (8, 2, 3, 3),
        (100000, 2, 2, 2)])
    def test_pool_width_is_capped_at_the_tiles(self, monkeypatch, threads,
                                               cores, tiles, width):
        # WQSIM_THREADS, else the usable cores, capped at the tiles; the
        # width is only computed here, no thread is started
        monkeypatch.setattr(frequency, "_THREADS", threads)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        assert frequency._pool_width(tiles) == width

    @pytest.mark.parametrize("raw, threads", [
        (None, None), ("", None), (" ", None), ("1", 1), (" 3 ", 3),
        ("100000", 100000)])
    def test_thread_count_parsed_at_import(self, raw, threads):
        assert frequency._thread_count(raw) == threads

    @pytest.mark.parametrize("raw", ["0", "-2", "abc", "1.5"])
    def test_invalid_thread_count_refused(self, raw):
        with pytest.raises(ValueError, match=f"WQSIM_THREADS.*{re.escape(raw)}"):
            frequency._thread_count(raw)

    def test_invalid_thread_count_stops_every_run_at_import(self):
        proc = subprocess.run([sys.executable, "-c", "import wqsim"],
                              capture_output=True, text=True,
                              env={**os.environ, "WQSIM_THREADS": "abc"})
        assert proc.returncode != 0
        assert "WQSIM_THREADS must be a positive integer" in proc.stderr

    def test_import_writes_no_thread_variable(self):
        script = ("import os, wqsim\n"
                  f"print(sorted(set({BLAS_VARS!r}) & set(os.environ)))\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True,
                              env={**without_blas_vars(), "WQSIM_THREADS": "3"})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]

    def test_blas_threads_do_not_depend_on_the_import_order(self):
        # WQSIM_THREADS sizes the tile pool only: BLAS outside the tiles
        # runs at its own default whether numpy or wqsim loads first
        if frequency._openblas() is None or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs numpy's OpenBLAS thread control and two cores")
        counts = []
        for first in ("numpy", "wqsim"):
            script = (f"import {first}\n"
                      "from wqsim import frequency\n"
                      "print(frequency._openblas()[0]())\n")
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True,
                                  env={**without_blas_vars(),
                                       "WQSIM_THREADS": "1"})
            assert proc.returncode == 0, proc.stderr
            counts.append(int(proc.stdout))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("width", [1, 3])
    def test_runner_pins_blas_and_names_the_earliest_node(self, monkeypatch,
                                                          width):
        monkeypatch.setattr(frequency, "_THREADS", width)
        counts = [4]
        monkeypatch.setattr(frequency, "_openblas", fake_blas(counts))
        seen = []

        def fails_at(t):
            def task():
                seen.append(counts[-1])
                raise NonFiniteState(f"non-finite state at t={t!r}", t)
            return task

        with pytest.raises(NonFiniteState, match="t=1.0") as err:
            frequency._run_tiles([fails_at(2.0), lambda: None, fails_at(1.0)])
        with pytest.raises(KeyError):   # the first tile that failed
            frequency._run_tiles([lambda: None, lambda: {}[0],
                                  fails_at(math.inf)])
        assert err.value.t == 1.0
        # each call pins BLAS to one thread and restores it at its end
        assert seen == [1, 1, 1] and counts == [4, 1, 4, 1, 4]

    def test_tiles_run_in_the_callers_context(self, monkeypatch):
        # the suite turns a RuntimeWarning into an error on every thread, so
        # an overflow in a worker raises unless np.errstate reaches it
        monkeypatch.setattr(frequency, "_THREADS", 2)
        monkeypatch.setattr(frequency, "_openblas", fake_blas([1]))
        threads = set()

        def overflow():
            threads.add(threading.get_ident())
            np.full(4, 1e300) * 1e300

        with np.errstate(over="ignore"):
            frequency._run_tiles([overflow, overflow])
        assert threading.get_ident() not in threads

    def test_width_one_runs_on_the_calling_thread(self, monkeypatch):
        # a worker's malloc arena would keep what the tasks allocate
        monkeypatch.setattr(frequency, "_THREADS", 1)
        monkeypatch.setattr(frequency, "_openblas", fake_blas([2]))
        threads = []
        frequency._run_tiles([lambda: threads.append(threading.get_ident())
                              for _ in range(3)])
        assert threads == [threading.get_ident()] * 3

    def test_tiled_pair_solve_names_the_untiled_node(self, monkeypatch):
        # atom 1 at gamma 30: D dt = -11.25 at dt = min delay / 8, where RK4
        # grows ~660-fold a step; c_ee from the stable fig2 network
        bad = NetworkConfig(atoms=(AtomParams(0.1, 30.0, 30.0),
                                   AtomParams(0.2, 0.25, 0.5)), omega_a=WA)
        cee = solve_cee(FIG2, 3.0, min(bad.delays) / 8)
        kgrid = KGrid.centered(WA, 45.0, 1001)
        monkeypatch.setattr(frequency, "_THREADS", 2)
        times = []
        for tile in (frequency._TILE_MODES, 1001):   # two tiles, then one
            monkeypatch.setattr(frequency, "_TILE_MODES", tile)
            with np.errstate(all="ignore"), pytest.raises(NonFiniteState) as err:
                solve_spectral_pair(bad, cee, kgrid)
            times.append(err.value.t)
        assert times[0] == times[1] < 3.0

    def test_two_tiles_match_one_tile(self, monkeypatch):
        # fig2's plan at N = 1001 on a short run: two tiles against one (the
        # untiled solve and quadrature, bit for bit); the populations are
        # the record's sums on every tiling
        monkeypatch.setattr(frequency, "_THREADS", 2)
        dt = min(FIG2.delays) / 64
        cee = solve_cee(FIG2, 1.0, dt)
        kgrid = KGrid.centered(WA, 45.0, 1001)
        runs = []
        for tile in (frequency._TILE_MODES, 1001):
            monkeypatch.setattr(frequency, "_TILE_MODES", tile)
            pair = solve_spectral_pair(FIG2, cee, kgrid)
            runs.append((pair, [c for _, c in stream_two_photon(pair, [0.5, 1.0])]))
            for i in range(len(pair.times)):
                want = _excited_populations(pair.cee[i], *pair.record[i, 0],
                                            kgrid.dk)
                assert tuple(pair.populations[:, i]) == want
        (tiled, ckk), (whole, ckk_whole) = runs
        assert np.array_equal(tiled.times, whole.times)
        for got, want in ((tiled.record, whole.record), *zip(ckk, ckk_whole)):
            peak = np.abs(want).max()
            assert np.abs(got - want).max() <= TILE_TOL * peak

    def test_many_tiles_on_more_threads_than_cores(self, monkeypatch):
        # 16 tiles of 7 or 8 modes on 6 threads, switching every microsecond:
        # every tile's columns of the record and rows of S arrive
        monkeypatch.setattr(frequency, "_THREADS", 6)
        pair, cee = small_pair(FIG2, 1.0, n=121, half=10.0)
        ckk = solve_two_photon(pair, [0.5, 1.0])
        monkeypatch.setattr(frequency, "_TILE_MODES", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            tiled = solve_spectral_pair(FIG2, cee, pair.kgrid)
            tiled_ckk = solve_two_photon(tiled, [0.5, 1.0])
        finally:
            sys.setswitchinterval(interval)
        assert len(frequency._tiles(121)) == 16
        for got, want in ((tiled.record, pair.record),
                          *((a[1], b[1]) for a, b in zip(tiled_ckk, ckk))):
            assert np.abs(got - want).max() <= TILE_TOL * np.abs(want).max()

    def test_csv_bytes_do_not_depend_on_the_pool_width(self, tmp_path):
        # fig2 (N = 1001, two tiles) on a short run, in child processes
        # with BLAS at one thread.  The last run finds no BLAS thread
        # control: its tiles run in order, on that one thread, and its
        # manifest says that they were not pinned
        if frequency._openblas() is None:
            pytest.skip("numpy's BLAS has no thread control that wqsim finds:"
                        " the bytes follow the BLAS thread count")
        script = ("import sys\n"
                  "from wqsim import cli, frequency\n"
                  "if sys.argv[2] == 'fallback':\n"
                  "    frequency._openblas = lambda: None\n"
                  "sys.exit(cli.main(['preset', 'fig2', '--t-end', '0.5',\n"
                  "                   '--out', sys.argv[1]]))\n")
        outputs = []
        for width, mode in (("1", "pool"), ("2", "pool"), ("1", "fallback")):
            out = tmp_path / f"{mode}{width}"
            proc = subprocess.run(
                [sys.executable, "-c", script, str(out), mode],
                capture_output=True, text=True,
                env={"PATH": "/usr/bin:/bin", "HOME": str(Path.home()),
                     "WQSIM_THREADS": width, "OPENBLAS_NUM_THREADS": "1",
                     "PYTHONPATH": os.environ["PYTHONPATH"],
                     "PYTHONDONTWRITEBYTECODE": "1"})
            assert proc.returncode == 0, proc.stderr
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.glob("*.csv"))})
            pinned = f"tiles_blas_pinned = {mode == 'pool'}"
            assert pinned in (out / "manifest.txt").read_text().splitlines()
        assert len(outputs[0]) == 5
        assert outputs[0] == outputs[1] == outputs[2]


class TestStateAndNorms:
    def test_initial_state_populations(self):
        kg = KGrid.centered(WA, 5.0, 11)
        st = TwoExcitationState(c_ee=1.0 + 0j, c_egk=np.zeros(11, complex),
                                c_gek=np.zeros(11, complex),
                                c_kk=np.zeros((11, 11), complex), kgrid=kg)
        assert populations(st) == (1.0, 1.0)
        assert total_norm(st) == 1.0

    def test_mode_amplitude_lengths_validated(self):
        # lengths 5 and 7 on an 11-mode grid read populations (1.0, 1.0)
        kg = KGrid.centered(WA, 5.0, 11)
        for egk, gek in ((5, 7), (11, 7), (5, 11), ((11, 1), 11)):
            with pytest.raises(ValueError, match="c_egk and c_gek"):
                TwoExcitationState(c_ee=1.0 + 0j,
                                   c_egk=np.zeros(egk, complex),
                                   c_gek=np.zeros(gek, complex),
                                   c_kk=np.zeros((11, 11), complex),
                                   kgrid=kg)

    def test_symmetry_validated(self):
        kg = KGrid.centered(WA, 5.0, 3)
        # asymmetric; NaN opposite 0 (NaN > bound is False); inf opposite
        # 0 (inf > 1e-12 inf is False)
        for x in (1.0, math.nan, math.inf):
            bad = np.array([[0, x, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
            with pytest.raises(ValueError, match="finite and exchange"):
                TwoExcitationState(c_ee=0j, c_egk=np.zeros(3, complex),
                                   c_gek=np.zeros(3, complex), c_kk=bad,
                                   kgrid=kg)

    def test_symmetry_check_holds_one_buffer(self):
        # m = 401: validating c_kk allocates at most one m x m complex
        # array, plus numpy's iteration buffers (8192 elements each)
        import tracemalloc
        m = 401
        rng = np.random.default_rng(3)
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        ckk, zeros = a + a.T, np.zeros(m, complex)
        kg = KGrid.centered(WA, 5.0, m)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            TwoExcitationState(c_ee=0j, c_egk=zeros, c_gek=zeros, c_kk=ckk,
                               kgrid=kg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= (m * m + 2 * 8192) * 16


class TestOracle:
    def test_fractional_ckk_stride_refused(self):
        kg = KGrid.centered(WA, 5.0, 21)
        with pytest.raises(InvalidGrid, match="2.0"):
            oracle_full_grid(FIG2, kg, 0.1, 0.01, ckk_stride=2.0)

    def test_frozen_when_decoupled(self):
        kg = KGrid.centered(WA, 5.0, 21)
        res = oracle_full_grid(decoupled_config(), kg, 1.0, 0.01,
                               ckk_stride=4)
        assert np.abs(res.cee - 1.0).max() < 1e-14

    def test_exact_unitarity_on_square_grid(self):
        kg = KGrid.centered(WA, 10.0, 81)
        res = oracle_full_grid(FIG2, kg, 1.0, 0.004, ckk_stride=1,
                               checkpoint_times=[0.5, 1.0])
        for state in res.checkpoints:
            assert total_norm(state) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -3.0, 7.0])
    def test_checkpoint_outside_the_run_is_refused(self, t):
        kg = KGrid.centered(WA, 5.0, 21)
        with pytest.raises(ValueError, match=re.escape(repr(t))):
            oracle_full_grid(FIG2, kg, 0.1, 0.004, ckk_stride=4,
                             checkpoint_times=[0.05, t])

    def test_checkpoint_within_half_a_step_of_the_run_is_kept(self):
        kg = KGrid.centered(WA, 5.0, 21)
        res = oracle_full_grid(FIG2, kg, 0.1, 0.004, ckk_stride=4,
                               checkpoint_times=[0.1 + 0.0019, -0.0019])
        assert [s.t for s in res.checkpoints] == [0.0, 25 * 0.004]

    def test_divergence_before_a_checkpoint_is_non_finite_state(self):
        # dt far past RK4's stability bound: the state overflows before the
        # checkpoint at t = 50, whose c_kk check would refuse it with a
        # ValueError; the error names the first block end past the overflow
        cfg = NetworkConfig(atoms=(AtomParams(0.1, 3.0, 5.0),
                                   AtomParams(0.2, 3.0, 5.0)), omega_a=500.0)
        kg = KGrid.centered(500.0, 200.0, 41)
        # dk = 10: the subgrid revives at t = 0.157, long before t = 60
        with np.errstate(all="ignore"), pytest.warns(GridRevivalWarning), \
                pytest.raises(NonFiniteState) as err:
            oracle_full_grid(cfg, kg, 60.0, 0.5, ckk_stride=4,
                             checkpoint_times=[50.0, 60.0])
        assert err.value.t <= 50.0
        assert f"at t={err.value.t}" in str(err.value)

    @pytest.mark.parametrize("t_end, revives", [(5.0, False), (5.5, True)])
    def test_subgrid_revival_inside_the_run_warns(self, t_end, revives):
        # N = 49 over half-width 2.4: dk = 0.1, and ckk_stride 12 revives the
        # subgrid at 2 pi / 1.2 = 5.236, between the two run ends
        kg = KGrid.centered(WA, 2.4, 49)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            oracle_full_grid(FIG2, kg, t_end, 0.05, ckk_stride=12)
        assert [w.category for w in seen] == [GridRevivalWarning] * revives

    def test_default_checkpoint_is_the_last_step(self):
        # dt does not divide t_end: 4 steps, so the run ends at 0.12
        kg = KGrid.centered(WA, 5.0, 21)
        res = oracle_full_grid(FIG2, kg, 0.1, 0.03, ckk_stride=4)
        assert res.times[-1] == 4 * 0.03
        assert [s.t for s in res.checkpoints] == [4 * 0.03]
        res = oracle_full_grid(FIG2, kg, 0.1, 0.03, ckk_stride=4,
                               checkpoint_times=[0.12, 0.1])
        assert [s.t for s in res.checkpoints] == [3 * 0.03, 4 * 0.03]
        with pytest.raises(ValueError, match="0.14"):
            oracle_full_grid(FIG2, kg, 0.1, 0.03, ckk_stride=4,
                             checkpoint_times=[0.14])

    def test_matches_cascade_on_coarse_grid(self):
        kg = KGrid.centered(WA, 20.0, 241)
        dt = 0.004
        res = oracle_full_grid(FIG2, kg, 2.0, dt, ckk_stride=4)
        cee = solve_cee(FIG2, 2.0, dt)
        n = min(len(cee.times), len(res.times))
        diff = np.abs(np.abs(cee.states[:n, 0]) - np.abs(res.cee[:n])).max()
        assert diff < 0.05

    def test_single_atom_reduction_matches_spatial_solver(self):
        from wqsim import solve_single_atom
        atom = AtomParams(0.12, 0.2, 0.4)
        cfg = NetworkConfig(atoms=(atom, AtomParams(0.3, 0.0, 0.0)),
                            omega_a=WA)
        dt = 0.004
        kg = KGrid.centered(WA, 20.0, 241)
        res = oracle_full_grid(cfg, kg, 3.0, dt, ckk_stride=4)
        single = solve_single_atom(atom, WA, 3.0, dt)
        n = min(len(single.times), len(res.times))
        diff = np.abs(np.abs(single.states[:n, 0])
                      - np.abs(res.cee[:n])).max()
        assert diff < 0.02


# ---------------------------------------------------------------------------
# equivalence with a dense reference oracle
# ---------------------------------------------------------------------------

def reference_oracle(config, kgrid, t_end, dt, ckk_stride, checkpoint_steps):
    """Dense RK4 on one flat state (c_ee, c_egk, c_gek, c_kk): every stage is
    a full-size copy, and the c_kk derivative is four n x m outer products.
    Returns the c_ee record and (c_egk, c_gek, symmetric c_kk square) at the
    checkpoint steps."""
    a1, a2 = config.atoms
    n = len(kgrid)
    sub = np.arange(0, n, ckk_stride)
    m = len(sub)
    dk, dks = kgrid.dk, kgrid.subsample(ckk_stride).dk
    det = kgrid.k_values - config.omega_a
    g1_0, g2_0 = coupling_row(kgrid, a1), coupling_row(kgrid, a2)

    def f(t, y):
        cee, ce, cg = y[0], y[1:1 + n], y[1 + n:1 + 2 * n]
        ckk = y[1 + 2 * n:].reshape(n, m)
        ph = np.exp(1j * det * t)
        g1, g2 = g1_0 * ph, g2_0 * ph
        dkk = (np.outer(ce, g1[sub]) + np.outer(g1, ce[sub])
               + np.outer(cg, g2[sub]) + np.outer(g2, cg[sub]))
        return np.concatenate([
            [-1j * dk * (ce @ np.conj(g2) + cg @ np.conj(g1))],
            -1j * cee * g2 - 1j * dks * (ckk @ np.conj(g1[sub])),
            -1j * cee * g1 - 1j * dks * (ckk @ np.conj(g2[sub])),
            -1j * dkk.ravel()])

    def snapshot(y):
        square = y[1 + 2 * n:].reshape(n, m)[sub, :] * TWO_PHOTON_SCALE
        return (y[1:1 + n].copy(), y[1 + n:1 + 2 * n].copy(),
                0.5 * (square + square.T))

    y = np.zeros(1 + 2 * n + n * m, dtype=complex)
    y[0] = 1.0
    cee = [y[0]]
    snaps = [snapshot(y)] if 0 in checkpoint_steps else []
    for step in range(int(np.ceil(t_end / dt - 1e-9))):
        t = step * dt
        k1 = f(t, y)
        k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = f(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        cee.append(y[0])
        if step + 1 in checkpoint_steps:
            snaps.append(snapshot(y))
    return np.array(cee), snaps


class TestOracleEquivalence:
    """The low-rank stages of `oracle_full_grid` against the dense RK4."""

    @staticmethod
    def close(got, ref):
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("config, n, stride", [
        (FIG2, 41, 1),
        # m = 15 columns, not n / 3; the stride must divide n - 1
        (FIG2, 43, 3),
        (NetworkConfig(atoms=(AtomParams(0.1, 0.25, 0.5),
                              AtomParams(0.2, 0.0, 0.0)), omega_a=WA), 41, 2),
    ], ids=["fig2-stride1", "fig2-stride3", "atom2-decoupled"])
    def test_matches_dense_rk4(self, config, n, stride):
        kg = KGrid.centered(WA, 20.0, n)
        t_end, dt = 1.0, 0.004
        res = oracle_full_grid(config, kg, t_end, dt, ckk_stride=stride,
                               checkpoint_times=[0.0, 0.5 * t_end, t_end])
        cee, snaps = reference_oracle(config, kg, t_end, dt, stride,
                                      [0, 125, 250])
        self.close(res.cee, cee)
        assert [s.t for s in res.checkpoints] == [0.0, 0.5, 1.0]
        for state, (egk, gek, ckk) in zip(res.checkpoints, snaps, strict=True):
            self.close(state.c_egk, egk)
            self.close(state.c_gek, gek)
            self.close(state.c_kk, ckk)

    B = _ORACLE_BLOCK
    # (half-width, dt): at half-width 20 and dt 0.004 a full block's 2B + 1
    # half steps fold onto fewer points, while blocks of up to three steps
    # keep theirs; at half-width 45 and dt 0.02 even a full block keeps them
    FOLDED, KEPT = (20.0, 0.004), (45.0, 0.02)

    @pytest.mark.parametrize("plan, full", [(FOLDED, 13), (KEPT, 2 * B + 1)])
    def test_interpolant_points_of_the_plans(self, plan, full):
        half, dt = plan
        for nh, p in ((2 * self.B + 1, full), (7, 7)):
            points, basis = _phase_interpolant(0.5 * dt * np.arange(nh), half)
            assert len(points) == p
            assert np.array_equal(basis, np.eye(nh)) == (p == nh)

    def test_one_interpolant_per_run(self, monkeypatch):
        # blocks of B, B / 2 and 1 steps: every one folds onto the points
        # of one interpolant, on a full block's half steps
        calls = []
        interpolant = frequency._phase_interpolant

        def counted(t, width):
            calls.append(len(t))
            return interpolant(t, width)

        monkeypatch.setattr(frequency, "_phase_interpolant", counted)
        half, dt = self.FOLDED
        kg = KGrid.centered(WA, half, 41)
        oracle_full_grid(FIG2, kg, (3 * self.B + 1) * dt, dt, ckk_stride=2,
                         checkpoint_times=[(self.B + self.B // 2) * dt])
        assert calls == [2 * self.B + 1]

    @pytest.mark.parametrize("config, plan, n_steps, steps", [
        # the last block is short
        (FIG2, FOLDED, 3 * B + 1, [3 * B + 1]),
        # unsorted and repeated
        (FIG2, FOLDED, 3 * B + 1, [2 * B + 1, 1, 2 * B + 1, B]),
        # the start, inside a block, on a block edge and the end
        (FIG2, FOLDED, 3 * B + 1, [0, B + B // 2, 2 * B, 3 * B + 1]),
        # atom 2 decoupled: nothing feeds c_egk, so c_kk stays 0
        (NetworkConfig(atoms=(AtomParams(0.1, 0.25, 0.5),
                              AtomParams(0.2, 0.0, 0.0)), omega_a=WA),
         FOLDED, 2 * B + 3, [B + 1, 2 * B + 3]),
        # a checkpoint at every step: every block has one step
        (FIG2, FOLDED, 5, [0, 1, 2, 3, 4, 5]),
        (FIG2, FOLDED, 8, [2, 4, 6, 8]),
        (FIG2, FOLDED, 1, [1]),
        # no block folds its half steps
        (FIG2, KEPT, 2 * B + 3, [B + 1, 2 * B + 3]),
    ], ids=["short-last-block", "unsorted-repeated", "block-edges",
            "atom2-decoupled", "every-step", "two-step-blocks", "one-step-run",
            "unfolded-blocks"])
    def test_block_edges(self, config, plan, n_steps, steps):
        half, dt = plan
        kg = KGrid.centered(WA, half, 41)
        res = oracle_full_grid(config, kg, n_steps * dt, dt, ckk_stride=2,
                               checkpoint_times=[k * dt for k in steps])
        distinct = sorted(set(steps))
        cee, snaps = reference_oracle(config, kg, n_steps * dt, dt, 2, distinct)
        self.close(res.cee, cee)
        assert [s.t for s in res.checkpoints] == [k * dt for k in distinct]
        for state, (egk, gek, ckk) in zip(res.checkpoints, snaps, strict=True):
            self.close(state.c_egk, egk)
            self.close(state.c_gek, gek)
            self.close(state.c_kk, ckk)
            if config.atoms[1].gamma_l == config.atoms[1].gamma_r == 0.0:
                assert np.all(state.c_kk == 0.0)
                assert np.abs(state.c_gek).max() > 0.0

    def test_stride_off_the_grid_endpoints_is_refused(self):
        with pytest.raises(InvalidGrid):
            oracle_full_grid(FIG2, KGrid.centered(WA, 20.0, 41), 0.1, 0.004,
                             ckk_stride=3)


class TestNormRefinement:
    def test_cascade_norm_deviation_shrinks_with_grid(self):
        # widening and refining the mode window recovers more of the norm
        def deviation(n, half):
            pair, _ = small_pair(FIG3, 4.0, n=n, half=half)
            (_, ckk), = solve_two_photon(pair)
            st = TwoExcitationState(c_ee=complex(pair.cee[-1]),
                                    c_egk=pair.cegk[-1], c_gek=pair.cgek[-1],
                                    c_kk=ckk, kgrid=pair.kgrid)
            return abs(total_norm(st) - 1.0)

        coarse = deviation(101, 6.0)
        fine = deviation(301, 12.0)
        assert fine < coarse


class TestClassifier:
    def test_one_photon_trapped(self):
        assert classify_steady_state(FIG3).label is \
            SteadyStateLabel.ONE_PHOTON_TRAPPED

    def test_dark_state(self):
        cfg = NetworkConfig(atoms=(AtomParams(math.pi / WA, 0.5, 0.5),
                                   AtomParams(2 * math.pi / WA, 0.5, 0.5)),
                            omega_a=WA)
        assert classify_steady_state(cfg).label is SteadyStateLabel.DARK_STATE

    def test_two_photon(self):
        assert classify_steady_state(FIG2).label is SteadyStateLabel.TWO_PHOTON

    def test_single_atom_node_is_dark(self):
        cfg = NetworkConfig(atoms=(AtomParams(math.pi / WA, 0.2, 0.2),),
                            omega_a=WA)
        assert classify_steady_state(cfg).label is SteadyStateLabel.DARK_STATE

    def test_off_node_nonchiral_is_mixed(self):
        cfg = NetworkConfig(
            atoms=(AtomParams(math.pi / (2 * WA), 0.5, 0.5),
                   AtomParams(3 * math.pi / (2 * WA), 0.5, 0.5)), omega_a=WA)
        cls = classify_steady_state(cfg)
        assert cls.label is SteadyStateLabel.MIXED
        assert cls.cee_limit_sq == 0.0

    @pytest.mark.parametrize("scale", [1.0, 0.5, 0.1, 0.007])
    def test_coupling_scale_invariance(self, scale):
        for cfg in (FIG2, FIG3):
            scaled = NetworkConfig(
                atoms=tuple(AtomParams(a.position, scale * a.gamma_l,
                                       scale * a.gamma_r)
                            for a in cfg.atoms), omega_a=cfg.omega_a)
            assert classify_steady_state(scaled).label is \
                classify_steady_state(cfg).label

    def test_warns_outside_regime(self):
        cfg = NetworkConfig(atoms=(AtomParams(1.0, 0.25, 0.25),
                                   AtomParams(10.0, 0.1, 0.5)), omega_a=WA)
        with pytest.warns(OutsideMarkovRegimeWarning):
            cls = classify_steady_state(cfg)
        assert cls.markov_regime is False
        assert cls.label is SteadyStateLabel.TWO_PHOTON
