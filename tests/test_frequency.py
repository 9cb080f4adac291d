import math
import re

import numpy as np
import pytest

from wqsim import (PRESETS, AtomParams, DelaySystem, InvalidGrid, KGrid,
                   NetworkConfig, OutsideMarkovRegimeWarning, StepTooLarge,
                   SteadyStateLabel, TwoExcitationState, analytic_cee_markov,
                   classify_steady_state, integrate, oracle_full_grid,
                   populations, solve_cee, solve_spectral_pair,
                   solve_two_photon, total_norm, two_photon_norm)
from wqsim.dde import resolve_taps
from wqsim.frequency import (_ORACLE_BLOCK, TWO_PHOTON_SCALE,
                             _pair_record_stride, exchange_table,
                             markov_exponent)
from wqsim.model import MODE_MEASURE, coupling_g, coupling_row

WA = 50.0

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
        # with gamma_2 = 0, c_gek has no damping and no feedback: it is the
        # bare quadrature of the drive -i c_ee g_1(k, t)
        k = pair.kgrid.k_values
        cee_vals = cee.sample_grid(pair.times)[:, 0]
        drive = np.empty((len(pair.times), len(k)), dtype=complex)
        for j, t in enumerate(pair.times):
            drive[j] = -1j * cee_vals[j] * MODE_MEASURE * coupling_g(
                k, t, cfg.atoms[0], WA)
        # trapezoid on the record's own nodes: its last interval is short
        half_gap = 0.5 * np.diff(pair.times)[:, None]
        quad = np.zeros_like(drive)
        quad[1:] = np.cumsum(half_gap * (drive[1:] + drive[:-1]), axis=0)
        assert np.abs(pair.cgek - quad).max() < 2e-4

    def test_trapping_spectrum_peaks_at_resonance(self):
        pair, _ = small_pair(FIG3, 5.0)
        final = np.abs(pair.cegk[-1])
        k_max = pair.kgrid.k_values[np.argmax(final)]
        assert abs(k_max - WA) <= pair.kgrid.dk + 1e-12

    def test_second_atom_channel_empties(self):
        pair, _ = small_pair(FIG3, 5.0)
        ratio = np.abs(pair.cgek[-1]).max() / np.abs(pair.cegk[-1]).max()
        assert ratio < 0.05

    def test_populations_start_at_one(self):
        pair, _ = small_pair(FIG3, 1.0)
        _, p1, p2 = pair.populations_series()
        assert p1[0] == pytest.approx(1.0)
        assert p2[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# closed-form pair stepper against the pair rhs on the generic engine
# ---------------------------------------------------------------------------

def reference_pair(config, cee, kgrid, dt, n_steps, record_stride):
    """The pair equations as an rhs closure on the generic `integrate` (four
    rhs calls per step, one history read per delay and call).  Returns the
    times and (n_times, 2N) states (c_egk | c_gek) at every
    `record_stride`-th step and at the final step."""
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

    traj = integrate(DelaySystem(dim=2 * n, delays=delays, rhs=rhs),
                     prehistory=np.zeros(2 * n, complex),
                     t_span=(0.0, n_steps * dt), dt=dt)
    steps = list(range(0, n_steps, record_stride)) + [n_steps]
    return traj.times[steps], traj.states[steps]


OFF_GRID = NetworkConfig(atoms=(AtomParams(0.1, 0.3, 0.45),
                                AtomParams(0.23, 0.4, 0.2)), omega_a=WA)


class TestPairStepper:
    """`solve_spectral_pair` (closed-form RK4) against `reference_pair`."""

    @pytest.mark.parametrize("config, half, dt, n_steps, stride", [
        # the fig2 atoms, step and half-width: planned stride 2
        (FIG2, 45.0, 0.1 / 64, 640, 2),
        # delays 0.13, 0.2, 0.33, 0.46 at dt 0.0107: eight distinct Hermite
        # fractions, none of them 0 or 1/2
        (OFF_GRID, 6.0, 0.0107, 150, 2),
        # planned stride 11 does not divide 650 steps: 60 records on the
        # stride grid, then the final node one step after the last of them
        (FIG2, 8.0, 0.1 / 64, 650, 11),
        # a prime step count: stride 2 and a final half interval
        (FIG2, 45.0, 0.1 / 64, 641, 2),
    ], ids=["fig2-stride2", "off-grid-fractions", "stride-not-dividing",
            "prime-steps"])
    def test_matches_generic_engine(self, config, half, dt, n_steps, stride):
        kg = KGrid.centered(WA, half, 41)
        fractions = {s for row in resolve_taps(exchange_table(config)[1], dt)
                     for _, s in row}
        if config is OFF_GRID:
            assert len(fractions) == 8 and not fractions & {0.0, 0.5}
        assert _pair_record_stride(kg, dt) == stride
        cee = solve_cee(config, n_steps * dt, dt)
        pair = solve_spectral_pair(config, cee, kg)
        assert pair.stride == stride
        assert len(pair.times) == -(-n_steps // stride) + 1
        assert pair.times[-1] == n_steps * dt
        times, ref = reference_pair(config, cee, kg, dt, n_steps, stride)
        np.testing.assert_array_equal(pair.times, times)
        got = np.hstack([pair.cegk, pair.cgek])
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-12 * np.abs(ref).max())

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
# two-photon quadrature against the per-segment loop it replaced
# ---------------------------------------------------------------------------

def reference_two_photon(pair, at_times):
    """Per-segment trapezoid loop on a uniform record: two accumulators fed
    by 2048-node phase chunks, then four outer-product end corrections and
    the coupling weights at every checkpoint."""
    cfg = pair.config
    g1 = coupling_row(pair.kgrid, cfg.atoms[0])
    g2 = coupling_row(pair.kgrid, cfg.atoms[1])
    det = pair.kgrid.k_values - cfg.omega_a
    times = pair.times
    h = float(times[1] - times[0])
    idx = [pair.index_at(t) for t in at_times]
    n = len(pair.kgrid)
    acc_a = np.zeros((n, n), dtype=complex)
    acc_b = np.zeros((n, n), dtype=complex)
    out = [None] * len(at_times)
    summed = -1
    for pos in np.argsort(idx):
        m = idx[pos]
        for c0 in range(summed + 1, m + 1, 2048):
            c1 = min(m + 1, c0 + 2048)
            phases = np.exp(1j * np.outer(times[c0:c1], det))
            acc_a += pair.cegk[c0:c1].T @ phases
            acc_b += pair.cgek[c0:c1].T @ phases
        summed = max(summed, m)
        ph0 = np.exp(1j * times[0] * det)
        phm = np.exp(1j * times[m] * det)
        corr_a = 0.5 * (np.outer(pair.cegk[0], ph0) + np.outer(pair.cegk[m], phm))
        corr_b = 0.5 * (np.outer(pair.cgek[0], ph0) + np.outer(pair.cgek[m], phm))
        a = (acc_a - corr_a) * (h * g1)[None, :]
        b = (acc_b - corr_b) * (h * g2)[None, :]
        out[pos] = (float(times[m]),
                    (-1j * TWO_PHOTON_SCALE) * ((a + a.T) + (b + b.T)))
    return out


def trapezoid_two_photon(pair, t):
    """c_kk at record time t with explicit trapezoid weights on the nodes
    [0, t], whatever their spacing."""
    cfg = pair.config
    m = pair.index_at(t)
    gaps = np.diff(pair.times[:m + 1])
    w = np.zeros(m + 1)
    w[:-1] += 0.5 * gaps
    w[1:] += 0.5 * gaps
    ph = w[:, None] * np.exp(1j * np.outer(pair.times[:m + 1],
                                           pair.kgrid.k_values - cfg.omega_a))
    s = (pair.cegk[:m + 1].T @ (ph * coupling_row(pair.kgrid, cfg.atoms[0]))
         + pair.cgek[:m + 1].T @ (ph * coupling_row(pair.kgrid, cfg.atoms[1])))
    return -1j * TWO_PHOTON_SCALE * (s + s.T)


class TestTwoPhotonQuadrature:
    """`solve_two_photon` (one GEMM per record chunk into one accumulator)
    against `reference_two_photon` and explicit trapezoid weights."""

    @staticmethod
    def check(got, ref):
        scale = max(np.abs(r).max() for _, r in ref)
        assert [t for t, _ in got] == [t for t, _ in ref]
        for (_, g), (_, r) in zip(got, ref, strict=True):
            assert np.array_equal(g, g.T)
            np.testing.assert_allclose(g, r, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("config, t_end, at_times", [
        # 161 records: more than one chunk; checkpoints unsorted, repeated,
        # at t = 0 and at the end
        (FIG2, 2.0, [1.5, 0.0, 2.0, 0.7, 1.5]),
        # 961 records, a checkpoint on a chunk boundary
        (FIG2, 12.0, [128 * 4 * 0.1 / 32, 12.0]),
        # atom 2 decoupled: c_egk and g2 vanish, so c_kk must be exactly 0
        (NetworkConfig(atoms=(AtomParams(0.1, 0.25, 0.5),
                              AtomParams(0.2, 0.0, 0.0)), omega_a=WA),
         2.0, [1.0, 2.0]),
    ], ids=["unsorted-duplicate-zero", "longer-than-a-chunk",
            "atom2-decoupled"])
    def test_matches_per_segment_loop(self, config, t_end, at_times):
        pair, _ = small_pair(config, t_end, n=61, half=10.0)
        assert pair.stride == 4
        np.testing.assert_allclose(np.diff(pair.times), pair.times[1],
                                   rtol=1e-12)
        got = solve_two_photon(pair, at_times)
        self.check(got, reference_two_photon(pair, at_times))
        if config.atoms[1].gamma_l == 0.0:
            assert all(np.all(g == 0.0) for _, g in got)

    def test_short_last_interval(self):
        # 641 steps at stride 4: the final node is one step past the last
        # stride node
        dt = min(FIG2.delays) / 32
        pair, _ = small_pair(FIG2, 641 * dt, n=61, half=10.0)
        assert pair.stride == 4 and len(pair.times) == 162
        assert pair.times[-1] - pair.times[-2] == pytest.approx(dt, rel=1e-12)
        at = [float(pair.times[-1]), float(pair.times[-2]), 1.0]
        got = solve_two_photon(pair, at)
        self.check(got, [(t, trapezoid_two_photon(pair, t)) for t in at])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_refused(self, t):
        pair, _ = small_pair(FIG2, 0.5, n=21, half=6.0)
        with pytest.raises(ValueError, match=re.escape(repr(t))):
            solve_two_photon(pair, [0.25, t])

    def test_working_memory_is_bounded(self):
        # N = 401 modes, 2000 records: besides its results the quadrature
        # may hold three N x N matrices and one chunk (stacked rows,
        # weighted couplings and their phase temporaries)
        import tracemalloc

        from wqsim.frequency import _RECORD_CHUNK, SpectralPairResult
        n, n_rec = 401, 2000
        rng = np.random.default_rng(5)
        cegk, cgek = (rng.standard_normal((n_rec, n))
                      + 1j * rng.standard_normal((n_rec, n)) for _ in range(2))
        pair = SpectralPairResult(
            times=0.003 * np.arange(n_rec), cee=np.zeros(n_rec, complex),
            cegk=cegk, cgek=cgek, kgrid=KGrid.centered(WA, 20.0, n),
            config=FIG2, stride=1)
        at_times = [6.0, 2.0, 4.0]
        chunk = 6 * _RECORD_CHUNK * n * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = solve_two_photon(pair, at_times)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(result) == 3
        assert peak <= (len(at_times) + 3) * n * n * 16 + chunk


class TestStateAndNorms:
    def test_initial_state_populations(self):
        kg = KGrid.centered(WA, 5.0, 11)
        st = TwoExcitationState(c_ee=1.0 + 0j, c_egk=np.zeros(11, complex),
                                c_gek=np.zeros(11, complex),
                                c_kk=np.zeros((11, 11), complex), kgrid=kg)
        assert populations(st) == (1.0, 1.0)
        assert total_norm(st) == 1.0

    def test_symmetry_validated(self):
        kg = KGrid.centered(WA, 5.0, 3)
        bad = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            TwoExcitationState(c_ee=0j, c_egk=np.zeros(3, complex),
                               c_gek=np.zeros(3, complex), c_kk=bad, kgrid=kg)


class TestOracle:
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

    @pytest.mark.parametrize("config, n_steps, steps", [
        # the last block is short
        (FIG2, 3 * B + 1, [3 * B + 1]),
        # unsorted and repeated
        (FIG2, 3 * B + 1, [2 * B + 1, 1, 2 * B + 1, B]),
        # the start, inside a block, on a block edge and the end
        (FIG2, 3 * B + 1, [0, B + B // 2, 2 * B, 3 * B + 1]),
        # atom 2 decoupled: nothing feeds c_egk, so c_kk stays 0
        (NetworkConfig(atoms=(AtomParams(0.1, 0.25, 0.5),
                              AtomParams(0.2, 0.0, 0.0)), omega_a=WA),
         2 * B + 3, [B + 1, 2 * B + 3]),
    ], ids=["short-last-block", "unsorted-repeated", "block-edges",
            "atom2-decoupled"])
    def test_block_edges(self, config, n_steps, steps):
        kg = KGrid.centered(WA, 20.0, 41)
        dt = 0.004
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
            i = len(pair.times) - 1
            st = TwoExcitationState(c_ee=complex(pair.cee[i]),
                                    c_egk=pair.cegk[i], c_gek=pair.cgek[i],
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
