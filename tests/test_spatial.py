import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqsim import (AtomParams, FieldSnapshot, InvalidGeometry, MissingOrigin,
                   NetworkConfig, OutOfRange, check_mirror_boundary,
                   field_snapshot, single_excitation_norm, solve_cee,
                   solve_single_atom, solve_two_atom_single_excitation)

WA = 50.0
ATOM = AtomParams(2.25 * math.pi / WA, 0.1, 0.3)
ONE_ATOM = NetworkConfig(atoms=(ATOM,), omega_a=WA)

FIG6 = NetworkConfig(atoms=(AtomParams(1.0, 0.25, 0.25),
                            AtomParams(10.0, 0.1, 0.5)), omega_a=WA)


def solve_atom(atom=ATOM, t_end=3.0, div=64):
    return solve_single_atom(atom, WA, t_end, 2 * atom.position / div)


def fields(config, traj, z, t):
    """(Phi_R, Phi_L) at positions z at time t."""
    snap = field_snapshot(config, traj, t, z_values=z)
    return snap.phi_r, snap.phi_l


def carrier(traj, t):
    """C_j(t) = c_j(t) e^{-i omega_a t} for every atom j: (len(t), atoms)."""
    t = np.atleast_1d(t)
    return traj.sample_grid(t) * np.exp(-1j * WA * t)[:, None]


class TestSingleAtomAmplitude:
    def test_decoupled_frozen(self):
        atom = AtomParams(0.1, 0.0, 0.0)
        traj = solve_single_atom(atom, WA, 2.0, 0.01)
        assert np.abs(traj.states[:, 0] - 1.0).max() == 0.0

    def test_quarter_phase_decay_law(self):
        atom = AtomParams(2.25 * math.pi / WA, 0.2, 0.2)
        traj = solve_atom(atom, t_end=4.0)
        law = np.exp(-0.08 * traj.times)
        assert np.abs(np.abs(traj.states[:, 0]) ** 2 - law).max() < 0.02

    def test_node_atom_stays_excited(self):
        atom = AtomParams(math.pi / WA, 0.2, 0.2)
        traj = solve_atom(atom, t_end=40 * math.pi / WA)
        assert abs(traj.states[-1, 0]) ** 2 >= 0.95

    def test_cross_domain_identity(self):
        # one atom plus a fully decoupled second atom: same delay equation,
        # same engine, same coefficients
        cfg = NetworkConfig(atoms=(ATOM, AtomParams(1.0, 0.0, 0.0)),
                            omega_a=WA)
        dt = 2 * ATOM.position / 64
        a = solve_cee(cfg, 2.0, dt)
        b = solve_single_atom(ATOM, WA, 2.0, dt)
        assert np.abs(a.states[:, 0] - b.states[:, 0]).max() < 1e-10


class TestSingleAtomField:
    def test_mirror_cancellation_at_origin(self):
        traj = solve_atom()
        for t in (0.5, 1.0, 2.9):
            phi_r, phi_l = fields(ONE_ATOM, traj, 0.0, t)
            assert abs(phi_r[0] + phi_l[0]) < 1e-10

    def test_ahead_of_light_cone_exactly_zero(self):
        traj = solve_atom()
        t = 1.5
        z = ATOM.position + t + 0.05
        phi_r, phi_l = fields(ONE_ATOM, traj, z, t)
        assert phi_r[0] == 0.0
        assert phi_l[0] == 0.0

    def test_boundary_averaging_at_atom(self):
        # on the atom, Phi_R is the mean of its two sides along the same
        # characteristic t - z
        traj = solve_atom()
        t, z1, d = 2.0, ATOM.position, 1e-6
        before, _ = fields(ONE_ATOM, traj, z1 - d, t - d)
        after, _ = fields(ONE_ATOM, traj, z1 + d, t + d)
        phi_r, _ = fields(ONE_ATOM, traj, z1, t)
        assert phi_r[0] == pytest.approx(0.5 * (before[0] + after[0]),
                                         rel=1e-12)

    def test_emission_jump_identity(self):
        # across the atom along t - z, Phi_R jumps by the emission
        # gamma_r c_e(t) e^{-i omega_a t}
        traj = solve_atom()
        z1, d = ATOM.position, 1e-6
        ts = np.linspace(0.1, 2.9, 23)
        jump = np.array([fields(ONE_ATOM, traj, z1 + d, t + d)[0][0]
                         - fields(ONE_ATOM, traj, z1 - d, t - d)[0][0]
                         for t in ts])
        expected = ATOM.gamma_r * carrier(traj, ts)[:, 0]
        assert np.abs(jump - expected).max() < 1e-8

    def test_norm_conserved(self):
        traj = solve_atom(t_end=4.0)
        for t in (1.0, 2.5, 4.0):
            norm = single_excitation_norm(
                field_snapshot(ONE_ATOM, traj, t), traj)
            assert norm == pytest.approx(1.0, abs=0.01)

    def test_field_needs_recorded_history(self):
        traj = solve_atom(t_end=1.0)
        with pytest.raises(OutOfRange):
            fields(ONE_ATOM, traj, 0.1, 1.5)


def solve_fig6(t_end=15.0):
    dt = min(FIG6.delays) / 64
    return solve_two_atom_single_excitation(FIG6, t_end, dt)


class TestTwoAtomSingleExcitation:
    def test_all_decoupled_frozen(self):
        cfg = NetworkConfig(atoms=(AtomParams(1.0, 0.0, 0.0),
                                   AtomParams(10.0, 0.0, 0.0)), omega_a=WA)
        traj = solve_two_atom_single_excitation(cfg, 5.0, 0.03)
        assert np.all(traj.states[:, 0] == 1.0)
        assert np.all(traj.states[:, 1] == 0.0)

    def test_reduces_to_single_atom(self):
        cfg = NetworkConfig(atoms=(AtomParams(1.0, 0.2, 0.3),
                                   AtomParams(10.0, 0.0, 0.0)), omega_a=WA)
        dt = min(cfg.delays) / 64
        traj = solve_two_atom_single_excitation(cfg, 6.0, dt)
        single = solve_single_atom(cfg.atoms[0], WA, 6.0, dt)
        assert np.abs(traj.states[:, 0] - single.states[:, 0]).max() < 1e-12
        assert np.all(traj.states[:, 1] == 0.0)

    def test_second_atom_silent_before_direct_delay(self):
        traj = solve_fig6(t_end=12.0)
        tau_direct = FIG6.atoms[1].position - FIG6.atoms[0].position
        before = traj.times < tau_direct - 1e-9
        assert np.all(traj.states[before, 1] == 0.0)
        after = traj.times >= tau_direct + 1.5
        assert np.abs(traj.states[after, 1]).max() > 0.01

    def test_right_coupling_receives_more(self):
        swapped = NetworkConfig(atoms=(FIG6.atoms[0],
                                       AtomParams(10.0, 0.5, 0.1)),
                                omega_a=WA)
        dt = min(FIG6.delays) / 64
        favored = solve_two_atom_single_excitation(FIG6, 15.0, dt)
        other = solve_two_atom_single_excitation(swapped, 15.0, dt)
        peak_f = np.abs(favored.states[:, 1]).max() ** 2
        peak_o = np.abs(other.states[:, 1]).max() ** 2
        assert peak_f > 2.0 * peak_o

    def test_mirror_cancellation(self):
        traj = solve_fig6()
        for t in (5.0, 12.0):
            phi_r, phi_l = fields(FIG6, traj, 0.0, t)
            assert abs(phi_r[0] + phi_l[0]) < 1e-10

    def test_causality_exact_zero(self):
        traj = solve_fig6()
        t = 12.0
        z = FIG6.atoms[1].position + t + 0.5
        phi_r, phi_l = fields(FIG6, traj, z, t)
        assert phi_r[0] == 0.0
        assert phi_l[0] == 0.0

    def test_left_packet_source_identity(self):
        # just inside the outer atom, the left-mover emitted at t arrives at
        # t + d: Phi_L(z2 - d, t + d) = gamma_2L c_2(t) e^{-i omega_a t}
        traj = solve_fig6()
        z2, d = FIG6.atoms[1].position, 1e-6
        ts = np.linspace(9.5, 14.5, 17)     # c_2 = 0 before the direct delay 9
        lhs = np.array([fields(FIG6, traj, z2 - d, t + d)[1][0] for t in ts])
        expected = FIG6.atoms[1].gamma_l * carrier(traj, ts)[:, 1]
        assert np.abs(lhs - expected).max() < 1e-8

    def test_edge_weights_are_half(self):
        # Theta(0) = 1/2 at the outer atom and at the mirror:
        # Phi_L(z2, t) = C_2(t) gamma_2L / 2 and
        # Phi_R(0, t) = -sum_i gamma_iL C_i(t - z_i) / 2
        traj = solve_fig6()
        z1, z2 = (a.position for a in FIG6.atoms)
        g_l = [a.gamma_l for a in FIG6.atoms]
        for t in (3.0, 9.5, 14.0):
            _, phi_l = fields(FIG6, traj, z2, t)
            assert phi_l[0] == pytest.approx(
                0.5 * g_l[1] * carrier(traj, t)[0, 1], rel=1e-12)
            phi_r, _ = fields(FIG6, traj, 0.0, t)
            image = (g_l[0] * carrier(traj, t - z1)[0, 0]
                     + g_l[1] * carrier(traj, t - z2)[0, 1])
            assert phi_r[0] == pytest.approx(-0.5 * image, rel=1e-12)

    def test_norm_conserved(self):
        traj = solve_fig6()
        for t in (4.0, 10.0, 15.0):
            norm = single_excitation_norm(field_snapshot(FIG6, traj, t), traj)
            assert norm == pytest.approx(1.0, abs=0.02)


class TestPacketShapes:
    def test_single_atom_outgoing_profile(self):
        # emitted density builds up toward the wavefront (earliest, strongest
        # emission travels farthest) and vanishes exactly past it
        traj = solve_atom(t_end=40 * ATOM.position)
        t = traj.t_end
        snap = field_snapshot(ONE_ATOM, traj, t)
        beyond = snap.z_values > ATOM.position + 1e-9
        z = snap.z_values[beyond]
        dens = np.abs(snap.phi_r[beyond]) ** 2
        front = ATOM.position + t
        peak_frac = (z[np.argmax(dens)] - ATOM.position) / (front - ATOM.position)
        assert peak_frac > 0.75
        assert dens[0] < 0.7 * dens.max()
        assert np.all(dens[z > front + 1e-9] == 0.0)

    def test_two_atom_outgoing_double_front(self):
        # beyond the outer atom the packet shows the direct front at t + z1
        # and the mirror echo switching on at t - z1, two z1 apart
        t = 15.0
        traj = solve_fig6(t_end=t)
        z1 = FIG6.atoms[0].position
        zs = np.array([t - z1 - 0.05, t - z1 + 0.05,
                       t + z1 - 0.1, t + z1 + 0.05])
        phi_r, _ = fields(FIG6, traj, zs, t)
        dens = np.abs(phi_r) ** 2
        assert dens[3] == 0.0                      # past the direct front
        assert dens[2] > 0.02                      # just inside it
        jump = abs(dens[0] - dens[1])              # echo switches on
        assert jump > 0.3 * dens[1]


class TestSnapshots:
    def test_mirror_residual_and_missing_origin(self):
        traj = solve_fig6(t_end=6.0)
        snap = field_snapshot(FIG6, traj, 6.0)
        assert snap.z_values[0] == 0.0
        assert check_mirror_boundary(snap) < 1e-10
        shifted = FieldSnapshot(t=snap.t, z_values=snap.z_values + 0.5,
                                phi_r=snap.phi_r, phi_l=snap.phi_l)
        with pytest.raises(MissingOrigin):
            check_mirror_boundary(shifted)

    def test_negative_control_detects_violation(self):
        traj = solve_fig6(t_end=6.0)
        snap = field_snapshot(FIG6, traj, 6.0)
        broken = FieldSnapshot(t=snap.t, z_values=snap.z_values,
                               phi_r=snap.phi_r,
                               phi_l=np.zeros_like(snap.phi_l))
        assert check_mirror_boundary(broken) == abs(snap.phi_r[0])

    def test_trajectory_must_match_atom_count(self):
        # one trajectory component per atom, in either direction
        with pytest.raises(InvalidGeometry):
            field_snapshot(FIG6, solve_atom(t_end=1.0), 1.0)
        with pytest.raises(InvalidGeometry):
            field_snapshot(ONE_ATOM, solve_fig6(t_end=1.0), 1.0)


# ---------------------------------------------------------------------------
# invariants over random two-atom networks
# ---------------------------------------------------------------------------

@st.composite
def two_atom_runs(draw):
    """(config, dt, t_end): positions in the benchmark sweep's z1 range,
    any chirality, a step that puts no position on its grid, and a horizon
    of 5 to 40 z1."""
    z1 = draw(st.floats(0.02, 0.06))
    g = st.floats(0.0, 0.5)
    config = NetworkConfig(
        atoms=(AtomParams(z1, draw(g), draw(g)),
               AtomParams(z1 * draw(st.floats(1.5, 4.0)), draw(g), draw(g))),
        omega_a=draw(st.floats(10.0, 60.0)))
    dt = min(config.delays) / draw(st.floats(64.5, 96.0))
    return config, dt, z1 * draw(st.floats(5.0, 40.0))


class TestRandomTwoAtomNetworks:
    @given(run=two_atom_runs())
    @settings(max_examples=40)
    def test_mirror_residual_and_norm(self, run):
        config, dt, t_end = run
        traj = solve_two_atom_single_excitation(config, t_end, dt)
        for t in (t_end / 3, 2 * t_end / 3, t_end):
            snap = field_snapshot(config, traj, t)
            assert check_mirror_boundary(snap) == 0.0
            # the benchmark sweep's drift bound
            assert abs(single_excitation_norm(snap, traj) - 1.0) < 1e-3, t


class TestNonFiniteTimes:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_snapshot_refuses(self, t):
        traj = solve_atom(t_end=1.0)
        for z in (None, np.array([0.0, 0.1])):
            with pytest.raises(OutOfRange, match=re.escape(repr(t))):
                field_snapshot(ONE_ATOM, traj, t, z_values=z)
