import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wqsim import (AtomParams, InvalidCoupling, InvalidFrequency,
                   InvalidGeometry, KGrid, NetworkConfig, coupling_g,
                   validate_config)
from wqsim.errors import InvalidGrid
from wqsim.model import default_halfwidth


def two_atom_config(**kw):
    args = dict(z1=0.1, z2=0.2, g1l=0.25, g1r=0.5, g2l=0.25, g2r=0.5,
                omega_a=50.0)
    args.update(kw)
    return NetworkConfig(
        atoms=(AtomParams(args["z1"], args["g1l"], args["g1r"]),
               AtomParams(args["z2"], args["g2l"], args["g2r"])),
        omega_a=args["omega_a"])


class TestValidation:
    def test_reference_config_ok(self):
        cfg = two_atom_config()
        assert validate_config(cfg) is cfg

    def test_validate_idempotent(self):
        cfg = two_atom_config()
        assert validate_config(validate_config(cfg)) is cfg

    def test_equal_positions_rejected(self):
        with pytest.raises(InvalidGeometry):
            two_atom_config(z1=0.1, z2=0.1)

    def test_reversed_positions_rejected(self):
        with pytest.raises(InvalidGeometry):
            two_atom_config(z1=0.2, z2=0.1)

    def test_negative_coupling_rejected(self):
        with pytest.raises(InvalidCoupling):
            AtomParams(0.1, -0.1, 0.5)

    def test_nonfinite_coupling_rejected(self):
        with pytest.raises(InvalidCoupling):
            AtomParams(0.1, math.nan, 0.5)

    def test_nonpositive_position_rejected(self):
        with pytest.raises(InvalidGeometry):
            AtomParams(0.0, 0.1, 0.1)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(InvalidFrequency):
            two_atom_config(omega_a=0.0)

    def test_delays_positive(self):
        cfg = two_atom_config()
        assert np.allclose(cfg.delays, (0.2, 0.4, 0.3, 0.1))
        assert all(d > 0 for d in cfg.delays)


class TestCouplingAmplitude:
    def test_direct_substitution(self):
        # gamma_r = 0.5, gamma_l = 0, z = 0.1, k = 50, t = 0
        atom = AtomParams(0.1, 0.0, 0.5)
        got = coupling_g(50.0, 0.0, atom, 50.0)
        assert got == pytest.approx(1j * 0.5 * np.exp(-5j), abs=1e-15)

    @given(k=st.floats(0.1, 200.0), t=st.floats(0.0, 50.0),
           gamma=st.floats(0.0, 2.0), z=st.floats(1e-3, 5.0))
    @settings(max_examples=200)
    def test_nonchiral_reduces_to_sine(self, k, t, gamma, z):
        atom = AtomParams(z, gamma, gamma)
        omega_a = 50.0
        got = coupling_g(k, t, atom, omega_a)
        want = 2.0 * gamma * np.sin(k * z) * np.exp(1j * (k - omega_a) * t)
        assert abs(got.real - want.real) < 1e-14 * max(1.0, abs(want))
        assert abs(got.imag - want.imag) < 1e-14 * max(1.0, abs(want))

    def test_sine_zero_at_node(self):
        omega_a = 50.0
        z = math.pi / omega_a
        atom = AtomParams(z, 0.3, 0.3)
        assert abs(coupling_g(omega_a, 1.7, atom, omega_a)) < 1e-14

    @given(k=st.floats(0.1, 200.0), t=st.floats(0.0, 50.0),
           gl=st.floats(0.0, 2.0), gr=st.floats(0.0, 2.0),
           z=st.floats(1e-3, 5.0))
    @settings(max_examples=200)
    def test_modulus_bound(self, k, t, gl, gr, z):
        atom = AtomParams(z, gl, gr)
        assert abs(coupling_g(k, t, atom, 50.0)) <= gl + gr + 1e-12

    @given(k=st.floats(0.1, 200.0), t=st.floats(0.0, 20.0),
           gl=st.floats(0.0, 2.0), gr=st.floats(0.0, 2.0),
           z=st.floats(1e-3, 2.0))
    @settings(max_examples=200)
    def test_phase_factorization(self, k, t, gl, gr, z):
        atom = AtomParams(z, gl, gr)
        omega_a = 50.0
        lhs = coupling_g(k, t, atom, omega_a)
        rhs = coupling_g(k, 0.0, atom, omega_a) * np.exp(1j * (k - omega_a) * t)
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))

    def test_vectorized_over_k(self):
        atom = AtomParams(0.1, 0.2, 0.4)
        ks = np.linspace(40.0, 60.0, 7)
        vec = coupling_g(ks, 0.3, atom, 50.0)
        scal = np.array([coupling_g(k, 0.3, atom, 50.0) for k in ks])
        np.testing.assert_allclose(vec, scal, rtol=1e-15, atol=1e-16)


class TestKGrid:
    def test_centered_properties(self):
        g = KGrid.centered(50.0, 10.0, 101)
        assert len(g) == 101
        assert g.k_values[0] == pytest.approx(40.0)
        assert g.k_values[-1] == pytest.approx(60.0)
        assert g.dk == pytest.approx(0.2)

    def test_rejects_nonuniform(self):
        k = np.array([1.0, 2.0, 3.5])
        with pytest.raises(InvalidGrid):
            KGrid(k_values=k)

    def test_rejects_nonpositive_modes(self):
        with pytest.raises(InvalidGrid):
            KGrid.centered(5.0, 10.0, 11)

    @pytest.mark.filterwarnings("error")
    def test_rejects_non_finite_width(self):
        for half_width in (math.nan, math.inf):
            with pytest.raises(InvalidGrid, match="finite"):
                KGrid.centered(50.0, half_width, 11)

    def test_rejects_decreasing(self):
        with pytest.raises(InvalidGrid):
            KGrid(k_values=np.array([2.0, 1.0, 0.5]))

    def test_subsample(self):
        g = KGrid.centered(50.0, 10.0, 101)
        s = g.subsample(4)
        assert len(s) == 26
        assert s.k_values[0] == g.k_values[0]
        assert s.k_values[-1] == g.k_values[-1]
        with pytest.raises(InvalidGrid):
            g.subsample(3)   # 100 % 3 != 0
        for stride in (2.0, 0, -4, "4"):
            with pytest.raises(InvalidGrid, match=re.escape(repr(stride))):
                g.subsample(stride)
        assert len(g.subsample(np.int64(4))) == 26

    def test_default_halfwidth_clips_to_positive_k(self):
        cfg = two_atom_config()
        # 40 * 2 pi / t_end = 62.8 would reach below k = 0 at omega_a = 50
        half = default_halfwidth(cfg, t_end=4.0)
        assert half == 0.98 * cfg.omega_a
        g = KGrid.centered(cfg.omega_a, half, 101)
        assert g.k_values[0] > 0.0
        mid = 0.5 * (g.k_values[0] + g.k_values[-1])
        assert mid == pytest.approx(cfg.omega_a)
