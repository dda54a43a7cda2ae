from fractions import Fraction

import numpy as np
import pytest

from latticecft.errors import NotPositiveDefinite, TruncationOverflow
from latticecft.theta import (
    SiegelPoint,
    ThetaSpec,
    automorphy_factor,
    heat_equation_residual,
    heisenberg_translate,
    hermitian_metric,
    lattice_vector,
    splitting_character,
    symplectic_form,
    theta,
    theta_section,
    theta_space_dimension,
)

from oracles import raw_theta_sum

TAU_I = SiegelPoint.make([[1j]])
THETA3_AT_I = 1.0864348112133080145753161215103  # pi^(1/4)/Gamma(3/4)


def principal(g):
    return ThetaSpec.make((Fraction(0),) * g, (Fraction(0),) * g)


class TestSiegelPoint:
    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotPositiveDefinite):
            SiegelPoint.make([[1j, 0.5], [0.2, 1j]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            SiegelPoint.make([[-1j]])

    def test_scalar_promotion(self):
        assert SiegelPoint.make([[2j]]).g == 1

    @pytest.mark.parametrize("tau", [[[complex(0, np.inf)]], [[complex(np.nan, 1)]]])
    def test_rejects_non_finite(self, tau):
        # a NaN entry passes the symmetry and definiteness tests
        with pytest.raises(ValueError, match="not finite"):
            SiegelPoint.make(tau)


class TestThetaValues:
    def test_theta3_at_i(self):
        val = theta(principal(1), [0.0], TAU_I, tol=1e-12)
        assert abs(val.value - THETA3_AT_I) < 1e-12
        oracle = raw_theta_sum([Fraction(0)], [Fraction(0)], [0.0],
                               np.array([[1j]]), radius=20)
        assert abs(val.value - oracle) < 1e-12

    def test_matches_raw_sum_generic(self):
        rng = np.random.default_rng(3)
        tau = SiegelPoint.make([[0.3 + 1.1j, 0.2j], [0.2j, -0.1 + 0.9j]])
        spec = ThetaSpec.make((Fraction(1, 3), Fraction(0)),
                              (Fraction(0), Fraction(1, 2)))
        for _ in range(5):
            z = rng.standard_normal(2) * 0.5 + 0.2j * rng.standard_normal(2)
            got = theta(spec, z, tau, tol=1e-12).value
            want = raw_theta_sum(spec.a, spec.b, z, tau.tau, radius=18)
            assert abs(got - want) < 1e-10

    def test_odd_characteristic_vanishes(self):
        spec = ThetaSpec.make((Fraction(1, 2),), (Fraction(1, 2),))
        for tau in ([[1j]], [[0.4 + 0.8j]]):
            val = theta(spec, [0.0], SiegelPoint.make(tau), tol=1e-12)
            assert abs(val.value) < 1e-13

    def test_integer_shift_invariance(self):
        spec = principal(1)
        z = np.array([0.17 + 0.05j])
        v1 = theta(spec, z, TAU_I).value
        v2 = theta(spec, z + 1.0, TAU_I).value
        assert abs(v1 - v2) < 1e-12

    def test_characteristic_reduction_exact(self):
        # a and a+1 index the same series
        spec1 = ThetaSpec.make((Fraction(1, 3),), (Fraction(0),))
        spec2 = ThetaSpec.make((Fraction(4, 3),), (Fraction(0),))
        z = np.array([0.2 + 0.1j])
        assert abs(theta(spec1, z, TAU_I).value - theta(spec2, z, TAU_I).value) < 1e-12

    def test_truncation_honesty(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            y = rng.uniform(0.5, 2.0)
            tau = SiegelPoint.make([[rng.uniform(-0.4, 0.4) + 1j * y]])
            z = np.array([rng.standard_normal() + 0.4j * rng.standard_normal()])
            val = theta(principal(1), z, tau, tol=1e-10)
            wider = raw_theta_sum([0], [0], z, tau.tau, radius=val.radius + 2)
            assert abs(val.value - wider) <= val.tail_bound + 1e-15

    def test_truncation_overflow(self):
        tau = SiegelPoint.make([[1e-4j]])
        with pytest.raises(TruncationOverflow):
            theta(principal(1), [0.0], tau, tol=1e-12)

    def test_tol_must_be_positive(self):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError):
                theta(principal(1), [0.0], TAU_I, tol=tol)

    def test_non_finite_z_is_refused(self):
        with pytest.raises(ValueError, match="not finite"):
            theta(principal(1), [complex(np.nan, 0)], TAU_I)

    @pytest.mark.parametrize("im_z", [1e9, 1e300])
    def test_far_imaginary_z_overflows_before_any_table(self, im_z):
        # the tail table would need 4 |Im z| / lambda_min shells (or overflow int())
        with pytest.raises(TruncationOverflow, match="largest terms"):
            theta(principal(1), [complex(0, im_z)], TAU_I)


class TestHeisenbergAction:
    def test_identity_translation(self):
        spec = principal(1)
        section = theta_section(spec, TAU_I)
        moved = heisenberg_translate([0.0], section, TAU_I)
        for z in (0.1 + 0.2j, -0.4 + 0.05j):
            assert abs(moved([z]) - section([z])) < 1e-12

    def test_cocycle_phase(self):
        rng = np.random.default_rng(5)
        tau = SiegelPoint.make([[0.2 + 1.3j, 0.1j], [0.1j, 1.0j]])

        def section(u):
            u = np.asarray(u, dtype=complex)
            return np.exp(-0.3 * (u @ u) + 0.7 * u[0])

        for _ in range(100):
            v1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            composed = heisenberg_translate(
                v1, heisenberg_translate(v2, section, tau), tau)
            direct = heisenberg_translate(v1 + v2, section, tau)
            phase = np.exp(1j * np.pi * symplectic_form(tau, v1, v2))
            assert abs(composed(u) - phase * direct(u)) < 1e-10 * max(
                1.0, abs(direct(u)))

    def test_omega_integer_on_lattice(self):
        tau = SiegelPoint.make([[0.3 + 1.2j, 0.4 + 0.2j], [0.4 + 0.2j, -0.2 + 0.9j]])
        rng = np.random.default_rng(7)
        for _ in range(20):
            m1, n1, m2, n2 = (rng.integers(-2, 3, size=2) for _ in range(4))
            w = symplectic_form(tau, lattice_vector(tau, m1, n1),
                                lattice_vector(tau, m2, n2))
            assert abs(w - round(w)) < 1e-9

    def test_metric_positive(self):
        tau = SiegelPoint.make([[1j]])
        assert hermitian_metric(tau, [1.0], [1.0]).real > 0

    def test_theta_section_invariant_under_twisted_lattice_action(self):
        rng = np.random.default_rng(9)
        tau = SiegelPoint.make([[0.1 + 1.0j]])
        spec = ThetaSpec.make((Fraction(0),), (Fraction(0),))
        section = theta_section(spec, tau, tol=1e-13)
        for m in (-1, 0, 1, 2):
            for n in (-1, 0, 1):
                lam = lattice_vector(tau, [m], [n])
                moved = heisenberg_translate(lam, section, tau)
                chi = splitting_character(spec, [m], [n])
                for _ in range(5):
                    z = rng.standard_normal() * 0.6 + 0.3j * rng.standard_normal()
                    lhs = chi * moved([z])
                    rhs = section([z])
                    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_quasi_periodicity_vs_automorphy_factor(self):
        rng = np.random.default_rng(13)
        for tau_mat in ([[1j]], [[0.2 + 0.9j]]):
            tau = SiegelPoint.make(tau_mat)
            for a, b in (((0,), (0,)), ((Fraction(1, 2),), (Fraction(0),)),
                         ((Fraction(1, 3),), (Fraction(1, 4),))):
                spec = ThetaSpec.make(a, b)
                for m in (-2, -1, 1, 2):
                    for n in (-2, 0, 2):
                        for _ in range(3):
                            z = np.array([rng.standard_normal() * 0.5
                                          + 0.2j * rng.standard_normal()])
                            lam = lattice_vector(tau, [m], [n])
                            lhs = theta(spec, z + lam, tau, tol=1e-13).value
                            rhs = (automorphy_factor(spec, tau, [m], [n], z)
                                   * theta(spec, z, tau, tol=1e-13).value)
                            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


class TestDimension:
    def test_principal(self):
        assert theta_space_dimension((1,), TAU_I) == 1

    def test_type_two(self):
        assert theta_space_dimension((2,), TAU_I) == 2

    def test_genus_two_type_13(self):
        tau = SiegelPoint.make([[1.0j, 0.3j], [0.3j, 1.4j]])
        assert theta_space_dimension((1, 3), tau) == 3

    def test_validators(self):
        with pytest.raises(ValueError):
            theta_space_dimension((2, 3), SiegelPoint.make([[1j, 0], [0, 1j]]))
        with pytest.raises(ValueError):
            theta_space_dimension((65,), TAU_I)

    def test_matches_heisenberg_irrep_dimension(self):
        from latticecft.heisenberg import schroedinger_irrep
        from latticecft.lattices import discriminant_group, validate_even_lattice
        pairs = [((2,), [[2]]), ((3,), [[2, 1], [1, 2]])]
        for ptype, gram in pairs:
            disc = discriminant_group(validate_even_lattice(gram))
            assert theta_space_dimension(ptype, TAU_I) == \
                schroedinger_irrep(disc, 1).dimension


class TestHeatEquation:
    def test_residual_small_g1(self):
        spec = principal(1)
        res = heat_equation_residual(spec, [0.3 + 0.2j], TAU_I, h=1e-3)
        assert res < 1e-6

    def test_residual_small_g2(self):
        tau = SiegelPoint.make([[1.0j, 0.3j], [0.3j, 1.2j]])
        spec = ThetaSpec.make((Fraction(1, 2), Fraction(0)),
                              (Fraction(0), Fraction(1, 3)))
        res = heat_equation_residual(spec, [0.1 + 0.1j, -0.2j], tau, h=1e-3)
        assert res < 1e-6

    def test_second_order_convergence(self):
        spec = principal(1)
        z = [0.3 + 0.2j]
        res = [heat_equation_residual(spec, z, TAU_I, h=h, richardson=False)
               for h in (0.04, 0.02, 0.01)]
        r1 = res[0] / res[1]
        r2 = res[1] / res[2]
        assert 3.0 < r1 < 5.0
        assert 3.0 < r2 < 5.0
