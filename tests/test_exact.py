import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecft.exact import PhaseSum, cyclotomic_poly, det_int

from oracles import laplace_det, reference_reduced


class TestDet:
    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=80, deadline=None)
    def test_matches_laplace(self, rows):
        assert det_int(rows) == laplace_det(rows)


class TestCyclotomic:
    def test_small_values(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        from math import gcd
        for n in range(1, 30):
            phi = sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
            assert len(cyclotomic_poly(n)) - 1 == phi


class TestPhaseSum:
    def test_full_cycle_is_zero(self):
        for n in (2, 3, 5, 6, 12):
            s = PhaseSum()
            for k in range(n):
                s.add(Fraction(k, n))
            assert s.is_zero()

    def test_partial_cycle_not_zero(self):
        s = PhaseSum()
        s.add(Fraction(0))
        s.add(Fraction(1, 3))
        assert not s.is_zero()

    def test_mixed_representations_equal(self):
        # 1 + w + w^2 = 0 for the cube root w, so 1 = -w - w^2
        lhs = PhaseSum()
        lhs.add(Fraction(0))
        rhs = PhaseSum()
        rhs.add(Fraction(1, 3), -1)
        rhs.add(Fraction(2, 3), -1)
        assert lhs == rhs

    def test_numeric_consistency(self):
        s = PhaseSum()
        s.add(Fraction(1, 8), 2)
        s.add(Fraction(3, 4), -1)
        val = s.to_complex()
        assert abs(val - (2 * complex(2 ** -0.5, 2 ** -0.5) - (-1j))) < 1e-12

    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(-3, 3)),
                    max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_zero_test_matches_numerics(self, pairs):
        s = PhaseSum()
        for num, mult in pairs:
            s.add(Fraction(num, 12), mult)
        assert s.is_zero() == (abs(s.to_complex()) < 1e-9)

    def test_integer_value_of_full_cycle_is_zero(self):
        for n in (2, 3, 5, 6, 12):
            s = PhaseSum()
            for k in range(n):
                s.add(Fraction(k, n))
            assert s.integer_value() == 0

    def test_integer_value_of_primitive_cube_root_is_none(self):
        s = PhaseSum()
        s.add(Fraction(1, 3))
        assert s.integer_value() is None

    def test_integer_value_reads_back_integers(self):
        # w + w^2 = -1 for the cube root w; -1 counted twice is -2
        s = PhaseSum()
        s.add(Fraction(1, 3), 2)
        s.add(Fraction(2, 3), 2)
        s.add(Fraction(0), 5)
        assert s.integer_value() == 3
        assert PhaseSum().integer_value() == 0

    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(-3, 3)),
                    max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_integer_value_matches_numerics(self, pairs):
        s = PhaseSum()
        for num, mult in pairs:
            s.add(Fraction(num, 12), mult)
        val = s.to_complex()
        near = round(val.real)
        expected = near if abs(val - near) < 1e-9 else None
        assert s.integer_value() == expected

    def test_scaled(self):
        s = PhaseSum()
        s.add(Fraction(1, 2), 3)
        assert s.scaled(2).terms[Fraction(1, 2)] == 6


class TestReducedAgainstReference:
    """The residue-class reduction against the reduction modulo the full
    cyclotomic polynomial of the level."""

    @staticmethod
    def _random_sums(levels, count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            level = rng.choice(levels)
            terms = Counter()
            for _ in range(rng.randint(0, 10)):
                terms[Fraction(rng.randrange(level), level) % 1] += rng.randint(-3, 3)
            yield terms

    @pytest.mark.parametrize("levels", [
        (2, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 128, 243, 256),  # prime powers
        (1, 2, 3, 6, 10, 15, 30, 35, 42, 105, 210, 330),  # squarefree
        (12, 18, 24, 36, 45, 72, 100, 108, 144, 180, 360, 504),  # mixed
    ])
    def test_matches_reference(self, levels):
        for terms in self._random_sums(levels, 300, len(levels)):
            assert PhaseSum(terms)._reduced() == reference_reduced(terms), terms
