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
            assert PhaseSum({k: 1 for k in range(n)}, n).is_zero()

    def test_partial_cycle_not_zero(self):
        assert not PhaseSum({0: 1, 1: 1}, 3).is_zero()

    def test_mixed_representations_equal(self):
        # 1 + w + w^2 = 0 for the cube root w, so 1 = -w - w^2, also when
        # the cube roots are written at level 6
        one = PhaseSum({0: 1}, 1)
        for rhs in (PhaseSum({1: -1, 2: -1}, 3), PhaseSum({2: -1, 4: -1}, 6)):
            assert rhs.integer_value() == one.integer_value() == 1
        assert PhaseSum({2: -1, 4: -1}, 6)._reduced() == PhaseSum({1: -1, 2: -1}, 3)._reduced()

    def test_numeric_consistency(self):
        val = PhaseSum({1: 2, 6: -1}, 8).to_complex()
        assert abs(val - (2 * complex(2 ** -0.5, 2 ** -0.5) - (-1j))) < 1e-12

    @staticmethod
    def _at_twelve(pairs):
        counts = Counter()
        for num, mult in pairs:
            counts[num] += mult
        return PhaseSum(counts, 12)

    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(-3, 3)),
                    max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_zero_test_matches_numerics(self, pairs):
        s = self._at_twelve(pairs)
        assert s.is_zero() == (abs(s.to_complex()) < 1e-9)

    def test_integer_value_of_full_cycle_is_zero(self):
        for n in (2, 3, 5, 6, 12):
            assert PhaseSum({k: 1 for k in range(n)}, n).integer_value() == 0

    def test_integer_value_of_primitive_cube_root_is_none(self):
        assert PhaseSum({1: 1}, 3).integer_value() is None

    def test_integer_value_reads_back_integers(self):
        # w + w^2 = -1 for the cube root w; -1 counted twice is -2
        assert PhaseSum({1: 2, 2: 2, 0: 5}, 3).integer_value() == 3
        assert PhaseSum({}, 7).integer_value() == 0

    @given(st.lists(st.tuples(st.integers(0, 11), st.integers(-3, 3)),
                    max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_integer_value_matches_numerics(self, pairs):
        s = self._at_twelve(pairs)
        val = s.to_complex()
        near = round(val.real)
        expected = near if abs(val - near) < 1e-9 else None
        assert s.integer_value() == expected


class TestReducedAgainstReference:
    """The residue-class reduction at the least level against the
    reduction of the `Fraction` phases modulo the full cyclotomic
    polynomial of their common denominator."""

    @staticmethod
    def _random_sums(levels, count, seed):
        rng = random.Random(seed)
        for _ in range(count):
            level = rng.choice(levels)
            counts = Counter()
            for _ in range(rng.randint(0, 10)):
                counts[rng.randrange(level)] += rng.randint(-3, 3)
            yield counts, level

    @pytest.mark.parametrize("levels", [
        (2, 4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 128, 243, 256),  # prime powers
        (1, 2, 3, 6, 10, 15, 30, 35, 42, 105, 210, 330),  # squarefree
        (12, 18, 24, 36, 45, 72, 100, 108, 144, 180, 360, 504),  # mixed
    ])
    def test_matches_reference(self, levels):
        for counts, level in self._random_sums(levels, 300, len(levels)):
            terms = {Fraction(r, level): n for r, n in counts.items()}
            assert PhaseSum(counts, level)._reduced() == reference_reduced(terms), counts
