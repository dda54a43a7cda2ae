import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecft.errors import (
    GroupTooLarge,
    NotPositiveDefinite,
    NotSymmetric,
    OddDiagonal,
)
from latticecft.exact import det_int
from latticecft.lattices import (
    A2_GRAM,
    D4_GRAM,
    E8_GRAM,
    _snf_with_inverse,
    discriminant_group,
    gauss_sum,
    signature_mod8,
    smith_normal_form,
    validate_even_lattice,
)

from latticecft.surfaces import IntersectionForm

from oracles import dual_coset_enumeration, gram_pair, laplace_det


def matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


class TestValidation:
    def test_smallest_even_lattice(self):
        lat = validate_even_lattice([[2]])
        assert lat.rank == 1 and lat.det == 2 and lat.level_ell == 2

    def test_a2_det_against_cofactor_oracle(self):
        lat = validate_even_lattice(A2_GRAM)
        assert lat.det == laplace_det([list(r) for r in A2_GRAM]) == 3

    def test_odd_diagonal_rejected(self):
        with pytest.raises(OddDiagonal):
            validate_even_lattice([[1]])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            validate_even_lattice([[2, 1], [0, 2]])

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            validate_even_lattice([[2, 3], [3, 2]])

    @pytest.mark.parametrize("gram", [[[2.5]], [[3.9, 1], [1, 2]], [[2, 0.5], [0.5, 2]],
                                      [[2, True], [True, 2]], [["2"]], [[math.inf]],
                                      [[math.nan]], [[Fraction(5, 2)]], [[None]]])
    def test_non_integral_entry_refused(self, gram):
        # truncation would read [[2.5]] as [[2]] and [[3.9, 1], [1, 2]] as
        # odd; JSON true would read as 1, and int() overflows on infinity
        with pytest.raises(ValueError, match="not an integer"):
            validate_even_lattice(gram)

    def test_integral_floats_accepted(self):
        assert validate_even_lattice([[2.0, 1.0], [1.0, 2.0]]).gram == ((2, 1), (1, 2))

    def test_e8_unimodular(self):
        lat = validate_even_lattice(E8_GRAM)
        assert lat.det == 1 == laplace_det([list(r) for r in E8_GRAM])


class TestSmithNormalForm:
    def check(self, m):
        u, d, v, = smith_normal_form(m)
        assert matmul(matmul(u, m), v) == d
        assert abs(det_int(u)) == 1 and abs(det_int(v)) == 1
        u2, d2, v2, uinv = _snf_with_inverse(m)
        assert (u2, d2, v2) == (u, d, v)
        assert matmul(u, uinv) == tuple(tuple(int(i == j) for j in range(len(m)))
                                        for i in range(len(m)))
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        for i in range(len(diag) - 1):
            if diag[i + 1]:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        return diag

    def test_identity(self):
        m = tuple(tuple(int(i == j) for j in range(3)) for i in range(3))
        u, d, v = smith_normal_form(m)
        assert u == d == v == m

    def test_a2(self):
        assert self.check(A2_GRAM) == [1, 3]

    def test_diag_2_4(self):
        assert self.check(((2, 0), (0, 4))) == [2, 4]

    def test_random_12x12(self):
        rng = random.Random(7)
        for _ in range(5):
            n = 12
            m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
            self.check(m)

    @given(st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                           min_size=n, max_size=n)))
    @settings(max_examples=60, deadline=None)
    def test_postcondition_random(self, rows):
        self.check(tuple(tuple(r) for r in rows))

    def test_rectangular(self):
        self.check(((2, 4, 4),))
        self.check(((2,), (4,), (6,)))

    @pytest.mark.parametrize("m, expected", [
        (A2_GRAM, (((1, 0), (2, -1)), ((1, 0), (0, 3)), ((0, 1), (1, -2)),
                   ((1, 0), (2, -1)))),
        (((2, 4, 4),), (((1,),), ((2, 0, 0),), ((1, -2, -2), (0, 1, 0), (0, 0, 1)),
                        ((1,),))),
        # singular, with a negative pivot and a block the first pivot does not divide
        (((-4, 0, 4), (0, 6, 6), (-4, 6, 10)),
         (((-1, 1, 0), (-3, 2, 0), (-1, -1, 1)), ((2, 0, 0), (0, 12, 0), (0, 0, 0)),
          ((-1, 3, 1), (1, -2, -1), (0, 0, 1)), ((2, -1, 0), (3, -1, 0), (5, -2, 1)))),
    ])
    def test_pinned_coordinates(self, m, expected):
        # (U, D, V, U^-1) fix the generators every report is written in
        assert _snf_with_inverse(m) == expected
        self.check(m)


def small_even_lattices():
    """Strategy: B^T (2I) B for a random nonsingular integer B."""
    def build(entries):
        n = int(len(entries) ** 0.5)
        b = [entries[i * n:(i + 1) * n] for i in range(n)]
        if det_int(b) == 0:
            return None
        return tuple(tuple(2 * sum(b[k][i] * b[k][j] for k in range(n))
                           for j in range(n)) for i in range(n))
    return (st.sampled_from([1, 2]).flatmap(
        lambda n: st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n))
        .map(build).filter(lambda g: g is not None))


def assert_forms_match_lifts(gram, sample=64):
    """b and q, read from the integer tables, equal the Gram pairing and
    norm of the lifts mod 1 and mod 2, on all pairs of a fixed random
    sample of elements."""
    lat = validate_even_lattice(gram)
    disc = discriminant_group(lat)
    elements = list(disc.elements())
    if len(elements) > sample:
        elements = random.Random(disc.order).sample(elements, sample)
    lifts = [disc.lift(a) for a in elements]
    for a, va in zip(elements, lifts):
        for b, vb in zip(elements, lifts):
            assert disc.bilinear(a, b) == gram_pair(lat.gram, va, vb) % 1
        assert disc.quadratic(a) == gram_pair(lat.gram, va, va) % 2


class TestDiscriminantGroup:
    def test_z2_from_coset_oracle(self):
        lat = validate_even_lattice([[2]])
        disc = discriminant_group(lat)
        assert disc.invariant_factors == (2,)
        order, _ = dual_coset_enumeration(lat.gram)
        assert disc.order == order == 2
        g = disc.generators()[0]
        assert disc.bilinear(g, g) == Fraction(1, 2)
        assert disc.quadratic(g) == Fraction(1, 2)

    def test_e8_trivial(self):
        disc = discriminant_group(validate_even_lattice(E8_GRAM))
        assert disc.invariant_factors == () and disc.order == 1

    def test_a2_z3(self):
        disc = discriminant_group(validate_even_lattice(A2_GRAM))
        assert disc.invariant_factors == (3,)
        g = disc.generators()[0]
        assert disc.quadratic(g) == Fraction(2, 3)
        order, _ = dual_coset_enumeration(A2_GRAM)
        assert order == 3

    def test_d4_two_two(self):
        disc = discriminant_group(validate_even_lattice(D4_GRAM))
        assert disc.invariant_factors == (2, 2)
        for a in disc.elements():
            if a.coords != (0, 0):
                assert disc.quadratic(a) == 1

    def test_lift_vectors_consistent(self):
        for gram in ([[2]], A2_GRAM, D4_GRAM, ((2, 0), (0, 8)),
                     ((2, 0, 0), (0, 6, 0), (0, 0, 12)), ((4, 2), (2, 36)),
                     ((6, 0, 0), (0, 6, 0), (0, 0, 6))):
            assert_forms_match_lifts(gram)

    @given(small_even_lattices())
    @settings(max_examples=20, deadline=None)
    def test_lift_vectors_consistent_sweep(self, gram):
        assert_forms_match_lifts(gram)

    @given(small_even_lattices())
    @settings(max_examples=40, deadline=None)
    def test_order_equals_det(self, gram):
        lat = validate_even_lattice(gram)
        disc = discriminant_group(lat)
        assert disc.order == lat.det

    @given(small_even_lattices())
    @settings(max_examples=30, deadline=None)
    def test_quadratic_refines_bilinear(self, gram):
        disc = discriminant_group(validate_even_lattice(gram))
        els = list(disc.elements())
        if len(els) > 20:
            els = els[:20]
        for a in els:
            assert disc.quadratic(disc.neg(a)) == disc.quadratic(a)
            for b in els:
                lhs = (disc.quadratic(disc.add(a, b)) - disc.quadratic(a)
                       - disc.quadratic(b)) % 2
                assert lhs == (2 * disc.bilinear(a, b)) % 2

    def test_bilinear_nondegenerate(self, small_lattices):
        for name, (lat, disc) in small_lattices.items():
            if disc.order > 10 ** 4:
                continue
            gens = disc.generators()
            rows = {tuple(disc.bilinear(a, g) for g in gens) for a in disc.elements()}
            assert len(rows) == disc.order, name

    def test_unimodular_congruence_invariance(self):
        rng = random.Random(3)
        for gram in (A2_GRAM, D4_GRAM, ((2, 0), (0, 4))):
            n = len(gram)
            u = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    for k in range(n):
                        u[i][k] += c * u[j][k]
            ut = tuple(tuple(u[j][i] for j in range(n)) for i in range(n))
            conj = matmul(matmul(ut, gram), tuple(tuple(r) for r in u))
            d1 = discriminant_group(validate_even_lattice(gram))
            d2 = discriminant_group(validate_even_lattice(conj))
            assert d1.invariant_factors == d2.invariant_factors


class TestOneRowReadings:
    """bilinear, quadratic and the intersection pairing and cocycle against
    exact Gram products of the lifts, at coordinates near the invariant
    factors: N = 2^24 is the largest exponent with int64 tables, where
    unreduced products reach 2^72; N = 2^24 + 2 has object tables.  An
    int64 product that wraps mod 2^64 is still right mod a power of two,
    so a missing reduction shows at the odd exponent 16015823, whose
    generator has N b = 8172899 and N q = 24188722, and on two factors."""

    @pytest.mark.parametrize("gram", [[[2 ** 24]], [[2 ** 24 + 2]],
                                      [[3254, -1011], [-1011, 5236]],
                                      [[12, 0], [0, 2 ** 24 - 4]]])
    def test_against_lift_gram_products(self, gram):
        lat = validate_even_lattice(gram)
        disc = discriminant_group(lat)
        rng = random.Random(len(str(gram)))
        elements = [disc.element(tuple(d - 1 - rng.randrange(4) for d in disc.invariant_factors))
                    for _ in range(6)] + [disc.element((1,) * len(disc.invariant_factors))]

        def b(x, y):
            return gram_pair(lat.gram, disc.lift(x), disc.lift(y)) % 1

        for x in elements:
            assert disc.quadratic(x) == gram_pair(lat.gram, disc.lift(x), disc.lift(x)) % 2
            for y in elements:
                assert disc.bilinear(x, y) == b(x, y)
                assert disc.bilinear_coords(x.coords, y.coords) == b(x, y)
        form = IntersectionForm.closed_genus(disc, 1)  # slots a, b
        for _ in range(20):
            xa, xb, ya, yb = (rng.choice(elements) for _ in range(4))
            x, y = (xa.coords, xb.coords), (ya.coords, yb.coords)
            assert form.cocycle(x, y) == b(xa, yb)
            assert form.pairing(x, y) == (b(xa, yb) - b(ya, xb)) % 1


class TestGaussSum:
    def test_trivial(self):
        disc = discriminant_group(validate_even_lattice(E8_GRAM))
        assert abs(gauss_sum(disc) - 1) < 1e-12

    def test_z2(self):
        disc = discriminant_group(validate_even_lattice([[2]]))
        assert abs(gauss_sum(disc) - (1 + 1j)) < 1e-12
        assert signature_mod8(disc) == 1

    def test_a2(self):
        disc = discriminant_group(validate_even_lattice(A2_GRAM))
        assert abs(gauss_sum(disc) - math.sqrt(3) * 1j) < 1e-12
        assert signature_mod8(disc) == 2

    def test_d4(self):
        disc = discriminant_group(validate_even_lattice(D4_GRAM))
        assert abs(gauss_sum(disc) - (-2)) < 1e-12
        assert signature_mod8(disc) == 4

    def test_refused_above_budget(self):
        disc = discriminant_group(validate_even_lattice([[2 ** 24 + 2]]))
        with pytest.raises(GroupTooLarge):
            gauss_sum(disc)
        with pytest.raises(GroupTooLarge):
            signature_mod8(disc)

    @given(small_even_lattices())
    @settings(max_examples=40, deadline=None)
    def test_modulus_and_phase(self, gram):
        lat = validate_even_lattice(gram)
        disc = discriminant_group(lat)
        g = gauss_sum(disc)
        assert abs(abs(g) - math.sqrt(disc.order)) < 1e-9
        expected = math.sqrt(disc.order) * cmath.exp(2j * cmath.pi * (lat.rank % 8) / 8)
        assert abs(g - expected) < 1e-9
        assert signature_mod8(disc) == lat.rank % 8
