import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecft import heisenberg
from latticecft.errors import (
    DimensionMismatch,
    GroupTooLarge,
    NotASplitting,
    NotIsotropic,
)
from latticecft.acceptance import (
    DEFAULT_SEED,
    SMALL_GRAMS,
    SWEEP_GRAMS,
    Tolerances,
    criterion_04_induced_decomposition,
)
from latticecft.heisenberg import (
    HeisenbergElement,
    UnitaryRep,
    _coset_labels,
    canonical_splitting,
    center,
    commutant_dimension,
    enumerate_h1,
    enumerate_subgroups,
    explicit_intertwiner,
    heisenberg_identity,
    heisenberg_inverse,
    heisenberg_product,
    induce_from_isotropic,
    intertwiner_dimension,
    is_isotropic,
    isotropic_subgroups,
    schroedinger_irrep,
    standard_lagrangians,
    subgroup_closure,
)
from latticecft.lattices import E8_GRAM, discriminant_group, validate_even_lattice
from latticecft.surfaces import IntersectionForm, Surface
from oracles import (
    float_character_pairing,
    float_traces,
    h1_elements_at,
    h1_subgroup,
    induced_monomial,
    reference_coset_labels,
    reference_intertwiner,
    reference_subgroups,
    schroedinger_monomial,
)

A2 = [[2, 1], [1, 2]]


def disc_of(gram):
    return discriminant_group(validate_even_lattice(gram))


@pytest.fixture(scope="module")
def z2():
    return disc_of([[2]])


@pytest.fixture(scope="module")
def z3():
    return disc_of([[2, 1], [1, 2]])


@pytest.fixture(scope="module")
def z4():
    return disc_of([[4]])


def compose_monomial(mono1, mono2):
    """Exact composition of monomial operators, (rho1 rho2)."""
    p1, a1 = mono1
    p2, a2 = mono2
    perm = tuple(p2[p1[t]] for t in range(len(p1)))
    phases = tuple((a1[t] + a2[p1[t]]) % 1 for t in range(len(p1)))
    return perm, phases


class TestGroupLaw:
    def test_identity(self, z2):
        form = IntersectionForm.closed_genus(z2, 1)
        x = HeisenbergElement(((1,), (0,)), Fraction(1, 4))
        e = heisenberg_identity(form)
        assert heisenberg_product(x, e, form) == x
        assert heisenberg_product(e, x, form) == x

    def test_commutator_is_twice_pairing(self, z3):
        form = IntersectionForm.closed_genus(z3, 1)
        rng = random.Random(1)
        for _ in range(30):
            x = HeisenbergElement.pure(((rng.randrange(3),), (rng.randrange(3),)))
            y = HeisenbergElement.pure(((rng.randrange(3),), (rng.randrange(3),)))
            comm = heisenberg_product(
                heisenberg_product(x, y, form),
                heisenberg_product(heisenberg_inverse(x, form),
                                   heisenberg_inverse(y, form), form), form)
            assert comm.X == form.zero()
            assert comm.phase == (2 * form.pairing(x.X, y.X)) % 1

    def test_two_torsion_commutator_vanishes(self, z2):
        # for A = Z/2 the phase 2*S(X,Y) = 2*(1/2) is an integer
        form = IntersectionForm.closed_genus(z2, 1)
        x = HeisenbergElement.pure(((1,), (0,)))
        y = HeisenbergElement.pure(((0,), (1,)))
        comm = heisenberg_product(
            heisenberg_product(x, y, form),
            heisenberg_product(heisenberg_inverse(x, form),
                               heisenberg_inverse(y, form), form), form)
        assert comm == heisenberg_identity(form)

    def test_inverse(self, z4):
        form = IntersectionForm.closed_genus(z4, 1)
        x = HeisenbergElement(((3,), (1,)), Fraction(5, 8))
        assert heisenberg_product(x, heisenberg_inverse(x, form), form) == \
            heisenberg_identity(form)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_associativity_exact(self, data):
        disc = disc_of([[4]])
        form = IntersectionForm.closed_genus(disc, 1)

        def elem():
            coords = tuple((data.draw(st.integers(0, 3)),) for _ in range(2))
            return HeisenbergElement(coords, Fraction(data.draw(st.integers(0, 7)), 8))

        x, y, z = elem(), elem(), elem()
        lhs = heisenberg_product(heisenberg_product(x, y, form), z, form)
        rhs = heisenberg_product(x, heisenberg_product(y, z, form), form)
        assert lhs == rhs

    def test_dimension_mismatch(self, z2):
        form = IntersectionForm.closed_genus(z2, 1)
        x = HeisenbergElement.pure(((1,), (0,)))
        y = HeisenbergElement.pure(((1,), (0,), (0,)))
        with pytest.raises(DimensionMismatch):
            heisenberg_product(x, y, form)


def brute_force_radical(form):
    out = []
    elements = enumerate_h1(form)
    for x in elements:
        if all(form.pairing(x, y) == 0 for y in elements):
            out.append(x)
    return sorted(out)


class TestCenter:
    def test_closed_surface_phases_only(self, z3):
        desc = center(z3, Surface.closed(2))
        assert desc.boundary_slots == () and desc.generators == ()
        form = IntersectionForm.closed_genus(z3, 2)
        assert brute_force_radical(form) == [form.zero()]

    def test_genus_zero_everything_central(self, z2):
        s = Surface.connected(0, [("c0", "out"), ("c1", "in"), ("c2", "in")])
        desc = center(z2, s)
        form = IntersectionForm(s, z2)
        assert len(desc.boundary_slots) == form.rank == 2
        assert brute_force_radical(form) == sorted(enumerate_h1(form))

    def test_one_holed_torus(self, z2):
        s = Surface.connected(1, [("c", "out")])
        desc = center(z2, s)
        assert desc.boundary_slots == ()
        form = IntersectionForm(s, z2)
        assert brute_force_radical(form) == [form.zero()]

    def test_mixed_surface_radical_matches(self, z2):
        s = Surface.connected(1, [("c0", "out"), ("c1", "in")])
        form = IntersectionForm(s, z2)
        desc = center(z2, s)
        radical = brute_force_radical(form)
        spanned = subgroup_closure(form, desc.generators)
        assert sorted(spanned) == radical


class TestSchroedinger:
    def test_genus_zero_dimension_one(self, z3):
        rep = schroedinger_irrep(z3, 0)
        assert rep.dimension == 1
        assert np.allclose(rep.matrix(HeisenbergElement.pure(())), [[1.0]])

    def test_genus_zero_on_object_tables(self):
        # an exponent past DENSE_ENTRY_BUDGET keeps the forms as object arrays,
        # whose empty rows index to a plain int
        rep = schroedinger_irrep(disc_of([[2 * 10 ** 8]]), 0)
        assert rep.monomial(()) == ((0,), (Fraction(0),))

    def test_z2_generator_matrices(self, z2):
        rep = schroedinger_irrep(z2, 1)
        assert rep.dimension == 2
        translation = rep.matrix(HeisenbergElement.pure(((0,), (1,))))
        assert np.allclose(translation, [[0, 1], [1, 0]])
        multiplication = rep.matrix(HeisenbergElement.pure(((1,), (0,))))
        assert np.allclose(multiplication, np.diag([1.0, np.exp(1j * np.pi)]))

    def test_z3_generator_matrices(self, z3):
        rep = schroedinger_irrep(z3, 1)
        assert rep.dimension == 3
        shift = rep.matrix(HeisenbergElement.pure(((0,), (1,))))
        # a cyclic permutation matrix of order three
        assert np.allclose(shift @ shift @ shift, np.eye(3))
        assert np.allclose(np.abs(shift), (np.abs(shift) > 0.5).astype(float))
        assert np.allclose(np.abs(shift).sum(axis=0), 1)
        assert not np.allclose(shift, np.eye(3))
        mult = rep.matrix(HeisenbergElement.pure(((1,), (0,))))
        diag = np.diag(mult)
        omega = np.exp(2j * np.pi * 2 / 3)  # bilinear value 2/3 on the generator
        assert np.allclose(diag, [1, omega, omega ** 2])
        assert np.allclose(mult, np.diag(diag))

    @pytest.mark.parametrize("gram,genus", [([[2]], 1), ([[2, 1], [1, 2]], 1),
                                            ([[4]], 1), ([[2]], 2)])
    def test_cocycle_relation_exhaustive(self, gram, genus):
        disc = disc_of(gram)
        rep = schroedinger_irrep(disc, genus)
        elements = enumerate_h1(rep.form)
        for x in elements:
            px = rep.monomial(x)
            mx = rep.matrix(HeisenbergElement.pure(x))
            assert np.allclose(mx.conj().T @ mx, np.eye(rep.dimension), atol=1e-9)
            for y in elements:
                comp = compose_monomial(px, rep.monomial(y))
                target_perm, target_phases = rep.monomial(rep.form.add(x, y))
                c = rep.cocycle(x, y)
                assert comp[0] == target_perm
                assert all((a - b - c) % 1 == 0
                           for a, b in zip(comp[1], target_phases))

    def test_central_exponent_validation(self, z4):
        with pytest.raises(ValueError):
            schroedinger_irrep(z4, 1, chi=2)

    def test_schur_orthogonality(self, z2, z3):
        for disc in (z2, z3):
            rep = schroedinger_irrep(disc, 1)
            assert commutant_dimension(rep) == 1


class TestIrreducibility:
    def test_trivial_group(self):
        disc = disc_of([[2, 0], [0, 2]])
        rep = schroedinger_irrep(disc, 0)
        assert commutant_dimension(rep) == 1

    def test_z2_schroedinger(self, z2):
        assert commutant_dimension(schroedinger_irrep(z2, 1)) == 1

    def test_direct_sum_reducible(self, z2):
        rep = schroedinger_irrep(z2, 1)
        assert commutant_dimension(rep.direct_sum(rep)) != 1

    def test_above_dimension_32(self):
        rep = schroedinger_irrep(disc_of([[6]]), 2)
        assert rep.dimension == 36
        assert commutant_dimension(rep) == 1
        assert commutant_dimension(rep.direct_sum(rep)) != 1

    def test_direct_sum_of_separately_built_reps(self):
        rep1, rep2 = schroedinger_irrep(disc_of([[2]]), 1), schroedinger_irrep(disc_of([[2]]), 1)
        assert rep1.form is not rep2.form
        total = rep1.direct_sum(rep2)
        assert total.dimension == 4
        assert commutant_dimension(total) == 4
        assert intertwiner_dimension(total, rep1) == 2

    def test_direct_sum_needs_same_group_and_center(self):
        z6 = disc_of([[6]])
        rep = schroedinger_irrep(z6, 1)
        with pytest.raises(DimensionMismatch):
            rep.direct_sum(schroedinger_irrep(z6, 1, chi=5))
        with pytest.raises(DimensionMismatch):
            rep.direct_sum(schroedinger_irrep(disc_of([[2]]), 1))
        assert rep.direct_sum(schroedinger_irrep(z6, 1, chi=7)).dimension == 12


class TestInduction:
    def test_full_lagrangian_matches_schroedinger(self, z3):
        form = IntersectionForm.closed_genus(z3, 1)
        lag = standard_lagrangians(z3, 1)["a_span"]
        rep = induce_from_isotropic(form, lag)
        assert rep.dimension == 3
        assert commutant_dimension(rep) == 1
        direct = schroedinger_irrep(z3, 1)
        nullity, m = explicit_intertwiner(direct, rep)
        assert nullity == 1
        m = m / np.linalg.norm(m, 2)
        assert np.allclose(m.conj().T @ m, np.eye(3), atol=1e-9)

    def test_trivial_subgroup_regular_rep(self, z2):
        form = IntersectionForm.closed_genus(z2, 1)
        rep = induce_from_isotropic(form, [])
        assert rep.dimension == 4
        # unique irrep class: the regular rep is |A| copies of the dim-|A| irrep
        assert commutant_dimension(rep) == 4
        assert intertwiner_dimension(rep, schroedinger_irrep(z2, 1)) == 2

    def test_index_two_subgroup_of_lagrangian(self, z4):
        form = IntersectionForm.closed_genus(z4, 1)
        rep = induce_from_isotropic(form, [((2,), (0,))])
        assert rep.dimension == 8
        assert commutant_dimension(rep) == 4  # two copies
        assert intertwiner_dimension(rep, schroedinger_irrep(z4, 1)) == 2
        assert commutant_dimension(rep) != 1

    def test_not_isotropic(self, z3):
        form = IntersectionForm.closed_genus(z3, 1)
        with pytest.raises(NotIsotropic):
            induce_from_isotropic(form, [((1,), (0,)), ((0,), (1,))])

    def test_bad_splitting_rejected(self, z4):
        form = IntersectionForm.closed_genus(z4, 1)
        gen = ((2,), (0,))
        with pytest.raises(NotASplitting):
            induce_from_isotropic(form, [gen], splitting={gen: Fraction(1, 3)})

    def test_assigned_value_at_zero_is_refused(self, z4):
        # every splitting has chi(0) = 0, whether the value comes alone or
        # inside a full table
        form = IntersectionForm.closed_genus(z4, 1)
        gen, zero = ((0,), (1,)), form.zero()
        sub = subgroup_closure(form, [gen])
        with pytest.raises(NotASplitting):
            canonical_splitting(form, sub, assigned={zero: Fraction(1, 2)})
        with pytest.raises(NotASplitting):
            induce_from_isotropic(form, [gen], splitting={zero: Fraction(1, 2)})
        full = {**canonical_splitting(form, sub), zero: Fraction(1, 2)}
        with pytest.raises(NotASplitting):
            induce_from_isotropic(form, [gen], splitting=full)
        assert canonical_splitting(form, sub, assigned={zero: 1})[zero] == 0

    def test_intertwiner_between_unequal_dimensions_is_zero(self, z4):
        form = IntersectionForm.closed_genus(z4, 1)
        induced = induce_from_isotropic(form, [((2,), (0,))])
        irrep = schroedinger_irrep(z4, 1)
        assert (irrep.dimension, induced.dimension) == (4, 8)
        assert explicit_intertwiner(irrep, induced) == (0, None)

    def test_splitting_refusals(self, z4):
        form = IntersectionForm.closed_genus(z4, 1)
        x = ((1,), (0,))
        with pytest.raises(NotASplitting, match="generators do not span the subgroup"):
            canonical_splitting(form, [form.zero(), x])  # 2x and 3x are missing
        sub = subgroup_closure(form, [x])
        with pytest.raises(NotASplitting, match="is not in the subgroup"):
            canonical_splitting(form, sub, assigned={((0,), (1,)): Fraction(1, 4)})
        # chi(x) = 1/4 forces chi(2x) = 1/2, since c(x, x) = 0 on the a-cycle
        with pytest.raises(NotASplitting, match="contradicts the values already forced"):
            canonical_splitting(form, sub, assigned={x: Fraction(1, 4), ((2,), (0,)): 0})

    def test_splitting_property_holds(self, z4):
        form = IntersectionForm.closed_genus(z4, 1)
        sub = subgroup_closure(form, [((1,), (0,))])
        table = canonical_splitting(form, sub)
        for x in sub:
            for y in sub:
                assert table[form.add(x, y)] == \
                    (table[x] + table[y] + form.cocycle(x, y)) % 1

    @pytest.mark.parametrize("gram, genus", [([[4]], 1), ([[2, 1], [1, 2]], 1),
                                             ([[2, 0], [0, 4]], 1), ([[2]], 2)])
    def test_trace_matches_matrix_trace(self, gram, genus):
        # the table-lookup trace against the trace of the monomial matrix,
        # for every Lagrangian and every element of H1
        disc = disc_of(gram)
        form = IntersectionForm.closed_genus(disc, genus)
        for gens in standard_lagrangians(disc, genus).values():
            rep = induce_from_isotropic(form, gens)
            for x in enumerate_h1(form):
                want = complex(np.trace(rep.matrix(x)))
                assert abs(rep.trace_phase_sums([x])[0].to_complex() - want) < 1e-9, x

    def test_trace_with_assigned_splitting(self, z4):
        form = IntersectionForm.closed_genus(z4, 1)
        rep = induce_from_isotropic(form, [((1,), (0,))],
                                    splitting={((1,), (0,)): Fraction(1, 4)})
        for x in enumerate_h1(form):
            assert abs(rep.trace_phase_sums([x])[0].to_complex()
                       - complex(np.trace(rep.matrix(x)))) < 1e-9

    def test_character_of_induced_is_multiple_of_delta(self, z4):
        # dec-ind at a glance: induced character = sqrt(|Bperp|/|B|) * schroedinger one
        form = IntersectionForm.closed_genus(z4, 1)
        rep = induce_from_isotropic(form, [((2,), (0,))])
        for x in enumerate_h1(form):
            tr = rep.trace_phase_sums([x])[0]
            if x == form.zero():
                assert tr.integer_value() == 8
            else:
                assert tr.is_zero()

    @pytest.mark.parametrize("surface", [Surface.sphere(), Surface.disk()])
    def test_rank_zero_over_object_tables(self, surface):
        # an exponent past DENSE_ENTRY_BUDGET keeps the forms as object arrays;
        # over H1 = 0 the induced representation is the trivial one
        form = IntersectionForm(surface, disc_of([[2 * 10 ** 8]]))
        for gens in ([], [form.zero()]):
            rep = induce_from_isotropic(form, gens)
            assert (rep.dimension, rep.modulus) == (1, 1)
            assert rep.monomial(form.zero()) == ((0,), (Fraction(0),))
            (trace,) = rep.trace_phase_sums([form.zero()])
            assert trace.integer_value() == 1


def test_induced_modulus_is_least_common_denominator():
    # the integer splitting's modulus is lcm(N, denominators of the exact
    # splitting) on every isotropic subgroup criterion 4 induces from
    for gram in SMALL_GRAMS.values():
        form = IntersectionForm.closed_genus(disc_of(gram), 1)
        for sub in isotropic_subgroups(form):
            values = canonical_splitting(form, sub).values()
            want = math.lcm(form.disc.exponent, *(v.denominator for v in values))
            assert induce_from_isotropic(form, sub).modulus == want, (gram, sub)


class TestStoneVonNeumann:
    @pytest.mark.parametrize("gram", [[[2]], [[2, 1], [1, 2]], [[4]],
                                      [[2, 0], [0, 2]]])
    def test_two_lagrangians_equivalent(self, gram):
        disc = disc_of(gram)
        form = IntersectionForm.closed_genus(disc, 1)
        lags = standard_lagrangians(disc, 1)
        reps = {name: induce_from_isotropic(form, gens)
                for name, gens in lags.items()}
        reps["schroedinger"] = schroedinger_irrep(disc, 1)
        names = sorted(reps)
        for name in names:
            assert commutant_dimension(reps[name]) == 1, name
        for n1, n2 in itertools.combinations(names, 2):
            assert intertwiner_dimension(reps[n1], reps[n2]) == 1
            nullity, m = explicit_intertwiner(reps[n1], reps[n2])
            assert nullity == 1
            m = m / np.linalg.norm(m, 2)
            assert np.allclose(m.conj().T @ m, np.eye(reps[n1].dimension), atol=1e-8)
            for g in reps[n1].generator_elements():
                lhs = m @ reps[n1].matrix(g)
                rhs = reps[n2].matrix(g) @ m
                assert np.allclose(lhs, rhs, atol=1e-8)


class TestInducedDecompositionGenusTwo:
    @pytest.mark.parametrize("gram", [[[2]], [[2, 1], [1, 2]]])
    def test_all_isotropic_subgroups_exact_characters(self, gram):
        # every isotropic B of A^4 at genus 2: the induced character is an
        # exact integer multiple of the irreducible delta character
        disc = disc_of(gram)
        form = IntersectionForm.closed_genus(disc, 2)
        order = disc.order
        for sub in isotropic_subgroups(form):
            rep = induce_from_isotropic(form, sub)
            perp = sum(1 for x in enumerate_h1(form)
                       if all(form.pairing(x, b) == 0 for b in sub))
            mult = rep.dimension // (order ** 2)
            assert mult * mult * len(sub) == perp
            assert rep.dimension == len(enumerate_h1(form)) // len(sub)
            for x in enumerate_h1(form):
                tr = rep.trace_phase_sums([x])[0]
                if x == form.zero():
                    assert tr.integer_value() == rep.dimension
                else:
                    assert tr.is_zero()


class TestCosetLabels:
    """Induction labels every element by its coset of B, numbering the
    cosets in the order of their least elements, which it takes as the
    representatives."""

    def check(self, form, generators):
        sub = h1_subgroup(form, generators)
        want_label, want_reps = reference_coset_labels(
            form.disc.invariant_factors, form.rank, sub)
        label, reps = _coset_labels(form.grid, np.sort(form.grid.index(form.rows(sub))))
        assert label.tolist() == want_label and reps == want_reps
        assert induce_from_isotropic(form, generators).dimension == len(want_reps)

    @pytest.mark.parametrize("lagrangian", ["a_span", "b_span", "diagonal"])
    def test_z2z8_genus_two(self, lagrangian):
        # the inductions of acceptance criterion 3 with the most cosets: 256 of 65,536 elements
        disc = disc_of(SWEEP_GRAMS["z2z8"])
        self.check(IntersectionForm.closed_genus(disc, 2),
                   standard_lagrangians(disc, 2)[lagrangian])

    @pytest.mark.parametrize("name", sorted(SMALL_GRAMS))
    def test_every_isotropic_subgroup(self, name):
        # the subgroups of acceptance criterion 4
        form = IntersectionForm.closed_genus(disc_of(SMALL_GRAMS[name]), 1)
        for sub in isotropic_subgroups(form):
            self.check(form, sub)


class TestWorkingSet:
    """A representation's character table is built in passes of at most
    SLAB integer cells, whatever its dimension and row length."""

    @pytest.mark.parametrize("name", ["schroedinger", "a_span", "b_span", "diagonal"])
    def test_z2z8_genus_two_commutant(self, name, traced_peak):
        # dimension 256 and rows of 8 ints: one pass of 256 positions traces 14 MB
        disc = disc_of(SWEEP_GRAMS["z2z8"])
        form = IntersectionForm.closed_genus(disc, 2)
        rep = (schroedinger_irrep(disc, 2) if name == "schroedinger" else
               induce_from_isotropic(form, standard_lagrangians(disc, 2)[name]))
        assert traced_peak(lambda: commutant_dimension(rep)) < 6e6

    @pytest.mark.parametrize("lagrangian", ["a_span", "b_span", "diagonal"])
    def test_z2z8_genus_two_induction(self, lagrangian, traced_peak):
        # the coset walk's two arrays over the 65,536 positions and the
        # section table's blocks of B
        disc = disc_of(SWEEP_GRAMS["z2z8"])
        form = IntersectionForm.closed_genus(disc, 2)
        gens = standard_lagrangians(disc, 2)[lagrangian]
        assert traced_peak(lambda: induce_from_isotropic(form, gens)) < 6e6


class TestWalkLimits:
    """Each walk over all of H1(S; A) is refused past its limit, before
    anything the size of H1 is built."""

    def test_listing_and_induction(self):
        form = IntersectionForm.closed_genus(disc_of([[1002]]), 1)  # 1002^2 > 10^6
        with pytest.raises(GroupTooLarge):
            enumerate_h1(form)
        with pytest.raises(GroupTooLarge):
            induce_from_isotropic(form, [((1,), (0,))])

    def test_subgroups(self):
        form = IntersectionForm.closed_genus(disc_of([[66]]), 1)  # 66^2 > 4096
        with pytest.raises(GroupTooLarge):
            enumerate_subgroups(form)


class TestSubgroupEnumeration:
    def test_z2_squared_subgroup_count(self, z2):
        form = IntersectionForm.closed_genus(z2, 1)
        subs = enumerate_subgroups(form)
        assert len(subs) == 5  # (Z/2)^2: trivial, three Z/2, everything

    def test_isotropic_filter(self, z2):
        form = IntersectionForm.closed_genus(z2, 1)
        subs = isotropic_subgroups(form)
        # the full group is not isotropic; everything else is
        assert len(subs) == 4
        assert all(is_isotropic(form, s) for s in subs)

    @pytest.mark.parametrize("name, genus", [(name, 1) for name in sorted(SMALL_GRAMS)]
                             + [("a1", 2), ("a2", 2), ("z4", 2)])
    def test_isotropic_search_is_the_filtered_list(self, name, genus):
        # extending only inside H^perp reaches every isotropic subgroup and
        # no other, in the same order (z4 at genus 2: 517 of its subgroups)
        form = IntersectionForm.closed_genus(disc_of(SMALL_GRAMS[name]), genus)
        assert isotropic_subgroups(form) == [
            s for s in enumerate_subgroups(form) if is_isotropic(form, s)]


class TestExport:
    def test_basis_over_budget_is_refused(self, z2):
        with pytest.raises(GroupTooLarge, match="basis"):
            schroedinger_irrep(z2, 25)
        with pytest.raises(GroupTooLarge, match="basis"):
            schroedinger_irrep(disc_of(E8_GRAM), 10 ** 8)

    def test_matrices_over_budget_are_refused(self, z2):
        rep = schroedinger_irrep(z2, 10)  # 20 generators of size 1024^2
        with pytest.raises(GroupTooLarge, match="generator matrices"):
            rep.to_json()

    def test_json_shape(self, z2):
        rep = schroedinger_irrep(z2, 1)
        data = rep.to_json()
        assert data["dimension"] == 2
        assert len(data["generators"]) == 2
        g0 = data["generators"][0]
        assert set(g0) == {"element", "matrix_re", "matrix_im"}
        assert len(g0["matrix_re"]) == 2


class TestMonomialReference:
    """rep.monomial(y) against the per-element tuple/Fraction references of
    oracles.py, for every y in H1."""

    def check_induced(self, gram, genus, gens, assigned=None):
        form = IntersectionForm.closed_genus(disc_of(gram), genus)
        sub = h1_subgroup(form, gens)
        mono = induced_monomial(form, sub, canonical_splitting(form, sub, assigned=assigned))
        rep = induce_from_isotropic(form, gens, splitting=assigned)
        for y in enumerate_h1(form):
            assert rep.monomial(y) == mono(y), y
        return rep

    def test_index_two_subgroup(self):
        self.check_induced([[4]], 1, [((2,), (0,))])

    def test_diagonal_two_torsion_has_quarter_phases(self):
        rep = self.check_induced([[2]], 1, [((1,), (1,))])
        assert rep.modulus == 4
        assert Fraction(1, 4) in rep.monomial(((1,), (1,)))[1]

    def test_assigned_splitting(self):
        gen = ((1,), (0,))
        self.check_induced([[4]], 1, [gen], assigned={gen: Fraction(1, 4)})

    @pytest.mark.parametrize("gram, genus", [(A2, 1), (E8_GRAM, 2)])
    def test_standard_lagrangians(self, gram, genus):
        # E8 is unimodular: every slot has zero coordinates
        for gens in standard_lagrangians(disc_of(gram), genus).values():
            self.check_induced(gram, genus, gens)

    def test_every_isotropic_subgroup_z2_genus_two(self):
        form = IntersectionForm.closed_genus(disc_of([[2]]), 2)
        for sub in isotropic_subgroups(form):
            self.check_induced([[2]], 2, sub)

    def test_direct_sum_of_different_moduli(self, z2):
        form = IntersectionForm.closed_genus(z2, 1)
        lags = standard_lagrangians(z2, 1)
        rep1 = induce_from_isotropic(form, lags["a_span"])
        rep2 = induce_from_isotropic(form, lags["diagonal"])
        assert (rep1.modulus, rep2.modulus) == (2, 4)
        total = rep1.direct_sum(rep2)
        for y in enumerate_h1(form):
            (p1, a1), (p2, a2) = rep1.monomial(y), rep2.monomial(y)
            assert total.monomial(y) == (p1 + tuple(p + rep1.dimension for p in p2),
                                         a1 + a2)

    @pytest.mark.parametrize("gram, genus, chi", [
        ([[2]], 1, 1), ([[2]], 2, 1), (A2, 1, 1), (A2, 1, 2), ([[4]], 1, 3),
        ([[2, 0], [0, 4]], 1, 1), ([[4]], 0, 1), (E8_GRAM, 2, 1)])
    def test_schroedinger(self, gram, genus, chi):
        disc = disc_of(gram)
        rep = schroedinger_irrep(disc, genus, chi=chi)
        for y in enumerate_h1(rep.form):
            assert rep.monomial(y) == schroedinger_monomial(disc, genus, y, chi), y


class TestMonomialReferenceSmallSlab(TestMonomialReference):
    """The same references with SLAB at 8: the section table's blocks, the
    coset walk's slices and the trace passes all cross many block edges.
    Each induced representation's traces are read against the fixed points
    of its checked map too."""

    @pytest.fixture(autouse=True)
    def small_slab(self, monkeypatch):
        monkeypatch.setattr(heisenberg, "SLAB", 8)

    def check_induced(self, gram, genus, gens, assigned=None):
        rep = super().check_induced(gram, genus, gens, assigned)
        elements = enumerate_h1(rep.form)
        for y, tr in zip(elements, rep.trace_phase_sums(elements)):
            perm, phases = rep.monomial(y)
            fixed = Counter(int(a * rep.modulus) for t, (p, a) in enumerate(zip(perm, phases))
                            if p == t)
            assert {r: c for r, c in tr.counts.items() if c} == fixed, y
        return rep


class TestGroupMismatch:
    """Characters and intertwiners compare representations of one
    Heisenberg group only."""

    @pytest.mark.parametrize("other", [[[6]], [[4]]])
    def test_schroedinger_of_other_group(self, other):
        rep1 = schroedinger_irrep(disc_of([[2]]), 1)
        rep2 = schroedinger_irrep(disc_of(other), 1)
        with pytest.raises(DimensionMismatch):
            intertwiner_dimension(rep1, rep2)
        with pytest.raises(DimensionMismatch):
            explicit_intertwiner(rep1, rep2)

    def test_same_factors_other_form(self):
        # Z/4 with b = 1/4 against the A3 form b = 3/4
        a3 = disc_of([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        z4 = disc_of([[4]])
        assert a3.invariant_factors == z4.invariant_factors
        with pytest.raises(DimensionMismatch):
            intertwiner_dimension(schroedinger_irrep(z4, 1), schroedinger_irrep(a3, 1))

    def test_same_rank_other_surface(self, z2):
        # rank 2 both, but the thrice-punctured sphere has zero pairing
        torus = IntersectionForm.closed_genus(z2, 1)
        sphere = IntersectionForm(
            Surface.connected(0, [("c0", "out"), ("c1", "in"), ("c2", "in")]), z2)
        rep1 = induce_from_isotropic(torus, [])
        rep2 = induce_from_isotropic(sphere, [])
        with pytest.raises(DimensionMismatch):
            intertwiner_dimension(rep1, rep2)
        with pytest.raises(DimensionMismatch):
            explicit_intertwiner(rep1, rep2)


def assert_reference_intertwiner(rep1, rep2) -> int:
    """The exact solve has the float solve's nullity, and its M intertwines
    every generator; returns the nullity."""
    gens = rep1.generator_elements()
    mats1, mats2 = [rep1.matrix(g) for g in gens], [rep2.matrix(g) for g in gens]
    nullity, m = explicit_intertwiner(rep1, rep2)
    # with no generators (|A| = 1) every M intertwines
    assert nullity == (reference_intertwiner(mats1, mats2)[0] if gens else rep1.dimension ** 2)
    if nullity:
        for a, b in zip(mats1, mats2):
            assert np.max(np.abs(m @ a - b @ m)) <= 1e-12
    return nullity


class TestExplicitIntertwiner:
    """Intertwiners by orbits of phased permutations, against the float
    nullspace solve over the generator matrices."""

    def test_stone_von_neumann_pairs(self):
        # acceptance criterion 3's pairs: every pair of dimension <= 9
        pairs = 0
        for gram in SWEEP_GRAMS.values():
            disc = disc_of(gram)
            for genus in (1, 2):
                if disc.order ** genus > 9:
                    continue
                form = IntersectionForm.closed_genus(disc, genus)
                reps = [schroedinger_irrep(disc, genus)] + [
                    induce_from_isotropic(form, gens)
                    for gens in standard_lagrangians(disc, genus).values()]
                for rep1, rep2 in itertools.combinations(reps, 2):
                    assert assert_reference_intertwiner(rep1, rep2) == 1
                    pairs += 1
        assert pairs == 42

    @pytest.mark.parametrize("gram", [[[4]], [[6]], [[8]], A2, [[2, 0], [0, 4]]])
    def test_central_characters(self, gram):
        disc = disc_of(gram)
        n = disc.exponent
        reps = {c: schroedinger_irrep(disc, 1, chi=c)
                for c in range(1, 2 * n) if math.gcd(c, n) == 1}
        for c1, c2 in itertools.product(reps, repeat=2):
            want = int((c1 - c2) % n == 0)
            assert assert_reference_intertwiner(reps[c1], reps[c2]) == want, (c1, c2)

    def test_dimension_64(self, traced_peak):
        # past `reference_intertwiner`: one of its blocks is 4096^2 complex entries
        disc = disc_of([[8]])
        form = IntersectionForm.closed_genus(disc, 2)
        rep1 = schroedinger_irrep(disc, 2)
        rep2 = induce_from_isotropic(form, standard_lagrangians(disc, 2)["a_span"])
        assert rep1.dimension == rep2.dimension == 64
        found = []
        assert traced_peak(lambda: found.append(explicit_intertwiner(rep1, rep2))) < 16e6
        nullity, m = found[0]
        assert nullity == 1
        for g in rep1.generator_elements():
            assert np.max(np.abs(m @ rep1.matrix(g) - rep2.matrix(g) @ m)) <= 1e-12

    def test_equations_over_budget_are_refused(self, z2):
        # 20 generators at genus 10 need 20 * 1024^2 equations
        rep = schroedinger_irrep(z2, 10)
        with pytest.raises(GroupTooLarge, match="intertwiner"):
            explicit_intertwiner(rep, rep)


class TestExactCharacterPairing:
    """Commutant and Hom dimensions are ints equal to the rounded float
    character sums of oracles.py; different central characters give 0."""

    def check(self, reps, elements=None):
        form = reps[0].form
        if elements is None:  # every trace vanishes off the supports
            positions = sorted(set().union(*(r.support.tolist() for r in reps)))
            elements = h1_elements_at(form.disc, form.rank, positions)
        traces = [float_traces(r, elements) for r in reps]
        order, n = form.disc.order ** form.rank, form.disc.exponent
        for (i, r1), (j, r2) in itertools.combinations_with_replacement(enumerate(reps), 2):
            got = commutant_dimension(r1) if i == j else intertwiner_dimension(r1, r2)
            assert type(got) is int
            if (r1.chi - r2.chi) % n:
                assert got == 0
            else:
                assert got == round(float_character_pairing(traces[i], traces[j], order))

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAMS))
    def test_stone_von_neumann_representations(self, name):
        # the representations of acceptance criterion 3
        disc = disc_of(SWEEP_GRAMS[name])
        for genus in (1, 2):
            if disc.order ** (2 * genus) > 10 ** 5:
                continue
            form = IntersectionForm.closed_genus(disc, genus)
            self.check([schroedinger_irrep(disc, genus)]
                       + [induce_from_isotropic(form, gens)
                          for gens in standard_lagrangians(disc, genus).values()])

    @pytest.mark.parametrize("name", sorted(SMALL_GRAMS))
    def test_every_isotropic_subgroup(self, name):
        # the induced representations of acceptance criterion 4
        disc = disc_of(SMALL_GRAMS[name])
        if disc.order > 8:
            return
        form = IntersectionForm.closed_genus(disc, 1)
        irrep = schroedinger_irrep(disc, 1)
        for sub in isotropic_subgroups(form):
            self.check([irrep, induce_from_isotropic(form, sub)])

    def test_above_dimension_32(self):
        rep = schroedinger_irrep(disc_of([[6]]), 2)
        self.check([rep, rep.direct_sum(rep)])

    def test_surface_with_boundary(self):
        # the boundary class r is central, so traces at r need not vanish
        form = IntersectionForm(
            Surface.connected(1, [("c0", "out"), ("c1", "in")]), disc_of([[4]]))
        a, r = ((1,), (0,), (0,)), ((0,), (0,), (1,))
        reps = [induce_from_isotropic(form, gens) for gens in ([], [a], [r], [a, r])]
        self.check(reps + [reps[1].direct_sum(reps[2])], enumerate_h1(form))

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_small_groups(self, data):
        gram = data.draw(st.sampled_from([
            [[2]], [[4]], [[6]], [[8]], [[10]], [[12]], A2, [[2, 0], [0, 2]],
            [[2, 0], [0, 4]], [[4, 0], [0, 4]], [[4, 2], [2, 4]]]))
        disc = disc_of(gram)
        genus = data.draw(st.integers(0, 2))
        if disc.order ** (2 * genus) > 256:
            genus = 0 if disc.order > 16 else 1
        form = IntersectionForm.closed_genus(disc, genus)
        n = disc.exponent
        chi = data.draw(st.sampled_from([c for c in range(1, 2 * n + 1) if math.gcd(c, n) == 1]))
        x = tuple(tuple(data.draw(st.integers(0, d - 1)) for d in disc.invariant_factors)
                  for _ in range(form.rank))
        irrep = schroedinger_irrep(disc, genus)
        induced = induce_from_isotropic(form, [x])  # a cyclic subgroup is isotropic
        reps = [irrep, schroedinger_irrep(disc, genus, chi=chi), induced,
                irrep.direct_sum(induced)]
        self.check(reps, enumerate_h1(form))

    @pytest.mark.parametrize("gram", [[[4]], [[6]], [[8]], A2, [[2, 0], [0, 4]]])
    def test_central_characters(self, gram):
        # Hom is one-dimensional exactly when chi1 = chi2 mod N
        disc = disc_of(gram)
        n = disc.exponent
        reps = {c: schroedinger_irrep(disc, 1, chi=c)
                for c in range(1, 2 * n) if math.gcd(c, n) == 1}
        for c1, c2 in itertools.product(reps, repeat=2):
            want = int((c1 - c2) % n == 0)
            assert intertwiner_dimension(reps[c1], reps[c2]) == want, (c1, c2)
            assert explicit_intertwiner(reps[c1], reps[c2])[0] == want, (c1, c2)


def exact_row(rep, perm, alpha):
    """One row of a stacked monomial map as `monomial` reads it."""
    return tuple(perm.tolist()), tuple(Fraction(a, rep.modulus) for a in alpha.tolist())


class TestStackedMaps:
    """A monomial map on a stack of rows is the map row by row, and the
    traces read from the character table are the per-element traces."""

    def check(self, rep, reference=None):
        elements = enumerate_h1(rep.form)
        stack = np.array(elements, dtype=np.int64).reshape(len(elements), -1)
        perms, alphas = rep._monomial(stack)
        assert perms.shape == alphas.shape == (len(elements), rep.dimension)
        for i, y in enumerate(elements):
            row = exact_row(rep, perms[i], alphas[i])
            assert row == exact_row(rep, *rep._monomial(stack[i])) == rep.monomial(y), y
            if reference is not None:
                assert row == reference(y), y
        sums = rep.trace_phase_sums(elements)
        for x, got, trace in zip(elements, sums, float_traces(rep, elements)):
            one = rep.trace_phase_sums([x])[0]
            assert (got.counts, got.level) == (one.counts, one.level), x
            assert abs(got.to_complex() - trace) < 1e-9, x

    @pytest.mark.parametrize("gram, genus, chi", [  # chi = 2 where A has odd order
        (gram, genus, chi) for gram in ([[2]], A2, [[4]]) for genus in (1, 2)
        for chi in (1, 2) if chi == 1 or gram == A2])
    def test_schroedinger(self, gram, genus, chi):
        disc = disc_of(gram)
        self.check(schroedinger_irrep(disc, genus, chi=chi),
                   lambda y: schroedinger_monomial(disc, genus, y, chi))

    def test_every_isotropic_subgroup_z2_genus_two(self):
        form = IntersectionForm.closed_genus(disc_of([[2]]), 2)
        for sub in isotropic_subgroups(form):
            table = canonical_splitting(form, sub)
            self.check(induce_from_isotropic(form, sub), induced_monomial(form, sub, table))

    def test_direct_sum(self, z2):
        form = IntersectionForm.closed_genus(z2, 1)
        lags = standard_lagrangians(z2, 1)
        self.check(induce_from_isotropic(form, lags["a_span"]).direct_sum(
            induce_from_isotropic(form, lags["diagonal"])))

    @pytest.mark.parametrize("gram, genus", [([[2]], 2), ([[2, 0], [0, 2]], 1)])
    def test_subgroups_unchanged(self, gram, genus):
        form = IntersectionForm.closed_genus(disc_of(gram), genus)
        assert enumerate_subgroups(form) == reference_subgroups(form)


class TestMonomialWork:
    """Traces of many elements take one stacked pass of the monomial map,
    and pairings read the built character tables without calling it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Monomial-map calls of each representation built, in build order."""
        calls = []
        init = UnitaryRep.__init__

        def counting_init(rep, form, dimension, monomial_fn, *args, **kwargs):
            slot = len(calls)
            calls.append(0)

            def counted(y):
                calls[slot] += 1
                return monomial_fn(y)
            init(rep, form, dimension, counted, *args, **kwargs)

        monkeypatch.setattr(UnitaryRep, "__init__", counting_init)
        return calls

    def test_induced_decomposition_one_call_per_representation(self, calls):
        # 3,613 calls, one per trace, when each trace evaluated the map
        assert criterion_04_induced_decomposition(Tolerances(), DEFAULT_SEED).passed
        assert len(calls) == 128
        assert max(calls) == 1

    def test_pairing_reads_built_tables(self, calls, z3):
        form = IntersectionForm.closed_genus(z3, 2)
        reps = [schroedinger_irrep(z3, 2)] + [
            induce_from_isotropic(form, gens) for gens in standard_lagrangians(z3, 2).values()]
        for rep in reps:
            assert commutant_dimension(rep) == 1
        before = sum(calls)
        for rep1, rep2 in itertools.combinations(reps, 2):
            assert intertwiner_dimension(rep1, rep2) == 1
        assert sum(calls) == before

    def test_table_keeps_distinct_histograms(self):
        # Z/1024 at genus 1: 1024 support elements, M = 1024; x_a of order d
        # fixes every point with phases uniform over the d-th roots, so one
        # histogram per divisor of 1024
        rep = schroedinger_irrep(disc_of([[1024]]), 1)
        assert commutant_dimension(rep) == 1
        hists, ids = rep._table
        assert hists.shape == (11, 1024) and len(ids) == 1024
        assert len({h.tobytes() for h in hists}) == 11

    def test_traces_run_the_map_off_the_support(self, z3):
        # a support that leaves out the identity does not zero its trace
        rep = schroedinger_irrep(z3, 1)
        narrowed = UnitaryRep(rep.form, rep.dimension, rep._monomial, rep.modulus,
                              rep.support[1:])
        assert narrowed.trace_phase_sums([rep.form.zero()])[0].integer_value() == 3
        elements = enumerate_h1(rep.form)
        for got, want in zip(narrowed.trace_phase_sums(elements), float_traces(rep, elements)):
            assert abs(got.to_complex() - want) < 1e-9
