import math
import random
from fractions import Fraction

import numpy as np
import pytest

from latticecft import fock
from latticecft.errors import NonIntegralEnergy, NotContractive
from latticecft.fock import (
    FockState,
    ModeTruncation,
    SectorCharacter,
    TrigLoop,
    annulus_sewing_check,
    bogoliubov_overlap,
    enumerate_sector_states,
    gaussian_overlap_quadrature,
    loop_cocycle,
    minimal_norm_lift,
    mode_operators,
    occupation_energy,
    oscillator_basis,
    partition_counts,
    positive_energy_check,
    sector_character,
    sector_state_counts,
)
from latticecft.lattices import discriminant_group, validate_even_lattice

from oracles import (
    brute_force_sector_counts,
    colored_partition_states,
    coset_numerators,
    quadrature_loop_pairing,
    reference_gram_quadratic,
    reference_lattice_offsets,
    reference_minimal_norm_lift,
    reference_overlap_quadrature,
    reference_sector_states,
    reference_sewing_rhs,
    reference_state_energy,
    theta_a2,
    theta_d4,
)


def lattice_pair(gram):
    lat = validate_even_lattice(gram)
    return lat, discriminant_group(lat)


def with_oscillators(offsets, rank):
    """A coset's vector counts by energy offset times the rank-colored
    oscillator states: the sector character they give."""
    osc = colored_partition_states(len(offsets) - 1, rank)
    return [sum(offsets[k] * osc[e - k] for k in range(e + 1))
            for e in range(len(offsets))]


class TestLoopCocycle:
    def test_self_pairing_vanishes(self):
        xi = TrigLoop.from_cos_sin(cos={1: [1.0], 3: [0.5]}, sin={2: [2.0]})
        assert abs(loop_cocycle(xi, xi)) < 1e-12

    def test_constant_loop(self):
        const = TrigLoop.from_cos_sin(const=[3.0])
        eta = TrigLoop.from_cos_sin(cos={1: [1.0]}, sin={2: [0.3]})
        assert abs(loop_cocycle(const, eta)) < 1e-12

    def test_cos_sin_gives_pi(self):
        xi = TrigLoop.from_cos_sin(cos={1: [1.0]})
        eta = TrigLoop.from_cos_sin(sin={1: [1.0]})
        assert abs(loop_cocycle(xi, eta) - math.pi) < 1e-12

    def test_against_quadrature(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            xi = TrigLoop.from_cos_sin(
                const=rng.standard_normal(2),
                cos={k: rng.standard_normal(2) for k in (1, 2)},
                sin={k: rng.standard_normal(2) for k in (1, 3)})
            eta = TrigLoop.from_cos_sin(
                const=rng.standard_normal(2),
                cos={k: rng.standard_normal(2) for k in (1, 3)},
                sin={k: rng.standard_normal(2) for k in (2,)})
            deta = eta.derivative()
            want = quadrature_loop_pairing(lambda t: xi(t).real,
                                           lambda t: deta(t).real)
            assert abs(loop_cocycle(xi, eta) - want) < 1e-9

    def test_antisymmetry(self):
        rng = np.random.default_rng(4)
        xi = TrigLoop.from_cos_sin(cos={1: rng.standard_normal(1)},
                                   sin={2: rng.standard_normal(1)})
        eta = TrigLoop.from_cos_sin(cos={2: rng.standard_normal(1)},
                                    sin={1: rng.standard_normal(1)})
        assert abs(loop_cocycle(xi, eta) + loop_cocycle(eta, xi)) < 1e-12


class TestModeOperators:
    def test_annihilate_vacuum(self):
        tr = ModeTruncation(rank=1, max_mode=4, max_energy=4)
        ops = mode_operators(tr)
        basis = oscillator_basis(tr)
        vac = basis.index(())
        for (n, c), (a, _) in ops.items():
            assert np.all(a[:, vac] == 0)

    def test_commutators_on_interior(self):
        tr = ModeTruncation(rank=2, max_mode=5, max_energy=5)
        ops = mode_operators(tr)
        basis = oscillator_basis(tr)
        for (n, c), (a, adag) in ops.items():
            comm = a @ adag - adag @ a
            for i, occ in enumerate(basis):
                if occupation_energy(occ) + n <= tr.max_energy:
                    col = comm[:, i]
                    want = np.zeros_like(col)
                    want[i] = n
                    assert np.allclose(col, want), (n, c, occ)

    def test_double_raise_energy(self):
        tr = ModeTruncation(rank=1, max_mode=3, max_energy=4)
        ops = mode_operators(tr)
        basis = oscillator_basis(tr)
        vac = basis.index(())
        _, adag = ops[(1, 0)]
        state = adag @ adag @ np.eye(len(basis))[:, vac]
        (idx,) = np.nonzero(state)
        assert occupation_energy(basis[idx[0]]) == 2

    def test_cross_color_commute(self):
        tr = ModeTruncation(rank=2, max_mode=3, max_energy=3)
        ops = mode_operators(tr)
        a1, _ = ops[(1, 0)]
        _, adag2 = ops[(1, 1)]
        comm = a1 @ adag2 - adag2 @ a1
        basis = oscillator_basis(tr)
        for i, occ in enumerate(basis):
            if occupation_energy(occ) + 1 <= tr.max_energy:
                assert np.allclose(comm[:, i], 0)

    def test_interior_coverage_grows_with_truncation(self):
        # the share of states excluded from the commutator check shrinks as
        # the energy cutoff grows, for each fixed mode
        for n in (1, 2):
            fractions = []
            for e_max in (4, 6, 8, 10):
                tr = ModeTruncation(rank=1, max_mode=3, max_energy=e_max)
                basis = oscillator_basis(tr)
                interior = sum(1 for occ in basis
                               if occupation_energy(occ) + n <= e_max)
                fractions.append(interior / len(basis))
            assert all(a <= b for a, b in zip(fractions, fractions[1:])), n
            assert fractions[-1] > fractions[0]


class TestSectorCharacter:
    def test_a1_vacuum_first_coefficients(self):
        lat, disc = lattice_pair([[2]])
        ch = sector_character(lat, disc, disc.zero, 3)
        assert ch.ground_energy == 0
        assert ch.coefficients == (1, 3, 4, 7)

    def test_vacuum_unique_at_zero(self):
        for gram in ([[2]], [[2, 1], [1, 2]], [[4]]):
            lat, disc = lattice_pair(gram)
            ch = sector_character(lat, disc, disc.zero, 0)
            assert ch.coefficients == (1,)

    def test_a1_twisted_sector(self):
        lat, disc = lattice_pair([[2]])
        phi = disc.element((1,))
        ch = sector_character(lat, disc, phi, 2)
        assert ch.ground_energy == Fraction(1, 4)
        oracle = brute_force_sector_counts(lat.gram, ch.lift, 2, lat.rank)
        assert list(ch.coefficients) == oracle == [2, 2, 6]

    @pytest.mark.parametrize("gram", [[[2]], [[4]], [[6]], [[2, 1], [1, 2]],
                                      [[2, 0], [0, 2]], [[2, 0], [0, 4]],
                                      [[8]]])
    def test_generating_function_equals_enumeration(self, gram):
        lat, disc = lattice_pair(gram)
        for phi in disc.elements():
            ch = sector_character(lat, disc, phi, 10)
            oracle = brute_force_sector_counts(lat.gram, ch.lift, 10, lat.rank)
            assert list(ch.coefficients) == oracle, (gram, phi)

    def test_minimal_norm_lift_deterministic(self):
        lat, disc = lattice_pair([[2]])
        lift = minimal_norm_lift(lat, disc, disc.element((1,)))
        # the two minimal vectors are +-1/2; the tie breaks lexicographically
        assert lift == (Fraction(-1, 2),)

    def test_state_enumeration_counts(self):
        lat, disc = lattice_pair([[2]])
        states = enumerate_sector_states(lat, disc, disc.zero, 3)
        by_offset = [0, 0, 0, 0]
        for st in states:
            e = st.energy(lat)
            assert e.denominator == 1, st
            by_offset[e.numerator] += 1
        assert by_offset == [1, 3, 4, 7]


    def test_negative_max_energy_names_the_argument(self):
        lat, disc = lattice_pair([[2]])
        with pytest.raises(ValueError, match="max_energy"):
            sector_character(lat, disc, disc.zero, -1)

    def test_refuses_a_non_minimal_lift(self, monkeypatch):
        # 1 is in the vacuum coset but above its minimum: the vector 0 sits
        # one unit below the ground, a negative offset
        lat, disc = lattice_pair([[2]])
        monkeypatch.setattr(fock, "minimal_norm_lift", lambda *_: (Fraction(1),))
        with pytest.raises(NonIntegralEnergy, match="not in 0..2"):
            sector_character(lat, disc, disc.zero, 2)

    @pytest.mark.parametrize("gram,theta,max_energy", [
        ([[2, 1], [1, 2]], theta_a2, 10),
        ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], theta_d4, 6),
    ], ids=["a2", "d4"])
    def test_vacuum_equals_closed_form_theta_series(self, gram, theta, max_energy):
        lat, disc = lattice_pair(gram)
        ch = sector_character(lat, disc, disc.zero, max_energy)
        assert list(ch.coefficients) == with_oscillators(theta(max_energy), lat.rank)

    def test_skewed_basis_counts_every_vector(self):
        # the same lattice as [[6, 0], [0, 4]] in a skewed basis, whose sector
        # character is [4, 8, 20, 40, 84]
        lat, disc = lattice_pair([[6, -24], [-24, 100]])
        ch = sector_character(lat, disc, disc.element((1, 0)), 4)
        assert list(ch.coefficients) == [4, 8, 20, 40, 84]


# rank-2 forms, each taken in skewed unimodular bases P as P^T G P: a box
# sized by the smallest eigenvalue but centred on the lift misses vectors
# of these, and its lifts can sit above their coset's minimum
SKEWED_FORMS = {"a2": [[2, 1], [1, 2]], "z2z2": [[2, 0], [0, 2]], "z2z4": [[2, 0], [0, 4]],
                "z6z4": [[6, 0], [0, 4]], "2a2": [[4, 2], [2, 4]], "det7": [[2, 1], [1, 4]]}
SKEWED_BASES = ([[1, -4], [0, 1]], [[1, 7], [0, 1]], [[1, 0], [5, 1]])


def _in_basis(gram, p):
    return [[sum(p[k][i] * gram[k][m] * p[m][j] for k in range(2) for m in range(2))
             for j in range(2)] for i in range(2)]


class TestSkewedBases:
    @pytest.mark.parametrize("name", SKEWED_FORMS)
    def test_every_sector_against_the_per_axis_box(self, name):
        # E = 4 for every sector of every basis: the character, the lift
        # (norm first, then the lexicographic tie-break) and the state counts
        # against the per-axis exact box of the oracles; no refusal
        faults = {"character": [], "lift": [], "counts": [], "NonIntegralEnergy": []}
        for p in SKEWED_BASES:
            lat, disc = lattice_pair(_in_basis(SKEWED_FORMS[name], p))
            for phi in disc.elements():
                sector = (lat.gram, phi.coords)
                lift = reference_minimal_norm_lift(lat, disc, phi)
                try:
                    ch = sector_character(lat, disc, phi, 4)
                    counts = sector_state_counts(lat, disc, phi, 4)
                except NonIntegralEnergy:
                    faults["NonIntegralEnergy"].append(sector)
                    continue
                if ch.lift != lift:
                    faults["lift"].append(sector)
                ground = reference_gram_quadratic(lat.gram, lift) / 2
                if ch.ground_energy != ground or list(ch.coefficients) != \
                        with_oscillators(reference_lattice_offsets(lat, lift, 4), lat.rank):
                    faults["character"].append(sector)
                if counts != brute_force_sector_counts(lat.gram, lift, 4, lat.rank):
                    faults["counts"].append(sector)
        assert faults == {kind: [] for kind in faults}


# every sector of these lattices, at the largest energy its rank allows
# in a test: mixed lift denominators (z2z4, z2z8), rank 3 and rank 4
REFERENCE_LATTICES = {
    "a1": ([[2]], 10),
    "z4": ([[4]], 10),
    "z6": ([[6]], 10),
    "z8": ([[8]], 10),
    "a2": ([[2, 1], [1, 2]], 10),
    "z2z2": ([[2, 0], [0, 2]], 10),
    "z2z4": ([[2, 0], [0, 4]], 10),
    "z2z8": ([[2, 0], [0, 8]], 10),
    "a3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 3),
    "d4": ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], 1),
}


def _reference_sewing_lhs(lat, disc, max_energy):
    lhs = {}
    for phi in disc.elements():
        lift = reference_minimal_norm_lift(lat, disc, phi)
        g0 = reference_gram_quadratic(lat.gram, lift) / 2
        coeffs = with_oscillators(reference_lattice_offsets(lat, lift, max_energy),
                                  lat.rank)
        for m, cm in enumerate(coeffs):
            for n, cn in enumerate(coeffs):
                if cm and cn and g0 + m + g0 + n <= max_energy:
                    lhs[g0 + m, g0 + n] = lhs.get((g0 + m, g0 + n), 0) + cm * cn
    return tuple(sorted(((str(a), str(b)), v) for (a, b), v in lhs.items()))


def _signed_permuted(gram, rng):
    """The same lattice in a signed-permuted basis: P^T G P."""
    r = len(gram)
    perm = rng.sample(range(r), r)
    sign = [rng.choice((1, -1)) for _ in range(r)]
    return [[sign[i] * sign[j] * gram[perm[i]][perm[j]] for j in range(r)]
            for i in range(r)]


class TestLiftSearch:
    @pytest.mark.parametrize("name", ["a2", "a3", "d4", "z2z8"])
    def test_signed_permuted_bases_against_the_reference(self, name):
        # every sector in eight seeded signed-permuted bases; each basis has
        # sectors whose minimal vectors tie, so the tie-break decides the lift
        rng = random.Random(name)
        for _ in range(8):
            lat, disc = lattice_pair(_signed_permuted(REFERENCE_LATTICES[name][0], rng))
            tied = 0
            for phi in disc.elements():
                lift = reference_minimal_norm_lift(lat, disc, phi)
                assert minimal_norm_lift(lat, disc, phi) == lift, (lat.gram, phi)
                ground = reference_gram_quadratic(lat.gram, lift) / 2
                tied += len(coset_numerators(lat.gram, lift, ground)[1]) > 1
            assert tied, lat.gram

    def test_no_fraction_sum_per_box_point(self, monkeypatch):
        # d4's nonzero sectors: candidates are ranked on integer keys, and only
        # the winner adds `Fraction`s, one per coordinate.  The sums inside
        # disc.lift are the group's, so its lifts are taken beforehand
        lat, disc = lattice_pair(REFERENCE_LATTICES["d4"][0])
        sectors = [phi for phi in disc.elements() if any(phi.coords)]
        monkeypatch.setattr(disc, "lift", {phi: disc.lift(phi) for phi in sectors}.__getitem__)
        adds = []
        for op in ("__add__", "__radd__"):
            monkeypatch.setattr(Fraction, op, lambda a, b, real=getattr(Fraction, op):
                                adds.append(1) or real(a, b))
        for phi in sectors:
            adds.clear()
            minimal_norm_lift(lat, disc, phi)
            assert len(adds) <= lat.rank, (phi, len(adds))


class TestAgainstFractionReference:
    """Lifts, characters, states and energies against the oracles' per-axis
    exact box and `Fraction` products, on every sector."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_LATTICES))
    def test_lifts_and_characters(self, name):
        gram, energy = REFERENCE_LATTICES[name]
        lat, disc = lattice_pair(gram)
        for phi in disc.elements():
            lift = minimal_norm_lift(lat, disc, phi)
            assert lift == reference_minimal_norm_lift(lat, disc, phi), phi
            assert all(type(x) is Fraction for x in lift)
            ch = sector_character(lat, disc, phi, energy)
            assert ch.ground_energy == reference_gram_quadratic(lat.gram, lift) / 2
            assert list(ch.coefficients) == with_oscillators(
                reference_lattice_offsets(lat, lift, energy), lat.rank), phi

    @pytest.mark.parametrize("name", sorted(REFERENCE_LATTICES))
    def test_state_lists_and_energies(self, name):
        gram, energy = REFERENCE_LATTICES[name]
        energy = min(energy, 6)
        lat, disc = lattice_pair(gram)
        for phi in disc.elements():
            states = enumerate_sector_states(lat, disc, phi, energy)
            want = reference_sector_states(lat, disc, phi, energy)
            assert [(st.sector_vector, st.occupation) for st in states] == want
            for st in states:
                e = st.energy(lat)
                assert type(e) is Fraction
                assert e == reference_state_energy(lat.gram, st.sector_vector,
                                                   st.occupation)

    # criterion 8's cases, then the `characters` benchmark's z2z8 and a3
    @pytest.mark.parametrize("name,depth", [("a1", 12), ("z4", 12), ("a2", 8),
                                            ("z2z2", 8), ("z2z8", 2), ("a3", 1)])
    def test_sewing_tables(self, name, depth):
        lat, disc = lattice_pair(REFERENCE_LATTICES[name][0])
        rep = annulus_sewing_check(lat, disc, depth)
        assert rep.rhs_table == reference_sewing_rhs(lat, depth)
        assert rep.lhs_table == _reference_sewing_lhs(lat, disc, depth)
        assert rep.equal

    def test_hand_built_states(self):
        lat, _ = lattice_pair([[2, 1], [1, 2]])
        occ = (((1, 0), 2), ((3, 1), 1))
        for vec in [(0, 0), (1, -2), (Fraction(1, 3), 2), (Fraction(-2, 3), Fraction(1, 3)),
                    (Fraction(1, 2), Fraction(5, 4)), (Fraction(7), -1)]:
            for o in ((), occ):
                e = FockState(sector_vector=vec, occupation=o).energy(lat)
                assert type(e) is Fraction
                assert e == reference_state_energy(lat.gram, vec, o), (vec, o)

    def test_non_integral_offset_is_refused_alike(self, monkeypatch):
        # 1/3 is not a coset of the lattice in its dual; 1 is in the vacuum
        # coset but above its minimum, so the vector 0 sits one unit below
        lat, disc = lattice_pair([[2]])
        for lift in [(Fraction(1, 3),), (Fraction(1),)]:
            with pytest.raises(NonIntegralEnergy):
                reference_lattice_offsets(lat, lift, 2)
            monkeypatch.setattr(fock, "minimal_norm_lift", lambda *_: lift)
            with pytest.raises(NonIntegralEnergy, match="not in 0..2"):
                sector_character(lat, disc, disc.zero, 2)


# the lattices criterion 8 counts states on, at its depth
CRITERION_8_LATTICES = ("a1", "z4", "z6", "z8", "a2", "z2z2", "z2z4")


class TestSectorStateCounts:
    @pytest.mark.parametrize("name", sorted(REFERENCE_LATTICES))
    def test_equal_to_binned_state_energies(self, name):
        gram, energy = REFERENCE_LATTICES[name]
        energy = min(energy, 6)
        lat, disc = lattice_pair(gram)
        for phi in disc.elements():
            ground = sector_character(lat, disc, phi, 0).ground_energy
            binned = [0] * (energy + 1)
            for st in enumerate_sector_states(lat, disc, phi, energy):
                off = st.energy(lat) - ground
                assert off.denominator == 1, (phi, st)
                binned[off.numerator] += 1
            assert sector_state_counts(lat, disc, phi, energy) == binned, phi

    @pytest.mark.parametrize("name", CRITERION_8_LATTICES)
    def test_equal_to_brute_force_at_depth_ten(self, name):
        lat, disc = lattice_pair(REFERENCE_LATTICES[name][0])
        for phi in disc.elements():
            lift = minimal_norm_lift(lat, disc, phi)
            assert sector_state_counts(lat, disc, phi, 10) == \
                brute_force_sector_counts(lat.gram, lift, 10, lat.rank), phi

    @pytest.mark.parametrize("lift", [(Fraction(1, 3),), (Fraction(1),)])
    def test_refuses_a_non_coset_or_non_minimal_lift(self, monkeypatch, lift):
        # 1/3 is not in the dual of [[2]]; 1 is in the vacuum coset but
        # above its minimum, so the vector 0 sits one unit below the ground
        lat, disc = lattice_pair([[2]])
        monkeypatch.setattr(fock, "minimal_norm_lift", lambda *_: lift)
        with pytest.raises(NonIntegralEnergy, match="not in 0..2"):
            sector_state_counts(lat, disc, disc.zero, 2)


class TestOscillatorWork:
    def test_energies_once_per_truncation(self, monkeypatch):
        # criterion 8's sectors at its depth: occupation_energy runs only to
        # build each truncation's energies, once per basis state, then never
        pairs = [lattice_pair(REFERENCE_LATTICES[name][0]) for name in CRITERION_8_LATTICES]
        sectors = [(lat, disc, phi) for lat, disc in pairs for phi in disc.elements()]
        assert len(sectors) == 35
        bases = {oscillator_basis(ModeTruncation(lat.rank, 10, 10)) for lat, _ in pairs}
        calls = []
        monkeypatch.setattr(fock, "occupation_energy",
                            lambda occ: calls.append(occ) or occupation_energy(occ))
        fock._basis_energies.cache_clear()
        counts = [sector_state_counts(*sector, 10) for sector in sectors]
        assert len(calls) <= sum(map(len, bases))
        calls.clear()
        assert [sector_state_counts(*sector, 10) for sector in sectors] == counts
        assert calls == []

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_enumerated_partition_counts_equal_recurrence(self, rank):
        for energy in range(13):
            assert fock._enumerated_partition_counts(energy, rank) == \
                partition_counts(energy, rank), energy


class TestAnnulusSewing:
    def test_negative_max_energy_names_the_argument(self):
        lat, disc = lattice_pair([[2]])
        with pytest.raises(ValueError, match="max_energy"):
            annulus_sewing_check(lat, disc, -1)

    def test_order_zero(self):
        lat, disc = lattice_pair([[2]])
        rep = annulus_sewing_check(lat, disc, 0)
        assert rep.equal
        assert rep.lhs_table == ((("0", "0"), 1),)

    def test_a1_depth_four(self):
        lat, disc = lattice_pair([[2]])
        rep = annulus_sewing_check(lat, disc, 4)
        assert rep.equal

    def test_rank_two_depth_three(self):
        lat, disc = lattice_pair([[2, 0], [0, 2]])
        rep = annulus_sewing_check(lat, disc, 3)
        assert rep.equal

    def test_a2_depth_three(self):
        lat, disc = lattice_pair([[2, 1], [1, 2]])
        rep = annulus_sewing_check(lat, disc, 3)
        assert rep.equal


class TestBogoliubov:
    def test_zero_gives_one(self):
        assert bogoliubov_overlap([[0.0]]) == 1.0

    def test_half(self):
        got = bogoliubov_overlap([[0.5]])
        assert abs(got - 0.75 ** 0.25) < 1e-12

    def test_not_contractive(self):
        with pytest.raises(NotContractive):
            bogoliubov_overlap([[1.0]])

    def test_monotone_to_zero(self):
        vals = [bogoliubov_overlap([[t]]) for t in (0.0, 0.3, 0.6, 0.9, 0.99)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.4

    def test_quadrature_dim1(self):
        for t in (0.0, 0.25, 0.5 + 0.3j, -0.7, 0.2 - 0.6j):
            got = gaussian_overlap_quadrature([[t]])
            want = bogoliubov_overlap([[t]])
            assert abs(got - want) < 1e-8, t

    def test_quadrature_dim2(self):
        mats = [
            [[0.3, 0.1], [0.1, -0.2]],
            [[0.2 + 0.1j, 0.05j], [0.05j, 0.4 - 0.2j]],
            [[0.0, 0.45], [0.45, 0.0]],
        ]
        for t in mats:
            got = gaussian_overlap_quadrature(t, points_per_dim=801)
            want = bogoliubov_overlap(t)
            assert abs(got - want) < 1e-8, t

    @pytest.mark.parametrize("t, points", [
        ([[0.0]], 1601), ([[0.25]], 1601), ([[-0.6]], 1601), ([[0.5 + 0.3j]], 1601),
        ([[0.2 - 0.55j]], 1601), ([[0.3, 0.1], [0.1, -0.2]], 801),
        ([[0.2 + 0.1j, 0.05j], [0.05j, 0.4 - 0.2j]], 801),
        ([[0.0, 0.45], [0.45, 0.0]], 801)])
    def test_quadrature_bit_identical_to_meshgrid(self, t, points):
        # the cases of acceptance criterion 9: the broadcast grid and the
        # real vacuum change no bit of the value
        assert gaussian_overlap_quadrature(t, points_per_dim=points) == \
            reference_overlap_quadrature(t, points_per_dim=points)

    def test_quadrature_in_row_blocks(self, traced_peak):
        # one 801 x 801 complex grid alone is 10.3 MB; the blocks hold SLAB points
        t = [[0.2 + 0.1j, 0.05j], [0.05j, 0.4 - 0.2j]]
        assert traced_peak(lambda: gaussian_overlap_quadrature(t, points_per_dim=801)) < 8e6

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            raw = 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
            t = (raw + raw.T) / 2
            if np.linalg.norm(t, 2) >= 1:
                continue
            assert abs(bogoliubov_overlap(t) - bogoliubov_overlap(t.conj())) < 1e-12


class TestPositiveEnergy:
    def test_vacuum_sector(self):
        lat, disc = lattice_pair([[2]])
        states = enumerate_sector_states(lat, disc, disc.zero, 4)
        rep = positive_energy_check(st.energy(lat) for st in states)
        assert rep.ok and rep.ground_energy == 0

    def test_twisted_sector_ground(self):
        lat, disc = lattice_pair([[2]])
        states = enumerate_sector_states(lat, disc, disc.element((1,)), 4)
        rep = positive_energy_check(st.energy(lat) for st in states)
        assert rep.ok and rep.ground_energy == Fraction(1, 4)

    def test_negated_grading_fails(self):
        rep = positive_energy_check([Fraction(0), Fraction(-1), Fraction(-2)])
        assert not rep.ok
