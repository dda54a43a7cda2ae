import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from latticecft import blocks
from latticecft.acceptance import DEFAULT_SEED, Tolerances, criterion_06_verlinde
from latticecft.blocks import (
    block_dimension,
    fusion_rules,
    genus1_mcg_rep,
    s_matrix,
    t_diagonal,
    verify_factorization,
    verify_tensor_duality,
    verlinde_check,
)
from latticecft.errors import GroupTooLarge, InvalidSplit, MissingLabel
from latticecft.heisenberg import schroedinger_irrep
from latticecft.lattices import (
    E8_GRAM,
    discriminant_group,
    validate_even_lattice,
)
from latticecft.surfaces import (
    IN,
    OUT,
    BlockLabel,
    BoundaryCircle,
    Component,
    Surface,
    glue,
)
from oracles import (
    entrywise_charge_conjugation,
    entrywise_s_matrix,
    entrywise_t_matrix,
    pants_fusion_tensor,
    reference_factorization,
)


def disc_of(gram):
    return discriminant_group(validate_even_lattice(gram))


@pytest.fixture(scope="module")
def z2():
    return disc_of([[2]])


@pytest.fixture(scope="module")
def z3():
    return disc_of([[2, 1], [1, 2]])


def no_labels():
    return BlockLabel(())


class TestBlockDimension:
    def test_sphere_normalization(self, z3):
        assert block_dimension(Surface.sphere(), no_labels(), z3) == 1

    def test_closed_torus(self, z2):
        assert block_dimension(Surface.closed(1), no_labels(), z2) == 2

    def test_obstructed_label_kills_space(self, z3):
        s = Surface.connected(1, [("c", OUT)])
        labels = BlockLabel.from_dict({"c": z3.element((1,))})
        assert block_dimension(s, labels, z3) == 0

    def test_closed_matches_schroedinger_dimension(self, z2, z3):
        for disc in (z2, z3):
            for g in range(0, 3):
                dim = block_dimension(Surface.closed(g), no_labels(), disc)
                assert dim == schroedinger_irrep(disc, g).dimension

    def test_missing_label(self, z2):
        with pytest.raises(MissingLabel):
            block_dimension(Surface.disk(), no_labels(), z2)


class TestTensorDuality:
    def test_two_spheres(self, z3):
        rep = verify_tensor_duality(Surface.sphere(),
                                    Surface.closed(0).reversed(), no_labels(), z3)
        assert rep["ok"] and rep["tensor_lhs"] == 1

    def test_torus_pair(self, z3):
        s1 = Surface.connected(1, [])
        s2 = Surface.closed(1)
        # distinct ids needed for a disjoint union: rebuild s2 with none anyway
        rep = verify_tensor_duality(s1, s2, no_labels(), z3)
        assert rep["ok"] and rep["tensor_lhs"] == 9

    def test_reversed_one_holed_torus(self, z3):
        s = Surface.connected(1, [("c", OUT)])
        labels = BlockLabel.from_dict({"c": z3.zero})
        rep = verify_tensor_duality(s, Surface.sphere(), labels, z3)
        assert rep["duality_lhs"] == rep["duality_rhs"] == 3

    def test_random_sweep(self, z3, z2):
        rng = random.Random(23)
        for disc in (z2, z3):
            for _ in range(30):
                def rand_surface(tag):
                    b = rng.randrange(0, 3)
                    return Surface.connected(
                        rng.randrange(0, 3),
                        [(f"{tag}{k}", rng.choice([OUT, IN])) for k in range(b)])
                s1, s2 = rand_surface("a"), rand_surface("b")
                labels = BlockLabel.from_dict({
                    cid: disc.element(tuple(rng.randrange(d)
                                            for d in disc.invariant_factors))
                    for cid in s1.circle_ids() + s2.circle_ids()})
                rep = verify_tensor_duality(s1, s2, labels, disc)
                assert rep["ok"]


class TestFactorization:
    def test_two_one_holed_tori(self, z2):
        s = Surface.closed(2)
        t1 = Surface.connected(1, [("x", OUT)])
        t2 = Surface.connected(1, [("y", IN)])
        rep = verify_factorization(s, (t1, t2), [("x", "y")], no_labels(), z2,
                                   keep_terms=True)
        assert rep.lhs == rep.rhs == 4
        assert rep.equal
        # only the unobstructed zero label contributes
        contributing = [t for t in rep.terms if t[1] > 0]
        assert contributing == [(((0,),), 4)]

    def test_self_glue_two_holed_torus(self, z3):
        s = Surface.closed(2)
        t = Surface.connected(1, [("p", OUT), ("q", IN)])
        rep = verify_factorization(s, (t,), [("p", "q")], no_labels(), z3)
        assert rep.lhs == rep.rhs == 9  # every label passes: 3 * |A|

    def test_pants_plus_disk_annulus(self, z3):
        a = z3.element((1,))
        annulus = Surface.connected(0, [("b", OUT), ("c", IN)])
        pants = Surface.pair_of_pants(("a", "b2", "c2"), (OUT, OUT, IN))
        # relabel to share free ids with the annulus
        pants = Surface.connected(0, [("x", OUT), ("b", OUT), ("c", IN)])
        disk = Surface.connected(0, [("d", IN)])
        labels = BlockLabel.from_dict({"b": a, "c": a})
        rep = verify_factorization(annulus, (pants, disk), [("x", "d")],
                                   labels, z3)
        assert rep.lhs == rep.rhs == 1

    def test_invalid_split(self, z2):
        s = Surface.closed(1)
        t = Surface.connected(1, [("p", OUT), ("q", IN)])
        with pytest.raises(InvalidSplit):
            verify_factorization(s, (t,), [("p", "q")], no_labels(), z2)

    def test_invalid_split_free_id_mismatch(self, z2):
        # right component shape but the free circle carries a different id
        s = Surface.connected(1, [("outer", OUT)])
        t = Surface.connected(0, [("elsewhere", OUT), ("p", OUT), ("q", IN)])
        with pytest.raises(InvalidSplit):
            verify_factorization(s, (t,), [("p", "q")],
                                 BlockLabel.from_dict({"outer": z2.zero}), z2)

    def test_randomized_sweep_small(self, z3):
        rng = random.Random(12)
        for _ in range(25):
            g1, g2 = rng.randrange(2), rng.randrange(2)
            t1 = Surface.connected(g1, [("x", OUT), ("f", OUT)])
            t2 = Surface.connected(g2, [("y", IN)])
            s = glue(t1, t2, [("x", "y")])
            lam = z3.element((rng.randrange(3),))
            labels = BlockLabel.from_dict({"f": lam})
            rep = verify_factorization(s, (t1, t2), [("x", "y")], labels, z3)
            assert rep.equal

    def test_terms_listed_up_to_their_budget(self, monkeypatch, z2):
        # three glued pairs on a sphere: |A|^3 assignments; only a list of
        # them past TERMS_BUDGET is refused, the count is not
        monkeypatch.setattr(blocks, "TERMS_BUDGET", 8)
        circles = [(f"{d}{i}", o) for i in range(3) for d, o in (("o", OUT), ("i", IN))]
        split = (Surface.closed(3), (Surface.connected(0, circles),),
                 [(f"o{i}", f"i{i}") for i in range(3)], no_labels())
        assert len(verify_factorization(*split, z2, keep_terms=True).terms) == 8
        z4 = disc_of([[4]])
        with pytest.raises(GroupTooLarge, match="over 8"):
            verify_factorization(*split, z4, keep_terms=True)
        assert verify_factorization(*split, z4).rhs == 4 ** 3


REFERENCE_GRAMS = {
    "a1": [[2]],
    "a2": [[2, 1], [1, 2]],
    "d4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "e8": E8_GRAM,  # no invariant factors
    "z2z8": [[2, 0], [0, 8]],  # two factors
    "z2z4": [[2, 0], [0, 4]],
}


def random_reference_split(rng, disc, k):
    """(target, pieces, matching, labels) with k gluing pairs spread over
    one or two pieces of one or two components each, so that some
    components carry labels only; free labels are balanced per target
    component half of the time."""
    matching = [(f"go{i}", f"gi{i}") for i in range(k)]
    circles = ([(o, OUT) for o, _ in matching] + [(i, IN) for _, i in matching]
               + [(f"f{i}", rng.choice((OUT, IN))) for i in range(rng.randint(0, 4))])
    slots = [(p, c) for p in range(rng.randint(1, 2)) for c in range(rng.randint(1, 2))]
    placed = {slot: [] for slot in slots}
    for circle in circles:
        placed[rng.choice(slots)].append(circle)
    pieces = tuple(
        Surface(tuple(Component(rng.randint(0, 2), tuple(BoundaryCircle(*c) for c in placed[slot]))
                      for slot in slots if slot[0] == p))
        for p in sorted({p for p, _ in slots}))
    target = glue(pieces[0], pieces[1] if len(pieces) == 2 else None, matching)
    factors = disc.invariant_factors
    labels = {}
    for comp in target.components:
        total = [0] * len(factors)
        for i, circle in enumerate(comp.boundaries):
            sign = 1 if circle.orientation == OUT else -1
            if i == len(comp.boundaries) - 1 and rng.random() < 0.5:
                coords = tuple((-sign * t) % d for t, d in zip(total, factors))
            else:
                coords = tuple(rng.randrange(d) for d in factors)
            total = [t + sign * c for t, c in zip(total, coords)]
            labels[circle.id] = disc.element(coords)
    return target, pieces, matching, BlockLabel.from_dict(labels)


class TestFactorizationReference:
    """verify_factorization against the tuple loop of oracles.py: lhs, rhs
    and every term in assignment order."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_GRAMS))
    def test_random_splits(self, name):
        disc = disc_of(REFERENCE_GRAMS[name])
        rng = random.Random(name)
        for trial in range(175):
            k = trial % 4 if disc.order < 16 else trial % 3
            target, pieces, matching, labels = random_reference_split(rng, disc, k)
            rep = verify_factorization(target, pieces, matching, labels, disc,
                                       keep_terms=True)
            want = reference_factorization(target, pieces, matching, labels, disc,
                                           keep_terms=True)
            assert (rep.lhs, rep.rhs, rep.terms) == want, (name, trial)
            assert rep.equal

    def test_empty_matching_disconnected(self, z3):
        # k = 0: one assignment, the empty one; the second piece has labels only
        p1 = Surface.connected(1, [("a", OUT), ("b", IN)])
        p2 = Surface.connected(0, [("c", IN)])
        for a, b, c in itertools.product(range(3), repeat=3):
            labels = BlockLabel.from_dict({"a": z3.element((a,)), "b": z3.element((b,)),
                                           "c": z3.element((c,))})
            target = p1.disjoint_union(p2)
            rep = verify_factorization(target, (p1, p2), [], labels, z3, keep_terms=True)
            want = reference_factorization(target, (p1, p2), [], labels, z3, keep_terms=True)
            assert (rep.lhs, rep.rhs, rep.terms) == want
            assert rep.terms == (((), rep.rhs),)


class TestModularData:
    def test_z2_matrices(self, z2):
        s = s_matrix(z2)
        assert np.allclose(s, np.array([[1, 1], [1, -1]]) / np.sqrt(2))
        t = t_diagonal(z2)
        assert np.allclose(t, [1, 1j])

    def test_relations_bundled(self, bundled):
        for name, (lat, disc) in bundled.items():
            rep = genus1_mcg_rep(disc)
            assert rep.ok, name

    def test_st3_anomaly_values(self, z2, z3):
        rep2 = genus1_mcg_rep(z2)
        assert rep2.signature == 1
        rep3 = genus1_mcg_rep(z3)
        assert rep3.signature == 2

    def test_relations_of_given_matrices(self, bundled, monkeypatch):
        # -S keeps S^2, S^4 and unitarity but breaks (ST)^3 = e(sigma/8) S^2
        monkeypatch.setattr(blocks, "s_matrix", lambda disc: -s_matrix(disc))
        for name, (lat, disc) in bundled.items():
            flipped = genus1_mcg_rep(disc)
            assert flipped.st3_deviation > 1.0 and not flipped.ok, name
            assert max(flipped.s4_deviation, flipped.s2_is_charge_conjugation,
                       flipped.unitarity_deviation) < 1e-9, name

    def test_framed_t_gives_plain_sl2z(self, bundled):
        for name, (lat, disc) in bundled.items():
            rep = genus1_mcg_rep(disc)
            st = rep.S * rep.framed_T()
            st3 = st @ st @ st
            assert np.allclose(st3, rep.S @ rep.S, atol=1e-9), name

    def test_s_symmetric_unitary(self, bundled):
        for name, (lat, disc) in bundled.items():
            s = s_matrix(disc)
            assert np.allclose(s, s.T, atol=1e-12), name
            assert np.allclose(s @ s.conj().T, np.eye(disc.order), atol=1e-9), name
            assert np.allclose(s @ s, entrywise_charge_conjugation(disc), atol=1e-9), name


D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
TABLE_GRAMS = {
    "z2": [[2]], "a2": [[2, 1], [1, 2]], "d4": D4, "e8": E8_GRAM,
    "z12": [[12]], "z2z8": [[2, 0], [0, 8]], "g4_36": [[4, 2], [2, 36]],
    "rank3": [[2, 1, 0], [1, 4, 1], [0, 1, 6]],
    "z6_3": [[6, 0, 0], [0, 6, 0], [0, 0, 6]],
}


class TestIntegerTables:
    @pytest.mark.parametrize("name", sorted(TABLE_GRAMS))
    def test_bit_identical_to_entrywise_forms(self, name):
        disc = disc_of(TABLE_GRAMS[name])
        for table, oracle in ((s_matrix, entrywise_s_matrix),
                              (t_diagonal, lambda d: np.diag(entrywise_t_matrix(d)))):
            got, want = table(disc), oracle(disc)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("name", ["z2", "a2", "d4", "e8", "z12", "z2z8"])
    def test_fusion_matches_pants_blocks(self, name):
        disc = disc_of(TABLE_GRAMS[name])
        assert disc.order <= 16
        assert np.array_equal(fusion_rules(disc), pants_fusion_tensor(disc))

    def test_mcg_peak_memory(self):
        disc = disc_of([[512]])
        tracemalloc.start()
        try:
            rep = genus1_mcg_rep(disc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
        assert peak <= 4.5 * disc.order ** 2 * 16

    @pytest.mark.parametrize("table, order", [
        (s_matrix, 8194), (t_diagonal, 2 ** 24 + 2), (genus1_mcg_rep, 8194),
        (fusion_rules, 258)], ids=["s_matrix", "t_diagonal", "genus1_mcg_rep", "fusion_rules"])
    def test_refused_above_budget(self, table, order):
        # |A|^2, for T's diagonal |A| and for fusion |A|^3, just over 2^24 entries
        with pytest.raises(GroupTooLarge):
            table(disc_of([[order]]))


class TestFusion:
    def test_identity_fusion(self, z2):
        n = fusion_rules(z2)
        assert n[0, 0, 0] == 1

    def test_z2_rules(self, z2):
        n = fusion_rules(z2)
        assert n[1, 1, 0] == 1 and n[1, 1, 1] == 0

    def test_group_law(self, z3):
        n = fusion_rules(z3)
        els = list(z3.elements())
        for i, a in enumerate(els):
            for j, b in enumerate(els):
                for k, c in enumerate(els):
                    want = 1 if z3.add(a, b) == c else 0
                    assert n[i, j, k] == want

    def test_associativity(self, z3):
        n = fusion_rules(z3)
        m = z3.order
        for a, b, c, d in itertools.product(range(m), repeat=4):
            lhs = sum(n[a, b, e] * n[e, c, d] for e in range(m))
            rhs = sum(n[b, c, f] * n[a, f, d] for f in range(m))
            assert lhs == rhs


class TestVerlinde:
    def test_sphere(self, z3):
        rep = verlinde_check(Surface.sphere(), no_labels(), z3)
        assert rep.rounded == rep.block_dim == 1 and rep.equal

    def test_genus2_closed(self, z3):
        rep = verlinde_check(Surface.closed(2), no_labels(), z3)
        assert rep.rounded == rep.block_dim == 9 and rep.equal

    def test_obstructed_boundary(self, z3):
        s = Surface.connected(1, [("c", OUT)])
        labels = BlockLabel.from_dict({"c": z3.element((1,))})
        rep = verlinde_check(s, labels, z3)
        assert rep.rounded == rep.block_dim == 0 and rep.equal

    def test_incoming_labels_and_disconnected(self, z3, z2):
        rng = random.Random(7)
        for disc in (z2, z3):
            for _ in range(40):
                n_comp = rng.randrange(1, 3)
                comps = []
                labels = {}
                for ci in range(n_comp):
                    b = rng.randrange(0, 4)
                    circles = []
                    for k in range(b):
                        cid = f"s{ci}c{k}"
                        circles.append((cid, rng.choice([OUT, IN])))
                        labels[cid] = disc.element(
                            tuple(rng.randrange(d) for d in disc.invariant_factors))
                    comps.append(Surface.connected(rng.randrange(0, 3), circles))
                s = comps[0]
                for extra in comps[1:]:
                    s = s.disjoint_union(extra)
                rep = verlinde_check(s, BlockLabel.from_dict(labels), disc)
                assert rep.equal and rep.deviation < 1e-6

    # Genera where a float sum rounded against a guard reports a false
    # failure: the verdict must come from the exact sum.
    @pytest.mark.parametrize("genus", range(34, 61))
    def test_closed_z2_high_genus(self, z2, genus):
        rep = verlinde_check(Surface.closed(genus), no_labels(), z2)
        assert rep.equal and rep.rounded == rep.block_dim == 2 ** genus

    @pytest.mark.parametrize("genus", range(22, 41))
    def test_a2_high_genus(self, z3, genus):
        s = Surface.connected(genus, [("a", OUT), ("b", IN)])
        for x, y, dim in ((1, 1, 3 ** genus), (1, 2, 0)):
            labels = BlockLabel.from_dict({"a": z3.element((x,)),
                                           "b": z3.element((y,))})
            rep = verlinde_check(s, labels, z3)
            assert rep.equal and rep.rounded == rep.block_dim == dim

    def test_z4_genus_51_with_labels(self):
        z4 = disc_of([[4]])
        s = Surface.connected(51, [("a", OUT), ("b", OUT), ("c", IN)])
        for coords, dim in (((1, 2, 3), 4 ** 51), ((1, 1, 3), 0)):
            labels = BlockLabel.from_dict(
                {cid: z4.element((c,)) for cid, c in zip("abc", coords)})
            rep = verlinde_check(s, labels, z4)
            assert rep.equal and rep.rounded == rep.block_dim == dim

    def test_matches_s_matrix_sum(self):
        # reference: the sum written with the S matrix, in floats
        rng = random.Random(11)
        d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
        for gram in ([[2, 0], [0, 2]], [[2, 0], [0, 8]], [[6]], d4):
            disc = disc_of(gram)
            s_mat = s_matrix(disc)
            els = list(disc.elements())
            index = {a.coords: i for i, a in enumerate(els)}
            for _ in range(20):
                genus = rng.randrange(0, 3)
                circles = [(f"c{k}", rng.choice([OUT, IN]))
                           for k in range(rng.randrange(0, 4))]
                labels = {cid: rng.choice(els) for cid, _ in circles}
                rows = [index[(lab if ori == OUT else disc.neg(lab)).coords]
                        for (cid, ori), lab in zip(circles, labels.values())]
                want = sum(s_mat[0, j] ** (2 - 2 * genus - len(rows))
                           * np.prod([s_mat[r, j] for r in rows])
                           for j in range(disc.order))
                rep = verlinde_check(Surface.connected(genus, circles),
                                     BlockLabel.from_dict(labels), disc)
                assert abs(want - rep.rounded) < 1e-9
                assert abs(want - rep.verlinde_raw) < 1e-9 and rep.equal

    def test_missing_label(self, z3):
        s = Surface.connected(1, [("c", OUT)])
        with pytest.raises(MissingLabel):
            verlinde_check(s, no_labels(), z3)

    def test_criterion_6_takes_each_character_sum_once(self, monkeypatch):
        calls = Counter()

        def counting(disc, a):
            calls[disc, a.coords] += 1
            return character_sum(disc, a)

        character_sum = blocks._character_sum
        monkeypatch.setattr(blocks, "_character_sum", counting)
        assert criterion_06_verlinde(Tolerances(), DEFAULT_SEED).passed
        per_disc = Counter(disc for disc, _ in calls)
        assert set(calls.values()) == {1}
        assert all(count <= disc.order for disc, count in per_disc.items())

    def test_shared_group_matches_fresh_groups(self):
        # one group across interleaved surfaces and labels answers as a
        # fresh group does each time, to the bit
        rng = random.Random(23)
        d4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
        for gram in ([[2, 0], [0, 8]], [[2, 0], [0, 2]], [[6]], d4):
            shared = disc_of(gram)
            for _ in range(40):
                comps, coords = [], {}
                for c in range(rng.randrange(1, 4)):
                    circles = [(f"s{c}c{k}", rng.choice([OUT, IN]))
                               for k in range(rng.randrange(0, 4))]
                    coords.update({cid: [rng.randrange(d) for d in shared.invariant_factors]
                                   for cid, _ in circles})
                    comps.append(Surface.connected(rng.randrange(0, 4), circles))
                s = comps[0]
                for extra in comps[1:]:
                    s = s.disjoint_union(extra)
                fresh = disc_of(gram)
                got, want = (verlinde_check(s, BlockLabel.from_dict(
                    {cid: disc.element(x) for cid, x in coords.items()}), disc)
                    for disc in (shared, fresh))
                assert repr(got) == repr(want)

    def test_past_the_float_range_on_a_shared_group(self):
        # the second call reads the kept sums and calls no cmath function
        # before the deviation, which is NaN here
        z6 = disc_of([[6]])
        for _ in range(2):
            rep = verlinde_check(Surface.closed(6000), no_labels(), z6)
            assert rep.equal and math.isnan(rep.deviation)
