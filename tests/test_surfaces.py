import random
from fractions import Fraction

import numpy as np
import pytest

from latticecft.errors import GroupTooLarge, MissingLabel, OrientationMismatch, UnknownCircle
from latticecft.heisenberg import enumerate_h1, subgroup_closure
from latticecft.lattices import EXTRA_GRAMS, discriminant_group, validate_even_lattice
from latticecft.surfaces import (
    IN,
    OUT,
    BlockLabel,
    IntersectionForm,
    Surface,
    delta_obstruction,
    glue,
    h1_rank,
    homology_basis,
)

from oracles import _h1_add, _h1_cocycle, _h1_elements, cw_h1_rank


@pytest.fixture(scope="module")
def z2():
    return discriminant_group(validate_even_lattice([[2]]))


@pytest.fixture(scope="module")
def z3():
    return discriminant_group(validate_even_lattice([[2, 1], [1, 2]]))


class TestH1Rank:
    def test_sphere(self):
        assert h1_rank(Surface.sphere()) == 0

    def test_one_holed_torus_vs_cw(self):
        s = Surface.connected(1, [("c", OUT)])
        assert h1_rank(s) == 2 == cw_h1_rank([s], [])

    def test_two_holed_genus_two_vs_cw(self):
        s = Surface.connected(2, [("c0", OUT), ("c1", IN)])
        assert h1_rank(s) == 5 == cw_h1_rank([s], [])

    def test_family_vs_cw(self):
        for g in range(0, 4):
            for b in range(0, 4):
                s = Surface.connected(g, [(f"c{i}", OUT) for i in range(b)])
                assert h1_rank(s) == cw_h1_rank([s], []), (g, b)

    def test_disjoint_union_additive(self):
        s1 = Surface.connected(1, [("u0", OUT)])
        s2 = Surface.connected(2, [("v0", IN), ("v1", OUT)])
        union = s1.disjoint_union(s2)
        assert h1_rank(union) == h1_rank(s1) + h1_rank(s2) == cw_h1_rank([union], [])


class TestIntersectionForm:
    def test_closed_torus_z2_formula(self, z2):
        form = IntersectionForm(Surface.closed(1), z2)
        assert form.rank == 2
        for x1 in range(2):
            for y1 in range(2):
                for x2 in range(2):
                    for y2 in range(2):
                        got = form.pairing(((x1,), (y1,)), ((x2,), (y2,)))
                        assert got == Fraction(x1 * y2 - y1 * x2, 2) % 1

    def test_boundary_parallel_in_kernel(self, z3):
        s = Surface.connected(1, [("c0", OUT), ("c1", IN), ("c2", IN)])
        form = IntersectionForm(s, z3)
        slots = form.basis.slots
        for k, slot in enumerate(slots):
            if slot.kind != "boundary":
                continue
            for g in range(3):
                x = [(0,)] * form.rank
                x[k] = (g,)
                for l in range(form.rank):
                    for h in range(3):
                        y = [(0,)] * form.rank
                        y[l] = (h,)
                        assert form.pairing(tuple(x), tuple(y)) == 0

    def test_genus_zero_identically_zero(self, z3):
        s = Surface.connected(0, [("c0", OUT), ("c1", IN), ("c2", IN)])
        form = IntersectionForm(s, z3)
        assert all(all(v == 0 for v in row) for row in form.J)

    def test_cocycle_antisymmetrizes_to_pairing(self, z2):
        form = IntersectionForm(Surface.closed(2), z2)
        rng = random.Random(0)
        for _ in range(50):
            x = tuple((rng.randrange(2),) for _ in range(form.rank))
            y = tuple((rng.randrange(2),) for _ in range(form.rank))
            lhs = (form.cocycle(x, y) - form.cocycle(y, x)) % 1
            assert lhs == form.pairing(x, y)

    def test_basis_layout(self, z2):
        s = Surface.connected(2, [("c0", OUT), ("c1", IN)])
        basis = homology_basis(s)
        kinds = [slot.kind for slot in basis.slots]
        assert kinds == ["a", "b", "a", "b", "boundary"]
        assert basis.slots[-1].circle_id == "c0"


class TestFlattening:
    """`rows` and `grid` on a group with two invariant factors and a surface
    with boundary slots, against the tuple oracles."""

    @pytest.fixture(scope="class")
    def z2z8(self):
        return discriminant_group(validate_even_lattice(EXTRA_GRAMS["z2z8"]))

    @staticmethod
    def elements(form, count, seed, spread=1):
        """Random elements; spread > 1 draws unreduced coordinates."""
        rng = random.Random(seed)
        return [tuple(tuple(rng.randrange((1 - spread) * d, spread * d)
                            for d in form.disc.invariant_factors)
                      for _ in range(form.rank)) for _ in range(count)]

    def check_against_oracles(self, form, xs):
        disc = form.disc
        for x, y in zip(xs, xs[1:]):
            assert form.add(x, y) == _h1_add(disc, x, y)
            assert form.neg(x) == _h1_add(disc, form.zero(), x, sign=-1)
            c_xy, c_yx = _h1_cocycle(form, x, y), _h1_cocycle(form, y, x)
            assert form.cocycle(x, y) == c_xy
            assert form.pairing(x, y) == (c_xy - c_yx) % 1

    def test_genus_two_with_two_circles(self, z2z8):
        form = IntersectionForm(Surface.connected(2, [("c0", OUT), ("c1", IN)]), z2z8)
        assert form.rank == 5 and z2z8.invariant_factors == (2, 8)
        assert form.J == ((0, 1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 0, 1, 0),
                          (0, 0, -1, 0, 0), (0, 0, 0, 0, 0))
        self.check_against_oracles(form, self.elements(form, 60, 1))
        self.check_against_oracles(form, self.elements(form, 60, 2, spread=3))

    def test_two_components(self, z2z8):
        s = Surface.connected(1, [("c0", OUT), ("c1", IN)]).disjoint_union(Surface.closed(1))
        form = IntersectionForm(s, z2z8)
        assert form.J == ((0, 1, 0, 0, 0), (-1, 0, 0, 0, 0), (0, 0, 0, 0, 0),
                          (0, 0, 0, 0, 1), (0, 0, 0, -1, 0))
        self.check_against_oracles(form, self.elements(form, 40, 3))

    def test_positions_follow_enumeration_order(self, z2z8):
        # genus 2 with two circles has 16^5 = 2^20 elements, past the
        # listing limit: random elements sort like their positions
        form = IntersectionForm(Surface.connected(2, [("c0", OUT), ("c1", IN)]), z2z8)
        with pytest.raises(GroupTooLarge):
            enumerate_h1(form)
        xs = self.elements(form, 300, 4)
        positions = form.grid.index(form.rows(xs))
        assert form.grid.coords(form.grid.rows(positions)) == xs
        assert [xs[i] for i in np.argsort(positions, kind="stable")] == sorted(xs)
        # genus 1 with two circles is listed whole: 16^3 elements
        form = IntersectionForm(Surface.connected(1, [("c0", OUT), ("c1", IN)]), z2z8)
        elements = enumerate_h1(form)
        assert elements == _h1_elements(z2z8, form.rank)
        assert form.grid.index(form.rows(elements)).tolist() == list(range(len(elements)))

    def test_forms_past_the_grid_limit(self):
        # (2^24 + 2)^6 elements: no grid, object tables, and the forms still read
        disc = discriminant_group(validate_even_lattice([[2 ** 24 + 2]]))
        form = IntersectionForm.closed_genus(disc, 3)
        with pytest.raises(GroupTooLarge):
            form.grid
        with pytest.raises(GroupTooLarge):
            subgroup_closure(form, [form.zero()])
        xs = self.elements(form, 12, 5)
        assert form.rows(xs).dtype == object
        self.check_against_oracles(form, xs)


class TestDelta:
    def test_annulus_matched_labels_cancel(self, z3):
        s = Surface.annulus("c0", "c1")
        lam = z3.element((1,))
        labels = BlockLabel.from_dict({"c0": lam, "c1": lam})
        (d,) = delta_obstruction(s, labels, z3)
        assert d == z3.zero

    def test_one_holed_torus_single_term(self, z3):
        s = Surface.connected(1, [("c", OUT)])
        a = z3.element((2,))
        (d,) = delta_obstruction(s, BlockLabel.from_dict({"c": a}), z3)
        assert d == a

    def test_pair_of_pants_telescopes(self, z3):
        s = Surface.pair_of_pants()
        a, b = z3.element((1,)), z3.element((2,))
        c = z3.neg(z3.add(a, b))
        labels = BlockLabel.from_dict({"c0": a, "c1": b, "c2": c})
        (d,) = delta_obstruction(s, labels, z3)
        assert d == z3.zero

    def test_missing_label(self, z3):
        s = Surface.annulus()
        with pytest.raises(MissingLabel):
            delta_obstruction(s, BlockLabel.from_dict({"c0": z3.zero}), z3)

    def test_incoming_sign(self, z3):
        s = Surface.connected(0, [("c0", IN)])
        a = z3.element((1,))
        (d,) = delta_obstruction(s, BlockLabel.from_dict({"c0": a}), z3)
        assert d == z3.neg(a)

    def test_additive_in_labels(self, z3):
        s = Surface.connected(1, [("c0", OUT), ("c1", IN), ("c2", OUT)])
        rng = random.Random(17)
        for _ in range(20):
            lab1 = {cid: z3.element((rng.randrange(3),))
                    for cid in ("c0", "c1", "c2")}
            lab2 = {cid: z3.element((rng.randrange(3),))
                    for cid in ("c0", "c1", "c2")}
            total = {cid: z3.add(lab1[cid], lab2[cid]) for cid in lab1}
            (d1,) = delta_obstruction(s, BlockLabel.from_dict(lab1), z3)
            (d2,) = delta_obstruction(s, BlockLabel.from_dict(lab2), z3)
            (dt,) = delta_obstruction(s, BlockLabel.from_dict(total), z3)
            assert dt == z3.add(d1, d2)


class TestGlue:
    def test_two_disks_make_sphere(self):
        s = glue(Surface.disk("d0", OUT), Surface.disk("d1", IN), [("d0", "d1")])
        assert s.component_signature() == ((0, 0),)

    def test_two_one_holed_tori_make_genus_two(self):
        t1 = Surface.connected(1, [("x", OUT)])
        t2 = Surface.connected(1, [("y", IN)])
        s = glue(t1, t2, [("x", "y")])
        assert s.component_signature() == ((2, 0),)
        assert s.euler_characteristic() == t1.euler_characteristic() + t2.euler_characteristic()

    def test_self_glue_two_holed_torus(self):
        t = Surface.connected(1, [("p", OUT), ("q", IN)])
        s = glue(t, None, [("p", "q")])
        assert s.component_signature() == ((2, 0),)
        assert cw_h1_rank([t], [("p", "q")]) == 4 == h1_rank(s)

    def test_orientation_mismatch(self):
        with pytest.raises(OrientationMismatch):
            glue(Surface.disk("d0", OUT), Surface.disk("d1", OUT), [("d0", "d1")])

    def test_unknown_circle(self):
        with pytest.raises(UnknownCircle):
            glue(Surface.disk("d0", OUT), Surface.disk("d1", IN), [("d0", "zz")])

    def test_leftover_boundary_kept(self):
        p = Surface.pair_of_pants(("a", "b", "c"))
        d = Surface.disk("d", IN)
        s = glue(p, d, [("a", "d")])
        assert sorted(s.circle_ids()) == ["b", "c"]
        assert s.component_signature() == ((0, 2),)

    def test_empty_matching_is_disjoint_union(self):
        s1 = Surface.connected(1, [("a", OUT)])
        s2 = Surface.connected(2, [("b", IN)])
        s = glue(s1, s2, [])
        assert s.component_signature() == ((1, 1), (2, 1))

    def test_circle_matched_twice_rejected(self):
        p = Surface.pair_of_pants(("a", "b", "c"))
        d1 = Surface.disk("d1", IN)
        d2 = Surface.disk("d2", IN)
        with pytest.raises(ValueError):
            glue(p, d1.disjoint_union(d2), [("a", "d1"), ("a", "d2")])


def random_gluing(rng):
    """A random 1- or 2-piece gluing with matched out/in circles."""
    def rand_piece(tag, n_out, n_in):
        g = rng.randrange(0, 3)
        extra = rng.randrange(0, 2)
        circles = [(f"{tag}o{i}", OUT) for i in range(n_out)]
        circles += [(f"{tag}i{i}", IN) for i in range(n_in)]
        circles += [(f"{tag}f{i}", rng.choice([OUT, IN])) for i in range(extra)]
        rng.shuffle(circles)
        return Surface.connected(g, circles)

    k = rng.randrange(1, 3)
    if rng.random() < 0.5:
        s1 = rand_piece("a", k, k)
        matching = [(f"ao{i}", f"ai{i}") for i in range(k)]
        return [s1], None, matching
    s1 = rand_piece("a", k, 0)
    s2 = rand_piece("b", 0, k)
    matching = [(f"ao{i}", f"bi{i}") for i in range(k)]
    return [s1, s2], s2, matching


class TestMayerVietoris:
    def test_fifty_random_gluings_match_cw_oracle(self):
        rng = random.Random(20240811)
        for _ in range(50):
            pieces, second, matching = random_gluing(rng)
            glued = glue(pieces[0], second, matching)
            assert h1_rank(glued) == cw_h1_rank(pieces, matching)

    def test_gluing_associative_up_to_iso(self):
        rng = random.Random(5)
        for _ in range(20):
            a = Surface.connected(rng.randrange(3), [("a0", OUT)])
            b = Surface.connected(rng.randrange(3), [("b0", IN), ("b1", OUT)])
            c = Surface.connected(rng.randrange(3), [("c0", IN)])
            ab_first = glue(glue(a, b, [("a0", "b0")]), c, [("b1", "c0")])
            bc_first = glue(a, glue(b, c, [("b1", "c0")]), [("a0", "b0")])
            assert ab_first.component_signature() == bc_first.component_signature()

    def test_delta_additive_under_gluing(self, z3):
        rng = random.Random(99)
        for _ in range(20):
            pieces, second, matching = random_gluing(rng)
            glued = glue(pieces[0], second, matching)
            free = glued.circle_ids()
            labels = {cid: z3.element((rng.randrange(3),)) for cid in free}
            matched_labels = dict(labels)
            for out_id, in_id in matching:
                lam = z3.element((rng.randrange(3),))
                matched_labels[out_id] = lam
                matched_labels[in_id] = lam
            total_pieces = z3.zero
            for piece in pieces:
                for d in delta_obstruction(piece, BlockLabel.from_dict(matched_labels), z3):
                    total_pieces = z3.add(total_pieces, d)
            total_glued = z3.zero
            for d in delta_obstruction(glued, BlockLabel.from_dict(labels), z3):
                total_glued = z3.add(total_glued, d)
            assert total_pieces == total_glued


class TestJson:
    def test_round_trip(self):
        s = Surface.connected(2, [("c0", OUT), ("c1", IN)])
        assert Surface.from_json(s.to_json()) == s

    @pytest.mark.parametrize("genus", [1.5, "2", True, None])
    def test_non_integral_genus_refused(self, genus):
        with pytest.raises(ValueError, match="genus"):
            Surface.from_json({"components": [{"genus": genus, "boundaries": []}]})

    def test_integral_float_genus_accepted(self):
        assert Surface.from_json({"components": [{"genus": 2.0}]}) == Surface.closed(2)
