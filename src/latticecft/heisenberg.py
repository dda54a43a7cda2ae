"""Finite Heisenberg groups over surface homology and their unitary
irreducible representations.

Group elements are pairs (X, phase) with X in H1(S; A) and the phase an
exact rational mod 1; the product follows the antisymmetric intersection
pairing S.  Unitary realizations are monomial (permutation times phase)
matrices built from the fixed bilinear cocycle c of the intersection
form, which antisymmetrizes to S; on 2-torsion this distinction matters,
since the commutator of the (X, phase) product is 2S while the commutant
structure of the representations is governed by S itself.  All
representation bookkeeping is exact; floats appear only when matrices or
traces are materialized.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import (
    DimensionMismatch,
    GroupTooLarge,
    NonclosedSurface,
    NotASplitting,
    NotIsotropic,
)
from .exact import PhaseSum
from .lattices import DENSE_ENTRY_BUDGET, DiscriminantGroup, _within_budget
from .surfaces import IntersectionForm, Surface

Coords = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class HeisenbergElement:
    """(X, phase) with X a tuple of A-coordinates over the homology basis."""

    X: Coords
    phase: Fraction

    @staticmethod
    def pure(x: Coords) -> "HeisenbergElement":
        return HeisenbergElement(x, Fraction(0))


def heisenberg_product(x: HeisenbergElement, y: HeisenbergElement,
                       form: IntersectionForm) -> HeisenbergElement:
    """(X, m) * (Y, n) = (X + Y, m + n + S(X, Y))."""
    if len(x.X) != len(y.X) or len(x.X) != form.rank:
        raise DimensionMismatch("elements live over different homology bases")
    return HeisenbergElement(form.add(x.X, y.X),
                             (x.phase + y.phase + form.pairing(x.X, y.X)) % 1)


def heisenberg_identity(form: IntersectionForm) -> HeisenbergElement:
    return HeisenbergElement(form.zero(), Fraction(0))


def heisenberg_inverse(x: HeisenbergElement,
                       form: IntersectionForm) -> HeisenbergElement:
    nx = form.neg(x.X)
    return HeisenbergElement(nx, (-x.phase - form.pairing(x.X, nx)) % 1)


@dataclass(frozen=True)
class CenterDescription:
    """Radical of the pairing: boundary-parallel classes plus the phase
    circle."""

    boundary_slots: tuple[int, ...]
    generators: tuple[HeisenbergElement, ...]
    includes_phase_circle: bool = True


def center(disc: DiscriminantGroup, surface: Surface) -> CenterDescription:
    form = IntersectionForm(surface, disc)
    slots = tuple(i for i, slot in enumerate(form.basis.slots)
                  if slot.kind == "boundary")
    gens = []
    zero = form.zero()
    for k in slots:
        for g in disc.generators():
            x = list(zero)
            x[k] = g.coords
            gens.append(HeisenbergElement.pure(tuple(x)))
    return CenterDescription(boundary_slots=slots, generators=tuple(gens))


def enumerate_h1(form: IntersectionForm, limit: int = 10 ** 6) -> list[Coords]:
    """All of H1(S; A) in lexicographic order."""
    per_slot = [tuple(a.coords for a in form.disc.elements())] * form.rank
    total = form.disc.order ** form.rank
    if total > limit:
        raise GroupTooLarge(f"{total} elements")
    return [tuple(x) for x in itertools.product(*per_slot)]


# ---------------------------------------------------------------------------
# monomial unitary representations


class UnitaryRep:
    """Projective unitary representation by monomial matrices.

    The operator for X acts on functions of a finite basis T as
    (rho(X) f)(t) = e^(2 pi i alpha_X(t)) f(m_X(t)); matrices satisfy
    rho(X) rho(Y) = e^(2 pi i chi c(X,Y)) rho(X + Y) with c the bilinear
    cocycle of the intersection form and chi the central exponent.
    """

    def __init__(self, form: IntersectionForm, dimension: int, monomial_fn,
                 support: list[Coords] | None, description: str, chi: int = 1,
                 trace_fn=None):
        self.form = form
        self.dimension = dimension
        self._monomial = monomial_fn
        self.support = support
        self.description = description
        self.chi = chi
        self._trace_fn = trace_fn

    # monomial data: permutation m and phases alpha, exact
    def monomial(self, x: Coords):
        return self._monomial(x)

    def cocycle(self, x: Coords, y: Coords) -> Fraction:
        return (self.chi * self.form.cocycle(x, y)) % 1

    def central_character(self, phase: Fraction) -> Fraction:
        return (self.chi * phase) % 1

    def matrix(self, x: HeisenbergElement | Coords) -> np.ndarray:
        if isinstance(x, HeisenbergElement):
            coords, phase = x.X, x.phase
        else:
            coords, phase = x, Fraction(0)
        perm, phases = self._monomial(coords)
        n = self.dimension
        m = np.zeros((n, n), dtype=complex)
        extra = float(self.central_character(phase))
        for t in range(n):
            m[t, perm[t]] = cmath.exp(2j * cmath.pi * (float(phases[t]) + extra))
        return m

    def trace_phase_sum(self, x: Coords) -> PhaseSum:
        perm, phases = self._monomial(x)
        out = PhaseSum()
        for t in range(self.dimension):
            if perm[t] == t:
                out.add(phases[t])
        return out

    def trace_complex(self, x: Coords) -> complex:
        if self._trace_fn is not None:
            return self._trace_fn(x)
        perm, phases = self._monomial(x)
        return sum(cmath.exp(2j * cmath.pi * float(phases[t]))
                   for t in range(self.dimension) if perm[t] == t)

    def generator_elements(self) -> list[HeisenbergElement]:
        gens = []
        zero = self.form.zero()
        for k in range(self.form.rank):
            for g in self.form.disc.generators():
                x = list(zero)
                x[k] = g.coords
                gens.append(HeisenbergElement.pure(tuple(x)))
        return gens

    def direct_sum(self, other: "UnitaryRep") -> "UnitaryRep":
        if other.form is not self.form or other.chi != self.chi:
            raise DimensionMismatch("direct sum needs matching form and center")
        n1 = self.dimension

        def mono(x):
            p1, a1 = self._monomial(x)
            p2, a2 = other._monomial(x)
            return (tuple(p1) + tuple(q + n1 for q in p2), tuple(a1) + tuple(a2))

        support = None
        if self.support is not None and other.support is not None:
            support = sorted(set(self.support) | set(other.support))
        return UnitaryRep(self.form, n1 + other.dimension, mono, support,
                          f"{self.description} (+) {other.description}", self.chi)

    def to_json(self) -> dict:
        elements = self.generator_elements()
        _within_budget(len(elements) * self.dimension ** 2, "the generator matrices")
        gens = []
        for g in elements:
            m = self.matrix(g)
            gens.append({
                "element": {"coords": [list(c) for c in g.X],
                            "phase": str(g.phase)},
                "matrix_re": [[float(v.real) for v in row] for row in m],
                "matrix_im": [[float(v.imag) for v in row] for row in m],
            })
        return {"dimension": self.dimension, "generators": gens}


def schroedinger_irrep(disc: DiscriminantGroup, genus_or_surface,
                       chi: int = 1) -> UnitaryRep:
    """Irreducible representation for a closed surface, on functions of
    the a-cycle Lagrangian A^g:

        rho(X, p) f(t) = e^(2 pi i chi (p + b(x_a, t - x_b))) f(t - x_b)

    where X = (x_a1, x_b1, ..., x_ag, x_bg).  Dimension |A|^g; genus 0
    gives the one-dimensional normalization.
    """
    if isinstance(genus_or_surface, Surface):
        s = genus_or_surface
        if not s.is_closed() or len(s.components) != 1:
            raise NonclosedSurface(
                "Schroedinger model needs one closed component; use block "
                "dimensions for surfaces with boundary")
        genus = s.components[0].genus
    else:
        genus = int(genus_or_surface)
    for d in disc.invariant_factors:
        if gcd(chi, d) != 1:
            raise ValueError(f"central exponent {chi} degenerates on Z/{d}")
    # |A|^g basis points of g coordinates each; past the budget's bit length
    # any |A| > 1 is over it, so the power is never formed large
    _within_budget(genus * disc.order ** min(genus, DENSE_ENTRY_BUDGET.bit_length()),
                   f"the genus-{genus} Schroedinger basis")
    form = IntersectionForm.closed_genus(disc, genus)
    a_elements = [a.coords for a in disc.elements()]
    basis = [tuple(t) for t in itertools.product(a_elements, repeat=genus)]
    index = {t: i for i, t in enumerate(basis)}
    blin = disc._bilinear_scaled
    sub = disc.neg_coords
    add = disc.add_coords
    n = disc.exponent

    def mono(x: Coords):
        xa = x[0::2]
        xb = x[1::2]
        perm = []
        phases = []
        for t in basis:
            shifted = tuple(add(ti, sub(bi)) for ti, bi in zip(t, xb))
            perm.append(index[shifted])
            alpha = sum(blin(ai, si) for ai, si in zip(xa, shifted))
            phases.append(Fraction(chi * alpha % n, n))
        return tuple(perm), tuple(phases)

    # traces vanish off the a-cycle span: any b-shift moves every basis point
    zero = disc.zero.coords
    support = []
    for xa in itertools.product(a_elements, repeat=genus):
        x = [zero] * (2 * genus)
        x[0::2] = list(xa)
        support.append(tuple(x))
    dim = len(basis)
    zero_x = form.zero()

    def trace_fast(x: Coords) -> complex:
        # per-slot character sums factor the trace into |A|^g delta_{x,0}
        return complex(dim) if x == zero_x else 0j

    return UnitaryRep(form, dim, mono, support,
                      f"schroedinger(genus={genus}, |A|={disc.order})", chi,
                      trace_fn=trace_fast)


# ---------------------------------------------------------------------------
# subgroups, splittings, induction


def subgroup_closure(form: IntersectionForm, generators) -> list[Coords]:
    """Subgroup of H1(S; A) generated by the given elements, sorted."""
    zero = form.zero()
    seen = {zero}
    frontier = [zero]
    gens = [g.X if isinstance(g, HeisenbergElement) else tuple(g)
            for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = form.add(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen)


def is_isotropic(form: IntersectionForm, subgroup: list[Coords]) -> bool:
    return all(form.pairing(x, y) == 0 for x in subgroup for y in subgroup)


def _extend_subgroup(form: IntersectionForm, subgroup: frozenset, x: Coords):
    """<H, x> for a subgroup H of an abelian group: union of the cosets
    j*x + H."""
    out = set(subgroup)
    acc = x
    while acc not in subgroup:
        out.update(form.add(acc, h) for h in subgroup)
        acc = form.add(acc, x)
    return frozenset(out)


def enumerate_subgroups(form: IntersectionForm,
                        limit: int = 4096) -> list[list[Coords]]:
    """All subgroups of H1(S; A), each as a sorted element list."""
    elements = enumerate_h1(form, limit=limit)
    trivial = frozenset({form.zero()})
    seen = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for sub in frontier:
            for x in elements:
                if x not in sub:
                    bigger = _extend_subgroup(form, sub, x)
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    return sorted((sorted(sub) for sub in seen), key=lambda s: (len(s), s))


def isotropic_subgroups(form: IntersectionForm,
                        limit: int = 4096) -> list[list[Coords]]:
    return [sub for sub in enumerate_subgroups(form, limit=limit)
            if is_isotropic(form, sub)]


def canonical_splitting(form: IntersectionForm, subgroup: list[Coords],
                        assigned: dict[Coords, Fraction] | None = None,
                        chi: int = 1) -> dict[Coords, Fraction]:
    """A splitting chi: B -> Q/Z with
    chi(b + b') = chi(b) + chi(b') + c(b, b') mod 1.

    Built by extending one cyclic step at a time; the wrap-around phase of
    each new generator fixes its value up to a k-th root, resolved
    deterministically (or taken from `assigned` and checked).
    """
    def psi(x, y):
        return (chi * form.cocycle(x, y)) % 1

    zero = form.zero()
    table: dict[Coords, Fraction] = {zero: Fraction(0)}
    members = set(subgroup)
    pool = [x for x in subgroup if x != zero]
    if assigned:
        for x in assigned:
            if x not in members:
                raise NotASplitting(f"assigned element {x} is not in the subgroup")
        pool.sort(key=lambda x: (x not in assigned, x))
    for x in pool:
        if x in table:
            if assigned and x in assigned and table[x] != assigned[x] % 1:
                raise NotASplitting(
                    f"value {assigned[x]} for {x} contradicts the values "
                    f"already forced by earlier generators")
            continue
        # order of x modulo the part already covered
        k = 1
        acc = x
        while acc not in table:
            acc = form.add(acc, x)
            k += 1
        wrap = sum((psi(_multiple(form, x, j), x) for j in range(1, k)),
                   Fraction(0))
        need = (table[acc] - wrap) % 1  # acc = k*x, already assigned
        value = Fraction(need.numerator, need.denominator * k)
        if assigned and x in assigned:
            if (k * assigned[x] - need) % 1 != 0:
                raise NotASplitting(
                    f"value {assigned[x]} for {x} is inconsistent with its "
                    f"order-{k} wrap phase")
            value = assigned[x] % 1
        new_table = dict(table)
        power_phase = Fraction(0)
        power = zero
        for m in range(1, k):
            power_phase = (power_phase + value + psi(power, x)) % 1
            power = form.add(power, x)
            for h, ph in table.items():
                new_table[form.add(power, h)] = (power_phase + ph + psi(power, h)) % 1
        table = new_table
    if set(table) != members:
        raise NotASplitting("generators do not span the subgroup")
    return table


def _multiple(form: IntersectionForm, x: Coords, j: int) -> Coords:
    acc = form.zero()
    for _ in range(j):
        acc = form.add(acc, x)
    return acc


def validate_splitting(form: IntersectionForm, subgroup: list[Coords],
                       table: dict[Coords, Fraction], chi: int = 1) -> None:
    for x in subgroup:
        if x not in table:
            raise NotASplitting(f"no value for {x}")
        for y in subgroup:
            lhs = table[form.add(x, y)]
            rhs = (table[x] + table[y] + chi * form.cocycle(x, y)) % 1
            if lhs != rhs:
                raise NotASplitting(f"fails at {x}, {y}")


def induce_from_isotropic(form: IntersectionForm, generators,
                          splitting: dict | None = None) -> UnitaryRep:
    """Representation induced from an isotropic subgroup B with splitting.

    Functions on the coset space B\\H1 carry the action
    (rho(Y, p) f)(t) = e^(2 pi i (p + c(r_t, Y) + chi(b) + c(b, r_t')))
    f(t') where r_t + Y = b + r_t'.  Dimension |H1| / |B|.
    """
    disc = form.disc
    gens = [g.X if isinstance(g, HeisenbergElement) else tuple(g)
            for g in generators]
    # the pairing is bilinear, so generator pairs decide isotropy
    if not all(form.pairing(g1, g2) == 0 for g1 in gens for g2 in gens):
        raise NotIsotropic("the pairing does not vanish on the subgroup")
    subgroup = subgroup_closure(form, gens)
    if splitting is None:
        table = canonical_splitting(form, subgroup)
    elif set(splitting) >= set(subgroup):
        table = {x: splitting[x] % 1 for x in subgroup}
        validate_splitting(form, subgroup, table)
    else:
        table = canonical_splitting(form, subgroup,
                                    assigned={k: Fraction(v) % 1
                                              for k, v in splitting.items()})
        validate_splitting(form, subgroup, table)

    elements = enumerate_h1(form)
    index = {x: i for i, x in enumerate(elements)}
    coset_of = [-1] * len(elements)
    reps: list[Coords] = []
    for i, x in enumerate(elements):
        if coset_of[i] >= 0:
            continue
        cid = len(reps)
        reps.append(x)  # lexicographically least in its coset
        for b in subgroup:
            coset_of[index[form.add(x, b)]] = cid
    n = len(reps)
    psi = form.cocycle
    sub = form.neg

    def mono(y: Coords):
        # sections invariant under the lifted subgroup satisfy
        # F(b + x) = e^(-2 pi i (chi(b) + c(b, x))) F(x)
        perm = []
        phases = []
        for t in range(n):
            rt = reps[t]
            x = form.add(rt, y)
            t2 = coset_of[index[x]]
            b = form.add(x, sub(reps[t2]))
            alpha = (psi(rt, y) - table[b] - psi(b, reps[t2])) % 1
            perm.append(t2)
            phases.append(alpha)
        return tuple(perm), tuple(phases)

    members = set(subgroup)
    big_n, width = disc.exponent, form.rank * len(disc.invariant_factors)
    roots = np.exp(2j * np.pi * (np.arange(big_n) / big_n))
    # N S(x, y) = x (J kron bilinear_int) y mod N; the left half is formed
    # once per coset representative
    pairing = np.kron(np.array(form.J, dtype=np.int64).reshape(form.rank, form.rank),
                      disc.bilinear_int)
    rows = np.array(reps, dtype=np.int64).reshape(n, width) @ pairing % big_n

    def trace_fast(y: Coords) -> complex:
        # cosets are permuted freely unless y lies in the subgroup, where
        # every coset is fixed with b = y and the trace is
        # e(-chi(y)) sum_t e(S(r_t, y)), S(r_t, y) = c(r_t, y) - c(y, r_t)
        if y not in members:
            return 0j
        pairings = rows @ np.array(y, dtype=np.int64).reshape(width) % big_n
        phase = cmath.exp(-2j * cmath.pi * float(table[y]))
        return complex(roots[pairings].sum()) * phase

    return UnitaryRep(form, n, mono, list(subgroup),
                      f"induced(|B|={len(subgroup)}, dim={n})",
                      trace_fn=trace_fast)


# ---------------------------------------------------------------------------
# commutants and intertwiners


def commutant_dimension(rep: UnitaryRep) -> float:
    """dim of {M : M rho(x) = rho(x) M for all x}, as (1/|G|) sum |tr|^2.

    Off the stored support every basis point moves, so the trace vanishes
    exactly; the sum only runs over the support.
    """
    total_order = rep.form.disc.order ** rep.form.rank
    support = rep.support
    if support is None:
        support = enumerate_h1(rep.form)
    acc = 0.0
    for x in support:
        t = rep.trace_complex(x)
        acc += (t.real * t.real + t.imag * t.imag)
    return acc / total_order


def verify_irreducible(rep: UnitaryRep) -> bool:
    """Commutant has dimension 1.  Small dimensions go through an explicit
    nullspace computation; larger ones through the character sum."""
    total_order = rep.form.disc.order ** rep.form.rank
    if total_order > 10 ** 4:
        raise GroupTooLarge(f"group has {total_order} elements")
    if rep.dimension <= 32:
        dim = _commutant_nullity(rep)
    else:
        dim = commutant_dimension(rep)
    return abs(dim - 1.0) < 1e-9


def _commutant_nullity(rep: UnitaryRep) -> int:
    n = rep.dimension
    eye = np.eye(n)
    blocks = []
    for g in rep.generator_elements():
        m = rep.matrix(g)
        blocks.append(np.kron(eye, m) - np.kron(m.T, eye))
    if not blocks:
        return n * n  # trivial group: every matrix commutes
    system = np.vstack(blocks)
    sv = np.linalg.svd(system, compute_uv=False)
    tol = max(system.shape) * np.finfo(float).eps * (sv[0] if len(sv) else 1.0)
    return int(np.sum(sv <= max(tol, 1e-10)))


def intertwiner_dimension(rep1: UnitaryRep, rep2: UnitaryRep) -> float:
    """dim Hom(rep1, rep2) for same-cocycle reps, by character pairing."""
    if rep1.form is not rep2.form and rep1.form.rank != rep2.form.rank:
        raise DimensionMismatch("representations of different groups")
    total_order = rep1.form.disc.order ** rep1.form.rank
    supports = []
    for rep in (rep1, rep2):
        supports.append(set(rep.support) if rep.support is not None else None)
    if supports[0] is None or supports[1] is None:
        xs = enumerate_h1(rep1.form)
    else:
        xs = sorted(supports[0] & supports[1])
    acc = 0j
    for x in xs:
        acc += rep1.trace_complex(x) * rep2.trace_complex(x).conjugate()
    return abs(acc) / total_order


def explicit_intertwiner(rep1: UnitaryRep, rep2: UnitaryRep):
    """Nullspace solve for M rho1(x) = rho2(x) M over the generators;
    returns (nullity, M) with M unitary up to scale when nullity is 1."""
    if rep1.dimension != rep2.dimension:
        return 0, None
    n = rep1.dimension
    eye = np.eye(n)
    blocks = []
    for g in rep1.generator_elements():
        m1 = rep1.matrix(g)
        m2 = rep2.matrix(g)
        blocks.append(np.kron(m1.T, eye) - np.kron(eye, m2))
    if not blocks:
        return n * n, np.eye(n, dtype=complex)  # trivial group
    system = np.vstack(blocks)
    u, sv, vh = np.linalg.svd(system)
    tol = max(system.shape) * np.finfo(float).eps * (sv[0] if len(sv) else 1.0)
    nullity = int(np.sum(sv <= max(tol, 1e-10)))
    if nullity == 0:
        return 0, None
    m = vh[-1].conjugate().reshape((n, n), order="F")
    return nullity, m


def standard_lagrangians(disc: DiscriminantGroup, genus: int) -> dict[str, list[Coords]]:
    """Generator sets for three Lagrangians of the closed-genus group:
    the a-cycle span, the b-cycle span and the diagonal."""
    form = IntersectionForm.closed_genus(disc, genus)
    zero = form.zero()
    gens_a, gens_b, gens_d = [], [], []
    for i in range(genus):
        for g in disc.generators():
            xa = list(zero)
            xa[2 * i] = g.coords
            gens_a.append(tuple(xa))
            xb = list(zero)
            xb[2 * i + 1] = g.coords
            gens_b.append(tuple(xb))
            xd = list(zero)
            xd[2 * i] = g.coords
            xd[2 * i + 1] = g.coords
            gens_d.append(tuple(xd))
    return {"a_span": gens_a, "b_span": gens_b, "diagonal": gens_d}
