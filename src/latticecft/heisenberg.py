"""Finite Heisenberg groups over surface homology and their unitary
irreducible representations.

Group elements are pairs (X, phase) with X in H1(S; A) and the phase an
exact rational mod 1; the product follows the antisymmetric intersection
pairing S.  Unitary realizations are monomial (permutation times phase)
matrices built from the fixed bilinear cocycle c of the intersection
form, which antisymmetrizes to S; on 2-torsion this distinction matters,
since the commutator of the (X, phase) product is 2S while the commutant
structure of the representations is governed by S itself.

Representations compute on the integer rows of H1(S; A) = A^rank that
the intersection form makes: an element is a row of rank * k ints (k
invariant factors per slot), and its position is the index the form's
`grid`, the mixed-radix indexer of `lattices`, gives that row, which is
its place in `enumerate_h1`.  Subgroups, cosets and splittings are
sorted arrays of such positions with integer phases.  Each
representation holds one integer monomial map from a stack of rows to
stacked permutation and phase arrays mod M, and one table of its traces
as phase histograms built in stacked passes, which the integer commutant
and Hom dimensions read (Stone-von Neumann's character pairing).  An
explicit intertwiner is solved on orbits of integer phased permutations
of its entries.  Floats appear only in `matrix` and in the M that
`explicit_intertwiner` returns.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (
    DimensionMismatch,
    GroupTooLarge,
    NonclosedSurface,
    NotASplitting,
    NotIsotropic,
)
from .exact import PhaseSum
from .lattices import (DENSE_ENTRY_BUDGET, SLAB, DiscriminantGroup, _MixedRadix,
                       _within_budget)
from .surfaces import IntersectionForm, Surface

Coords = tuple[tuple[int, ...], ...]

H1_LIMIT = 10 ** 6  # elements of H1(S; A) that are listed or induced over
SUBGROUP_LIMIT = 4096  # |H1| whose subgroups are enumerated
IRREDUCIBLE_LIMIT = 10 ** 4  # |H1| for which irreducibility is decided


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


def center(disc: DiscriminantGroup, surface: Surface) -> CenterDescription:
    form = IntersectionForm(surface, disc)
    slots = tuple(i for i, slot in enumerate(form.basis.slots)
                  if slot.kind == "boundary")
    gens = tuple(HeisenbergElement.pure(x) for x in _units(form, slots))
    return CenterDescription(boundary_slots=slots, generators=gens)


def _units(form: IntersectionForm, slots) -> list[Coords]:
    """Each generator of A in each given slot, zero in the others."""
    zero = form.zero()
    return [zero[:k] + (g.coords,) + zero[k + 1:]
            for k in slots for g in form.disc.generators()]


def _walked(form: IntersectionForm, limit: int) -> _MixedRadix:
    """The form's grid, for work over all of it: refused past `limit` elements."""
    if form.grid.size > limit:
        raise GroupTooLarge(f"{form.grid.size} elements")
    return form.grid


def enumerate_h1(form: IntersectionForm) -> list[Coords]:
    """All of H1(S; A) in lexicographic order, which is grid order."""
    grid = _walked(form, H1_LIMIT)
    return grid.coords(grid.rows(np.arange(grid.size)))


# ---------------------------------------------------------------------------
# monomial unitary representations


class UnitaryRep:
    """Projective unitary representation by monomial matrices.

    The operator for X acts on functions of a finite basis T as
    (rho(X) f)(t) = e^(2 pi i alpha_X(t)) f(m_X(t)); matrices satisfy
    rho(X) rho(Y) = e^(2 pi i chi c(X,Y)) rho(X + Y) with c the bilinear
    cocycle of the intersection form and chi the central exponent.

    One integer map carries the representation: `monomial_fn` takes a
    stack of grid rows (..., rank * k) and returns m_X and M alpha_X mod M
    as int arrays (..., dimension), M = `modulus`.  `monomial` and the
    traces are its exact readings and `matrix` its only float view.
    `support` is a sorted int array of grid positions; every X off it
    moves every basis point, so its trace is exactly zero.
    """

    def __init__(self, form: IntersectionForm, dimension: int, monomial_fn,
                 modulus: int, support: np.ndarray, chi: int = 1):
        self.form = form
        self.dimension = dimension
        self._monomial = monomial_fn
        self.modulus = modulus
        self.support = support
        self.chi = chi

    # monomial data: permutation m and phases alpha, exact
    def monomial(self, x: Coords):
        perm, alpha = self._monomial(self.form.rows([x])[0])
        m = self.modulus
        return tuple(perm.tolist()), tuple(Fraction(a, m) for a in alpha.tolist())

    def cocycle(self, x: Coords, y: Coords) -> Fraction:
        return (self.chi * self.form.cocycle(x, y)) % 1

    def central_character(self, phase: Fraction) -> Fraction:
        return (self.chi * phase) % 1

    def matrix(self, x: HeisenbergElement | Coords) -> np.ndarray:
        if isinstance(x, HeisenbergElement):
            coords, phase = x.X, x.phase
        else:
            coords, phase = x, Fraction(0)
        perm, alpha = self._monomial(self.form.rows([coords])[0])
        # one scalar evaluation of the exact phase per distinct residue
        residues, inverse = np.unique(alpha, return_inverse=True)
        extra, modulus = float(self.central_character(phase)), self.modulus
        roots = np.array([cmath.exp(2j * cmath.pi * (float(Fraction(a, modulus)) + extra))
                          for a in residues.tolist()], dtype=complex)
        n = self.dimension
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(n), perm] = roots[inverse]
        return m

    def _histograms(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct fixed-point phase histograms mod M, and the row of each position."""
        n, m = self.dimension, self.modulus
        ids, index = np.empty(len(positions), dtype=np.int64), {}
        # at most SLAB integer cells a pass: rows * max(dimension, M) * row length
        step = max(1, SLAB // (max(n, m) * max(1, len(self.form.grid.radices))))
        for start in range(0, len(positions), step):
            perm, alpha = self._monomial(self.form.grid.rows(positions[start:start + step]))
            rows, cols = np.nonzero(perm == np.arange(n))
            hists = np.bincount(rows * m + alpha[rows, cols], minlength=len(perm) * m)
            ids[start:start + len(perm)] = [index.setdefault(h.tobytes(), len(index))
                                            for h in hists.astype(np.int64).reshape(-1, m)]
        return np.frombuffer(b"".join(index), dtype=np.int64).reshape(-1, m), ids

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The histograms of the support, where every nonzero trace lies."""
        return self._histograms(self.support)

    def trace_phase_sums(self, xs) -> list[PhaseSum]:
        """tr rho(x) for each x, exactly; equal histograms share one sum."""
        hists, ids = self._histograms(self.form.grid.index(self.form.rows(xs)))
        sums = [PhaseSum(dict(enumerate(h)), self.modulus) for h in hists.tolist()]
        return [sums[i] for i in ids.tolist()]

    def trace_phase_sum(self, x: Coords) -> PhaseSum:
        return self.trace_phase_sums([x])[0]

    def generator_elements(self) -> list[HeisenbergElement]:
        return [HeisenbergElement.pure(x) for x in _units(self.form, range(self.form.rank))]

    def direct_sum(self, other: "UnitaryRep") -> "UnitaryRep":
        if not _same_group(self, other):
            raise DimensionMismatch("direct sum needs the same central character")
        n1, m = self.dimension, math.lcm(self.modulus, other.modulus)

        def mono(y):
            (p1, a1), (p2, a2) = self._monomial(y), other._monomial(y)
            return (np.concatenate([p1, p2 + n1], axis=-1), np.concatenate(
                [a1 * (m // self.modulus), a2 * (m // other.modulus)], axis=-1))

        return UnitaryRep(self.form, n1 + other.dimension, mono, m,
                          np.union1d(self.support, other.support), self.chi)

    def to_json(self) -> dict:
        """Each generator's element and matrix as the library holds them
        (coordinate tuples, a Fraction phase, array views) for a report writer."""
        elements = self.generator_elements()
        _within_budget(len(elements) * self.dimension ** 2, "the generator matrices")
        gens = []
        for g in elements:
            m = self.matrix(g)
            gens.append({"element": {"coords": g.X, "phase": g.phase},
                         "matrix_re": m.real, "matrix_im": m.imag})
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
        if math.gcd(chi, d) != 1:
            raise ValueError(f"central exponent {chi} degenerates on Z/{d}")
    # |A|^g basis points of g coordinates each; past the budget's bit length
    # any |A| > 1 is over it, so the power is never formed large
    _within_budget(genus * disc.order ** min(genus, DENSE_ENTRY_BUDGET.bit_length()),
                   f"the genus-{genus} Schroedinger basis")
    form = IntersectionForm.closed_genus(disc, genus)
    basis = disc._power(genus)
    dim, k, n = basis.size, basis.k, disc.exponent
    points = basis.rows(np.arange(dim))
    table, chi_n = disc.bilinear_int, chi % n

    def mono(y):
        xa, xb = np.moveaxis(y.reshape(*y.shape[:-1], genus, 2, k), -2, 0)
        shifted = (points - xb.reshape(*xb.shape[:-2], 1, -1)) % basis.radices
        pairing = (xa @ table % n).reshape(*xa.shape[:-2], -1, 1)  # N b(x_a, .) by slot
        return basis.index(shifted), (shifted @ pairing)[..., 0] % n * chi_n % n

    # traces vanish off the a-cycle span: any b-shift moves every basis point
    span = np.zeros((dim, genus, 2, k), dtype=np.int64)
    span[:, :, 0] = points.reshape(dim, genus, k)
    support = form.grid.index(span.reshape(dim, -1))
    return UnitaryRep(form, dim, mono, n, support, chi)


# ---------------------------------------------------------------------------
# subgroups, splittings, induction


def _extend_subgroup(grid: _MixedRadix, subgroup: frozenset, x: int) -> frozenset:
    """<H, x> for a subgroup H of an abelian group, as grid positions: the
    union of the cosets j*x + H."""
    rows = grid.rows(list(subgroup))
    out = set(subgroup)
    step = acc = grid.rows(x)
    while int(grid.index(acc)) not in subgroup:
        out.update(grid.index(acc + rows).tolist())
        acc = (acc + step) % grid.radices
    return frozenset(out)


def _closure(form: IntersectionForm, generators) -> np.ndarray:
    """Sorted grid positions of the subgroup the generators span."""
    grid, sub = form.grid, frozenset({0})
    generators = [g.X if isinstance(g, HeisenbergElement) else g for g in generators]
    for g in grid.index(form.rows(generators)).tolist():
        sub = _extend_subgroup(grid, sub, g)
    return np.array(sorted(sub), dtype=np.int64)


def subgroup_closure(form: IntersectionForm, generators) -> list[Coords]:
    """Subgroup of H1(S; A) generated by the given elements, sorted."""
    return form.grid.coords(form.grid.rows(_closure(form, generators)))


def is_isotropic(form: IntersectionForm, subgroup: list[Coords]) -> bool:
    """S vanishes on every pair of the elements: one integer product."""
    n, b = form.disc.exponent, form.rows(subgroup)
    return not np.any(b @ form.pairing_int % n @ b.T % n)


def _subgroup_search(form: IntersectionForm, isotropic: bool) -> list[list[Coords]]:
    """All subgroups of H1(S; A), or only the isotropic ones, each as a sorted
    element list, by one search from {0}.  Each subgroup H is extended by one
    x per coset x + H, since <H, x> depends only on that coset.  For isotropic
    subgroups x runs over H^perp only: S is alternating, so <H, x> is
    isotropic exactly when H is and x is in H^perp."""
    grid = _walked(form, SUBGROUP_LIMIT)
    everything, n = np.arange(grid.size), form.disc.exponent
    if isotropic:
        pairs = grid.rows(everything) @ form.pairing_int % n  # N S(x, .) for every x
    seen, frontier = {frozenset({0})}, [frozenset({0})]
    while frontier:
        nxt = []
        for sub in frontier:
            rows, tried = grid.rows(list(sub)), set(sub)
            candidates = (np.flatnonzero(~np.any(pairs @ rows.T % n, axis=1)) if isotropic
                          else everything)
            for x in candidates.tolist():
                if x not in tried:
                    tried.update(grid.index(grid.rows(x) + rows).tolist())
                    bigger = _extend_subgroup(grid, sub, x)
                    if bigger not in seen:
                        seen.add(bigger)
                        nxt.append(bigger)
        frontier = nxt
    # positions sort like the coordinates they index
    return [grid.coords(grid.rows(sub)) for sub in
            sorted((sorted(sub) for sub in seen), key=lambda s: (len(s), s))]


def enumerate_subgroups(form: IntersectionForm) -> list[list[Coords]]:
    """All subgroups of H1(S; A), each as a sorted element list."""
    return _subgroup_search(form, isotropic=False)


def isotropic_subgroups(form: IntersectionForm) -> list[list[Coords]]:
    """The subgroups on which S vanishes, in `enumerate_subgroups` order."""
    return _subgroup_search(form, isotropic=True)


def _splitting(form: IntersectionForm, members: np.ndarray,
               assigned: dict) -> tuple[np.ndarray, int]:
    """A splitting chi of the subgroup B at the sorted grid positions
    `members`, in integers: phases and the least modulus M (a multiple of
    N) with chi(b) = phase / M.  Built one cyclic step at a time: the wrap
    phase of each new generator fixes its value up to a k-th root,
    resolved deterministically or taken from `assigned` (elements to
    values mod 1).  Every assigned value is checked, against the wrap
    phase or against the value already forced; chi(0) = 0."""
    grid, n, u = form.grid, form.disc.exponent, len(members)
    inside, values = set(members.tolist()), {}
    for x, p in zip(assigned, grid.index(form.rows(list(assigned))).tolist()):
        if p not in inside:
            raise NotASplitting(f"assigned element {x} is not in the subgroup")
        values[p] = Fraction(assigned[x]) % 1
    if values.get(0, 0) != 0:
        raise NotASplitting(f"value {values[0]} for the identity is not 0")
    pool = sorted((p for p in members.tolist() if p), key=lambda p: p not in values)
    # integer phases mod N |B|: each cyclic step divides a wrap phase by
    # its order k, and the orders multiply to |B|
    big_m, table = n * u, {0: 0}
    for p in pool:
        if p in table:
            if p in values and Fraction(table[p], big_m) != values[p]:
                raise NotASplitting(
                    f"value {values[p]} for {grid.coords(grid.rows([p]))[0]} contradicts "
                    f"the values already forced by earlier generators")
            continue
        x = grid.rows(p)
        cx = x @ form.cocycle_int % n  # N c(x, .)
        cxx = int(cx @ x % n)
        # order k of x modulo the part already covered; the wrap phase
        # sum_(0<j<k) c(j x, x) is c(x, x) k (k - 1) / 2
        k, acc = 1, x
        while (q := int(grid.index(acc))) not in table:
            acc, k = acc + x, k + 1
        need = (table[q] - cxx * (k * (k - 1) // 2) % n * u) % big_m
        if p in values:
            if (k * values[p] - Fraction(need, big_m)) % 1:
                raise NotASplitting(
                    f"value {values[p]} for {grid.coords(grid.rows([p]))[0]} is inconsistent "
                    f"with its order-{k} wrap phase")
            value = int(values[p] * big_m)
        else:
            value = need // k
        # chi(m x + h) = m value + c(x, x) m (m - 1) / 2 + chi(h) + m c(x, h)
        h, chi_h = grid.rows(list(table)), np.array(list(table.values()))
        cxh = cx @ h.T % n
        for m in range(1, k):
            power = (m * value + cxx * (m * (m - 1) // 2) % n * u) % big_m
            phases = (power + chi_h + m * cxh % n * u) % big_m
            table.update(zip(grid.index(m * x + h).tolist(), phases.tolist()))
    if set(table) != inside:
        raise NotASplitting("generators do not span the subgroup")
    # 2-torsion gives values finer than 1/N; the least modulus is
    # lcm(N, the denominators) = N |B| / gcd(|B|, phases)
    phases = np.array([table[p] for p in members.tolist()], dtype=np.int64)
    g = math.gcd(u, *phases.tolist())
    return phases // g, big_m // g


def canonical_splitting(form: IntersectionForm, subgroup: list[Coords],
                        assigned: dict[Coords, Fraction] | None = None
                        ) -> dict[Coords, Fraction]:
    """A splitting chi: B -> Q/Z with
    chi(b + b') = chi(b) + chi(b') + c(b, b') mod 1, keyed by the given
    elements: the exact view of `_splitting`, which checks `assigned`."""
    members, at = np.unique(form.grid.index(form.rows(subgroup)), return_inverse=True)
    phases, modulus = _splitting(form, members, assigned or {})
    return {x: Fraction(int(phases[i]), modulus) for x, i in zip(subgroup, at.tolist())}


def _coset_labels(grid: _MixedRadix, members: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The coset of B (sorted positions `members`) of each grid position,
    and each coset's least position, in order: one step per coset, each
    finding the next unlabelled position by a scan of the flags."""
    b_rows, free = grid.rows(members), bytearray(b"\1") * grid.size
    label, unlabelled = np.full(grid.size, -1, dtype=np.int64), np.frombuffer(free, np.uint8)
    reps, i = [], 0
    while (i := free.find(1, i)) >= 0:
        coset = grid.index(grid.rows(i) + b_rows)
        label[coset], unlabelled[coset] = len(reps), 0
        reps.append(i)
    return label, reps


def induce_from_isotropic(form: IntersectionForm, generators,
                          splitting: dict | None = None) -> UnitaryRep:
    """Representation induced from an isotropic subgroup B with splitting.

    Functions on the coset space B\\H1 carry the action
    (rho(Y, p) f)(t) = e^(2 pi i (p + c(r_t, Y) - chi(b) - c(b, r_t')))
    f(t') where r_t + Y = b + r_t'.  Dimension |H1| / |B|.  A splitting
    that covers B is restricted to B; either way `_splitting` checks
    every given value.
    """
    gens = [g.X if isinstance(g, HeisenbergElement) else g for g in generators]
    # the pairing is bilinear, so generator pairs decide isotropy
    if not is_isotropic(form, gens):
        raise NotIsotropic("the pairing does not vanish on the subgroup")
    grid, n = _walked(form, H1_LIMIT), form.disc.exponent
    members = _closure(form, gens)
    if splitting:
        at = dict(zip(grid.index(form.rows(list(splitting))).tolist(), splitting))
        if set(members.tolist()) <= set(at):
            splitting = {at[p]: splitting[at[p]] for p in members.tolist()}
    chi_m, big_m = _splitting(form, members, splitting or {})

    label, reps = _coset_labels(grid, members)
    r = grid.rows(reps)
    left, right = r @ form.cocycle_int % n, r @ form.cocycle_int.T % n

    def mono(y):
        # sections invariant under the lifted subgroup satisfy
        # F(b + x) = e^(-2 pi i (chi(b) + c(b, x))) F(x)
        x = r + y[..., None, :]
        t2 = label[grid.index(x)]
        b = x - r[t2]
        c = (y @ left.T - np.einsum("...ij,...ij->...i", b, right[t2])) % n
        chi_b = chi_m[np.searchsorted(members, grid.index(b))]
        return t2, (c * (big_m // n) - chi_b) % big_m

    return UnitaryRep(form, len(reps), mono, big_m, members)


# ---------------------------------------------------------------------------
# commutants and intertwiners


def _character_pairing(rep1: UnitaryRep, rep2: UnitaryRep) -> int:
    """dim Hom(rep1, rep2) = (1/|H1|) sum_x tr rho1(x) conj(tr rho2(x)), exactly:
    the term at x is u(z) v(1/z) in Z[z]/(z^m - 1) for the tables' histograms u, v
    mod m, once per distinct (u, v).  Different central characters give 0."""
    if not _same_group(rep1, rep2):
        return 0
    m = math.lcm(rep1.modulus, rep2.modulus)
    common = np.intersect1d(rep1.support, rep2.support)

    def strided(rep):  # the table's histograms onto phases mod m, the row of each common x
        hists, ids = rep._table
        spread = hists[:, :, None] * (np.arange(m // rep.modulus) == 0)  # h[k] at k m / M
        return spread.reshape(len(hists), m), ids[np.searchsorted(rep.support, common)]

    (h1, i1), (h2, i2) = strided(rep1), strided(rep2)
    pairs, counts = np.unique(np.stack([i1, i2], axis=1), axis=0, return_counts=True)
    sums = sum(count * np.correlate(np.concatenate([h1[i], h1[i]]), h2[j], "valid")[:m]
               for (i, j), count in zip(pairs.tolist(), counts.tolist()))
    value = PhaseSum(dict(enumerate(sums.tolist())), m).integer_value()
    if value is None or value % rep1.form.grid.size:
        raise ArithmeticError("character pairing is not a multiple of |H1|")
    return value // rep1.form.grid.size


def commutant_dimension(rep: UnitaryRep) -> int:
    """dim of {M : M rho(x) = rho(x) M for all x}, by the character pairing."""
    return _character_pairing(rep, rep)


def verify_irreducible(rep: UnitaryRep) -> bool:
    """Schur: the commutant has dimension 1."""
    _walked(rep.form, IRREDUCIBLE_LIMIT)
    return commutant_dimension(rep) == 1


def _same_group(rep1: UnitaryRep, rep2: UnitaryRep) -> bool:
    """Refuse representations of different Heisenberg groups: the
    intersection matrices, invariant factors or bilinear forms differ.
    Returns whether the central exponents agree mod N."""
    f1, f2 = rep1.form, rep2.form
    if f1 is not f2 and (
            f1.J != f2.J or f1.disc.invariant_factors != f2.disc.invariant_factors
            or not np.array_equal(f1.disc.bilinear_int, f2.disc.bilinear_int)):
        raise DimensionMismatch("representations of different Heisenberg groups")
    return (rep1.chi - rep2.chi) % f1.disc.exponent == 0


def intertwiner_dimension(rep1: UnitaryRep, rep2: UnitaryRep) -> int:
    """dim Hom(rep1, rep2), by the character pairing."""
    return _character_pairing(rep1, rep2)


def _orbits(target: np.ndarray, phase: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of phased permutations, in integers: equation g says
    M[target[g, e]] = e(phase[g, e] / m) M[e].  Returns each entry's root,
    the least entry of its orbit, and a potential p with M[e] = e(p / m) M[root]
    along some path of equations.  Across each equation both ends take the
    lesser parent, and parents jump to their parents', until nothing moves."""
    parent, pot = np.arange(target.shape[1]), np.zeros(target.shape[1], dtype=np.int64)
    while True:
        before = parent.copy()
        for t, ph in zip(target, phase):
            down = parent[t] < parent  # e takes t's parent, by M[e] = e(-ph) M[t]
            parent, pot = (np.where(down, parent[t], parent),
                           np.where(down, (pot[t] - ph) % m, pot))
            up = parent < parent[t]  # t takes e's, by M[t] = e(ph) M[e]; no t repeats
            parent[t[up]], pot[t[up]] = parent[up], (pot[up] + ph[up]) % m
        pot, parent = (pot + pot[parent]) % m, parent[parent]
        if np.array_equal(parent, before):
            return parent, pot


def explicit_intertwiner(rep1: UnitaryRep, rep2: UnitaryRep):
    """Exact solve of M rho1(x) = rho2(x) M over the generators; returns
    (nullity, M) with M unitary up to scale when nullity is 1.

    Generator g sends entry M[i, k] to M[p2(i), p1(k)] with phase
    e((a1(k) - a2(i)) / m), so a solution is a function on the orbits of
    these phased permutations of the n^2 entries, fixed by its value at
    each orbit's root: the nullity is the number of orbits whose integer
    phases close up.  M is 1 at those roots."""
    _same_group(rep1, rep2)
    if rep1.dimension != rep2.dimension:
        return 0, None
    form, n = rep1.form, rep1.dimension
    m = math.lcm(rep1.modulus, rep2.modulus)
    gens = form.rows(_units(form, range(form.rank)))
    if not len(gens):
        return n * n, np.eye(n, dtype=complex)  # trivial group
    _within_budget(len(gens) * n * n, "the intertwiner equations")
    (p1, a1), (p2, a2) = rep1._monomial(gens), rep2._monomial(gens)
    target = (p2[:, :, None] * n + p1[:, None, :]).reshape(len(gens), n * n)
    phase = (a1[:, None, :] * (m // rep1.modulus)
             - a2[:, :, None] * (m // rep2.modulus)).reshape(len(gens), n * n) % m
    root, pot = _orbits(target, phase, m)
    closes = root == np.arange(n * n)
    closes[root[np.nonzero((pot[target] - pot - phase) % m)[1]]] = False
    nullity = int(np.count_nonzero(closes))
    if nullity == 0:
        return 0, None
    return nullity, np.where(closes[root], np.exp(2j * np.pi * pot / m), 0).reshape(n, n)


def standard_lagrangians(disc: DiscriminantGroup, genus: int) -> dict[str, list[Coords]]:
    """Generator sets for three Lagrangians of the closed-genus group:
    the a-cycle span, the b-cycle span and the diagonal."""
    form = IntersectionForm.closed_genus(disc, genus)
    gens_a = _units(form, range(0, 2 * genus, 2))
    gens_b = _units(form, range(1, 2 * genus, 2))
    return {"a_span": gens_a, "b_span": gens_b,
            "diagonal": [form.add(a, b) for a, b in zip(gens_a, gens_b)]}
