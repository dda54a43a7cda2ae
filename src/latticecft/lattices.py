"""Even positive definite lattices and their discriminant groups.

All arithmetic is exact: Gram data are Python ints, and the discriminant
forms are stored once, as integer tables scaled by the exponent N of A
(N b mod N and N q mod 2N on generators); their rational values mod 1
and mod 2 are read back from those tables.  The discriminant group A is
always presented in invariant-factor coordinates fixed once per lattice
by a Smith normal form of the Gram matrix, so element iteration and all
derived matrices are deterministic.  That form is one elimination table,
[M | U] over V, whose row and column operations record U and V; U^{-1},
which gives the generators, is kept beside it as its transpose `w`.

It is also the one place that indexes A^m: `_MixedRadix` maps integer
rows of m * k coordinates to their lexicographic positions and back, in
`elements()` order at m = 1, for every layer that sums or lists over A^m;
each layer takes its indexer from `DiscriminantGroup._power`.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

import numpy as np

from .errors import GroupTooLarge, NotPositiveDefinite, NotSymmetric, OddDiagonal
from .exact import det_int

IntMatrix = tuple[tuple[int, ...], ...]

# Most entries a call may build: |A| (Gauss sum), |A|^2 (S, T, C), |A|^3
# (fusion), |A|^k (the factorization sum over k gluing circles).
DENSE_ENTRY_BUDGET = 2 ** 24
SLAB = 2 ** 16  # rows per block when a sum runs over all of A^m
INDEX_LIMIT = 2 ** 62  # largest A^m whose int64 positions cannot overflow
GAUSS_TOL = 1e-9  # relative float error `signature_mod8` allows the Gauss sum


def _within_budget(entries: int, what: str, budget: int = DENSE_ENTRY_BUDGET) -> None:
    if entries > budget:
        raise GroupTooLarge(f"{what} needs {entries} entries, over {budget}")


def _read(x, table, y, n: int) -> Fraction:
    """x table y / n mod 1 for integer rows; each product is reduced mod n,
    so int64 tables never overflow."""
    return Fraction(int(x @ table % n @ y % n), n)


def as_int(x, what: str) -> int:
    """x as an int; a bool, a string, 1.5, inf or NaN is refused, not truncated."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or x % 1:  # inf % 1 is NaN
        raise ValueError(f"{what} is {x!r}, not an integer")
    return int(x)


def _as_integer_matrix(gram) -> IntMatrix:
    return tuple(tuple(as_int(x, f"entry ({i},{j})") for j, x in enumerate(row))
                 for i, row in enumerate(gram))


@dataclass(frozen=True)
class EvenLattice:
    """Positive definite even lattice given by its Gram matrix."""

    gram: IntMatrix
    rank: int
    det: int
    level_ell: int

    @cached_property
    def lambda_min(self) -> float:
        """The Gram matrix's least eigenvalue in floats, computed once."""
        return float(np.min(np.linalg.eigvalsh(np.array(self.gram, dtype=float))))


def validate_even_lattice(gram) -> EvenLattice:
    """Check symmetry, even diagonal and positive definiteness.

    The level is the gcd of all Gram entries: the set of values the
    bilinear form takes on the lattice is exactly the ideal those
    entries generate.
    """
    m = _as_integer_matrix(gram)
    r = len(m)
    if r == 0 or any(len(row) != r for row in m):
        raise NotSymmetric("Gram matrix must be square and nonempty")
    for i in range(r):
        for j in range(r):
            if m[i][j] != m[j][i]:
                raise NotSymmetric(f"entry ({i},{j}) != ({j},{i})")
    for i in range(r):
        if m[i][i] % 2 != 0:
            raise OddDiagonal(f"diagonal entry {m[i][i]} at {i} is odd")
    for k in range(1, r + 1):
        minor = det_int([row[:k] for row in m[:k]])
        if minor <= 0:
            raise NotPositiveDefinite(f"leading {k}x{k} minor is {minor}")
    d = det_int(m)
    ell = 0
    for row in m:
        for x in row:
            ell = gcd(ell, x)
    return EvenLattice(gram=m, rank=r, det=d, level_ell=ell)


def smith_normal_form(m) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, D, V) with U*M*V = D, U and V unimodular and D diagonal
    with a divisibility chain d1 | d2 | ...  Works for any integer matrix."""
    u, d, v, _ = _snf_with_inverse(_as_integer_matrix(m))
    return u, d, v


def _snf_with_inverse(m: IntMatrix):
    """Smith normal form that also tracks U^{-1} (needed for discriminant
    coordinates): (U, D, V, Uinv) with U*M*V = D.  One table holds the
    elimination, [M | I] over I: row operations act on its first rows
    whole and column operations on M's columns down to the bottom, so it
    ends as [D | U] over V.  U^{-1} is kept beside it as its transpose w,
    whose rows take each row operation's inverse.  Each pivot is the
    first least nonzero entry of the trailing block, row by row."""
    rows, cols = len(m), len(m[0]) if m else 0
    a = [list(r) + [int(i == j) for j in range(rows)] for i, r in enumerate(m)]
    a += [[int(i == j) for j in range(cols)] for i in range(cols)]
    w = [[int(i == j) for j in range(rows)] for i in range(rows)]

    def row_add(i, k, c):  # row i += c row k; so column k of U^{-1} -= c column i
        a[i] = [x + c * y for x, y in zip(a[i], a[k])]
        w[k] = [x - c * y for x, y in zip(w[k], w[i])]

    def col_add(j, k, c):  # col j += c col k, in M and V alike
        for r in a:
            r[j] += c * r[k]

    for t in range(min(rows, cols)):
        while block := [(abs(x), i, j) for i in range(t, rows)
                        for j, x in enumerate(a[i][t:cols], t) if x]:
            _, i, j = min(block)
            a[t], a[i], w[t], w[i] = a[i], a[t], w[i], w[t]
            if j != t:
                for r in a:
                    r[t], r[j] = r[j], r[t]
            if a[t][t] < 0:
                a[t], w[t] = [-x for x in a[t]], [-x for x in w[t]]
            p = a[t][t]
            for i in range(t + 1, rows):
                if q := a[i][t] // p:
                    row_add(i, t, -q)
            for j in range(t + 1, cols):
                if q := a[t][j] // p:
                    col_add(j, t, -q)
            if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:cols]):
                continue
            # the pivot must also divide the rest of the block
            offender = next((i for i in range(t + 1, rows)
                             if any(x % p for x in a[i][t + 1:cols])), None)
            if offender is None:
                break
            row_add(t, offender, 1)
    return (tuple(tuple(r[cols:]) for r in a[:rows]), tuple(tuple(r[:cols]) for r in a[:rows]),
            tuple(map(tuple, a[rows:])), tuple(zip(*w)))


class _MixedRadix:
    """`copies` copies of A = prod Z/d_i as integer rows of copies * k
    coordinates.  A row's position is its mixed-radix index: the
    lexicographic order of A^m, which at one copy is `elements()`."""

    def __init__(self, factors: tuple[int, ...], copies: int = 1):
        radices = tuple(factors) * copies
        self.size = math.prod(radices)
        if self.size > INDEX_LIMIT:
            raise GroupTooLarge(f"{self.size} elements")
        self.copies, self.k = copies, len(factors)
        self.radices = np.array(radices, dtype=np.int64)
        self.strides = np.array([math.prod(radices[j + 1:]) for j in range(len(radices))],
                                dtype=np.int64)

    def index(self, rows) -> np.ndarray:
        """Positions of rows (last axis), reduced mod the radices; int64, also
        for the object rows of an A past the entry budget (at rank 0, empty)."""
        return np.asarray(rows % self.radices, dtype=np.int64) @ self.strides

    def rows(self, index) -> np.ndarray:
        return np.asarray(index)[..., None] // self.strides % self.radices

    def add(self, p, q) -> np.ndarray:
        """Positions of rows(p) + rows(q), broadcast: p + q less radix * stride
        where a digit sum carries.  Outer products are compared, not reduced;
        on a scalar or a few positions `index` of the summed rows is quicker."""
        carries = self.rows(p) >= self.radices - self.rows(q)
        return p + q - carries @ (self.radices * self.strides)

    def coords(self, rows) -> list[tuple[tuple[int, ...], ...]]:
        """Rows as tuples of `copies` coordinate tuples."""
        k = self.k
        return [tuple(tuple(r[s * k:(s + 1) * k]) for s in range(self.copies))
                for r in rows.tolist()]

    def slabs(self):
        """All rows in position order, at most SLAB at a time."""
        yield self._head
        for start in range(SLAB, self.size, SLAB):
            yield self.rows(np.arange(start, min(start + SLAB, self.size)))

    @cached_property
    def _head(self) -> np.ndarray:
        """The first slab, kept: it is all of a small group."""
        return self.rows(np.arange(min(self.size, SLAB)))


@dataclass(frozen=True)
class GroupElement:
    """Element of a discriminant group in invariant-factor coordinates."""

    coords: tuple[int, ...]


class DiscriminantGroup:
    """The finite group A = (dual lattice)/(lattice) with its induced
    bilinear form mod 1 and quadratic form mod 2.

    Coordinates: A = prod Z/d_i, d_1 | ... | d_k = N the nontrivial invariant
    factors of the Gram matrix, iterated lexicographically.  On generators
    `bilinear_int` is N b mod N and `quadratic_int` is N q mod 2N; every
    form value is an integer sum over these tables, and `bilinear_matrix`
    and `quadratic_diag` are their exact `Fraction` views.
    """

    def __init__(self, lattice: EvenLattice):
        self.lattice = lattice
        gram = lattice.gram
        r = lattice.rank
        _, d, _, uinv = _snf_with_inverse(gram)
        all_factors = tuple(d[i][i] for i in range(r))
        keep = tuple(i for i in range(r) if all_factors[i] > 1)
        self.invariant_factors: tuple[int, ...] = tuple(all_factors[i] for i in keep)
        self.order = math.prod(self.invariant_factors) if keep else 1
        # lift of the i-th generator to the dual lattice: solve G x = Uinv e_i
        lifts = [tuple(_solve_fraction(gram, [Fraction(uinv[k][i]) for k in range(r)]))
                 for i in keep]
        self.lift_vectors: tuple[tuple[Fraction, ...], ...] = tuple(lifts)
        # the forms on generators, scaled by the exponent N to integers
        k = len(keep)
        n = self.exponent = max(self.invariant_factors, default=1)

        def scaled(i, j):  # N times the pairing of lift i with generator j
            return int(n * sum(lifts[i][t] * uinv[t][keep[j]] for t in range(r)))

        bil = [[scaled(i, j) % n for j in range(k)] for i in range(k)]
        quad = [scaled(i, i) % (2 * n) for i in range(k)]
        dtype = np.int64 if n <= DENSE_ENTRY_BUDGET else object  # such |A| build no table
        self.bilinear_int = np.array(bil, dtype=dtype).reshape(k, k)
        self.quadratic_int = np.array(quad, dtype=dtype)
        # exact views of the same tables: b mod 1 and q mod 2
        self.bilinear_matrix: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(Fraction(m, n) for m in row) for row in bil)
        self.quadratic_diag: tuple[Fraction, ...] = tuple(Fraction(m, n) for m in quad)
        self._powers: dict[int, _MixedRadix] = {}
        self._characters: dict[tuple[int, ...], tuple[int, complex]] = {}  # blocks' sums

    # -- elements ---------------------------------------------------------

    @property
    def zero(self) -> GroupElement:
        return GroupElement((0,) * len(self.invariant_factors))

    def element(self, coords) -> GroupElement:
        return GroupElement(self.reduce(tuple(coords)))

    def reduce(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        if len(coords) != len(self.invariant_factors):
            raise ValueError("coordinate length does not match invariant factors")
        return tuple(c % d for c, d in zip(coords, self.invariant_factors))

    def elements(self):
        for coords in itertools.product(*(range(d) for d in self.invariant_factors)):
            yield GroupElement(coords)

    def add(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return GroupElement(self.reduce(tuple(map(operator.add, a.coords, b.coords))))

    def neg(self, a: GroupElement) -> GroupElement:
        return GroupElement(self.reduce(tuple(-x for x in a.coords)))

    def _power(self, copies: int = 1) -> _MixedRadix:
        """A^copies on the mixed-radix indexer, built once per copy count."""
        if copies not in self._powers:
            self._powers[copies] = _MixedRadix(self.invariant_factors, copies)
        return self._powers[copies]

    def coordinates(self) -> np.ndarray:
        """order x k array of element coordinates in elements() order."""
        return self._power().rows(np.arange(self.order))

    def index(self, coords) -> np.ndarray:
        """elements() positions of coordinate rows (last axis), reduced mod d_i."""
        return self._power().index(coords)

    def generators(self) -> tuple[GroupElement, ...]:
        k = len(self.invariant_factors)
        return tuple(GroupElement(tuple(int(i == j) for j in range(k)))
                     for i in range(k))

    def lift(self, a: GroupElement) -> tuple[Fraction, ...]:
        """Representative of a in dual-lattice coordinates."""
        pairs = list(zip(a.coords, self.lift_vectors))
        return tuple(sum((c * vec[t] for c, vec in pairs), Fraction(0))
                     for t in range(self.lattice.rank))

    # -- forms ------------------------------------------------------------

    def bilinear(self, a: GroupElement, b: GroupElement) -> Fraction:
        return self.bilinear_coords(a.coords, b.coords)

    def bilinear_coords(self, a: tuple[int, ...], b: tuple[int, ...]) -> Fraction:
        """b(a, b) mod 1 from N b(a, b) = a bilinear_int b mod N."""
        return _read(self._row(a), self.bilinear_int, self._row(b), self.exponent)

    def _row(self, coords) -> np.ndarray:
        """Reduced coordinates as one row of the tables' dtype."""
        return np.array(self.reduce(tuple(coords)), dtype=self.bilinear_int.dtype)

    def quadratic(self, a: GroupElement) -> Fraction:
        """q(a) mod 2, from N q(a) = sum_i a_i^2 N q_i + 2 sum_(i<j) a_i a_j N b_ij."""
        n, r = self.exponent, self._row(a.coords)
        s = (r * r % (2 * n) @ self.quadratic_int
             + 2 * (r @ np.triu(self.bilinear_int, 1) % n @ r))
        return Fraction(int(s % (2 * n)), n)

    def quadratic_values(self) -> np.ndarray:
        """N q(a) mod 2N in elements() order; no order x k array is built."""
        two_n, axes = 2 * self.exponent, np.ix_(*map(np.arange, self.invariant_factors))
        out = np.zeros(self.invariant_factors, dtype=np.int64)
        for i, j in itertools.combinations_with_replacement(range(len(axes)), 2):
            coef = self.quadratic_int[i] if i == j else 2 * self.bilinear_int[i, j]
            out += coef * (axes[i] * axes[j] % two_n) % two_n
        return (out % two_n).reshape(-1)

    def __repr__(self) -> str:
        return f"DiscriminantGroup(factors={self.invariant_factors})"


def _solve_fraction(gram: IntMatrix, rhs: list[Fraction]) -> list[Fraction]:
    """Solve gram * x = rhs exactly over the rationals."""
    r = len(gram)
    aug = [[Fraction(gram[i][j]) for j in range(r)] + [rhs[i]] for i in range(r)]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [aug[i][r] for i in range(r)]


def discriminant_group(lat: EvenLattice) -> DiscriminantGroup:
    return DiscriminantGroup(lat)


def gauss_sum(disc: DiscriminantGroup) -> complex:
    """Sum of e^(pi i q(a)) over A; modulus sqrt|A|, argument encodes the
    lattice signature mod 8.  Terms are added in elements() order."""
    _within_budget(disc.order, "the Gauss sum")
    n = disc.exponent
    roots = [cmath.exp(1j * cmath.pi * (m / n)) for m in range(2 * n)]
    total = 0j
    for m in disc.quadratic_values():
        total += roots[m]
    return total


def signature_mod8(disc: DiscriminantGroup) -> int:
    """Signature mod 8 certified from the Gauss sum phase."""
    g = gauss_sum(disc)
    mod = abs(g)
    if abs(mod - math.sqrt(disc.order)) > GAUSS_TOL * max(1.0, math.sqrt(disc.order)):
        raise ArithmeticError(f"Gauss sum modulus {mod} != sqrt({disc.order})")
    sigma = round((cmath.phase(g) / (2 * math.pi)) * 8) % 8
    if abs(g - mod * cmath.exp(2j * cmath.pi * sigma / 8)) > GAUSS_TOL * max(1.0, mod):
        raise ArithmeticError("Gauss sum phase is not a multiple of 2*pi/8")
    return sigma


# The seed of the acceptance suite and of CLI reports when none is given.
DEFAULT_SEED = 1_000_003

# Gram matrices bundled for the verification suite and the CLI.
A1_GRAM: IntMatrix = ((2,),)
A2_GRAM: IntMatrix = ((2, 1), (1, 2))
D4_GRAM: IntMatrix = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
E8_GRAM: IntMatrix = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)

BUNDLED_GRAMS: dict[str, IntMatrix] = {
    "a1": A1_GRAM,
    "a2": A2_GRAM,
    "d4": D4_GRAM,
    "e8": E8_GRAM,
}

# extra small lattices used by tests and sweeps
EXTRA_GRAMS: dict[str, IntMatrix] = {
    "z4": ((4,),),
    "z6": ((6,),),
    "z8": ((8,),),
    "z2z2": ((2, 0), (0, 2)),
    "z2z4": ((2, 0), (0, 4)),
    "z2z8": ((2, 0), (0, 8)),
}
