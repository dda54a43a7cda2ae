"""Truncated positive-energy loop-group data.

Sector state spaces are pairs (dual-lattice shift, colored multipartition)
graded by energy <x,x>/2 + |partition|; characters are integer q-series
computed by generating functions and cross-checked against explicit state
enumeration.  Energies are integer numerators over a known denominator:
with D the lcm of a vector's denominators and p = D x, <x,x>/2 is
p^T G p over 2 D^2.  One walk, `_walk`, visits the vectors c + mu of a
coset whose numerator is within a bound, in box order.  The lift search
walks it once, bounded by the shorter of the start lift and its nearest
translate, and keeps the least (numerator, mu), which orders like (norm,
lift) because c is fixed; only the winner becomes a `Fraction` lift.
`_sector` walks lift + Z^r once more, up to ground + max_offset, and
turns each numerator into an integer offset or refuses it: `sector_character`
bins the offsets, `enumerate_sector_states` lists oscillator states on top
of each vector, and `sector_state_counts` (criterion 8's explicit counts)
adds the binned oscillator basis at each.  Oscillator energies are computed
once per truncation; the annulus sewing check keys energies by numerators
too, with adj(G) as integer cofactors, and scans its dual vectors on its own.
Both scans run over one `_box`, a cube of half-width
h = ceil(sqrt(2 E / lambda_min)) + 1 about -round(c): an x = c + mu of
energy <= E has |x_i| <= h - 1, and |c_i - round(c_i)| <= 1/2, so the
cube holds it however skewed the basis.
The oscillator algebra is realized on the truncated basis with
[a_m, a_n^+] = m delta, the normalization in which the structure
constants stay integral.  Bogoliubov vacuum overlaps are the finite-mode
shadow of polarization changes: det(1 - T*T)^(1/4) against a trapezoid
quadrature whose grid is sized by its own error bound 2^-80, within budget.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import GroupTooLarge, NonIntegralEnergy, NotContractive
from .exact import det_int
from .lattices import (
    SLAB,
    DiscriminantGroup,
    EvenLattice,
    GroupElement,
    _within_budget,
)

QUADRATURE_EPS = 2.0 ** -80  # truncation and alias bound of the overlap quadrature

# ---------------------------------------------------------------------------
# loop cocycle


@dataclass(frozen=True)
class TrigLoop:
    """Lie-algebra-valued trigonometric polynomial, by Fourier modes
    {m: complex vector}; real loops have xi_{-m} = conj(xi_m)."""

    modes: tuple[tuple[int, tuple[complex, ...]], ...]
    rank: int

    @staticmethod
    def from_modes(modes: dict[int, np.ndarray]) -> "TrigLoop":
        rank = None
        out = []
        for m, vec in sorted(modes.items()):
            vec = tuple(complex(x) for x in np.atleast_1d(vec))
            rank = len(vec) if rank is None else rank
            if len(vec) != rank:
                raise ValueError("inconsistent coefficient lengths")
            out.append((int(m), vec))
        return TrigLoop(modes=tuple(out), rank=rank or 1)

    @staticmethod
    def from_cos_sin(const=None, cos: dict | None = None,
                     sin: dict | None = None) -> "TrigLoop":
        modes: dict[int, np.ndarray] = {}
        if const is not None:
            modes[0] = np.atleast_1d(np.asarray(const, dtype=complex))

        def bump(m, vec):
            vec = np.atleast_1d(np.asarray(vec, dtype=complex))
            modes[m] = modes.get(m, np.zeros_like(vec)) + vec

        for k, vec in (cos or {}).items():
            vec = np.atleast_1d(np.asarray(vec, dtype=complex))
            bump(k, vec / 2)
            bump(-k, vec / 2)
        for k, vec in (sin or {}).items():
            vec = np.atleast_1d(np.asarray(vec, dtype=complex))
            bump(k, vec / 2j)
            bump(-k, -vec / 2j)
        return TrigLoop.from_modes(modes)

    def coefficient(self, m: int) -> np.ndarray:
        for mm, vec in self.modes:
            if mm == m:
                return np.asarray(vec)
        return np.zeros(self.rank, dtype=complex)

    def __call__(self, angle: float) -> np.ndarray:
        out = np.zeros(self.rank, dtype=complex)
        for m, vec in self.modes:
            out += np.asarray(vec) * np.exp(1j * m * angle)
        return out.real if np.max(np.abs(out.imag)) < 1e-12 else out

    def derivative(self) -> "TrigLoop":
        return TrigLoop.from_modes({m: 1j * m * np.asarray(vec)
                                    for m, vec in self.modes})


def loop_cocycle(xi: TrigLoop, eta: TrigLoop) -> float:
    """Integral over the circle of <xi, d eta>: by mode pairing equal to
    -2 pi i sum_m m <xi_m, eta_{-m}> (the standard inner product extended
    bilinearly)."""
    if xi.rank != eta.rank:
        raise ValueError("loops have different ranks")
    total = 0j
    for m, vec in xi.modes:
        if m == 0:
            continue
        other = eta.coefficient(-m)
        total += -2j * math.pi * m * (np.asarray(vec) @ other)
    if abs(total.imag) > 1e-9 * max(1.0, abs(total)):
        raise ArithmeticError("cocycle of real loops should be real")
    return float(total.real)


# ---------------------------------------------------------------------------
# truncated oscillator algebra


@dataclass(frozen=True)
class ModeTruncation:
    rank: int
    max_mode: int
    max_energy: int

    def __post_init__(self):
        if self.rank < 1 or self.max_mode < 1 or self.max_energy < 0:
            raise ValueError("rank and max_mode positive, max_energy nonnegative")


Occupation = tuple[tuple[tuple[int, int], int], ...]  # ((mode, color), count)


@lru_cache(maxsize=None)
def oscillator_basis(tr: ModeTruncation) -> tuple[Occupation, ...]:
    """All colored occupation states with energy <= max_energy and modes
    <= max_mode, ordered by (energy, occupation); built once per
    truncation.  Counted first, with modes unbounded, at 32 budget
    entries a state: each takes about 250 bytes."""
    _within_budget(32 * sum(partition_counts(tr.max_energy, tr.rank)), "the oscillator basis")
    modes = [(n, c) for n in range(1, min(tr.max_mode, tr.max_energy) + 1)
             for c in range(tr.rank)]
    states: list[Occupation] = []

    def rec(i, remaining, acc):
        if i == len(modes):
            states.append(tuple(acc))
            return
        n, c = modes[i]
        k = 0
        while k * n <= remaining:
            if k:
                acc.append(((n, c), k))
            rec(i + 1, remaining - k * n, acc)
            if k:
                acc.pop()
            k += 1

    rec(0, tr.max_energy, [])
    states.sort(key=lambda occ: (occupation_energy(occ), occ))
    return tuple(states)


def occupation_energy(occ: Occupation) -> int:
    return sum(n * k for (n, _), k in occ)


@lru_cache(maxsize=None)
def _basis_energies(tr: ModeTruncation) -> tuple[int, ...]:
    """The energies of `oscillator_basis(tr)`, in basis order; built once
    per truncation."""
    return tuple(map(occupation_energy, oscillator_basis(tr)))


def mode_operators(tr: ModeTruncation):
    """Lowering/raising matrices per (mode, color) on the truncated basis,
    normalized so that [a_m, a_m^+] = m on states that stay inside the
    truncation."""
    basis = oscillator_basis(tr)
    dim, top = len(basis), min(tr.max_mode, tr.max_energy)
    _within_budget(top * tr.rank * dim * dim, "the mode operators")
    index = {occ: i for i, occ in enumerate(basis)}
    out = {}
    for n in range(1, top + 1):
        for c in range(tr.rank):
            adag = np.zeros((dim, dim))
            for i, occ in enumerate(basis):
                if occupation_energy(occ) + n <= tr.max_energy:
                    d = dict(occ)
                    k = d.get((n, c), 0) + 1
                    d[(n, c)] = k
                    adag[index[tuple(sorted(d.items()))], i] = math.sqrt(n * k)
            # a lowers each raised state back with the same weight: a is adag's transpose
            out[(n, c)] = (adag.T.copy(), adag)
    return out


# ---------------------------------------------------------------------------
# sector characters


def _numerators(v) -> tuple[int, list[int]]:
    """D, the lcm of the entries' denominators, and the integer vector D·v;
    ints count as denominator 1."""
    dens = [x.denominator for x in v]
    den = lcm(*dens)
    return den, [x.numerator * (den // d) for x, d in zip(v, dens)]


def _form_int(gram, p) -> int:
    """p^T G p for an integer vector p."""
    return sum(x * sum(map(operator.mul, row, p)) for x, row in zip(p, gram))


def _box(lam_min, energy, centre):
    """The integer points of the cube of half-width
    ceil(sqrt(2 energy / lam_min)) + 1 (0 at energy 0) about
    -round(centre), in lexicographic order; it holds every mu with
    (centre + mu)^T G (centre + mu) / 2 <= energy, lam_min G's least eigenvalue.
    A cube over the entry budget is refused before any point is visited."""
    half = 0
    if energy:  # float(2 energy) is correctly rounded
        half = int(math.ceil(math.sqrt(2 * energy / lam_min + 1e-12))) + 1
    _within_budget((2 * half + 1) ** len(centre), "the lattice box")
    return itertools.product(*(range(-round(c) - half, -round(c) + half + 1)
                               for c in centre))


def _walk(lat: EvenLattice, centre, bound: int):
    """fock's one lattice walk: (mu, q) for each mu of `_box` about centre, in
    box order, whose numerator q = p^T G p, p = D (centre + mu), is at most bound."""
    den, p0 = _numerators(centre)  # every centre + mu shares den
    for mu in _box(lat.lambda_min, Fraction(bound, 2 * den * den), centre):
        q = _form_int(lat.gram, [x + den * m for x, m in zip(p0, mu)])
        if q <= bound:
            yield mu, q


def minimal_norm_lift(lat: EvenLattice, disc: DiscriminantGroup,
                      phi: GroupElement) -> tuple[Fraction, ...]:
    """Minimal-norm dual-lattice representative of the coset phi, ties
    broken lexicographically.  The walk is bounded by the shorter of
    disc.lift(phi) and its nearest translate lift - round(lift), the box's
    centre: both are coset vectors, so the minimum is no longer than either."""
    lift0 = disc.lift(phi)
    den, p0 = _numerators(lift0)
    near = [x - den * round(l) for x, l in zip(p0, lift0)]
    bound = min(_form_int(lat.gram, p0), _form_int(lat.gram, near))
    # (numerator, mu) orders like (norm, lift0 + mu): only the winner becomes a lift
    _, mu = min((q, mu) for mu, q in _walk(lat, lift0, bound))
    return tuple(l0 + m for l0, m in zip(lift0, mu))


def _sector(lat: EvenLattice, disc: DiscriminantGroup, phi: GroupElement, max_offset: int):
    """phi's lift, its ground energy and an iterator of (mu, off), one per coset
    vector lift + mu of energy ground + off, off <= max_offset, in box order."""
    lift = minimal_norm_lift(lat, disc, phi)
    den, p0 = _numerators(lift)
    scale, q0 = 2 * den * den, _form_int(lat.gram, p0)  # energies are integers over 2 D^2
    return lift, Fraction(q0, scale), ((mu, _offset(q - q0, scale, max_offset))
                                       for mu, q in _walk(lat, lift, q0 + scale * max_offset))


def _offset(n: int, scale: int, max_offset: int) -> int:
    """n / scale as an integer offset in 0..max_offset, else refused."""
    off, rem = divmod(n, scale)
    if rem or not 0 <= off <= max_offset:
        raise NonIntegralEnergy(f"offset {Fraction(n, scale)} not in 0..{max_offset}")
    return off


def partition_counts(max_energy: int, colors: int) -> list[int]:
    """Coefficients of prod_{k>=1} (1 - q^k)^(-colors) up to max_energy."""
    dp = [0] * (max_energy + 1)
    dp[0] = 1
    for k in range(1, max_energy + 1):
        for _ in range(colors):
            for n in range(k, max_energy + 1):
                dp[n] += dp[n - k]
    return dp


@dataclass(frozen=True)
class SectorCharacter:
    ground_energy: Fraction
    coefficients: tuple[int, ...]
    lift: tuple[Fraction, ...]


def sector_character(lat: EvenLattice, disc: DiscriminantGroup,
                     phi: GroupElement, max_energy: int) -> SectorCharacter:
    """Energy-graded dimensions of the sector phi: the theta series of the
    shifted lattice divided by rank copies of the Euler product, shifted
    by the ground energy."""
    if max_energy < 0:
        raise ValueError(f"max_energy must be nonnegative, got {max_energy}")
    # the series products below take (E + 1)^2 / 2 steps per oscillator colour
    _within_budget((max_energy + 1) ** 2 * lat.rank, "the q-series")
    lift, ground, vectors = _sector(lat, disc, phi, max_energy)
    offsets = [0] * (max_energy + 1)
    for _, off in vectors:
        offsets[off] += 1
    osc = partition_counts(max_energy, lat.rank)
    coeffs = [sum(offsets[k] * osc[e - k] for k in range(e + 1))
              for e in range(max_energy + 1)]
    return SectorCharacter(ground_energy=ground, coefficients=tuple(coeffs), lift=lift)


@dataclass(frozen=True)
class FockState:
    """A dual-lattice shift together with a colored multipartition."""

    sector_vector: tuple[Fraction, ...]
    occupation: Occupation

    def energy(self, lat: EvenLattice) -> Fraction:
        den, p = _numerators(self.sector_vector)
        scale = 2 * den * den
        return Fraction(_form_int(lat.gram, p)
                        + scale * occupation_energy(self.occupation), scale)


def enumerate_sector_states(lat: EvenLattice, disc: DiscriminantGroup,
                            phi: GroupElement, max_offset: int) -> list[FockState]:
    """Explicit states of the sector with energy up to ground + max_offset:
    each coset vector with the oscillator states that fit on top of it."""
    lift, _, vectors = _sector(lat, disc, phi, max_offset)
    tr = ModeTruncation(rank=lat.rank, max_mode=max(max_offset, 1),
                        max_energy=max_offset)
    # the basis is sorted by energy, so a vector's states are a prefix
    osc_states, osc_energies = oscillator_basis(tr), _basis_energies(tr)
    return [FockState(sector_vector=v, occupation=occ)
            for mu, off in vectors
            for v in [tuple(l0 + m for l0, m in zip(lift, mu))]
            for occ in osc_states[:bisect.bisect_right(osc_energies, max_offset - off)]]


def sector_state_counts(lat: EvenLattice, disc: DiscriminantGroup,
                        phi: GroupElement, max_offset: int) -> list[int]:
    """The states `enumerate_sector_states` lists, counted by energy offset:
    a coset vector at offset off carries osc[e] states at off + e, osc the
    binned oscillator basis, whose energies are computed once per
    truncation; no `Fraction`, no `FockState` and no per-state work."""
    counts = [0] * (max_offset + 1)
    osc = _enumerated_partition_counts(max_offset, lat.rank)
    for _, off in _sector(lat, disc, phi, max_offset)[2]:
        for e in range(max_offset - off + 1):
            counts[off + e] += osc[e]
    return counts


# ---------------------------------------------------------------------------
# the annulus sewing identity


@dataclass(frozen=True)
class SewingReport:
    max_energy: int
    equal: bool
    lhs_table: tuple
    rhs_table: tuple


def _enumerated_partition_counts(max_energy: int, colors: int) -> list[int]:
    # explicit state enumeration; the independent route next to the
    # generating-function dp
    tr = ModeTruncation(rank=colors, max_mode=max(max_energy, 1),
                        max_energy=max_energy)
    hist = Counter(_basis_energies(tr))
    return [hist[e] for e in range(max_energy + 1)]


def annulus_sewing_check(lat: EvenLattice, disc: DiscriminantGroup,
                         max_energy: int) -> SewingReport:
    """Two routes to the annulus character.

    Left: sum over sectors phi of the product of the sector character with
    itself in (q, qbar).  Right: direct enumeration of pairs of dual
    vectors whose difference is integral, weighted by enumerated
    oscillator counts.  Exact integer tables, keyed by the energy pair.
    """
    # the dual vectors are adj(G) k / det G, so every energy is an integer
    # over 2 det^2; both sides key by that numerator
    r = lat.rank
    det = lat.det
    adj = [[(-1) ** (i + j) * det_int([row[:j] + row[j + 1:]
                                       for k, row in enumerate(lat.gram) if k != i])
            for j in range(r)] for i in range(r)]  # cofactors; G is symmetric
    scale = 2 * det * det
    limit = scale * max_energy
    lhs: dict[tuple[int, int], int] = {}
    for phi in disc.elements():
        ch = sector_character(lat, disc, phi, max_energy)
        g0 = ch.ground_energy.numerator * (scale // ch.ground_energy.denominator)
        for m, cm in enumerate(ch.coefficients):
            for n, cn in enumerate(ch.coefficients):
                key = (g0 + m * scale, g0 + n * scale)
                if cm and cn and key[0] + key[1] <= limit:
                    lhs[key] = lhs.get(key, 0) + cm * cn

    # right side: two dual vectors lie in one coset exactly when their
    # adj(G) k agree mod det; in k the Gram matrix is adj(G) / det
    cosets: dict[tuple[int, ...], Counter] = {}
    dual_min = float(np.min(np.linalg.eigvalsh(np.array(adj) / det)))  # once per call
    for k in _box(dual_min, max_energy, [0] * r):
        a = [sum(col[i] * kj for col, kj in zip(adj, k)) for i in range(r)]
        n = _form_int(lat.gram, a)
        if n <= limit:
            cosets.setdefault(tuple(x % det for x in a), Counter())[n] += 1
    pairs: Counter = Counter()
    for energies in cosets.values():
        for n1, c1 in energies.items():
            for n2, c2 in energies.items():
                if n1 + n2 <= limit:
                    pairs[n1, n2] += c1 * c2
    osc = _enumerated_partition_counts(max_energy, r)  # every count is at least 1
    rhs: dict[tuple[int, int], int] = {}
    for (n1, n2), mult in pairs.items():
        budget = (limit - n1 - n2) // scale
        for m in range(budget + 1):
            for n in range(budget - m + 1):
                key = (n1 + m * scale, n2 + n * scale)
                rhs[key] = rhs.get(key, 0) + mult * osc[m] * osc[n]

    def freeze(table):
        return tuple(sorted(((str(Fraction(n1, scale)), str(Fraction(n2, scale))), v)
                            for (n1, n2), v in table.items() if v))

    lhs_t, rhs_t = freeze(lhs), freeze(rhs)
    return SewingReport(max_energy=max_energy, equal=lhs_t == rhs_t,
                        lhs_table=lhs_t, rhs_table=rhs_t)


# ---------------------------------------------------------------------------
# Bogoliubov overlaps


def bogoliubov_overlap(t) -> float:
    """Vacuum overlap for a polarization change with block T:
    det(1 - T*T)^(1/4).  Requires the operator norm of T below 1."""
    t = np.atleast_2d(np.asarray(t, dtype=complex))
    if t.shape[0] != t.shape[1] or t.shape[0] > 4:
        raise ValueError("T must be square with dimension <= 4")
    norm = float(np.linalg.norm(t, 2))
    if norm >= 1.0:
        raise NotContractive(f"operator norm {norm} >= 1")
    det = np.linalg.det(np.eye(t.shape[0]) - t.conj().T @ t)
    return float(det.real) ** 0.25


def gaussian_overlap_quadrature(t) -> float:
    """The same overlap from wavefunctions: |<psi_0, psi_T>| normalized,
    psi_T(x) ~ exp(-x^T M x / 2), M = (1 - T)(1 + T)^{-1}, T symmetric of
    dimension 1 or 2, on a tensor trapezoid grid sized by its own error
    bound: each integrand exp(-x^T A x / 2), A = 1 + M, 2 and 2 Re M, is
    cut at half-width L = sqrt(2 ln(1/eps) / lambda_min(Re A)) and first
    aliased at step h = pi sqrt(2 lambda_min(Re A^-1) / ln(1/eps)), eps =
    QUADRATURE_EPS.  A grid over the dense entry budget is refused
    (`GroupTooLarge`); 2-D grids run in row blocks of `SLAB` points, 1-D in pieces."""
    t = np.atleast_2d(np.asarray(t, dtype=complex))
    dim = t.shape[0]
    if dim > 2:
        raise ValueError("quadrature oracle supports dimensions 1 and 2")
    if np.max(np.abs(t - t.T)) > 1e-12:
        raise ValueError("squeezed-vacuum wavefunctions need symmetric T")
    if float(np.linalg.norm(t, 2)) >= 1.0:
        raise NotContractive("operator norm >= 1")
    m = (np.eye(dim) - t) @ np.linalg.inv(np.eye(dim) + t)
    quads = (np.eye(dim) + m, 2 * np.eye(dim), 2 * m.real)  # psi0 psi_T, psi0^2, |psi_T|^2
    low = min(np.linalg.eigvalsh(a.real)[0] for a in quads)  # sets the largest L
    alias = min(np.linalg.eigvalsh(np.linalg.pinv(a, rcond=0).real)[0] for a in quads)
    if min(low, alias) <= 0:  # ||T|| ~ 1 in floats (pinv: A may be singular there)
        raise GroupTooLarge("the quadrature grid is unbounded in floats")
    ln = -math.log(QUADRATURE_EPS)
    span, h = math.sqrt(2 * ln / low), math.pi * math.sqrt(2 * alias / ln)
    points = 2 * math.ceil(span / h) + 1
    _within_budget(points ** dim, "the quadrature grid")
    if dim == 1:  # pieces of SLAB / 4 points (~80 bytes a point in work), sharing edges
        pieces = (_abscissae(span, points, s, min(s + SLAB // 4, points))
                  for s in range(0, points - 1, SLAB // 4 - 1))
        blocks = ((x, np.exp(-x ** 2 / 2), np.exp(-m[0, 0] * x ** 2 / 2)) for x in pieces)
    else:  # rows of at most SLAB grid points
        xs = _abscissae(span, points, 0, points)
        step, x1 = max(1, SLAB // points), xs[None, :]
        rows = (xs[s:s + step, None] for s in range(0, points, step))
        blocks = ((xs, np.exp(-(x0 ** 2 + x1 ** 2) / 2),
                   np.exp(-(m[0, 0] * x0 ** 2 + 2 * m[0, 1] * x0 * x1 + m[1, 1] * x1 ** 2) / 2))
                  for x0 in rows)
    # psi0 * psi_T, psi0^2 and |psi_T|^2 along the last axis, one block at a time (psi0
    # is real and positive); in 2-D the row integrals are integrated next, in 1-D summed
    parts = [[np.trapezoid(f, x, axis=-1) for f in (psi0 * psit, psi0 ** 2, np.abs(psit) ** 2)]
             for x, psi0, psit in blocks]
    integrals = map(np.hstack, zip(*parts))  # each integrand's row or piece integrals
    inner, n0, nt = (np.trapezoid(r, xs) if dim == 2 else r.sum() for r in integrals)
    return float(abs(inner) / math.sqrt(float(n0.real * nt.real)))


def _abscissae(span: float, points: int, start: int, stop: int) -> np.ndarray:
    """np.linspace(-span, span, points)[start:stop], computed alone as numpy computes it."""
    i = np.arange(start, stop, dtype=float)
    return np.where(i < points - 1, i * (2 * span / (points - 1)) - span, span)


# ---------------------------------------------------------------------------
# positivity


@dataclass(frozen=True)
class PositivityReport:
    ok: bool
    ground_energy: Fraction | None


def positive_energy_check(energies) -> PositivityReport:
    """True iff the grading has spectrum in ground + Z>=0 with ground >= 0."""
    vals = [Fraction(e) for e in energies]
    if not vals:
        return PositivityReport(ok=True, ground_energy=None)
    ground = min(vals)
    ok = ground >= 0 and all((e - ground).denominator == 1 for e in vals)
    return PositivityReport(ok=ok, ground_energy=ground)
