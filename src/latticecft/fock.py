"""Truncated positive-energy loop-group data.

Sector state spaces are pairs (dual-lattice shift, colored multipartition)
graded by energy <x,x>/2 + |partition|; characters are integer q-series
computed by generating functions and cross-checked against explicit state
enumeration.  Energies are integer numerators over a known denominator:
with D the lcm of a vector's denominators and p = D x, <x,x>/2 is
p^T G p over 2 D^2.  `minimal_norm_lift` ranks its box's points mu by
(numerator over the D they share, mu), which orders like (norm, lift)
because the start lift is fixed, and builds the `Fraction` lift only for
the winner; one coset walk over lift + Z^r yields each vector's
energy offset as a numerator over 2 D^2: `sector_character` bins it,
`enumerate_sector_states` lists its oscillator states on top, and
`sector_state_counts` (criterion 8's explicit counts) adds the binned
oscillator basis at it.  Oscillator energies are computed once per
truncation; the annulus sewing check keys energies by numerators too,
with adj(G) as integer cofactors.
All three lattice scans (the lift search, the coset walk and the
sewing check's dual vectors) run over one `_box`, a cube of half-width
h = ceil(sqrt(2 E / lambda_min)) + 1 about -round(c): an x = c + mu of
energy <= E has |x_i| <= h - 1, and |c_i - round(c_i)| <= 1/2, so the
cube holds it however skewed the basis.
The oscillator algebra is realized on the truncated basis with
[a_m, a_n^+] = m delta, the normalization in which the structure
constants stay integral.  Bogoliubov vacuum overlaps are the finite-mode
shadow of polarization changes: det(1 - T*T)^(1/4) against an honest
Gaussian quadrature.
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

from .errors import NonIntegralEnergy, NotContractive
from .exact import det_int
from .lattices import (
    SLAB,
    DiscriminantGroup,
    EvenLattice,
    GroupElement,
    _within_budget,
)

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


def loop_cocycle(xi: TrigLoop, eta: TrigLoop, gram=None) -> float:
    """Integral over the circle of <xi, d eta>: by mode pairing equal to
    -2 pi i sum_m m <xi_m, eta_{-m}> (the inner product extended
    bilinearly, default the standard one)."""
    if xi.rank != eta.rank:
        raise ValueError("loops have different ranks")
    g = np.eye(xi.rank) if gram is None else np.asarray(gram, dtype=float)
    total = 0j
    for m, vec in xi.modes:
        if m == 0:
            continue
        other = eta.coefficient(-m)
        total += -2j * math.pi * m * (np.asarray(vec) @ g @ other)
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
    truncation."""
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
    index = {occ: i for i, occ in enumerate(basis)}
    dim = len(basis)
    out = {}
    for n in range(1, min(tr.max_mode, tr.max_energy) + 1):
        for c in range(tr.rank):
            a = np.zeros((dim, dim))
            adag = np.zeros((dim, dim))
            for i, occ in enumerate(basis):
                d = dict(occ)
                k = d.get((n, c), 0)
                if k:
                    d2 = dict(d)
                    d2[(n, c)] = k - 1
                    if d2[(n, c)] == 0:
                        del d2[(n, c)]
                    j = index[tuple(sorted(d2.items()))]
                    a[j, i] = math.sqrt(n * k)
                if occupation_energy(occ) + n <= tr.max_energy:
                    d2 = dict(d)
                    d2[(n, c)] = k + 1
                    j = index[tuple(sorted(d2.items()))]
                    adag[j, i] = math.sqrt(n * (k + 1))
            out[(n, c)] = (a, adag)
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


def _box(gram, energy, centre):
    """The integer points of the cube of half-width
    ceil(sqrt(2 energy / lambda_min)) + 1 (0 at energy 0) about
    -round(centre), in lexicographic order; it holds every mu with
    (centre + mu)^T G (centre + mu) / 2 <= energy, G = gram.  A cube over
    the entry budget is refused before any point is visited."""
    half = 0
    if energy:  # float(2 energy) is correctly rounded
        lam_min = float(np.min(np.linalg.eigvalsh(np.array(gram, dtype=float))))
        half = int(math.ceil(math.sqrt(2 * energy / lam_min + 1e-12))) + 1
    _within_budget((2 * half + 1) ** len(centre), "the lattice box")
    return itertools.product(*(range(-round(c) - half, -round(c) + half + 1)
                               for c in centre))


def minimal_norm_lift(lat: EvenLattice, disc: DiscriminantGroup,
                      phi: GroupElement) -> tuple[Fraction, ...]:
    """Minimal-norm dual-lattice representative of the coset phi, ties
    broken lexicographically."""
    # its own box around disc.lift, not `_coset_walk`'s: folded into the
    # walk, the `characters` benchmark's peak RSS rose past its bound
    lift0 = disc.lift(phi)
    den, p0 = _numerators(lift0)  # every candidate lift0 + mu shares den
    box = _box(lat.gram, Fraction(_form_int(lat.gram, p0), 2 * den * den), lift0)
    # (numerator, mu) orders like (norm, lift0 + mu): only the winner becomes a lift
    _, mu = min((_form_int(lat.gram, [x + den * m for x, m in zip(p0, mu)]), mu) for mu in box)
    return tuple(l0 + m for l0, m in zip(lift0, mu))


def _coset_walk(lat: EvenLattice, lift: tuple[Fraction, ...], max_offset: int):
    """The coset vectors lift + mu with energy up to ground + max_offset: returns
    2 D^2, the ground's numerator q0 over it, and an iterator of (mu, n),
    n / (2 D^2) the vector's energy offset."""
    den, p0 = _numerators(lift)
    scale = 2 * den * den  # energies are integers over 2 D^2
    bound = (q0 := _form_int(lat.gram, p0)) + scale * max_offset
    vectors = ((mu, _form_int(lat.gram, [x + den * m for x, m in zip(p0, mu)]))
               for mu in _box(lat.gram, Fraction(bound, scale), lift))
    return scale, q0, ((mu, q - q0) for mu, q in vectors if q <= bound)


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
    lift = minimal_norm_lift(lat, disc, phi)
    offsets = [0] * (max_energy + 1)
    scale, q0, vectors = _coset_walk(lat, lift, max_energy)
    for _, n in vectors:
        offsets[_offset(n, scale, max_energy)] += 1
    osc = partition_counts(max_energy, lat.rank)
    coeffs = [sum(offsets[k] * osc[e - k] for k in range(e + 1))
              for e in range(max_energy + 1)]
    return SectorCharacter(ground_energy=Fraction(q0, scale),
                           coefficients=tuple(coeffs), lift=lift)


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


def _sector_walk(lat: EvenLattice, lift: tuple[Fraction, ...], max_offset: int):
    """The sector's states up to ground + max_offset, per `_coset_walk` vector:
    yields (mu, occs), occs the oscillator states that fit on top of it."""
    scale, _, vectors = _coset_walk(lat, lift, max_offset)
    tr = ModeTruncation(rank=lat.rank, max_mode=max(max_offset, 1),
                        max_energy=max_offset)
    # the basis is sorted by energy, so a vector's states are a prefix
    osc_states, osc_energies = oscillator_basis(tr), _basis_energies(tr)
    for mu, n in vectors:
        room = bisect.bisect_right(osc_energies, (scale * max_offset - n) // scale)
        yield mu, osc_states[:room]


def enumerate_sector_states(lat: EvenLattice, disc: DiscriminantGroup,
                            phi: GroupElement, max_offset: int) -> list[FockState]:
    """Explicit states of the sector with energy up to ground + max_offset."""
    lift = minimal_norm_lift(lat, disc, phi)
    return [FockState(sector_vector=v, occupation=occ)
            for mu, occs in _sector_walk(lat, lift, max_offset)
            for v in [tuple(l0 + m for l0, m in zip(lift, mu))] for occ in occs]


def sector_state_counts(lat: EvenLattice, disc: DiscriminantGroup,
                        phi: GroupElement, max_offset: int) -> list[int]:
    """The states `enumerate_sector_states` lists, counted by energy offset:
    a `_coset_walk` vector at offset off carries osc[e] states at off + e,
    osc the binned oscillator basis, whose energies are computed once per
    truncation; no `Fraction`, no `FockState` and no per-state work."""
    counts = [0] * (max_offset + 1)
    lift = minimal_norm_lift(lat, disc, phi)
    osc = _enumerated_partition_counts(max_offset, lat.rank)
    scale, _, vectors = _coset_walk(lat, lift, max_offset)
    for _, n in vectors:
        off = _offset(n, scale, max_offset)
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
    for k in _box(np.array(adj) / det, max_energy, [0] * r):
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
    osc = _enumerated_partition_counts(max_energy, r)
    rhs: dict[tuple[int, int], int] = {}
    for (n1, n2), mult in pairs.items():
        budget = (limit - n1 - n2) // scale
        for m in range(budget + 1):
            if not osc[m]:
                continue
            for n in range(budget - m + 1):
                if not osc[n]:
                    continue
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


def bogoliubov_overlap(t_matrix) -> float:
    """Vacuum overlap for a polarization change with block T:
    det(1 - T*T)^(1/4).  Requires the operator norm of T below 1."""
    t = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    if t.shape[0] != t.shape[1] or t.shape[0] > 4:
        raise ValueError("T must be square with dimension <= 4")
    norm = float(np.linalg.norm(t, 2))
    if norm >= 1.0:
        raise NotContractive(f"operator norm {norm} >= 1")
    det = np.linalg.det(np.eye(t.shape[0]) - t.conj().T @ t)
    return float(det.real) ** 0.25


def gaussian_overlap_quadrature(t_matrix, points_per_dim: int = 1601) -> float:
    """The same overlap from wavefunctions: |<psi_0, psi_T>| normalized,
    with psi_T(x) ~ exp(-x^T M x / 2), M = (1 - T)(1 + T)^{-1}, integrated
    on a tensor trapezoid grid.  Supports dimensions 1 and 2; T must be
    symmetric (a bona fide squeezed vacuum).  The 2-D grid is evaluated
    in row blocks of at most `SLAB` points, each integrated along its
    rows before the row integrals are; dimension 1 is one block."""
    t = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    dim = t.shape[0]
    if dim > 2:
        raise ValueError("quadrature oracle supports dimensions 1 and 2")
    if np.max(np.abs(t - t.T)) > 1e-12:
        raise ValueError("squeezed-vacuum wavefunctions need symmetric T")
    if float(np.linalg.norm(t, 2)) >= 1.0:
        raise NotContractive("operator norm >= 1")
    m = (np.eye(dim) - t) @ np.linalg.inv(np.eye(dim) + t)
    lam = float(np.min(np.linalg.eigvalsh(m.real)))
    span = 10.0 / math.sqrt(min(lam, 1.0))  # ten widths of the widest direction
    xs = np.linspace(-span, span, points_per_dim)
    if dim == 1:  # one block
        blocks = [(np.exp(-xs ** 2 / 2), np.exp(-m[0, 0] * xs ** 2 / 2))]
    else:  # rows of at most SLAB grid points
        step, x1 = max(1, SLAB // points_per_dim), xs[None, :]
        rows = (xs[s:s + step, None] for s in range(0, points_per_dim, step))
        blocks = ((np.exp(-(x0 ** 2 + x1 ** 2) / 2),
                   np.exp(-(m[0, 0] * x0 ** 2 + 2 * m[0, 1] * x0 * x1 + m[1, 1] * x1 ** 2) / 2))
                  for x0 in rows)
    # psi0 * psi_T, psi0^2 and |psi_T|^2 along the last axis, one block at a time
    # (psi0 is real and positive); in 2-D the row integrals are integrated next
    parts = [[np.trapezoid(f, xs, axis=-1) for f in (psi0 * psit, psi0 ** 2, np.abs(psit) ** 2)]
             for psi0, psit in blocks]
    integrals = map(np.hstack, zip(*parts))  # each integrand's row integrals, or its value
    inner, n0, nt = (np.trapezoid(r, xs) if dim == 2 else r[0] for r in integrals)
    return float(abs(inner) / math.sqrt(float(n0.real * nt.real)))


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
