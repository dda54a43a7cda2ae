"""Conformal-block dimensions and modular data.

Block spaces attach to labeled surfaces: per component the dimension is
|A|^genus when the signed boundary-label sum vanishes and 0 otherwise,
multiplicatively over components.  The factorization sum over the labels
of k gluing circles and the character sums of the Verlinde formula run
over rows of A^k and A from the mixed-radix indexer of `lattices`, a
bounded slab at a time.  The genus-1 block space C^A carries the modular
S matrix and the diagonal T, kept as its |A| twists; the framing factor
exp(-2 pi i sigma/24) is kept as metadata on the report rather than
folded into T, so that (S T)^3 = exp(2 pi i sigma/8) S^2 is the relation
the suite verifies, with sigma certified by the Gauss-sum oracle.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSplit
from .exact import PhaseSum
from .lattices import (
    DENSE_ENTRY_BUDGET,
    DiscriminantGroup,
    GroupElement,
    _within_budget,
    signature_mod8,
)
from .surfaces import (
    OUT,
    BlockLabel,
    Surface,
    delta_obstruction,
    glue,
)

TERMS_BUDGET = 2 ** 18  # most terms a factorization lists: 2^18 on [[64]] peak near 165 MB


def block_dimension(s: Surface, labels: BlockLabel, disc: DiscriminantGroup,
                    deltas: tuple[GroupElement, ...] | None = None) -> int:
    """Product over components of |A|^g, or 0 where the label obstruction
    is nonzero; a caller that has `delta_obstruction` already passes it."""
    deltas = delta_obstruction(s, labels, disc) if deltas is None else deltas
    dim = 1
    for comp, d in zip(s.components, deltas):
        if d != disc.zero:
            return 0
        dim *= disc.order ** comp.genus
    return dim


def verify_tensor_duality(s1: Surface, s2: Surface, labels: BlockLabel,
                          disc: DiscriminantGroup) -> dict:
    """Dimension checks for disjoint unions and orientation reversal."""
    d1 = block_dimension(s1, labels, disc)
    d_union = block_dimension(s1.disjoint_union(s2), labels, disc)
    d_prod = d1 * block_dimension(s2, labels, disc)
    d1_rev = block_dimension(s1.reversed(), labels.negated(disc), disc)
    return {
        "tensor_lhs": d_union,
        "tensor_rhs": d_prod,
        "duality_lhs": d1_rev,
        "duality_rhs": d1,
        "ok": d_union == d_prod and d1_rev == d1,
    }


@dataclass(frozen=True)
class FactorizationReport:
    lhs: int
    rhs: int
    equal: bool
    terms: tuple | None = None


def verify_factorization(s: Surface, pieces: tuple[Surface, ...],
                         matching: list[tuple[str, str]], labels: BlockLabel,
                         disc: DiscriminantGroup,
                         keep_terms: bool = False) -> FactorizationReport:
    """Compare dim E(s) with the label sum over the gluing circles of the
    product of piece block dimensions.

    The sum runs over the |A|^k assignments, rows of A^k in lexicographic
    order, a slab at a time.  Per piece component only the signed label
    total matters: a constant row from the free labels plus a signed
    selection of the assignment row.  An assignment that zeroes every
    total contributes the product of the weights |A|^genus, the same for
    all of them, so the sum is that product times a count.
    """
    if len(pieces) not in (1, 2):
        raise InvalidSplit("a split has one self-glued piece or two pieces")
    comps = [comp for piece in pieces for comp in piece.components]
    glued = glue(Surface(tuple(comps)), None, matching)
    if glued.component_signature() != s.component_signature():
        raise InvalidSplit(
            f"gluing yields {glued.component_signature()}, "
            f"surface has {s.component_signature()}")
    if sorted(glued.circle_ids()) != sorted(s.circle_ids()):
        raise InvalidSplit("free boundary circles do not match the surface")

    lhs = block_dimension(s, labels, disc)
    match_slot = {cid: idx for idx, pair in enumerate(matching) for cid in pair}
    k = len(disc.invariant_factors)
    width = len(comps) * k
    # component totals = (const + assignment @ signs) mod the factors
    const, signs, weight = [0] * width, [[0] * width for _ in range(len(matching) * k)], 1
    for c, comp in enumerate(comps):
        for circle in comp.boundaries:
            sign = 1 if circle.orientation == OUT else -1
            if circle.id in match_slot:
                for i in range(k):
                    signs[match_slot[circle.id] * k + i][c * k + i] += sign
            else:  # a free circle of s, which block_dimension found labelled
                for i, x in enumerate(labels.get(circle.id).coords):
                    const[c * k + i] += sign * x
        weight *= disc.order ** comp.genus
    const = np.array(const, dtype=disc.bilinear_int.dtype)
    signs = np.array(signs, dtype=np.int64).reshape(len(matching) * k, width)
    radices = np.array(disc.invariant_factors * len(comps), dtype=const.dtype)

    _within_budget(disc.order ** len(matching), "the factorization sum",
                   TERMS_BUDGET if keep_terms else DENSE_ENTRY_BUDGET)
    grid = disc._power(len(matching))
    count, terms = 0, []
    for rows in grid.slabs():
        passes = ~np.any((rows @ signs + const) % radices, axis=1)
        count += int(np.count_nonzero(passes))
        if keep_terms:
            terms += zip(grid.coords(rows), [weight if p else 0 for p in passes.tolist()])
    rhs = weight * count
    return FactorizationReport(lhs=lhs, rhs=rhs, equal=lhs == rhs,
                               terms=tuple(terms) if keep_terms else None)


# ---------------------------------------------------------------------------
# modular data


def s_matrix(disc: DiscriminantGroup) -> np.ndarray:
    """S_{ab} = |A|^(-1/2) exp(-2 pi i b(a, b)), looked up by N b(a, b) mod N."""
    n, big_n = disc.order, disc.exponent
    _within_budget(n * n, "the S matrix")
    roots = [np.exp(-2j * np.pi * (m / big_n)) for m in range(big_n)]
    c = disc.coordinates()
    return (np.array(roots) / math.sqrt(n))[(c @ disc.bilinear_int % big_n) @ c.T % big_n]


def t_diagonal(disc: DiscriminantGroup) -> np.ndarray:
    """T's diagonal in elements() order: the twists T_a = exp(pi i q(a)).

    The framing factor exp(-2 pi i sigma/24) belongs to the determinant
    line metadata (see MappingClassReport); keeping T bare is what makes
    (S T)^3 = exp(2 pi i sigma/8) S^2 hold verbatim.
    """
    _within_budget(disc.order, "the T diagonal")
    twists = [np.exp(1j * np.pi * (m / disc.exponent)) for m in range(2 * disc.exponent)]
    return np.array(twists)[disc.quadratic_values()]


def fusion_rules(disc: DiscriminantGroup):
    """N_{ab}^c = 1 iff c = a + b, the three-holed-sphere block dimension."""
    _within_budget(disc.order ** 3, "the fusion tensor")
    c = disc.coordinates()
    sums = disc.index(c[:, None] + c[None, :])
    return (sums[:, :, None] == np.arange(disc.order)).astype(int)


@dataclass(frozen=True)
class VerlindeReport:
    verlinde_raw: complex
    rounded: int
    block_dim: int
    deviation: float
    equal: bool


def _character_sum(disc: DiscriminantGroup, a: GroupElement) -> PhaseSum:
    """sum_j e(-b(a, j)) over all j in A.  Since N b(a, j) is
    sum_k j_k N b(a, e_k) over the generators e_k, every phase is a
    residue mod N, N the exponent.  The residues are keyed in the order
    they first occur over elements(), which fixes the float sum."""
    n = disc.exponent
    steps = disc._row(a.coords) @ disc.bilinear_int % n  # N b(a, e_k)
    counts = Counter()
    for rows in disc._power().slabs():
        phases = (-(rows @ steps) % n).tolist()
        counts.update(phases)  # new keys go in at their first occurrence
    return PhaseSum(counts, n)


def verlinde_check(s: Surface, labels: BlockLabel,
                   disc: DiscriminantGroup) -> VerlindeReport:
    """Compare the Verlinde sum with the block dimension, exactly.

    Per connected component the sum is
    sum_j S_{0j}^(2 - 2g - n) prod_i S_{l_i j} with incoming labels
    negated.  Since S_{ab} = |A|^(-1/2) e(-b(a, b)), it equals
    |A|^(g - 1) sum_j e(-b(L, j)) with L the signed label sum, and that
    root-of-unity sum is evaluated as a PhaseSum and read back as an
    integer.  Its float value is kept only for the reported verlinde_raw
    and deviation.
    """
    n, num = disc.order, 1
    raw, approx = 1 + 0j, 1.0
    for comp, total in zip(s.components, deltas := delta_obstruction(s, labels, disc)):
        if total.coords not in disc._characters:  # each element's sum once per disc
            phases = _character_sum(disc, total)
            disc._characters[total.coords] = phases.integer_value(), phases.to_complex()
        # a character sum over A: |A| or 0, always an integer
        value, value_float = disc._characters[total.coords]
        num *= value * n ** comp.genus
        # numpy's power gives inf instead of raising past the float range
        with np.errstate(over="ignore"):
            scale = float(np.float64(n) ** (comp.genus - 1))
        raw *= scale * value_float
        approx *= scale * value
    exact = Fraction(num, n ** len(s.components))
    bdim = block_dimension(s, labels, disc, deltas)
    dev = raw - approx  # CPython's abs of a complex NaN can raise on a stale errno
    deviation = abs(dev) if cmath.isfinite(dev) else math.hypot(dev.real, dev.imag)
    return VerlindeReport(verlinde_raw=raw, rounded=round(exact),
                          block_dim=bdim, deviation=deviation, equal=exact == bdim)


@dataclass(frozen=True, eq=False)
class MappingClassReport:
    S: np.ndarray
    T: np.ndarray  # the diagonal, as `t_diagonal` gives it
    signature: int
    s4_deviation: float
    st3_deviation: float
    s2_is_charge_conjugation: float
    unitarity_deviation: float

    @property
    def ok(self) -> bool:
        return max(self.s4_deviation, self.st3_deviation,
                   self.s2_is_charge_conjugation,
                   self.unitarity_deviation) < 1e-9

    @property
    def framing_phase(self) -> complex:
        return np.exp(-2j * np.pi * self.signature / 24)

    def framed_T(self) -> np.ndarray:
        """T's diagonal with the framing factor folded in; (S framed_T)^3 = S^2."""
        return self.T * self.framing_phase


def genus1_mcg_rep(disc: DiscriminantGroup) -> MappingClassReport:
    """SL(2,Z) action on the genus-1 block space C^A, with the deviations
    of S and T from S^4 = 1, S^2 = charge conjugation,
    (S T)^3 = exp(2 pi i sigma/8) S^2 and S S* = 1.  T is diagonal, so
    S T scales the columns of S; at most four |A| x |A| complex arrays
    are alive at once."""
    def deviation_from(a, perm):  # max |a - P| for P[i, perm[i]] = 1, in place
        a[np.arange(len(a)), perm] -= 1
        return float(np.max(np.abs(a)))

    s, t, sigma = s_matrix(disc), t_diagonal(disc), signature_mod8(disc)
    st = s * t
    st3 = st @ st @ st
    del st
    s2 = s @ s
    st3 -= np.exp(2j * np.pi * sigma / 8) * s2
    st3_deviation = float(np.max(np.abs(st3)))
    del st3
    return MappingClassReport(
        S=s, T=t, signature=sigma,
        s4_deviation=deviation_from(s2 @ s2, np.arange(disc.order)),
        st3_deviation=st3_deviation,
        # S^2 is taken in place here, after S^4 was formed from it
        s2_is_charge_conjugation=deviation_from(s2, disc.index(-disc.coordinates())),
        unitarity_deviation=deviation_from(s @ s.conj().T, np.arange(disc.order)),
    )
