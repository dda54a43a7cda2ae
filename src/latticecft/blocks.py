"""Conformal-block dimensions and modular data.

Block spaces attach to labeled surfaces: per component the dimension is
|A|^genus when the signed boundary-label sum vanishes and 0 otherwise,
multiplicatively over components.  The factorization sum over the labels
of k gluing circles and the character sums of the Verlinde formula run
over rows of A^k and A from the mixed-radix indexer of `lattices`, a
bounded slab at a time.  The genus-1 block space C^A carries the modular
S and T matrices of the discriminant form; the framing factor
exp(-2 pi i sigma/24) is kept as metadata on the report rather than
folded into T, so that (S T)^3 = exp(2 pi i sigma/8) S^2 is the relation
the suite verifies, with sigma certified by the Gauss-sum oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidSplit, MissingLabel
from .exact import PhaseSum
from .lattices import (
    DiscriminantGroup,
    GroupElement,
    _MixedRadix,
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


def block_dimension(s: Surface, labels: BlockLabel,
                    disc: DiscriminantGroup) -> int:
    """Product over components of |A|^g, or 0 where the label obstruction
    is nonzero."""
    deltas = delta_obstruction(s, labels, disc)
    dim = 1
    for comp, d in zip(s.components, deltas):
        if d != disc.zero:
            return 0
        dim *= disc.order ** comp.genus
    return dim


def verify_tensor_duality(s1: Surface, s2: Surface, labels: BlockLabel,
                          disc: DiscriminantGroup) -> dict:
    """Dimension checks for disjoint unions and orientation reversal."""
    union = s1.disjoint_union(s2)
    d_union = block_dimension(union, labels, disc)
    d_prod = block_dimension(s1, labels, disc) * block_dimension(s2, labels, disc)
    d1 = block_dimension(s1, labels, disc)
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
    if len(pieces) == 1:
        glued = glue(pieces[0], None, matching)
    elif len(pieces) == 2:
        glued = glue(pieces[0], pieces[1], matching)
    else:
        raise InvalidSplit("a split has one self-glued piece or two pieces")
    if glued.component_signature() != s.component_signature():
        raise InvalidSplit(
            f"gluing yields {glued.component_signature()}, "
            f"surface has {s.component_signature()}")
    if sorted(glued.circle_ids()) != sorted(s.circle_ids()):
        raise InvalidSplit("free boundary circles do not match the surface")

    lhs = block_dimension(s, labels, disc)
    match_slot = {cid: idx for idx, pair in enumerate(matching) for cid in pair}
    k = len(disc.invariant_factors)
    comps = [comp for piece in pieces for comp in piece.components]
    # component totals = (const + assignment @ signs) mod the factors
    const = np.zeros((len(comps), k), dtype=disc.bilinear_int.dtype)
    signs = np.zeros((len(matching), k, len(comps), k), dtype=np.int64)
    weight = 1
    for c, comp in enumerate(comps):
        for circle in comp.boundaries:
            sign = 1 if circle.orientation == OUT else -1
            if circle.id in match_slot:
                signs[match_slot[circle.id], :, c, :] += sign * np.eye(k, dtype=np.int64)
            else:
                lam = labels.get(circle.id)
                if lam is None:
                    raise MissingLabel(f"no label for circle {circle.id!r}")
                const[c] += sign * np.array(lam.coords, dtype=const.dtype)
        weight *= disc.order ** comp.genus
    const, signs = const.reshape(-1), signs.reshape(len(matching) * k, len(comps) * k)
    radices = np.tile(np.array(disc.invariant_factors, dtype=const.dtype), len(comps))

    _within_budget(disc.order ** len(matching), "the factorization sum")
    grid = _MixedRadix(disc.invariant_factors, len(matching))
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


def t_matrix(disc: DiscriminantGroup) -> np.ndarray:
    """Diagonal of twists, T_a = exp(pi i q(a)).

    The framing factor exp(-2 pi i sigma/24) belongs to the determinant
    line metadata (see MappingClassReport); keeping T bare is what makes
    (S T)^3 = exp(2 pi i sigma/8) S^2 hold verbatim.
    """
    _within_budget(disc.order ** 2, "the T matrix")
    twists = [np.exp(1j * np.pi * (m / disc.exponent)) for m in range(2 * disc.exponent)]
    return np.diag(np.array(twists)[disc.quadratic_values()])


def charge_conjugation(disc: DiscriminantGroup) -> np.ndarray:
    _within_budget(disc.order ** 2, "the charge conjugation matrix")
    return np.eye(disc.order)[disc.index(-disc.coordinates())]


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
    for rows in disc._radix.slabs():
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
    n = disc.order
    num, den = 1, 1
    raw, approx = 1 + 0j, 1.0
    for comp, total in zip(s.components, delta_obstruction(s, labels, disc)):
        phases = _character_sum(disc, total)
        # a character sum over A: |A| or 0, always an integer
        value = phases.integer_value()
        num *= value * n ** comp.genus
        den *= n
        # numpy's power gives inf instead of raising past the float range
        with np.errstate(over="ignore"):
            scale = float(np.float64(n) ** (comp.genus - 1))
        raw *= scale * phases.to_complex()
        approx *= scale * value
    exact = Fraction(num, den)
    bdim = block_dimension(s, labels, disc)
    return VerlindeReport(verlinde_raw=raw, rounded=round(exact),
                          block_dim=bdim, deviation=abs(raw - approx),
                          equal=exact == bdim)


@dataclass(frozen=True, eq=False)
class MappingClassReport:
    S: np.ndarray
    T: np.ndarray
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
        """T with the framing factor folded in; (S framed_T)^3 = S^2."""
        return self.T * self.framing_phase


def genus1_mcg_rep(disc: DiscriminantGroup) -> MappingClassReport:
    """SL(2,Z) action on the genus-1 block space C^A, with its relations
    checked by `modular_relations`."""
    return modular_relations(disc, s_matrix(disc), t_matrix(disc), signature_mod8(disc))


def modular_relations(disc: DiscriminantGroup, s: np.ndarray, t: np.ndarray,
                      sigma: int) -> MappingClassReport:
    """Deviations of S and T from S^4 = 1, S^2 = charge conjugation,
    (S T)^3 = exp(2 pi i sigma/8) S^2 and S S* = 1.  With the caller's
    S and T, at most five |A| x |A| complex arrays are alive at once."""
    def deviation_from(a, perm):  # max |a - P| for P[i, perm[i]] = 1, in place
        a[np.arange(len(a)), perm] -= 1
        return float(np.max(np.abs(a)))

    st = s @ t
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
