"""Independent checks for the benchmark's operations.

None of these call the code path they check: determinants by fraction
elimination, group laws by mixed-radix index arithmetic, block
dimensions from the signed label sum, theta series from closed forms
(Conway & Sloane, SPLAG ch. 4) or one-dimensional sums, partition
counts from their own recurrence.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

OUT = "out"


def det_fraction(gram) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in gram]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _gram_apply(gram, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in gram]


def _pair(gram, v, w) -> Fraction:
    return sum(x * y for x, y in zip(v, _gram_apply(gram, w)))


def check_discriminant_group(lat, disc, form_generators: int = 3) -> bool:
    """|A| = det, the factors form a divisibility chain, each lift is a
    dual vector of exact order d_i mod the lattice, and the stored forms
    agree with the Gram pairing of the lifts (on the first generators)."""
    gram = lat.gram
    if disc.order != det_fraction(gram) or disc.order != math.prod(disc.invariant_factors):
        return False
    factors = disc.invariant_factors
    if any(d <= 1 for d in factors) or any(b % a for a, b in zip(factors, factors[1:])):
        return False
    for d, v in zip(factors, disc.lift_vectors):
        if any(Fraction(x).denominator != 1 for x in _gram_apply(gram, v)):
            return False
        if math.lcm(*(Fraction(x).denominator for x in v)) != d:
            return False  # the order of v mod Z^r is not d
    k = min(form_generators, len(factors))
    for i in range(k):
        vi = disc.lift_vectors[i]
        if _pair(gram, vi, vi) % 2 != disc.quadratic_diag[i]:
            return False
        for j in range(k):
            if _pair(gram, vi, disc.lift_vectors[j]) % 1 != disc.bilinear_matrix[i][j]:
                return False
    return True


def milgram_signature(lat) -> int:
    """Milgram's formula for a positive definite even lattice: the
    signature mod 8 is the rank mod 8."""
    return lat.rank % 8


def check_s_matrix(s, order: int) -> bool:
    """S is unitary and symmetric, with entries of modulus |A|^(-1/2)."""
    s = np.asarray(s)
    eye = np.eye(order)
    return (s.shape == (order, order)
            and float(np.max(np.abs(s @ s.conj().T - eye))) < 1e-9
            and float(np.max(np.abs(s - s.T))) < 1e-12
            and float(np.max(np.abs(np.abs(s) - order ** -0.5))) < 1e-12)


def group_law_tensor(factors) -> np.ndarray:
    """N[a, b, c] = 1 iff c = a + b, elements indexed lexicographically."""
    coords = np.array(list(itertools.product(*(range(d) for d in factors))),
                      dtype=np.int64).reshape(-1, len(factors))
    n = coords.shape[0]
    radix = np.ones(len(factors), dtype=np.int64)
    for i in range(len(factors) - 2, -1, -1):
        radix[i] = radix[i + 1] * factors[i + 1]
    mods = np.array(factors, dtype=np.int64)
    sums = (coords[:, None, :] + coords[None, :, :]) % mods
    target = (sums * radix).sum(axis=2)
    tensor = np.zeros((n, n, n), dtype=np.int64)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    tensor[ii, jj, target] = 1
    return tensor


def label_sum_zero(factors, component, labels) -> bool:
    """Outgoing labels count +1, incoming -1; the sum must vanish in A."""
    acc = [0] * len(factors)
    for circle in component.boundaries:
        sign = 1 if circle.orientation == OUT else -1
        for i, c in enumerate(labels[circle.id]):
            acc[i] += sign * c
    return all(x % d == 0 for x, d in zip(acc, factors))


def block_dimension(factors, surface, labels) -> int:
    """prod over components of |A|^g, or 0 if a label sum is nonzero."""
    order = math.prod(factors)
    dim = 1
    for comp in surface.components:
        if not label_sum_zero(factors, comp, labels):
            return 0
        dim *= order ** comp.genus
    return dim


# ---------------------------------------------------------------------------
# q-series


def partitions(max_n: int, colors: int) -> list[int]:
    """Coefficients of prod_k (1 - q^k)^(-colors), by the divisor-sum
    recurrence n p(n) = colors * sum_k sigma(k) p(n - k)."""
    sigma = [0] + [sum(d for d in range(1, k + 1) if k % d == 0)
                   for k in range(1, max_n + 1)]
    p = [1] + [0] * max_n
    for n in range(1, max_n + 1):
        p[n] = colors * sum(sigma[k] * p[n - k] for k in range(1, n + 1)) // n
    return p


def convolve(a: list[int], b: list[int], n: int) -> list[int]:
    return [sum(a[k] * b[m - k] for k in range(m + 1)) for m in range(n + 1)]


def theta_d4(max_n: int) -> list[int]:
    """Theta series of D4 in q^(norm/2): 1 + 24 sum sigma_odd(n) q^n."""
    return [1] + [24 * sum(d for d in range(1, n + 1, 2) if n % d == 0)
                  for n in range(1, max_n + 1)]


def theta_a2(max_n: int) -> list[int]:
    """Theta series of A2 in q^(norm/2): 1 + 6 sum (d_13(n) - d_23(n)) q^n."""
    out = [1]
    for n in range(1, max_n + 1):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        out.append(6 * (sum(1 for d in divs if d % 3 == 1)
                        - sum(1 for d in divs if d % 3 == 2)))
    return out


def diagonal_coset_counts(halves, lift, ground: Fraction, max_energy: int):
    """Vectors of lift + Z^r by energy offset above `ground`, for the
    diagonal Gram matrix diag(2 h_i): energy sum h_i x_i^2, counted by
    convolving one-dimensional sums."""
    bound = ground + max_energy
    total = {Fraction(0): 1}
    for h, x0 in zip(halves, lift):
        frac = Fraction(x0) - math.floor(Fraction(x0))
        one = {}
        reach = math.isqrt(int(bound / h) + 1) + 2
        for n in range(-reach, reach + 1):
            e = h * (n + frac) ** 2
            if e <= bound:
                one[e] = one.get(e, 0) + 1
        nxt = {}
        for e1, c1 in total.items():
            for e2, c2 in one.items():
                if e1 + e2 <= bound:
                    nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        total = nxt
    counts = [0] * (max_energy + 1)
    for e, c in total.items():
        off = e - ground
        if off < 0 or off.denominator != 1:
            return None
        counts[int(off)] += c
    return counts


def dn_coset_counts(n: int, coset: str, max_energy: int) -> list[int]:
    """Vectors of a coset of D_n = {x in Z^n : sum x even} (norm sum x^2)
    by energy offset above the coset's ground energy: "even" is D_n,
    "odd" the vector coset, "half" one spinor coset, which holds half of
    (Z + 1/2)^n (Conway & Sloane, SPLAG ch. 4, the D_n theta series)."""
    shift = Fraction(1, 2) if coset == "half" else Fraction(0)
    ground = {"even": Fraction(0), "odd": Fraction(1, 2),
              "half": Fraction(n, 8)}[coset]
    bound = ground + max_energy
    reach = math.isqrt(2 * int(bound) + 2) + 1
    one = [((m + shift) ** 2 / 2, m % 2) for m in range(-reach, reach + 1)]
    total = {(Fraction(0), 0): 1}
    for _ in range(n):
        nxt = {}
        for (e1, p1), c1 in total.items():
            for e2, p2 in one:
                if e1 + e2 <= bound:
                    key = (e1 + e2, (p1 + p2) % 2)
                    nxt[key] = nxt.get(key, 0) + c1
        total = nxt
    counts = [0] * (max_energy + 1)
    for (e, parity), c in total.items():
        if coset == "half" or parity == (coset == "odd"):
            counts[int(e - ground)] += c
    if coset == "half":
        counts = [c // 2 for c in counts]
    return counts
