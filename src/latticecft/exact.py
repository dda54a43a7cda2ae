"""Exact integer and rational helpers.

Phases throughout the library are rationals mod 1 (multiplicatively,
roots of unity).  Sums of roots of unity are kept as integer-weighted
multisets of rational phases so that identities like character equalities
can be certified exactly, via reduction modulo cyclotomic polynomials,
instead of being trusted to floating point.
"""

from __future__ import annotations

import cmath
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm


def det_int(m: list[list[int]] | tuple) -> int:
    """Determinant of a square integer matrix, exactly (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division of integer polynomials with zero remainder
    num = list(num)
    d = len(den) - 1
    out = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        out[i - d] = c
        if c:
            for j, dj in enumerate(den):
                num[i - d + j] -= c * dj
    if any(num[:d]):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_poly(d))
    return tuple(poly)


def _radical(n: int) -> int:
    """Product of the distinct primes dividing n."""
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            out *= p
            while n % p == 0:
                n //= p
        p += 1
    return out * n if n > 1 else out


class PhaseSum:
    """Integer combination of roots of unity, sum_q n_q * e^(2*pi*i*q).

    Keys are Fractions reduced mod 1.  Supports exact zero / equality
    tests by reducing the associated integer polynomial modulo the
    cyclotomic polynomial of the common denominator.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Counter | None = None):
        self.terms: Counter = terms if terms is not None else Counter()

    def add(self, phase: Fraction, mult: int = 1) -> None:
        if mult:
            self.terms[phase % 1] += mult

    def __add__(self, other: "PhaseSum") -> "PhaseSum":
        return PhaseSum(self.terms + other.terms)

    def __sub__(self, other: "PhaseSum") -> "PhaseSum":
        t = Counter(self.terms)
        t.subtract(other.terms)
        return PhaseSum(t)

    def scaled(self, k: int) -> "PhaseSum":
        return PhaseSum(Counter({q: k * n for q, n in self.terms.items()}))

    def _reduced(self) -> list[int]:
        """Coordinates in the basis 1, z, ..., z^(d-1) of Q(z), z the
        primitive root of unity of the phases' common denominator n: the
        integer polynomial of the sum reduced modulo the cyclotomic
        polynomial of that level.

        With m = rad(n) and s = n/m, Phi_n(x) = Phi_m(x^s), so each residue
        class r mod s reduces on its own as a polynomial in y = x^s modulo
        Phi_m; coordinate r + k*s is coefficient k of class r."""
        terms = {q: n for q, n in self.terms.items() if n}
        level = lcm(*(q.denominator for q in terms))
        vec = [0] * level
        for q, n in terms.items():
            vec[(q.numerator * (level // q.denominator)) % level] += n
        rad = _radical(level)
        step = level // rad
        phi = cyclotomic_poly(rad)
        d = len(phi) - 1
        out = [0] * (step * d)
        for r in range(step):
            cls = vec[r::step]
            for i in range(rad - 1, d - 1, -1):
                c = cls[i]
                if c:
                    for j, pj in enumerate(phi):
                        cls[i - d + j] -= c * pj
            out[r::step] = cls[:d]
        return out

    def is_zero(self) -> bool:
        return not any(self._reduced())

    def integer_value(self) -> int | None:
        """The sum as an integer, or None when it is not a rational integer."""
        vec = self._reduced()
        return None if any(vec[1:]) else vec[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PhaseSum):
            return NotImplemented
        return (self - other).is_zero()

    def to_complex(self) -> complex:
        return sum(n * cmath.exp(2j * cmath.pi * float(q))
                   for q, n in self.terms.items())

    def __repr__(self) -> str:
        return f"PhaseSum({dict(self.terms)!r})"
