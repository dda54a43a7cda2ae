"""Exact integer helpers.

A sum of roots of unity is kept as an integer histogram of residues at
one level: multiplicities of e(r/level) for residues r mod level, the
integer counts its producers already hold.  Identities like character
equalities are then certified exactly, via reduction modulo cyclotomic
polynomials, instead of being trusted to floating point.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import gcd


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
    """Integer combination of roots of unity, sum_r n_r e(r/level).

    `counts` maps residues mod `level` to integer multiplicities; zero
    multiplicities are ignored.  Zero and integer tests are exact, by
    reducing the associated integer polynomial modulo the cyclotomic
    polynomial of the least level; `to_complex` sums in the order of
    `counts`.
    """

    __slots__ = ("counts", "level")

    def __init__(self, counts: dict[int, int], level: int):
        self.counts = counts
        self.level = level

    def _reduced(self) -> list[int]:
        """Coordinates in the basis 1, z, ..., z^(d-1) of Q(z), z the
        primitive root of unity of the least level n (`level` divided by
        its gcd with the occupied residues): the integer polynomial of the
        sum reduced modulo the cyclotomic polynomial of n.

        With m = rad(n) and s = n/m, Phi_n(x) = Phi_m(x^s), so each residue
        class r mod s reduces on its own as a polynomial in y = x^s modulo
        Phi_m; coordinate r + k*s is coefficient k of class r."""
        occupied = [(r, n) for r, n in self.counts.items() if n]
        g = gcd(self.level, *(r for r, _ in occupied))
        level = self.level // g
        vec = [0] * level
        for r, n in occupied:
            vec[r // g % level] += n
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

    def to_complex(self) -> complex:
        return sum(n * cmath.exp(2j * cmath.pi * (r / self.level))
                   for r, n in self.counts.items() if n)

    def __repr__(self) -> str:
        return f"PhaseSum({self.counts!r}, {self.level})"
