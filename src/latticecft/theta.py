"""Theta functions with characteristics on abelian varieties, numerically.

The series theta[a,b](z, tau) = sum over n in Z^g of
exp(pi i (n+a)^T tau (n+a) + 2 pi i (n+a)^T (z+b)) is truncated over a
box whose radius comes from an explicit Gaussian tail bound driven by
the smallest eigenvalue of Im(tau), so every value is returned together
with a certified bound on the truncation error.  The line-bundle
translation action and its automorphy factors use the hermitian metric
2 pi conj(v)^T Im(tau)^{-1} w; composing two translations picks up the
phase exp(i pi omega(v1, v2)) with omega the integer-normalized
imaginary part.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotPositiveDefinite, RankDeficient, TruncationOverflow
from .lattices import DEFAULT_SEED, DENSE_ENTRY_BUDGET, _MixedRadix, _within_budget

MAX_RADIUS = 60
ALPHA = 0.5  # the bound on |a_i| once `theta` has reduced the characteristic


@dataclass(frozen=True, eq=False)
class SiegelPoint:
    tau: np.ndarray
    g: int
    lam_min: float  # Im(tau)'s least eigenvalue, from the validation

    @staticmethod
    def make(tau_like) -> "SiegelPoint":
        tau = np.atleast_2d(np.asarray(tau_like, dtype=complex))
        if not np.isfinite(tau).all():
            raise ValueError("tau has an entry that is not finite")
        g = tau.shape[0]
        if tau.shape != (g, g):
            raise NotPositiveDefinite("tau must be square")
        if np.max(np.abs(tau - tau.T)) > 1e-12:
            raise NotPositiveDefinite("tau must be symmetric")
        lam = float(np.min(np.linalg.eigvalsh(tau.imag)))
        if lam <= 1e-12:
            raise NotPositiveDefinite("Im(tau) must be positive definite")
        tau = tau.copy()
        tau.flags.writeable = False
        return SiegelPoint(tau=tau, g=g, lam_min=lam)


@dataclass(frozen=True)
class ThetaSpec:
    """Characteristics (a, b)."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    @staticmethod
    def make(a, b) -> "ThetaSpec":
        a = tuple(Fraction(x) for x in a)
        b = tuple(Fraction(x) for x in b)
        if len(a) != len(b):
            raise ValueError("characteristics must have equal length")
        return ThetaSpec(a=a, b=b)

    @property
    def g(self) -> int:
        return len(self.a)


@dataclass(frozen=True)
class ThetaValue:
    value: complex
    tail_bound: float
    radius: int


def _shell_terms(lam_min: float, y_norm: float, g: int, max_rho: int) -> np.ndarray:
    """Upper bounds for the absolute sum over each sup-norm shell, for a
    characteristic reduced to |a_i| <= ALPHA."""
    rho = np.arange(1, max_rho + 1, dtype=float)
    count = (2 * rho + 1) ** g - (2 * rho - 1) ** g
    expo = (-math.pi * lam_min * np.maximum(rho - ALPHA, 0.0) ** 2
            + 2 * math.pi * y_norm * math.sqrt(g) * (rho + ALPHA))
    return count * np.exp(np.minimum(expo, 700.0))


def _choose_radius(lam_min: float, y_norm: float, g: int, tol: float) -> tuple[int, float]:
    horizon = MAX_RADIUS + 40 + int(4 * y_norm / lam_min)
    terms = _shell_terms(lam_min, y_norm, g, horizon)
    with np.errstate(over="ignore"):  # an infinite tail is the refusal's own evidence
        suffix = np.cumsum(terms[::-1])[::-1]
    for radius in range(1, MAX_RADIUS + 1):
        if suffix[radius] < tol:  # sum over shells rho > radius
            return radius, float(suffix[radius])
    raise TruncationOverflow(
        f"tail bound {suffix[MAX_RADIUS]:.3e} at the radius cap {MAX_RADIUS} "
        f"exceeds tol={tol:.3e}")


def _tree_sum(arr: np.ndarray) -> complex:
    # pairwise reduction: deterministic and numerically tame
    while arr.shape[0] > 1:
        n = arr.shape[0]
        half = (n + 1) // 2
        head = arr[:half].copy()
        head[: n - half] += arr[half:]
        arr = head
    return complex(arr[0])


def _box_sum(a: np.ndarray, b: np.ndarray, z: np.ndarray, tau: np.ndarray,
             radius: int) -> complex:
    g, m = len(a), 2 * radius + 1
    _within_budget(m ** g * g, "the theta box")
    # the 'ij' meshgrid rows of [-radius, radius]^g: row i is i's base-m digits less radius
    n = _MixedRadix((m,) * g).rows(np.arange(m ** g)) - radius
    x = n + a
    quad = np.einsum("ij,jk,ik->i", x, tau, x)
    lin = x @ (z + b)
    terms = np.exp(1j * np.pi * quad + 2j * np.pi * lin)
    # summed in np.lexsort's order of the rows, last coordinate first: the grid transposed
    return _tree_sum(terms.reshape((m,) * g).T.ravel())


def theta(spec: ThetaSpec, z, tau: SiegelPoint, tol: float = 1e-12) -> ThetaValue:
    """Evaluate theta[a,b](z, tau) with a truncation tail below tol.

    The characteristic a is first reduced into [-1/2, 1/2) by an exact
    reindexing of the sum.  A value past the float range is refused with
    TruncationOverflow.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    g = spec.g
    z = np.asarray(z, dtype=complex).ravel()
    if len(z) != g:
        raise ValueError("z length does not match the characteristic length")
    if not np.isfinite(z).all():
        raise ValueError("z has an entry that is not finite")
    if tau.g != g:
        raise ValueError("tau size does not match the characteristic length")
    shift = [math.floor(ai + Fraction(1, 2)) for ai in spec.a]
    a_red = np.array([float(ai - ki) for ai, ki in zip(spec.a, shift)])
    b_vec = np.array([float(bi) for bi in spec.b])
    lam = tau.lam_min
    with np.errstate(over="ignore"):  # an infinite norm is refused just below
        y_norm = float(np.linalg.norm(z.imag))
    if 4 * y_norm / lam > DENSE_ENTRY_BUDGET:  # the largest shell is far past MAX_RADIUS
        raise TruncationOverflow(f"|Im z| = {y_norm:.3e} puts the largest terms past the cap")
    radius, bound = _choose_radius(lam, y_norm, g, tol=tol)
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        value = _box_sum(a_red, b_vec, z, tau.tau, radius)
    if not np.isfinite(value):
        raise TruncationOverflow(f"the value at |Im z| = {y_norm:.3e} is past the float range")
    return ThetaValue(value=value, tail_bound=bound, radius=radius)


# ---------------------------------------------------------------------------
# the line-bundle translation action


def hermitian_metric(tau: SiegelPoint, v, w) -> complex:
    """<v, w> = 2 pi conj(v)^T Im(tau)^{-1} w."""
    yinv = np.linalg.inv(tau.tau.imag)
    v = np.asarray(v, dtype=complex).reshape(tau.g)
    w = np.asarray(w, dtype=complex).reshape(tau.g)
    return complex(2 * math.pi * (v.conj() @ yinv @ w))


def symplectic_form(tau: SiegelPoint, v, w) -> float:
    """omega = Im<v, w> / (2 pi); integer on lattice vectors."""
    return hermitian_metric(tau, v, w).imag / (2 * math.pi)


def lattice_vector(tau: SiegelPoint, m, n) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    return tau.tau @ m + n


def heisenberg_translate(v, section, tau: SiegelPoint):
    """Action of a translation on sections of the quantizing line bundle:

        (v . F)(u) = exp(<v,v>/4 + <v, u - v>/2) F(u - v)

    Composing translate(v1) after translate(v2) equals
    exp(i pi omega(v1, v2)) translate(v1 + v2).
    """
    v = np.asarray(v, dtype=complex).reshape(tau.g)
    norm_quarter = hermitian_metric(tau, v, v) / 4

    def translated(u):
        u = np.asarray(u, dtype=complex).reshape(tau.g)
        expo = norm_quarter + hermitian_metric(tau, v, u - v) / 2
        return np.exp(expo) * section(u - v)

    return translated


def splitting_character(spec: ThetaSpec, m, n) -> complex:
    """chi(tau m + n) = exp(pi i m.n + 2 pi i (a.n - b.m)): the twist under
    which the theta section is invariant."""
    m = np.asarray(m, dtype=float)
    n = np.asarray(n, dtype=float)
    a = np.array([float(x) for x in spec.a])
    b = np.array([float(x) for x in spec.b])
    return complex(np.exp(1j * np.pi * (m @ n) + 2j * np.pi * (a @ n - b @ m)))


def theta_section(spec: ThetaSpec, tau: SiegelPoint, tol: float = 1e-12):
    """The classical series as a section in the metric trivialization:
    F(w) = exp(pi/2 w^T Im(tau)^{-1} w) theta(w)."""
    yinv = np.linalg.inv(tau.tau.imag)

    def section(w):
        w = np.asarray(w, dtype=complex).reshape(tau.g)
        gauss = np.exp(math.pi / 2 * (w @ yinv @ w))
        return gauss * theta(spec, w, tau, tol=tol).value

    return section


def automorphy_factor(spec: ThetaSpec, tau: SiegelPoint, m, n, z) -> complex:
    """Predicted ratio theta(z + tau m + n) / theta(z), assembled from the
    translation action, the splitting character and the trivialization
    change; equals the classical exp(-pi i m^T tau m - 2 pi i m^T z + ...)
    factor."""
    z = np.asarray(z, dtype=complex).reshape(tau.g)
    lam = lattice_vector(tau, m, n)
    yinv = np.linalg.inv(tau.tau.imag)
    quarter = hermitian_metric(tau, lam, lam) / 4
    half = hermitian_metric(tau, lam, z) / 2
    triv = math.pi / 2 * ((z + lam) @ yinv @ (z + lam) - z @ yinv @ z)
    return complex(splitting_character(spec, m, n)
                   * np.exp(quarter + half - triv))


def theta_space_dimension(ptype, tau: SiegelPoint, seed: int = DEFAULT_SEED) -> int:
    """dim of the span of the type-(d1,...,dg) theta basis, certified by a
    numerical rank computation at random sample points.

    Basis: theta[D^{-1} c, 0] for c in prod Z/d_i; the rank of the value
    matrix at 3 prod(d_i) points, each value to 1e-12, must equal prod(d_i)."""
    ptype = tuple(int(d) for d in ptype)
    if any(d < 1 for d in ptype):
        raise ValueError("polarization type entries must be >= 1")
    if any(d2 % d1 for d1, d2 in zip(ptype, ptype[1:])):
        raise ValueError("polarization type must be a divisibility chain")
    g = tau.g
    if len(ptype) != g:
        raise ValueError("polarization type length must match tau")
    if g > 3:
        raise ValueError("rank verification supports g <= 3")
    dim = math.prod(ptype)
    if dim > 64:
        raise ValueError("rank verification supports product <= 64")
    chars = [tuple(Fraction(ci, di) for ci, di in zip(c, ptype))
             for c in itertools.product(*(range(d) for d in ptype))]
    rng = np.random.default_rng(seed)
    n_samples = 3 * dim
    points = rng.standard_normal((n_samples, g)) * 0.7 \
        + 0.3j * rng.standard_normal((n_samples, g))
    vals = np.empty((n_samples, dim), dtype=complex)
    for j, a in enumerate(chars):
        spec = ThetaSpec.make(a, (Fraction(0),) * g)
        for i in range(n_samples):
            vals[i, j] = theta(spec, points[i], tau, tol=1e-12).value
    norms = np.linalg.norm(vals, axis=0)
    if np.any(norms == 0):
        raise RankDeficient("a basis function vanished at every sample point")
    sv = np.linalg.svd(vals / norms, compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0]))
    if rank != dim:
        raise RankDeficient(
            f"numerical rank {rank} != expected {dim}; truncation too loose "
            f"or sample degenerate")
    return dim


# ---------------------------------------------------------------------------
# heat equation


def _tau_derivative(func, z, tau_mat, j, k, h):
    g = tau_mat.shape[0]
    delta = np.zeros((g, g))
    delta[j, k] = 1.0
    delta[k, j] = 1.0  # tau_jk and tau_kj move together; E_jj on the diagonal
    return (func(z, tau_mat + h * delta) - func(z, tau_mat - h * delta)) / (2 * h)


def _z_second_derivative(func, z, tau_mat, j, k, h):
    ej, ek = np.eye(len(z))[[j, k]]
    if j == k:
        return (func(z + h * ej, tau_mat) - 2 * func(z, tau_mat)
                + func(z - h * ej, tau_mat)) / (h * h)
    return (func(z + h * ej + h * ek, tau_mat) - func(z + h * ej - h * ek, tau_mat)
            - func(z - h * ej + h * ek, tau_mat)
            + func(z - h * ej - h * ek, tau_mat)) / (4 * h * h)


def heat_equation_residual(spec: ThetaSpec, z, tau: SiegelPoint,
                           h: float = 1e-3, richardson: bool = True) -> float:
    """Max over j <= k of |d theta/d tau_jk - coeff d^2 theta/dz_j dz_k|
    with coeff = 1/(2 pi i (1 + delta_jk)), by central differences
    (Richardson-extrapolated by default)."""
    def func(z, tau_mat):
        return theta(spec, z, SiegelPoint.make(tau_mat), tol=1e-14).value
    g = tau.g
    z = np.asarray(z, dtype=complex).reshape(g)
    tau_mat = np.asarray(tau.tau)

    def estimates(step):
        out = {}
        for j in range(g):
            for k in range(j, g):
                dt = _tau_derivative(func, z, tau_mat, j, k, step)
                dz = _z_second_derivative(func, z, tau_mat, j, k, step)
                out[(j, k)] = (dt, dz)
        return out

    coarse = estimates(h)
    if richardson:
        fine = estimates(h / 2)
        combined = {key: ((4 * fine[key][0] - coarse[key][0]) / 3,
                          (4 * fine[key][1] - coarse[key][1]) / 3)
                    for key in coarse}
    else:
        combined = coarse
    residual = 0.0
    for (j, k), (dt, dz) in combined.items():
        coeff = 1.0 / (2j * np.pi * (1 + (j == k)))
        residual = max(residual, abs(dt - coeff * dz))
    return residual
