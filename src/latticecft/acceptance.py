"""The acceptance suite: ten verification criteria over the bundled
lattices, each returning a structured pass/fail result.

Numerical criteria take their tolerances from a Tolerances bundle so the
CLI can override them globally (a zero override makes every numerical
criterion fail while the exact integer identities keep passing, which is
the intended semantics).  A defect hook can corrupt the S matrix to
demonstrate that the modular-relation criterion actually bites.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import blocks, fock, heisenberg, lattices, theta
from .lattices import BUNDLED_GRAMS, EXTRA_GRAMS, discriminant_group, validate_even_lattice
from .surfaces import IN, OUT, BlockLabel, Surface, IntersectionForm

DEFAULT_SEED = 1_000_003


def _named(*names):
    """Gram matrices of the bundled and extra lattices, in the given order
    (criterion 2 draws its random choices in this order)."""
    grams = {**BUNDLED_GRAMS, **EXTRA_GRAMS}
    return {name: grams[name] for name in names}


SWEEP_GRAMS = _named("a1", "a2", "d4", "e8", "z2z8")  # |A| <= 16
SMALL_GRAMS = _named("a1", "z4", "z6", "z8", "a2", "d4", "z2z2")  # |A| <= 8: induction
CHARACTER_GRAMS = _named("a1", "z4", "z6", "z8", "a2", "z2z2", "z2z4")  # |A| <= 8, rank <= 2


@dataclass(frozen=True)
class Tolerances:
    modular: float = 1e-9
    stone_von_neumann: float = 1e-9
    verlinde: float = 1e-6
    theta_value: float = 1e-9
    quasi_periodicity: float = 1e-8
    heat_residual: float = 1e-6
    bogoliubov: float = 1e-8

    @staticmethod
    def overridden(value: float | None) -> "Tolerances":
        if value is None:
            return Tolerances()
        if not value >= 0:  # NaN too
            raise ValueError("tolerance override must be nonnegative")
        return Tolerances(modular=value, stone_von_neumann=value,
                          verlinde=value, theta_value=value,
                          quasi_periodicity=value, heat_residual=value,
                          bogoliubov=value)


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict
    seconds: float = 0.0


def _discs(grams):
    lats = {name: validate_even_lattice(gram) for name, gram in grams.items()}
    return {name: (lat, discriminant_group(lat)) for name, lat in lats.items()}


# ---------------------------------------------------------------------------
# 1. normalization


def criterion_01_normalization(tol: Tolerances, seed: int,
                               defects=frozenset()) -> CriterionResult:
    dims = {}
    ok = True
    for name, (lat, disc) in _discs(BUNDLED_GRAMS).items():
        d = blocks.block_dimension(Surface.sphere(), BlockLabel(()), disc)
        dims[name] = d
        ok = ok and d == 1
    return CriterionResult(1, "normalization: dim E(sphere) = 1", ok,
                           {"dimensions": dims})


# ---------------------------------------------------------------------------
# 2. factorization sweep


def _random_split(rng: random.Random, genus: int, boundary: int, disc,
                  max_circles: int = 3):
    """A random (target, pieces, matching, labels): target is the connected
    surface of the given genus and boundary count, which gluing the pieces
    along the matching must give."""
    options = []
    for k in range(1, max_circles + 1):
        if genus >= k:
            options.append(("self", k))
        if genus >= k - 1:
            options.append(("pair", k))
    mode, k = rng.choice(options)
    free = [(f"f{i}", rng.choice([OUT, IN])) for i in range(boundary)]
    if mode == "self":
        circles = list(free)
        matching = []
        for i in range(k):
            circles.append((f"go{i}", OUT))
            circles.append((f"gi{i}", IN))
            matching.append((f"go{i}", f"gi{i}"))
        rng.shuffle(circles)
        pieces = (Surface.connected(genus - k, circles),)
    else:
        g_rest = genus - (k - 1)
        g1 = rng.randint(0, g_rest)
        b1 = rng.randint(0, boundary)
        c1 = [free[i] for i in range(b1)]
        c2 = [free[i] for i in range(b1, boundary)]
        matching = []
        for i in range(k):
            c1.append((f"go{i}", OUT))
            c2.append((f"gi{i}", IN))
            matching.append((f"go{i}", f"gi{i}"))
        rng.shuffle(c1)
        rng.shuffle(c2)
        pieces = (Surface.connected(g1, c1),
                  Surface.connected(g_rest - g1, c2))
    labels = {cid: disc.element(tuple(rng.randrange(d)
                                      for d in disc.invariant_factors))
              for cid, _ in free}
    return (Surface.connected(genus, free), pieces, matching,
            BlockLabel.from_dict(labels))


def criterion_02_factorization(tol: Tolerances, seed: int,
                               defects=frozenset()) -> CriterionResult:
    rng = random.Random(seed)
    targets = [(g, b) for g in range(4) for b in range(5)]
    checked = 0
    failures = []
    per_lattice = {}
    for name, (lat, disc) in _discs(SWEEP_GRAMS).items():
        count = 0
        for i in range(200):
            genus, boundary = targets[i % len(targets)]
            target, pieces, matching, labels = _random_split(rng, genus, boundary,
                                                             disc)
            rep = blocks.verify_factorization(target, pieces, matching,
                                              labels, disc)
            if not rep.equal:
                failures.append({"lattice": name, "genus": genus,
                                 "boundary": boundary, "lhs": rep.lhs,
                                 "rhs": rep.rhs})
            count += 1
        per_lattice[name] = count
        checked += count
    return CriterionResult(2, "factorization sweep, exact integers",
                           not failures,
                           {"gluings_checked": checked,
                            "per_lattice": per_lattice,
                            "failures": failures[:5]})


# ---------------------------------------------------------------------------
# 3. Stone-von Neumann


def criterion_03_stone_von_neumann(tol: Tolerances, seed: int,
                                   defects=frozenset()) -> CriterionResult:
    worst_commutant = 0.0
    worst_hom = 0.0
    cases = 0
    explicit_checked = 0
    ok = True
    for name, (lat, disc) in _discs(SWEEP_GRAMS).items():
        for genus in (1, 2):
            form = IntersectionForm.closed_genus(disc, genus)
            reps = {"schroedinger": heisenberg.schroedinger_irrep(disc, genus)}
            for lag_name, gens in heisenberg.standard_lagrangians(
                    disc, genus).items():
                reps[lag_name] = heisenberg.induce_from_isotropic(form, gens)
            names = sorted(reps)
            for rep_name in names:
                dim = heisenberg.commutant_dimension(reps[rep_name])
                worst_commutant = max(worst_commutant, abs(dim - 1.0))
                ok = ok and dim == 1
                cases += 1
            for i, n1 in enumerate(names):
                for n2 in names[i + 1:]:
                    dim = heisenberg.intertwiner_dimension(reps[n1], reps[n2])
                    worst_hom = max(worst_hom, abs(dim - 1.0))
                    ok = ok and dim == 1
                    if reps[n1].dimension <= 9:
                        nullity, m = heisenberg.explicit_intertwiner(
                            reps[n1], reps[n2])
                        unitary_dev = 1.0
                        if nullity == 1:
                            m = m / np.linalg.norm(m, 2)
                            unitary_dev = float(np.max(np.abs(
                                m.conj().T @ m - np.eye(reps[n1].dimension))))
                        ok = ok and nullity == 1 and unitary_dev < tol.stone_von_neumann
                        explicit_checked += 1
    return CriterionResult(3, "Stone-von Neumann at finite scale", ok,
                           {"representations_checked": cases,
                            "explicit_intertwiners": explicit_checked,
                            "max_commutant_deviation": worst_commutant,
                            "max_hom_deviation": worst_hom})


# ---------------------------------------------------------------------------
# 4. induced-representation decomposition


def criterion_04_induced_decomposition(tol: Tolerances, seed: int,
                                       defects=frozenset()) -> CriterionResult:
    ok = True
    per_lattice = {}
    for name, (lat, disc) in _discs(SMALL_GRAMS).items():
        form = IntersectionForm.closed_genus(disc, 1)
        elements, n = heisenberg.enumerate_h1(form), disc.exponent
        rows = form.rows(elements)
        subgroups = heisenberg.isotropic_subgroups(form)
        for sub in subgroups:
            rep = heisenberg.induce_from_isotropic(form, sub)
            b = form.rows(sub)
            perp = int(np.sum(~np.any(rows @ form.pairing_int % n @ b.T % n, axis=1)))
            mult = math.isqrt(perp // len(sub))
            expected_dim = mult * disc.order
            ok = ok and mult * len(sub) == disc.order and mult * mult * len(sub) == perp
            ok = ok and rep.dimension == expected_dim
            # expected_dim at zero, the first element, and 0 elsewhere
            traces = rep.trace_phase_sums(elements)
            value = {t: t.integer_value() for t in set(traces)}  # once per distinct sum
            ok = ok and all(value[t] == (0 if i else expected_dim)
                            for i, t in enumerate(traces))
        per_lattice[name] = len(subgroups)
    return CriterionResult(
        4, "induced-representation decomposition, exact characters", ok,
        {"isotropic_subgroups_checked": per_lattice})


# ---------------------------------------------------------------------------
# 5. modular relations


def criterion_05_modular(tol: Tolerances, seed: int,
                         defects=frozenset()) -> CriterionResult:
    ok = True
    rows = {}
    for name, (lat, disc) in _discs(BUNDLED_GRAMS).items():
        s = blocks.s_matrix(disc)
        if "s_sign_flip" in defects:
            s = -s
        sigma = lattices.signature_mod8(disc)
        rep = blocks.modular_relations(disc, s, blocks.t_matrix(disc), sigma)
        devs = {
            "unitarity": rep.unitarity_deviation,
            "symmetry": float(np.max(np.abs(s - s.T))),
            "charge_conjugation": rep.s2_is_charge_conjugation,
            "st_cubed": rep.st3_deviation,
            "s4": rep.s4_deviation,
        }
        rows[name] = {**devs, "sigma": sigma}
        ok = ok and all(v < tol.modular for v in devs.values())
    return CriterionResult(5, "modular relations for S and T", ok, rows)


# ---------------------------------------------------------------------------
# 6. Verlinde cross-check


def criterion_06_verlinde(tol: Tolerances, seed: int,
                          defects=frozenset()) -> CriterionResult:
    rng = random.Random(seed + 6)
    disc_list = list(_discs(BUNDLED_GRAMS).items())
    worst = 0.0
    mismatches = 0
    for i in range(500):
        name, (lat, disc) = disc_list[rng.randrange(len(disc_list))]
        genus = rng.randint(0, 3)
        boundary = rng.randint(0, 4)
        circles = [(f"c{k}", rng.choice([OUT, IN])) for k in range(boundary)]
        s = Surface.connected(genus, circles)
        labels = BlockLabel.from_dict(
            {cid: disc.element(tuple(rng.randrange(d)
                                     for d in disc.invariant_factors))
             for cid, _ in circles})
        rep = blocks.verlinde_check(s, labels, disc)
        worst = max(worst, rep.deviation)
        if not rep.equal:
            mismatches += 1
    ok = mismatches == 0 and worst < tol.verlinde
    return CriterionResult(6, "Verlinde sum equals block dimension", ok,
                           {"instances": 500, "mismatches": mismatches,
                            "max_pre_rounding_deviation": worst})


# ---------------------------------------------------------------------------
# 7. theta functions


def criterion_07_theta(tol: Tolerances, seed: int,
                       defects=frozenset()) -> CriterionResult:
    from .theta import SiegelPoint, ThetaSpec
    details = {}
    ok = True

    tau_i = SiegelPoint.make([[1j]])
    spec0 = ThetaSpec.make((Fraction(0),), (Fraction(0),))
    got = theta.theta(spec0, [0.0], tau_i, tol=1e-13).value
    direct = _direct_theta_sum(tau_i.tau, radius=20)
    details["theta3_deviation"] = abs(got - direct)
    ok = ok and details["theta3_deviation"] < tol.theta_value

    rng = np.random.default_rng(seed + 7)
    tau = SiegelPoint.make([[0.15 + 0.95j]])
    spec = ThetaSpec.make((Fraction(1, 3),), (Fraction(1, 4),))
    worst_q = 0.0
    for _ in range(20):
        z = np.array([rng.standard_normal() * 0.5
                      + 0.25j * rng.standard_normal()])
        m = int(rng.integers(-2, 3))
        n = int(rng.integers(-2, 3))
        lam = theta.lattice_vector(tau, [m], [n])
        lhs = theta.theta(spec, z + lam, tau, tol=1e-13).value
        rhs = (theta.automorphy_factor(spec, tau, [m], [n], z)
               * theta.theta(spec, z, tau, tol=1e-13).value)
        worst_q = max(worst_q, abs(lhs - rhs) / max(1.0, abs(rhs)))
    details["quasi_periodicity_deviation"] = worst_q
    ok = ok and worst_q < tol.quasi_periodicity

    res = theta.heat_equation_residual(spec0, [0.3 + 0.2j], tau_i, h=1e-3)
    details["heat_residual"] = res
    ok = ok and res < tol.heat_residual
    slopes = [theta.heat_equation_residual(spec0, [0.3 + 0.2j], tau_i, h=h,
                                           richardson=False)
              for h in (0.04, 0.02, 0.01)]
    ratios = [slopes[i] / slopes[i + 1] for i in range(2)]
    details["convergence_ratios"] = ratios
    ok = ok and all(3.0 < r < 5.0 for r in ratios)

    ranks = {}
    try:
        for ptype in ((1,), (2,), (3,)):
            ranks[str(ptype)] = theta.theta_space_dimension(ptype, tau_i,
                                                            seed=seed)
        tau2 = SiegelPoint.make([[1.0j, 0.3j], [0.3j, 1.4j]])
        for ptype in ((1, 1), (1, 2), (1, 3)):
            ranks[str(ptype)] = theta.theta_space_dimension(ptype, tau2,
                                                            seed=seed)
        expected = {"(1,)": 1, "(2,)": 2, "(3,)": 3,
                    "(1, 1)": 1, "(1, 2)": 2, "(1, 3)": 3}
        ok = ok and ranks == expected
    except Exception as exc:  # RankDeficient counts as a failure, not a crash
        ranks["error"] = repr(exc)
        ok = False
    details["dimension_ranks"] = ranks
    return CriterionResult(7, "theta values, quasi-periodicity, heat equation",
                           ok, details)


def _direct_theta_sum(tau_mat, radius):
    total = 0j
    for n in range(-radius, radius + 1):
        total += np.exp(1j * np.pi * n * n * tau_mat[0, 0])
    return complex(total)


# ---------------------------------------------------------------------------
# 8. loop-group characters


def criterion_08_characters(tol: Tolerances, seed: int,
                            defects=frozenset()) -> CriterionResult:
    ok = True
    per_lattice = {}
    discs = _discs(CHARACTER_GRAMS)
    for name, (lat, disc) in discs.items():
        sectors = 0
        for phi in disc.elements():
            ch = fock.sector_character(lat, disc, phi, 10)
            ok &= list(ch.coefficients) == fock.sector_state_counts(lat, disc, phi, 10)
            sectors += 1
        per_lattice[name] = sectors
    sewing = {}
    for name, depth in (("a1", 12), ("z4", 12), ("a2", 8), ("z2z2", 8)):
        rep = fock.annulus_sewing_check(*discs[name], depth)
        sewing[name] = {"max_energy": depth, "equal": rep.equal}
        ok = ok and rep.equal
    return CriterionResult(8, "sector characters and annulus sewing, exact",
                           ok, {"sectors_checked": per_lattice,
                                "sewing": sewing})


# ---------------------------------------------------------------------------
# 9. Bogoliubov overlaps


def criterion_09_bogoliubov(tol: Tolerances, seed: int,
                            defects=frozenset()) -> CriterionResult:
    cases_1d = [0.0, 0.25, -0.6, 0.5 + 0.3j, 0.2 - 0.55j]
    cases_2d = [
        [[0.3, 0.1], [0.1, -0.2]],
        [[0.2 + 0.1j, 0.05j], [0.05j, 0.4 - 0.2j]],
        [[0.0, 0.45], [0.45, 0.0]],
    ]
    worst = 0.0
    for t in cases_1d:
        worst = max(worst, abs(fock.bogoliubov_overlap([[t]])
                               - fock.gaussian_overlap_quadrature([[t]])))
    for t in cases_2d:
        worst = max(worst, abs(fock.bogoliubov_overlap(t)
                               - fock.gaussian_overlap_quadrature(
                                   t, points_per_dim=801)))
    sym_dev = 0.0
    rng = np.random.default_rng(seed + 9)
    for _ in range(10):
        raw = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        t = (raw + raw.T) / 2
        if np.linalg.norm(t, 2) >= 1:
            continue
        sym_dev = max(sym_dev, abs(fock.bogoliubov_overlap(t)
                                   - fock.bogoliubov_overlap(t.conj())))
    vals = [fock.bogoliubov_overlap([[x]]) for x in (0.0, 0.3, 0.6, 0.9, 0.99)]
    monotone = all(a > b for a, b in zip(vals, vals[1:]))
    ok = worst < tol.bogoliubov and sym_dev < 1e-12 and monotone
    return CriterionResult(9, "Bogoliubov overlap vs Gaussian quadrature", ok,
                           {"max_quadrature_deviation": worst,
                            "conjugation_symmetry_deviation": sym_dev,
                            "monotone_to_zero": monotone})


# ---------------------------------------------------------------------------
# 10. determinism


def criterion_10_determinism(tol: Tolerances, seed: int,
                             defects=frozenset()) -> CriterionResult:
    from . import cli  # local import: cli imports this module
    commands = [
        ["disc", "--lattice", "[[2,1],[1,2]]"],
        ["verlinde", "--lattice", "[[2]]",
         "--surface", '{"components":[{"genus":2,"boundaries":[]}]}',
         "--labels", "{}"],
        ["modular", "--lattice", "[[2]]"],
    ]
    ok = True
    digests = {}
    for argv in commands:
        full = argv + ["--seed", str(seed)]
        one = cli.render_report(full)
        two = cli.render_report(full)
        digests[argv[0]] = one == two
        ok = ok and one == two
    return CriterionResult(10, "byte-identical reports for a fixed seed", ok,
                           {"byte_identical": digests})


ALL_CRITERIA = [
    criterion_01_normalization,
    criterion_02_factorization,
    criterion_03_stone_von_neumann,
    criterion_04_induced_decomposition,
    criterion_05_modular,
    criterion_06_verlinde,
    criterion_07_theta,
    criterion_08_characters,
    criterion_09_bogoliubov,
    criterion_10_determinism,
]


def run_all(seed: int = DEFAULT_SEED, tolerance: float | None = None,
            defects=frozenset(), threads: int = 1) -> list[CriterionResult]:
    """Run the ten criteria in order.  The criteria are pure-Python work,
    so threads would only contend for the interpreter lock; `threads` is
    accepted for callers that pass 1 and any other value is refused."""
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    tol = Tolerances.overridden(tolerance)
    results = []
    for fn in ALL_CRITERIA:
        start = time.perf_counter()
        try:
            result = fn(tol, seed, defects)
        except Exception as exc:
            cid = int(fn.__name__.split("_")[1])
            result = CriterionResult(cid, fn.__name__, False,
                                     {"error": repr(exc)})
        result.seconds = round(time.perf_counter() - start, 3)
        results.append(result)
    return sorted(results, key=lambda r: r.cid)
