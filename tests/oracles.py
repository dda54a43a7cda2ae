"""Independent oracles the tests check library results against.

These deliberately avoid the code paths they certify: determinants by
Laplace expansion, discriminant groups by direct coset enumeration,
surface homology from an honest cellular chain complex, theta values by
raw summation, state counts by explicit enumeration, the A2 and D4 theta
series in closed form by divisor sums, modular data one entry at a time
from the lifts and the Gram matrix, Heisenberg commutant and Hom
dimensions as float character sums, coset labels by a walk of every
element, the factorization sum as a tuple loop over label assignments,
fock's lifts, coset offsets and states over a per-axis exact box (axis
i bounded by x_i^2 <= 2 B (G^-1)_ii, not by the smallest eigenvalue),
the earlier `Fraction` version of the cyclotomic reduction of a phase
sum, the earlier meshgrid version of the Gaussian overlap quadrature,
and Heisenberg intertwiners by the earlier float nullspace solve over
generator matrices.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from math import lcm

import numpy as np

from latticecft.blocks import block_dimension
from latticecft.errors import NonIntegralEnergy, NotContractive
from latticecft.exact import cyclotomic_poly
from latticecft.fock import ModeTruncation, occupation_energy, oscillator_basis
from latticecft.surfaces import IN, OUT, BlockLabel, Surface, glue


def laplace_det(m) -> int:
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * laplace_det(minor)
    return total


def dual_coset_enumeration(gram):
    """Enumerate the cosets of the lattice inside its dual directly.

    Returns (order, coset representatives as Fraction vectors).  A coset
    is keyed by its vector reduced mod 1 coordinatewise, since the lattice
    is Z^r in Gram coordinates.
    """
    r = len(gram)
    ginv_cols = []
    for i in range(r):
        rhs = [Fraction(int(k == i)) for k in range(r)]
        ginv_cols.append(_solve(gram, rhs))
    seen = {}
    frontier = [tuple(Fraction(0) for _ in range(r))]
    seen[frontier[0]] = frontier[0]
    while frontier:
        nxt = []
        for v in frontier:
            for col in ginv_cols:
                w = tuple((a + b) % 1 for a, b in zip(v, col))
                if w not in seen:
                    seen[w] = w
                    nxt.append(w)
        frontier = nxt
    return len(seen), list(seen)


def _solve(gram, rhs):
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


def gram_pair(gram, v, w) -> Fraction:
    return sum(v[i] * gram[i][j] * w[j] for i in range(len(gram)) for j in range(len(gram)))


def cw_h1_rank(pieces: list[Surface], matching: list[tuple[str, str]]) -> int:
    """Rank of H1 of the glued surface from a cellular chain complex.

    Model per component: one vertex, 2g loop edges, and per boundary
    circle a tail edge to the circle's node plus the node's loop edge.
    Matched circles share one node and one loop.  The single 2-cell of a
    component abelianizes to the signed sum of its circles' loops.
    """
    comps = []
    circle_comp = {}
    for piece in pieces:
        for comp in piece.components:
            idx = len(comps)
            comps.append(comp)
            for c in comp.boundaries:
                circle_comp[c.id] = idx

    node_of = {}
    for out_id, in_id in matching:
        key = ("glued", out_id, in_id)
        node_of[out_id] = key
        node_of[in_id] = key
    for cid in circle_comp:
        node_of.setdefault(cid, ("free", cid))

    vertices = [("comp", i) for i in range(len(comps))]
    vertices += sorted(set(node_of.values()))
    vindex = {v: i for i, v in enumerate(vertices)}

    edges = []  # (tail vertex, head vertex) or loop (v, v)
    loop_edge_of_node = {}
    for i, comp in enumerate(comps):
        for _ in range(2 * comp.genus):
            edges.append((vindex[("comp", i)], vindex[("comp", i)]))
    for node in sorted(set(node_of.values())):
        loop_edge_of_node[node] = len(edges)
        edges.append((vindex[node], vindex[node]))
    for cid, comp_idx in sorted(circle_comp.items()):
        edges.append((vindex[("comp", comp_idx)], vindex[node_of[cid]]))

    d1 = np.zeros((len(vertices), len(edges)), dtype=float)
    for e, (a, b) in enumerate(edges):
        d1[a, e] -= 1
        d1[b, e] += 1

    d2 = np.zeros((len(edges), len(comps)), dtype=float)
    for i, comp in enumerate(comps):
        for c in comp.boundaries:
            sign = 1 if c.orientation == OUT else -1
            d2[loop_edge_of_node[node_of[c.id]], i] += sign

    rank_d1 = np.linalg.matrix_rank(d1) if d1.size else 0
    rank_d2 = np.linalg.matrix_rank(d2) if d2.size else 0
    return len(edges) - rank_d1 - rank_d2


def raw_theta_sum(a, b, z, tau, radius) -> complex:
    """Direct box summation of the theta series, no tail-bound logic."""
    g = len(z)
    total = 0j
    for n in itertools.product(range(-radius, radius + 1), repeat=g):
        x = np.array([float(ni + ai) for ni, ai in zip(n, a)])
        zz = np.asarray(z, dtype=complex) + np.array([float(bi) for bi in b])
        expo = 1j * np.pi * (x @ tau @ x) + 2j * np.pi * (x @ zz)
        total += np.exp(expo)
    return complex(total)


def brute_force_sector_counts(gram, lift, max_energy, rank_colors):
    """Count states (lattice shift, colored multipartition) by energy offset
    above the ground energy, by explicit enumeration over the per-axis
    exact box of `coset_numerators`."""
    ground = gram_pair(gram, lift, lift) / 2
    scale, vectors = coset_numerators(gram, lift, ground + max_energy)
    offsets = []
    for _, n in vectors:
        off, rem = divmod(n - int(ground * scale), scale)
        assert rem == 0 and off >= 0
        offsets.append(off)
    osc = colored_partition_states(max_energy, rank_colors)
    counts = [0] * (max_energy + 1)
    for off in offsets:
        for osc_energy, n_states in enumerate(osc):
            if off + osc_energy <= max_energy:
                counts[off + osc_energy] += n_states
    return counts


def colored_partition_states(max_energy, colors):
    """Number of colored multipartitions by total size, enumerated one
    occupation vector at a time."""
    modes = [(n, c) for n in range(1, max_energy + 1) for c in range(colors)]
    counts = [0] * (max_energy + 1)

    def rec(i, remaining):
        if i == len(modes):
            counts[max_energy - remaining] += 1
            return
        n, _ = modes[i]
        k = 0
        while k * n <= remaining:
            rec(i + 1, remaining - k * n)
            k += 1

    rec(0, max_energy)
    return counts


def theta_a2(max_energy) -> list[int]:
    """Theta series of A2 by norm/2: 1 + sum 6 (d_{1,3}(n) - d_{2,3}(n)) q^n,
    d_{i,3}(n) the number of divisors of n that are i mod 3."""
    return [1] + [6 * sum((d % 3 == 1) - (d % 3 == 2)
                          for d in range(1, n + 1) if n % d == 0)
                  for n in range(1, max_energy + 1)]


def theta_d4(max_energy) -> list[int]:
    """Theta series of D4 by norm/2: 1 + sum 24 (sum of the odd divisors of n) q^n."""
    return [1] + [24 * sum(d for d in range(1, n + 1, 2) if n % d == 0)
                  for n in range(1, max_energy + 1)]


def quadrature_loop_pairing(xi_fn, deta_fn, n_points=4096) -> float:
    """Trapezoid quadrature of integral of <xi, eta'> over the circle;
    exact for trigonometric polynomials at this resolution."""
    theta = np.linspace(0.0, 2 * np.pi, n_points, endpoint=False)
    vals = np.array([np.dot(xi_fn(t), deta_fn(t)) for t in theta])
    return float(vals.mean() * 2 * np.pi)


def _scaled_lifts(disc):
    """N times the lift of every element, in elements() order: integer
    vectors, since N kills A."""
    n = disc.exponent
    return [tuple(int(n * x) for x in disc.lift(a)) for a in disc.elements()]


def entrywise_s_matrix(disc) -> np.ndarray:
    """S_ab = exp(-2 pi i b(a, b)) / sqrt|A|, one entry at a time, with
    b(a, b) the Gram pairing of the lifts mod 1."""
    lifts, gram, n2 = _scaled_lifts(disc), disc.lattice.gram, disc.exponent ** 2
    s = np.empty((disc.order, disc.order), dtype=complex)
    for i, ua in enumerate(lifts):
        for j, ub in enumerate(lifts):
            b = Fraction(gram_pair(gram, ua, ub), n2) % 1
            s[i, j] = np.exp(-2j * np.pi * float(b))
    return s / math.sqrt(disc.order)


def entrywise_t_matrix(disc) -> np.ndarray:
    """T_a = exp(pi i q(a)), q(a) the Gram norm of the lift mod 2."""
    gram, n2 = disc.lattice.gram, disc.exponent ** 2
    return np.diag([np.exp(1j * np.pi * float(Fraction(gram_pair(gram, u, u), n2) % 2))
                    for u in _scaled_lifts(disc)])


def entrywise_charge_conjugation(disc) -> np.ndarray:
    els = list(disc.elements())
    index = {a.coords: i for i, a in enumerate(els)}
    c = np.zeros((disc.order, disc.order))
    for i, a in enumerate(els):
        c[i, index[disc.neg(a).coords]] = 1.0
    return c


def pants_fusion_tensor(disc) -> np.ndarray:
    """N_ab^c as the block dimension of the three-holed sphere with a, b
    incoming and c outgoing."""
    els = list(disc.elements())
    n = disc.order
    tensor = np.zeros((n, n, n), dtype=int)
    pants = Surface.pair_of_pants(("p0", "p1", "p2"), (IN, IN, OUT))
    for i, a in enumerate(els):
        for j, b in enumerate(els):
            for k, c in enumerate(els):
                labels = BlockLabel.from_dict({"p0": a, "p1": b, "p2": c})
                tensor[i, j, k] = block_dimension(pants, labels, disc)
    return tensor


def _h1_elements(disc, slots):
    """All slot tuples of A-coordinates, lexicographic."""
    group = list(itertools.product(*(range(d) for d in disc.invariant_factors)))
    return list(itertools.product(group, repeat=slots))


def _h1_add(disc, x, y, sign=1):
    return tuple(tuple((a + sign * b) % d for a, b, d in zip(xs, ys, disc.invariant_factors))
                 for xs, ys in zip(x, y))


def _h1_cocycle(form, x, y) -> Fraction:
    """c(x, y): b(x_k, y_l) summed over the slot pairs with J_kl = 1."""
    n = len(form.J)
    return sum((form.disc.bilinear_coords(x[k], y[l]) for k in range(n) for l in range(n)
                if form.J[k][l] == 1), Fraction(0)) % 1


def schroedinger_monomial(disc, genus, x, chi=1):
    """(permutation, phases) of the Schroedinger model at x, one basis
    point t of A^g at a time: t -> t - x_b with phase chi b(x_a, t - x_b)."""
    basis = _h1_elements(disc, genus)
    index = {t: i for i, t in enumerate(basis)}
    perm, phases = [], []
    for t in basis:
        shifted = _h1_add(disc, t, x[1::2], sign=-1)
        perm.append(index[shifted])
        alpha = sum((disc.bilinear_coords(a, s) for a, s in zip(x[0::2], shifted)),
                    Fraction(0))
        phases.append(chi * alpha % 1)
    return tuple(perm), tuple(phases)


def h1_subgroup(form, generators):
    """The subgroup the generators span, by breadth-first closure."""
    disc = form.disc
    seen = {tuple(disc.zero.coords for _ in range(len(form.J)))}
    frontier = list(seen)
    while frontier:
        frontier = [y for y in {_h1_add(disc, x, g) for x in frontier for g in generators}
                    if y not in seen]
        seen.update(frontier)
    return sorted(seen)


def reference_subgroups(form):
    """Every subgroup of H1 as a sorted element list, by closing each
    subgroup found with one more element; ordered by size, then by the
    element lists."""
    elements = _h1_elements(form.disc, len(form.J))
    seen = {(elements[0],)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for sub in frontier:
            for x in elements:
                bigger = tuple(h1_subgroup(form, [*sub, x]))
                if bigger not in seen:
                    seen.add(bigger)
                    nxt.append(bigger)
        frontier = nxt
    return [list(sub) for sub in sorted(seen, key=lambda sub: (len(sub), sub))]


def induced_monomial(form, subgroup, table):
    """y -> (permutation, phases) of the representation induced from the
    subgroup with splitting `table`, coset by coset: cosets keyed by their
    least element r_t, and r_t + y = b + r_t' gives the phase
    c(r_t, y) - chi(b) - c(b, r_t')."""
    disc = form.disc
    coset_of, reps = {}, []
    for x in _h1_elements(disc, len(form.J)):
        if x not in coset_of:
            for b in subgroup:
                coset_of[_h1_add(disc, x, b)] = len(reps)
            reps.append(x)

    def mono(y):
        perm, phases = [], []
        for r in reps:
            x = _h1_add(disc, r, y)
            t2 = coset_of[x]
            b = _h1_add(disc, x, reps[t2], sign=-1)
            perm.append(t2)
            phases.append((_h1_cocycle(form, r, y) - table[b]
                           - _h1_cocycle(form, b, reps[t2])) % 1)
        return tuple(perm), tuple(phases)

    return mono


def reference_coset_labels(factors, slots, subgroup):
    """Each element of (prod Z/d)^slots, in lexicographic order, labelled by
    its coset of `subgroup` (slot tuples); cosets are numbered in the order
    of their least elements, whose positions are returned too."""
    group = list(itertools.product(*(range(d) for d in factors)))
    elements = list(itertools.product(group, repeat=slots))
    position = {x: i for i, x in enumerate(elements)}
    label, reps = [-1] * len(elements), []
    for i, x in enumerate(elements):
        if label[i] < 0:
            for b in subgroup:
                y = tuple(tuple((p + q) % d for p, q, d in zip(xs, bs, factors))
                          for xs, bs in zip(x, b))
                label[position[y]] = len(reps)
            reps.append(i)
    return label, reps


def h1_elements_at(disc, slots, positions):
    """The elements of H1 at the given positions of the lexicographic order."""
    elements = _h1_elements(disc, slots)
    return [elements[p] for p in positions]


def float_traces(rep, elements) -> list[complex]:
    """tr rho(x) for each x: a float sum of e(alpha_x(t)) over the basis
    points t that rho(x) fixes, read from the exact monomial data."""
    out = []
    for x in elements:
        perm, phases = rep.monomial(x)
        out.append(sum((cmath.exp(2j * cmath.pi * float(a))
                        for t, (p, a) in enumerate(zip(perm, phases)) if p == t), 0j))
    return out


def float_character_pairing(traces1, traces2, order) -> float:
    """|sum_x tr1(x) conj(tr2(x))| / |H1| in floats, over elements that
    include every x where both traces are nonzero: the commutant dimension
    when both are one representation's traces, else the Hom dimension of
    two representations with the same central character."""
    return abs(sum(a * b.conjugate() for a, b in zip(traces1, traces2))) / order


def _add_coords(disc, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, disc.invariant_factors))


def _neg_coords(disc, a):
    return tuple((-x) % d for x, d in zip(a, disc.invariant_factors))


def reference_factorization(s, pieces, matching, labels, disc, keep_terms=False):
    """(lhs, rhs, terms) of the factorization identity by a loop over the
    label assignments as coordinate tuples, one group-law step at a time."""
    glued = glue(pieces[0], pieces[1] if len(pieces) == 2 else None, matching)
    assert glued.component_signature() == s.component_signature()
    lhs = block_dimension(s, labels, disc)
    match_slot = {}
    for idx, (out_id, in_id) in enumerate(matching):
        match_slot[out_id] = idx
        match_slot[in_id] = idx
    comp_data = []
    for piece in pieces:
        for comp in piece.components:
            const = disc.zero.coords
            hooks = []
            for circle in comp.boundaries:
                sign = 1 if circle.orientation == OUT else -1
                if circle.id in match_slot:
                    hooks.append((match_slot[circle.id], sign))
                else:
                    lam = labels.get(circle.id)
                    coords = lam.coords if sign > 0 else _neg_coords(disc, lam.coords)
                    const = _add_coords(disc, const, coords)
            comp_data.append((const, tuple(hooks), disc.order ** comp.genus))

    elements = [a.coords for a in disc.elements()]
    rhs = 0
    terms = []
    for assignment in itertools.product(elements, repeat=len(matching)):
        term = 1
        for const, hooks, weight in comp_data:
            acc = const
            for idx, sign in hooks:
                lam = assignment[idx]
                acc = _add_coords(disc, acc, lam if sign > 0
                                  else _neg_coords(disc, lam))
            if any(acc):
                term = 0
                break
            term *= weight
        rhs += term
        if keep_terms:
            terms.append((assignment, term))
    return lhs, rhs, tuple(terms)


# ---------------------------------------------------------------------------
# fock's lattice scans over a per-axis exact box, in integer numerators


def _inverse_diagonal(gram) -> list[Fraction]:
    """(G^-1)_ii, each a cofactor over det G."""
    r = len(gram)
    det = laplace_det(gram)
    return [Fraction(laplace_det([row[:i] + row[i + 1:] for k, row in enumerate(gram)
                                  if k != i]) if r > 1 else 1, det) for i in range(r)]


def coset_box(gram, centre, bound):
    """The integer mu with (c_i + mu_i)^2 <= 2 bound (G^-1)_ii on every axis,
    in lexicographic order: by Cauchy-Schwarz in the G^-1 inner product,
    every c + mu with (c + mu)^T G (c + mu) / 2 <= bound is among them,
    however skewed the basis."""
    axes = []
    for c, inv in zip(centre, _inverse_diagonal(gram)):
        reach = 2 * bound * inv  # x_i^2 <= reach on the ellipsoid
        r = math.isqrt(math.floor(reach)) + 1
        axes.append([m for m in range(math.floor(-c) - r, math.ceil(-c) + r + 1)
                     if (c + m) ** 2 <= reach])
    return itertools.product(*axes)


def coset_numerators(gram, centre, bound):
    """2 D^2 and the list of (mu, n) over `coset_box`, one for each c + mu of
    energy at most bound: D the lcm of c's denominators and
    n = (D c + D mu)^T G (D c + D mu), so the energy is n / (2 D^2)."""
    r = len(gram)
    den = lcm(*(Fraction(x).denominator for x in centre))
    p = [int(x * den) for x in centre]
    scale = 2 * den * den
    out = []
    for mu in coset_box(gram, centre, bound):
        v = [pi + den * m for pi, m in zip(p, mu)]
        n = sum(v[i] * gram[i][j] * v[j] for i in range(r) for j in range(r))
        if n <= bound * scale:
            out.append((mu, n))
    return scale, out


def reference_gram_quadratic(gram, v) -> Fraction:
    r = len(gram)
    return sum(v[i] * gram[i][j] * v[j] for i in range(r) for j in range(r))


def reference_minimal_norm_lift(lat, disc, phi) -> tuple[Fraction, ...]:
    """The least (norm, vector) over the coset vectors no longer than
    disc.lift(phi)."""
    lift0 = disc.lift(phi)
    ceiling = reference_gram_quadratic(lat.gram, lift0) / 2
    _, vectors = coset_numerators(lat.gram, lift0, ceiling)
    _, mu = min((n, mu) for mu, n in vectors)
    return tuple(l0 + m for l0, m in zip(lift0, mu))


def reference_lattice_offsets(lat, lift, max_energy) -> list[int]:
    ground = reference_gram_quadratic(lat.gram, lift) / 2
    scale, vectors = coset_numerators(lat.gram, lift, ground + max_energy)
    counts = [0] * (max_energy + 1)
    for _, n in vectors:
        off, rem = divmod(n - int(ground * scale), scale)
        if rem or off < 0:
            raise NonIntegralEnergy(f"coset energies differ by "
                                    f"{Fraction(n, scale) - ground}, not in 0..{max_energy}")
        counts[off] += 1
    return counts


def reference_state_energy(gram, sector_vector, occupation) -> Fraction:
    return reference_gram_quadratic(gram, sector_vector) / 2 \
        + occupation_energy(occupation)


def reference_sector_states(lat, disc, phi, max_offset):
    """(sector vector, occupation) pairs in enumeration order."""
    lift = reference_minimal_norm_lift(lat, disc, phi)
    bound = reference_gram_quadratic(lat.gram, lift) / 2 + max_offset
    scale, vectors = coset_numerators(lat.gram, lift, bound)
    tr = ModeTruncation(rank=lat.rank, max_mode=max(max_offset, 1),
                        max_energy=max_offset)
    osc_states = oscillator_basis(tr)
    out = []
    for mu, n in vectors:
        v = tuple(l0 + m for l0, m in zip(lift, mu))
        room = int(bound * scale) - n
        out.extend((v, occ) for occ in osc_states
                   if occupation_energy(occ) * scale <= room)
    return out


def reference_sewing_rhs(lat, max_energy):
    """The frozen right-hand table of the annulus sewing check: every pair
    of dual vectors tested for an integral difference."""
    rhs: dict[tuple[Fraction, Fraction], int] = {}
    r = lat.rank
    lam_min_dual = 1.0 / float(
        np.max(np.linalg.eigvalsh(np.array(lat.gram, dtype=float))))
    half = int(math.ceil(math.sqrt(2 * max_energy / lam_min_dual + 1e-12))) + 1
    gram_inv_cols = [_solve(lat.gram, [Fraction(int(k == i)) for k in range(r)])
                     for i in range(r)]
    duals = []
    for k in itertools.product(range(-half, half + 1), repeat=r):
        v = tuple(sum(gram_inv_cols[j][i] * k[j] for j in range(r))
                  for i in range(r))
        e = reference_gram_quadratic(lat.gram, v) / 2
        if e <= max_energy:
            duals.append((v, e))
    osc = colored_partition_states(max_energy, r)
    for v1, e1 in duals:
        for v2, e2 in duals:
            if e1 + e2 > max_energy:
                continue
            if any((x - y).denominator != 1 for x, y in zip(v1, v2)):
                continue  # not the same coset
            budget = max_energy - e1 - e2
            for m in range(int(budget) + 1):
                if not osc[m]:
                    continue
                for n in range(int(budget) - m + 1):
                    if not osc[n]:
                        continue
                    key = (e1 + m, e2 + n)
                    rhs[key] = rhs.get(key, 0) + osc[m] * osc[n]
    return tuple(sorted(((str(k[0]), str(k[1])), v)
                        for k, v in rhs.items() if v))


def reference_reduced(terms) -> list[int]:
    """Coordinates of sum_q n_q e(q) in the basis 1, z, ..., z^(d-1),
    reduced modulo the cyclotomic polynomial of the common denominator
    one coefficient at a time."""
    terms = {q: n for q, n in terms.items() if n}
    level = lcm(*(q.denominator for q in terms))
    vec = [0] * level
    for q, n in terms.items():
        vec[(q.numerator * (level // q.denominator)) % level] += n
    phi = cyclotomic_poly(level)
    d = len(phi) - 1
    for i in range(level - 1, d - 1, -1):
        c = vec[i]
        if c:
            for j, pj in enumerate(phi):
                vec[i - d + j] -= c * pj
    return vec[:d]


def reference_overlap_quadrature(t_matrix, points_per_dim: int = 1601,
                                 width: float = 10.0) -> float:
    """`fock.gaussian_overlap_quadrature` on an explicit meshgrid, with
    the conjugate and modulus of the real vacuum written out."""
    t = np.atleast_2d(np.asarray(t_matrix, dtype=complex))
    dim = t.shape[0]
    if float(np.linalg.norm(t, 2)) >= 1.0:
        raise NotContractive("operator norm >= 1")
    m = (np.eye(dim) - t) @ np.linalg.inv(np.eye(dim) + t)
    lam = float(np.min(np.linalg.eigvalsh(m.real)))
    span = width / math.sqrt(min(lam, 1.0))
    xs = np.linspace(-span, span, points_per_dim)
    if dim == 1:
        psi0 = np.exp(-xs ** 2 / 2)
        psit = np.exp(-m[0, 0] * xs ** 2 / 2)
        inner = np.trapezoid(np.conj(psi0) * psit, xs)
        n0 = np.trapezoid(np.abs(psi0) ** 2, xs)
        nt = np.trapezoid(np.abs(psit) ** 2, xs)
        return float(abs(inner) / math.sqrt(float(n0.real * nt.real)))
    x0, x1 = np.meshgrid(xs, xs, indexing="ij")
    quad = (m[0, 0] * x0 ** 2 + 2 * m[0, 1] * x0 * x1 + m[1, 1] * x1 ** 2)
    psi0 = np.exp(-(x0 ** 2 + x1 ** 2) / 2)
    psit = np.exp(-quad / 2)

    def integrate(f):
        return np.trapezoid(np.trapezoid(f, xs, axis=1), xs, axis=0)

    inner = integrate(np.conj(psi0) * psit)
    n0 = integrate(np.abs(psi0) ** 2)
    nt = integrate(np.abs(psit) ** 2)
    return float(abs(inner) / math.sqrt(float(n0.real * nt.real)))


def reference_intertwiner(mats1, mats2):
    """Nullity of M A_g = B_g M over paired generator matrices (A_g, B_g),
    and a solution M, by a float solve: each generator's n^2 x n^2 block of
    equations folds into the square factor R of a QR decomposition, whose
    singular values and right singular vectors are those of the whole
    system.  M is None at nullity 0."""
    n = len(mats1[0])
    eye = np.eye(n)
    r = np.empty((0, n * n), dtype=complex)
    for a, b in zip(mats1, mats2):
        block = np.kron(a.T, eye) - np.kron(eye, b)
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    _, sv, vh = np.linalg.svd(r)
    tol = len(mats1) * n * n * np.finfo(float).eps * (sv[0] if len(sv) else 1.0)
    nullity = int(np.sum(sv <= max(tol, 1e-10)))
    if nullity == 0:
        return 0, None
    return nullity, vh[-1].conjugate().reshape((n, n), order="F")
