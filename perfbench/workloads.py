"""The four workloads: seeded inputs, operations and their oracles.

Every workload is a closed loop with one client: an operation starts
when the previous one returns.  A repetition runs the workload's fixed
operation list once; the list is built from the seed, and its mix of
operation kinds and sizes is the same for every seed, so that a
latency percentile over the operations falls on the same kind of
operation whatever the seed.  The seed chooses labels, genera,
surfaces, the rank-24 lattices, a signed permutation of every `modular`
Gram basis, and the order of operations.

Left out, because no run could finish them today:
- `sector_character` on the bundled E8 lattice never returns.
- `disc` on [[2000,1,0],[1,4000,3],[0,3,20000]] (|A| ~ 1.6e11) raises
  MemoryError in the Gauss sum.
- `fusion_rules` above |A| = 48 and any S matrix above |A| = 512 take
  too long for one operation.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from . import oracles

OUT, IN = "out", "in"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
OP_TIMEOUT_S = 60.0  # an operation slower than this counts as failed


@dataclass
class Op:
    """One operation: `call` does the work, `check(result, results)`
    returns (passed, claimed_ok), where `results` maps op keys to the
    results of this repetition, and claimed_ok says the program itself
    reported success (a failure it did not report is a wrong answer)."""

    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], tuple[bool, bool]]
    key: tuple | None = None


@dataclass
class Record:
    op: Op
    seconds: float
    result: Any = None
    error: str | None = None
    passed: bool = False
    wrong: bool = False
    scale: float = 1.0  # host-speed correction, see `probe`


# Host-speed correction.  On a shared 2-vCPU virtual machine the same
# code ran up to 2x slower for stretches of seconds to many minutes,
# longer than a run.  A fixed pure-Python loop (`probe`) slows with it
# (log-log slope 1.0, correlation 0.7, over 100 two-second samples of
# `characters` operations), so each timing is multiplied by
# PROBE_REF_S / (probe time around it): reported times are those of a
# host on which the probe takes PROBE_REF_S, about the fastest the loop
# ran on that machine.  The probe does not touch the library, so a
# change to the library moves corrected and raw times alike.
PROBE_LOOPS = 15_000
PROBE_REF_S = 1.0e-3
PROBE_EVERY_S = 0.05  # operations shorter than this share a probe


def probe() -> float:
    clock = time.perf_counter
    start = clock()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return clock() - start


def time_ops(ops: list[Op]) -> list[Record]:
    """One repetition: every operation in order, timed; no checks.  Each
    record's scale comes from the probes just before and after it."""
    records = []
    clock = time.perf_counter
    before, probed_at = probe(), clock()
    for op in ops:
        start = clock()
        try:
            result = op.call()
            error = None
        except Exception as exc:  # a raising operation is a counted failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        after = before
        if end - probed_at >= PROBE_EVERY_S:
            after, probed_at = probe(), clock()
        records.append(Record(op, end - start, result, error,
                              scale=2 * PROBE_REF_S / (before + after)))
        before = after
    return records


def check_records(records: list[Record]) -> None:
    """Check one repetition's records, then drop their results."""
    results = {r.op.key: r.result for r in records
               if r.op.key is not None and r.error is None}
    for r in records:
        if r.error is not None:
            continue
        passed, claimed = r.op.check(r.result, results)
        r.passed = passed and r.seconds <= OP_TIMEOUT_S
        r.wrong = claimed and not passed
    for r in records:
        r.result = None  # results of earlier repetitions must not pile up


# ---------------------------------------------------------------------------
# input helpers


def scramble(gram, rng: random.Random):
    """The same lattice in a signed-permuted basis: P^T G P."""
    r = len(gram)
    perm = list(range(r))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(r)]
    return tuple(tuple(sign[i] * sign[j] * gram[perm[i]][perm[j]]
                       for j in range(r)) for i in range(r))


def random_rank24(rng: random.Random):
    """An even positive definite rank-24 Gram matrix L^T L (+1 on odd
    diagonal entries) with L lower triangular; its determinant runs to
    20+ digits, which is what makes SNF lifts large."""
    r = 24
    low = [[0] * r for _ in range(r)]
    for i in range(r):
        low[i][i] = rng.randint(1, 3)
        for j in range(i):
            low[i][j] = rng.randint(-2, 2)
    gram = [[sum(low[k][i] * low[k][j] for k in range(r)) for j in range(r)]
            for i in range(r)]
    for i in range(r):
        gram[i][i] += gram[i][i] % 2
    return tuple(tuple(row) for row in gram)


def random_coords(rng, factors):
    return tuple(rng.randrange(d) for d in factors)


def random_labels(rng, factors, circles, balanced: bool):
    """Random labels for the given (id, orientation) circles; balanced
    labels make the signed sum vanish by fixing the last one."""
    labels = {cid: random_coords(rng, factors) for cid, _ in circles}
    if balanced and circles:
        acc = [0] * len(factors)
        for cid, ori in circles[:-1]:
            sign = 1 if ori == OUT else -1
            acc = [a + sign * c for a, c in zip(acc, labels[cid])]
        last_id, last_ori = circles[-1]
        sign = 1 if last_ori == OUT else -1
        labels[last_id] = tuple((-sign * a) % d for a, d in zip(acc, factors))
    return labels


class _Lattices:
    """Validated lattices and their groups, built through the public API."""

    def __init__(self, api, grams: dict):
        self.lat, self.disc = {}, {}
        for name, gram in grams.items():
            lat = api.lattices.validate_even_lattice(gram)
            self.lat[name] = lat
            self.disc[name] = api.lattices.discriminant_group(lat)


# ---------------------------------------------------------------------------
# modular: discriminant forms, S/T, fusion, Verlinde, factorization

MODULAR_GRAMS = {
    "z2": ((2,),),
    "z4": ((4,),),
    "a2": ((2, 1), (1, 2)),
    "z12": ((12,),),
    "d4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
    "z48": ((48,),),
    "z128": ((128,),),
    "z2z128": ((2, 0), (0, 128)),
    "g4_36": ((4, 2), (2, 36)),
    "z6_3": ((6, 0, 0), (0, 6, 0), (0, 0, 6)),
    "z512": ((512,),),
}
MCG = ("z128", "g4_36", "z6_3", "z512")
FUSION = ("z12", "d4", "z48")
# (group, genus range, count): small groups reach the genera where the
# float Verlinde sum fails today (34 on Z/2, 22 on A2, 51 on Z/4).  The
# tail latency is the eleventh slowest operation: the ten operations that
# build an S matrix of order 128 or more, the rank-24 groups and Z/48
# fusion are slower, and Z/12 fusion is the only operation of its cost,
# so the tail falls on the same operation for every seed.
VERLINDE = (
    [(g, lo, hi, 3) for g in ("z2", "z4", "a2")
     for lo, hi in ((0, 15), (16, 40), (41, 60))]
    + [("z12", 0, 4, 3), ("d4", 0, 4, 3)]
    + [("z128", 1, 3, 1), ("g4_36", 1, 3, 1), ("z2z128", 3, 3, 1)])
BLOCKS_PER_GROUP = 4
# (group, gluing circles, count): |A|^k label assignments per factorization
FACTORIZE = (("z2", 3, 2), ("z4", 3, 2), ("a2", 3, 2), ("z12", 2, 2),
             ("d4", 3, 2), ("z48", 1, 2), ("z4", 2, 2), ("a2", 2, 2))


def _random_surface(api, rng, genus_lo, genus_hi, factors):
    comps, circles = [], []
    n_comp = rng.choice((1, 1, 2))
    for c in range(n_comp):
        genus = rng.randint(genus_lo, genus_hi)
        bnd = [(f"c{c}_{i}", rng.choice((OUT, IN)))
               for i in range(rng.randint(0, 3))]
        comps.append({"genus": genus, "boundaries": [
            {"id": cid, "orientation": ori} for cid, ori in bnd]})
        circles.append(bnd)
    balanced = rng.random() < 0.5
    labels = {}
    for bnd in circles:
        labels.update(random_labels(rng, factors, bnd, balanced))
    return api.surfaces.Surface.from_json({"components": comps}), labels


def _block_label(api, disc, labels):
    return api.surfaces.BlockLabel.from_dict(
        {cid: disc.element(c) for cid, c in labels.items()})


def _random_split(api, rng, genus, k, factors):
    """(target, pieces, matching, labels): gluing along k circles, either
    one piece to itself or two pieces to each other."""
    Surface = api.surfaces.Surface
    free = [(f"f{i}", rng.choice((OUT, IN))) for i in range(rng.randint(0, 3))]
    matching = [(f"go{i}", f"gi{i}") for i in range(k)]
    outs = [(o, OUT) for o, _ in matching]
    ins = [(i, IN) for _, i in matching]
    if genus >= k and rng.random() < 0.5:
        circles = free + outs + ins
        rng.shuffle(circles)
        pieces = (Surface.connected(genus - k, circles),)
    else:
        g1 = rng.randint(0, genus - (k - 1))
        cut = rng.randint(0, len(free))
        c1, c2 = free[:cut] + outs, free[cut:] + ins
        rng.shuffle(c1)
        rng.shuffle(c2)
        pieces = (Surface.connected(g1, c1),
                  Surface.connected(genus - (k - 1) - g1, c2))
    labels = random_labels(rng, factors, free, rng.random() < 0.5)
    return Surface.connected(genus, free), pieces, matching, labels


def build_modular(api, seed: int) -> list[Op]:
    rng = random.Random(seed)
    pool = _Lattices(api, {name: scramble(gram, rng)
                           for name, gram in MODULAR_GRAMS.items()})
    lattices, blocks = api.lattices, api.blocks
    ops: list[Op] = []

    def disc_op(name, gram):
        def call():
            lat = lattices.validate_even_lattice(gram)
            return lat, lattices.discriminant_group(lat)

        def check(res, _):
            return oracles.check_discriminant_group(*res), True
        ops.append(Op("discriminant_group", name, call, check))

    for name in MODULAR_GRAMS:
        disc_op(name, pool.lat[name].gram)
    for i in range(2):
        disc_op(f"rank24_{i}", random_rank24(rng))

    for name in MODULAR_GRAMS:
        lat, disc = pool.lat[name], pool.disc[name]
        ops.append(Op("signature_mod8", name,
                      lambda d=disc: lattices.signature_mod8(d),
                      lambda res, _, lat=lat: (res == oracles.milgram_signature(lat), True)))

    for name in MCG:
        lat, disc = pool.lat[name], pool.disc[name]

        def check_mcg(rep, _, lat=lat, disc=disc):
            ok = (oracles.check_s_matrix(rep.S, disc.order)
                  and rep.signature == oracles.milgram_signature(lat) and rep.ok)
            return ok, rep.ok
        ops.append(Op("genus1_mcg_rep", name,
                      lambda d=disc: blocks.genus1_mcg_rep(d), check_mcg))

    for name in FUSION:
        disc = pool.disc[name]
        ops.append(Op("fusion_rules", name,
                      lambda d=disc: blocks.fusion_rules(d),
                      lambda res, _, d=disc: (bool(
                          (res == oracles.group_law_tensor(d.invariant_factors)).all()), True)))

    for name, lo, hi, count in VERLINDE:
        disc = pool.disc[name]
        for _ in range(count):
            surface, labels = _random_surface(api, rng, lo, hi, disc.invariant_factors)
            want = oracles.block_dimension(disc.invariant_factors, surface, labels)
            bl = _block_label(api, disc, labels)
            ops.append(Op("verlinde_check", name,
                          lambda s=surface, b=bl, d=disc: blocks.verlinde_check(s, b, d),
                          lambda rep, _, w=want: (rep.equal and rep.rounded == w, rep.equal)))

    for name in MODULAR_GRAMS:
        disc = pool.disc[name]
        for _ in range(BLOCKS_PER_GROUP):
            surface, labels = _random_surface(api, rng, 0, 60, disc.invariant_factors)
            want = oracles.block_dimension(disc.invariant_factors, surface, labels)
            bl = _block_label(api, disc, labels)
            ops.append(Op("block_dimension", name,
                          lambda s=surface, b=bl, d=disc: blocks.block_dimension(s, b, d),
                          lambda res, _, w=want: (res == w, True)))

    for name, k, count in FACTORIZE:
        disc = pool.disc[name]
        for _ in range(count):
            genus = rng.randint(k - 1, 4)
            target, pieces, matching, labels = _random_split(
                api, rng, genus, k, disc.invariant_factors)
            want = oracles.block_dimension(disc.invariant_factors, target, labels)
            bl = _block_label(api, disc, labels)
            ops.append(Op(
                "verify_factorization", name,
                lambda t=target, p=pieces, m=matching, b=bl, d=disc:
                    blocks.verify_factorization(t, p, m, b, d),
                lambda rep, _, w=want: (rep.equal and rep.lhs == w, rep.equal)))

    rng.shuffle(ops)
    return ops


def warm_modular(api) -> None:
    lat = api.lattices.validate_even_lattice(((4,),))
    disc = api.lattices.discriminant_group(lat)
    api.blocks.genus1_mcg_rep(disc)
    api.blocks.fusion_rules(disc)
    api.blocks.verlinde_check(api.surfaces.Surface.closed(2),
                              api.surfaces.BlockLabel(()), disc)


# ---------------------------------------------------------------------------
# characters: loop-group sector characters, states, annulus sewing

CHARACTER_GRAMS = {
    "a1": ((2,),),
    "a2": ((2, 1), (1, 2)),
    "z2z8": ((2, 0), (0, 8)),
    "z2_3": ((2, 0, 0), (0, 2, 0), (0, 0, 2)),
    "a3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "d4": ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)),
}
DIAGONAL = ("a1", "z2z8", "z2_3")
CLOSED_FORM = {"a2": oracles.theta_a2, "d4": oracles.theta_d4}
# A3 = D3 and D4 as D_n: the coset class of a sector follows from its
# ground energy (by triality the three nonzero D4 cosets share a series).
DN_COSETS = {
    "a3": {Fraction(0): "even", Fraction(1, 2): "odd", Fraction(3, 8): "half"},
    "d4": {Fraction(0): "even", Fraction(1, 2): "odd"},
}
# (lattice, sectors, max energy), sectors "all" or "zero".  The Gram
# bases are fixed and every sector is taken, or the zero one: the box
# scans cost what the lift of each sector makes them cost, and a seeded
# basis or sector choice made that vary by tens of percent between
# seeds.  The seed orders the operations.  D4 at energy 0 still scans a
# rank-4 box per sector, in `minimal_norm_lift` too.  The 32 Z/2 x Z/8
# sectors form one cost class, which holds the median latency.
CHARACTERS = (("a1", "all", 12), ("a1", "all", 24), ("a2", "zero", 16),
              ("a2", "all", 8), ("z2z8", "all", 5), ("z2z8", "all", 6),
              ("z2_3", "all", 3),
              ("a3", "all", 4), ("d4", "all", 0), ("d4", "zero", 1))
# state enumerations; each is paired with a character of the same sector
STATES = (("a1", "all", 8), ("a2", "all", 6), ("z2z8", "zero", 4),
          ("z2_3", "zero", 2), ("a3", "zero", 3), ("d4", "zero", 1))
# Z/2 x Z/8 sewing stays at energy 2 so that the tail latency (the
# eleventh slowest operation) falls among the A3 characters of about
# equal cost, not on one operation between cost classes.
SEWING = (("a1", 12), ("a2", 8), ("z2z8", 2), ("a3", 1))


def _sectors(disc, which):
    return list(disc.elements()) if which == "all" else [disc.zero]


def build_characters(api, seed: int) -> list[Op]:
    rng = random.Random(seed)
    pool = _Lattices(api, CHARACTER_GRAMS)
    fock = api.fock
    ops: list[Op] = []

    def char_check(name, lat, disc, phi, energy):
        rank = lat.rank
        parts = oracles.partitions(energy, rank)

        def check(ch, _):
            lift = [Fraction(x) for x in ch.lift]
            base = disc.lift(phi)
            if any((a - b).denominator != 1 for a, b in zip(lift, base)):
                return False, True
            ground = sum(lift[i] * lat.gram[i][j] * lift[j]
                         for i in range(rank) for j in range(rank)) / 2
            if ground != ch.ground_energy or (ground - disc.quadratic(phi) / 2) % 1:
                return False, True
            coeffs = list(ch.coefficients)
            if name in CLOSED_FORM and not any(phi.coords):
                want = oracles.convolve(CLOSED_FORM[name](energy), parts, energy)
                return coeffs == want, True
            if name in DIAGONAL:
                halves = [Fraction(lat.gram[i][i], 2) for i in range(rank)]
                counts = oracles.diagonal_coset_counts(halves, lift, ground, energy)
                return counts is not None and coeffs == oracles.convolve(
                    counts, parts, energy), True
            if name in DN_COSETS:
                coset = DN_COSETS[name].get(ground)
                return coset is not None and coeffs == oracles.convolve(
                    oracles.dn_coset_counts(rank, coset, energy), parts, energy), True
            return len(coeffs) == energy + 1 and coeffs[0] >= 1, True
        return check

    def add_character(name, phi, energy):
        lat, disc = pool.lat[name], pool.disc[name]
        key = ("character", name, phi.coords, energy)
        ops.append(Op("sector_character", f"{name}/E{energy}",
                      lambda: fock.sector_character(lat, disc, phi, energy),
                      char_check(name, lat, disc, phi, energy), key))

    def add_states(name, phi, energy):
        lat, disc = pool.lat[name], pool.disc[name]
        key = ("character", name, phi.coords, energy)

        def check(states, results):
            ch = results.get(key)
            if ch is None:
                return False, True
            counts = [0] * (energy + 1)
            for st in states:
                off = st.energy(lat) - ch.ground_energy
                if off.denominator != 1 or not 0 <= off <= energy:
                    return False, True
                counts[int(off)] += 1
            return counts == list(ch.coefficients), True
        ops.append(Op("enumerate_sector_states", f"{name}/E{energy}",
                      lambda: fock.enumerate_sector_states(lat, disc, phi, energy),
                      check))

    have = set()
    for name, which, energy in CHARACTERS:
        for phi in _sectors(pool.disc[name], which):
            add_character(name, phi, energy)
            have.add((name, phi.coords, energy))
    for name, which, energy in STATES:
        for phi in _sectors(pool.disc[name], which):
            if (name, phi.coords, energy) not in have:
                add_character(name, phi, energy)
                have.add((name, phi.coords, energy))
            add_states(name, phi, energy)
    for name, energy in SEWING:
        lat, disc = pool.lat[name], pool.disc[name]
        ops.append(Op("annulus_sewing_check", f"{name}/E{energy}",
                      lambda lat=lat, disc=disc, e=energy:
                          fock.annulus_sewing_check(lat, disc, e),
                      lambda rep, _: (rep.equal and bool(rep.lhs_table), rep.equal)))
    rng.shuffle(ops)
    return ops


def warm_characters(api) -> None:
    lat = api.lattices.validate_even_lattice(((2, 1), (1, 2)))
    disc = api.lattices.discriminant_group(lat)
    api.fock.annulus_sewing_check(lat, disc, 2)
    api.fock.enumerate_sector_states(lat, disc, disc.zero, 2)


# ---------------------------------------------------------------------------
# cli_cold: one fresh `python -m latticecft` process per operation

CLI_ROUNDS = 3  # round-robin passes over the eight subcommands per repetition
CLI_LATTICES = ("[[2]]", "[[4]]", "[[6]]", "[[8]]", "[[2,1],[1,2]]",
                "[[2,0],[0,2]]", "[[2,0],[0,4]]", "[[4,2],[2,4]]")


def _surface_json(genus, circles):
    return json.dumps({"components": [{"genus": genus, "boundaries": [
        {"id": cid, "orientation": ori} for cid, ori in circles]}]})


def cli_argvs(api, seed: int) -> list[list[str]]:
    """CLI_ROUNDS rounds over the non-accept subcommands, small inputs."""
    rng = random.Random(seed)
    argvs = []
    for _ in range(CLI_ROUNDS):
        lat_json = rng.choice(CLI_LATTICES)
        lat = api.lattices.validate_even_lattice(json.loads(lat_json))
        factors = api.lattices.discriminant_group(lat).invariant_factors
        circles = [(f"c{i}", rng.choice((OUT, IN))) for i in range(rng.randint(1, 3))]
        labels = random_labels(rng, factors, circles, rng.random() < 0.5)
        labels_json = json.dumps({k: list(v) for k, v in labels.items()})
        genus = rng.randint(0, 3)
        k = rng.randint(1, 2)
        target, pieces, matching, flabels = _random_split(
            api, rng, rng.randint(k - 1, 3), k, factors)
        tau_im = round(rng.uniform(0.8, 1.5), 3)
        tau_re = round(rng.uniform(-0.5, 0.5), 3)
        argvs += [
            ["disc", "--lattice", lat_json],
            ["blocks", "--surface", _surface_json(genus, circles),
             "--lattice", lat_json, "--labels", labels_json],
            ["factorize", "--surface", json.dumps(target.to_json()),
             "--pieces", json.dumps([p.to_json() for p in pieces]),
             "--matching", json.dumps(matching), "--lattice", lat_json,
             "--labels", json.dumps({k: list(v) for k, v in flabels.items()})],
            ["modular", "--lattice", lat_json],
            ["verlinde", "--surface", _surface_json(genus, circles),
             "--lattice", lat_json, "--labels", labels_json],
            ["theta", "--tau", json.dumps({"re": tau_re, "im": tau_im}),
             "--z", json.dumps({"re": round(rng.uniform(-1, 1), 3), "im": 0.0}),
             "--char", rng.choice(("0,0", '"1/2",0', '0,"1/2"', '"1/2","1/2"'))],
            ["fock", "character", "--lattice", rng.choice(("[[2]]", "[[2,1],[1,2]]")),
             "--phi", "0", "--max-energy", str(rng.randint(4, 10))],
            ["heisenberg", "--lattice", rng.choice(("[[2]]", "[[4]]", "[[6]]")),
             "--genus", "1"],
        ]
    return argvs


def child_env(cache_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = os.path.join(cache_dir, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the private cache must fill
    return env


def _cli_check(api, argv):
    """Exit 0 with the bytes in-process `cli.render_report` gives."""
    def check(res, _):
        return res == (0, api.cli.render_report(argv)), res[0] == 0
    return check


def build_cli_cold(api, seed: int, cache_dir: str) -> list[Op]:
    env = child_env(cache_dir)
    ops = []
    for argv in cli_argvs(api, seed):
        def call(argv=argv):
            proc = subprocess.run([sys.executable, "-m", "latticecft", *argv],
                                  env=env, capture_output=True, timeout=OP_TIMEOUT_S)
            return proc.returncode, proc.stdout

        ops.append(Op(argv[0], argv[0], call, _cli_check(api, argv)))
    return ops


def build_cli_warm(api, seed: int) -> list[Op]:
    """The cli_cold operations run in-process through `cli.run`."""
    ops = []
    for argv in cli_argvs(api, seed):
        def call(argv=argv):
            code, payload, _ = api.cli.run(argv)
            return code, payload
        ops.append(Op(argv[0], argv[0], call, _cli_check(api, argv)))
    return ops


def child_import_seconds(cache_dir: str) -> float:
    """Import time of latticecft.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import latticecft.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(cache_dir),
                          capture_output=True, text=True, timeout=OP_TIMEOUT_S,
                          check=True)
    return float(proc.stdout.strip())


# ---------------------------------------------------------------------------
# accept: the acceptance suite, one operation per criterion


def run_accept(api, seed: int) -> list[Record]:
    """run_all has no hook between criteria, so for one call each entry
    of `acceptance.ALL_CRITERIA` is wrapped to probe the host's speed
    before the criterion and to time it; the entries are put back after."""
    acc = api.acceptance
    timed = []  # (criterion id, seconds, probe before)

    def probed(fn):
        cid = int(fn.__name__.split("_")[1])

        @functools.wraps(fn)
        def call(*args, **kwargs):
            before = probe()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                timed.append((cid, time.perf_counter() - start, before))
        return call

    saved = list(acc.ALL_CRITERIA)
    acc.ALL_CRITERIA[:] = [probed(fn) for fn in saved]
    try:
        results = acc.run_all(seed=seed, threads=1)
    finally:
        acc.ALL_CRITERIA[:] = saved
    probes = [before for _, _, before in timed] + [probe()]
    by_cid = {cid: (seconds, 2 * PROBE_REF_S / (probes[i] + probes[i + 1]))
              for i, (cid, seconds, _) in enumerate(timed)}
    records = []
    for r in results:
        op = Op("criterion", f"c{r.cid:02d}", None, None)
        seconds, scale = by_cid[r.cid]
        records.append(Record(op, seconds, r, None, bool(r.passed), False, scale))
    return records
