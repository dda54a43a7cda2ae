"""latticecft benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload {accept,modular,characters,cli_cold}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
`src/` and bytecode goes to `.perfbench_cache/`.  A run repeats the
workload's operation list until the next repetition would run past
`--seconds`, with at least MIN_REPS repetitions.  Before each
repetition it sets up again, building the inputs from the seed; setup_s
is the median of these set-ups (at least SETUP_REPEATS).  Every
operation is checked against an independent oracle (`oracles.py`).

Every end-to-end time is corrected for the host's speed at the moment
it was taken (`workloads.probe`).  The timings take each operation's
median corrected latency over the run's repetitions: wall_s is their
sum (the time to finish the operation list), latency_p50_ms their
median and latency_tail_ms the highest percentile with at least ten
operations beyond it.  The detail line gives raw_wall_s, the same sum
uncorrected.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` it carries the per-layer metrics of repetitions run
untraced and traced in turn (see `tracer.py`).  The line before it holds
the details: environment, repetitions, failures by kind, latency
percentiles and, for a traced run, the location of the span file.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE_DIR = os.path.join(ROOT, ".perfbench_cache")

# One BLAS thread for this process and every child, before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# Bytecode is cached, privately, even where the environment disables it.
sys.pycache_prefix = os.path.join(CACHE_DIR, "pycache")
sys.dont_write_bytecode = False
os.environ.pop("PYTHONDONTWRITEBYTECODE", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

WORKLOADS = ("accept", "modular", "characters", "cli_cold")
SETUP_REPEATS = 7
MIN_REPS = {"accept": 2, "modular": 3, "characters": 3, "cli_cold": 3}
API_MODULES = ("lattices", "surfaces", "heisenberg", "blocks", "theta",
               "fock", "exact", "acceptance", "cli")
CRITERIA = 10


def load_api():
    if not os.path.isfile(os.path.join(ROOT, "src", "latticecft", "__init__.py")):
        return None
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    return types.SimpleNamespace(**{
        name: importlib.import_module(f"latticecft.{name}") for name in API_MODULES})


def environment(seed: int) -> dict:
    import numpy
    try:  # a checkout without git history records "unknown"
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "seed": seed}


class Bench:
    """Set-up, repetitions and metrics of one workload."""

    def __init__(self, api, workload: str, seed: int):
        from perfbench import workloads as wl
        self.api, self.wl, self.workload, self.seed = api, wl, workload, seed
        self.ops = None
        self.import_s = []

    def build(self):
        wl, api, seed = self.wl, self.api, self.seed
        if self.workload == "modular":
            ops = wl.build_modular(api, seed)
            wl.warm_modular(api)
        elif self.workload == "characters":
            ops = wl.build_characters(api, seed)
            wl.warm_characters(api)
        elif self.workload == "cli_cold":
            ops = wl.build_cli_cold(api, seed, CACHE_DIR)
        else:
            api.acceptance.criterion_01_normalization(
                api.acceptance.Tolerances(), seed)
            ops = None
        return ops

    def setup(self) -> float:
        """One set-up: fresh-process import of the CLI module plus
        building inputs, lattices and groups, and warm-up."""
        before = self.wl.probe()
        imp = self.wl.child_import_seconds(CACHE_DIR)
        start = time.perf_counter()
        self.ops = self.build()
        self.import_s.append(imp)
        elapsed = imp + time.perf_counter() - start
        return elapsed * 2 * self.wl.PROBE_REF_S / (before + self.wl.probe())

    def rep(self, ops=None):
        """One repetition; returns (wall seconds, checked records)."""
        if self.workload == "accept":
            start = time.perf_counter()
            records = self.wl.run_accept(self.api, self.seed)
            return time.perf_counter() - start, records
        records = self.wl.time_ops(ops if ops is not None else self.ops)
        wall = sum(r.seconds for r in records)
        self.wl.check_records(records)
        return wall, records


def summarize(records) -> dict:
    failures, wrong = {}, 0
    for r in records:
        if not r.passed:
            key = f"{r.op.kind}/{r.op.label}"
            failures[key] = failures.get(key, 0) + 1
            wrong += r.wrong
    return {"attempted": len(records), "failed": sum(failures.values()),
            "wrong": wrong, "failures": failures,
            "errors": sorted({r.error for r in records if r.error})[:5]}


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it: the eleventh largest value, or with fewer than
    eleven samples the largest."""
    xs = sorted(values)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100 * k / max(len(xs) - 1, 1)


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    # A set-up precedes every repetition, so that set-ups and repetitions
    # sample the same stretches of the run.
    setups, reps, records = [], [], []
    measured = 0.0
    while True:
        setups.append(bench.setup())
        wall, recs = bench.rep()
        reps.append(recs)
        records += recs
        measured += wall
        if len(reps) >= MIN_REPS[bench.workload] and measured + wall > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(bench.setup())
    # Each operation's latency is its median host-speed-corrected time
    # over the run's repetitions (see workloads.probe), so a percentile
    # over operations falls on the same operation kind however many
    # repetitions fit in the run.
    per_op = [statistics.median(rep[i].seconds * rep[i].scale for rep in reps)
              for i in range(len(reps[0]))]
    raw_wall = sum(statistics.median(rep[i].seconds for rep in reps)
                   for i in range(len(reps[0])))
    tail_s, tail_pct = tail(per_op)
    if bench.workload == "cli_cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_op), "s"),
        "latency_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    detail = summarize(records)
    detail.update({
        "reps": len(reps), "ops_per_rep": len(per_op), "raw_wall_s": raw_wall,
        "tail_percentile": round(tail_pct, 1),
        "tail_samples_beyond": sum(1 for x in per_op if x > tail_s)})
    return metrics, detail


TRACE_PAIRS = 2  # untraced/traced repetition pairs; overhead from their medians


def measure_traced(bench: Bench) -> tuple[dict, dict]:
    from perfbench.tracer import Tracer
    for _ in range(SETUP_REPEATS):
        bench.setup()
    api, wl = bench.api, bench.wl
    ops = wl.build_cli_warm(api, bench.seed) if bench.workload == "cli_cold" else bench.ops
    # The overhead compares host-speed-corrected walls (see workloads.probe).
    untraced_walls, traced_walls, records = [], [], []
    for _ in range(TRACE_PAIRS):
        _, untraced = bench.rep(ops)
        untraced_walls.append(sum(r.seconds * r.scale for r in untraced))
        records += untraced
        tracer = Tracer()
        tracer.install()
        try:
            if bench.workload == "accept":
                start = time.perf_counter()
                traced = wl.run_accept(api, bench.seed)
                traced_wall = time.perf_counter() - start
            else:
                traced = wl.time_ops(ops)
                traced_wall = sum(r.seconds for r in traced)
        finally:
            tracer.uninstall()
        if bench.workload != "accept":
            wl.check_records(traced)
        traced_walls.append(sum(r.seconds * r.scale for r in traced))
        records += traced

    metrics = {k: (v, "s" if k.endswith("_s") else "count")
               for k, v in tracer.layer_metrics(traced_wall).items()}
    metrics["lattices.lift_digits_max"] = (metrics["lattices.lift_digits_max"][0], "digits")
    seconds = {r.op.label: r.seconds for r in untraced} if bench.workload == "accept" else {}
    for cid in range(1, CRITERIA + 1):
        metrics[f"acceptance.c{cid:02d}_s"] = (seconds.get(f"c{cid:02d}", 0.0), "s")
    metrics["cli.import_ms"] = (1e3 * statistics.median(bench.import_s), "ms")
    run_ms = 1e3 * statistics.median([r.seconds for r in untraced]) \
        if bench.workload == "cli_cold" else 0.0
    metrics["cli.run_ms"] = (run_ms, "ms")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls), "s")

    os.makedirs(CACHE_DIR, exist_ok=True)
    span_file = os.path.join(CACHE_DIR, f"spans-{bench.workload}-{bench.seed}.jsonl")
    with open(span_file, "w", encoding="utf-8") as fh:
        for sid, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")
    detail = summarize(records)
    detail.update({"untraced_wall_s": untraced_walls, "traced_wall_s": traced_walls,
                   "span_file": span_file,
                   "spans_kept": len(tracer.spans)})
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    api = load_api()
    if api is None:
        print(f"no latticecft sources under {ROOT}/src: run from a checkout",
              file=sys.stderr)
        return 2
    bench = Bench(api, args.workload, args.seed)
    if args.trace:
        metrics, detail = measure_traced(bench)
    else:
        metrics, detail = measure(bench, args.seconds)
    detail = {"workload": args.workload, "trace": args.trace,
              "env": environment(args.seed), **detail}
    detail["failure_ratio"] = detail["failed"] / detail["attempted"]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": detail["wrong"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
