"""Per-layer tracing applied from outside the library.

`Tracer.install()` replaces the public functions and methods of the
traced latticecft modules with wrappers, and rebinds every module-level
name, list entry and dict value that referred to an original, so calls
made through `from .lattices import ...` imports and tables such as
`acceptance.ALL_CRITERIA` are seen too.  `uninstall()` restores them.

Coarse entry points get a span (id, parent id, name, start, end) and
their self time, the span duration minus the time covered by child
spans, is added to their layer.  Per-element methods, which run
millions of times per workload, are only counted: a span on each of
them would cost more than the work it measures, so their time lands in
the layer of the enclosing span.  Generator functions are counted too,
since a span would only time the creation of the generator.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("lattices", "surfaces", "heisenberg", "blocks", "theta", "fock",
          "exact", "acceptance", "cli")

# Called once per group element, lattice point or state: counted, not timed.
COUNT_ONLY = frozenset({
    "lattices.DiscriminantGroup.add",
    "lattices.DiscriminantGroup.add_coords",
    "lattices.DiscriminantGroup.neg",
    "lattices.DiscriminantGroup.neg_coords",
    "lattices.DiscriminantGroup.element",
    "lattices.DiscriminantGroup.reduce",
    "lattices.DiscriminantGroup.generators",
    "lattices.DiscriminantGroup.lift",
    "lattices.DiscriminantGroup.bilinear",
    "lattices.DiscriminantGroup.bilinear_coords",
    "lattices.DiscriminantGroup.quadratic",
    "lattices.DiscriminantGroup.bilinear_float_table",
    "lattices.DiscriminantGroup.element_index",
    "surfaces.BoundaryCircle.reversed",
    "surfaces.Component.euler_characteristic",
    "surfaces.Surface.connected",
    "surfaces.Surface.closed",
    "surfaces.Surface.sphere",
    "surfaces.Surface.disk",
    "surfaces.Surface.annulus",
    "surfaces.Surface.pair_of_pants",
    "surfaces.Surface.circles",
    "surfaces.Surface.circle_ids",
    "surfaces.Surface.euler_characteristic",
    "surfaces.Surface.is_closed",
    "surfaces.Surface.component_signature",
    "surfaces.Surface.reversed",
    "surfaces.Surface.disjoint_union",
    "surfaces.Surface.to_json",
    "surfaces.Surface.from_json",
    "surfaces.IntersectionForm.zero",
    "surfaces.IntersectionForm.pairing",
    "surfaces.IntersectionForm.cocycle",
    "surfaces.IntersectionForm.cocycle_float",
    "surfaces.IntersectionForm.pairing_float",
    "surfaces.IntersectionForm.add",
    "surfaces.IntersectionForm.neg",
    "surfaces.BlockLabel.from_dict",
    "surfaces.BlockLabel.get",
    "surfaces.BlockLabel.items",
    "surfaces.BlockLabel.negated",
    "surfaces.delta_obstruction",
    "heisenberg.HeisenbergElement.pure",
    "heisenberg.heisenberg_product",
    "heisenberg.heisenberg_identity",
    "heisenberg.heisenberg_inverse",
    "heisenberg.UnitaryRep.monomial",
    "heisenberg.UnitaryRep.cocycle",
    "heisenberg.UnitaryRep.central_character",
    "blocks.block_dimension",
    "exact.PhaseSum.add",
    "exact.PhaseSum.scaled",
    "exact.cyclotomic_poly",
    "fock.occupation_energy",
    "fock.partition_counts",
    "fock.FockState.energy",
    "fock.TrigLoop.coefficient",
    "theta.SiegelPoint.lam_min",
    "theta.SiegelPoint.im",
    "theta.hermitian_metric",
    "theta.symplectic_form",
    "theta.lattice_vector",
    "theta.splitting_character",
    "theta.automorphy_factor",
    "cli.canonical_json",
})

# Constructors that do real work; other dunders are never wrapped.
EXTRA_METHODS = frozenset({
    "lattices.DiscriminantGroup.__init__",
    "surfaces.IntersectionForm.__init__",
})

SPAN_CAP = 200_000  # spans kept for the trace file; aggregation never stops


def _digits(x) -> int:
    return max(len(str(abs(x.numerator))), len(str(x.denominator)))


def _post_disc_init(tr, args, kwargs, result):
    disc = args[0]
    for vec in disc.lift_vectors:
        for x in vec:
            d = _digits(x)
            if d > tr.work["lattices.lift_digits_max"]:
                tr.work["lattices.lift_digits_max"] = d


def _post_s_matrix(tr, args, kwargs, result):
    tr.work["blocks.s_entries"] += args[0].order ** 2


def _post_fusion(tr, args, kwargs, result):
    tr.work["blocks.fusion_entries"] += args[0].order ** 3


def _post_factorization(tr, args, kwargs, result):
    matching, disc = args[2], args[4]
    tr.work["blocks.factorization_assignments"] += disc.order ** len(matching)


def _post_h1(tr, args, kwargs, result):
    tr.work["heisenberg.h1_elements"] += len(result)


def _post_rep(tr, args, kwargs, result):
    tr.work["heisenberg.rep_dim_sum"] += result.dimension


def _post_states(tr, args, kwargs, result):
    tr.work["fock.states"] += len(result)


def _post_theta(tr, args, kwargs, result):
    spec = args[0]
    tr.work["theta.box_terms"] += (2 * result.radius + 1) ** spec.g


# Work counters read from arguments and results; all start at zero.
WORK = ("lattices.lift_digits_max", "blocks.s_entries", "blocks.fusion_entries",
        "blocks.factorization_assignments", "heisenberg.h1_elements",
        "heisenberg.rep_dim_sum", "fock.states", "theta.box_terms")

POST = {
    "lattices.DiscriminantGroup.__init__": _post_disc_init,
    "blocks.s_matrix": _post_s_matrix,
    "blocks.fusion_rules": _post_fusion,
    "blocks.verify_factorization": _post_factorization,
    "heisenberg.enumerate_h1": _post_h1,
    "heisenberg.schroedinger_irrep": _post_rep,
    "heisenberg.induce_from_isotropic": _post_rep,
    "fock.enumerate_sector_states": _post_states,
    "theta.theta": _post_theta,
}

# Derived counters: each sums the call counts of the names listed.
DERIVED = {
    "lattices.add_coords_calls": ("lattices.DiscriminantGroup.add_coords",),
    "lattices.form_calls": ("lattices.DiscriminantGroup.bilinear",
                            "lattices.DiscriminantGroup.bilinear_coords",
                            "lattices.DiscriminantGroup.quadratic"),
    "blocks.s_matrix_calls": ("blocks.s_matrix",),
    "surfaces.cocycle_calls": ("surfaces.IntersectionForm.cocycle",
                               "surfaces.IntersectionForm.cocycle_float"),
    "exact.phase_terms": ("exact.PhaseSum.add",),
    "fock.lift_calls": ("fock.minimal_norm_lift",),
    "fock.occupation_energy_calls": ("fock.occupation_energy",),
}


class Tracer:
    """Wraps the library in place; one instance per traced run."""

    def __init__(self):
        self.counts: Counter = Counter()  # calls per wrapped name
        self.work: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, layer, fn, post):
        counts, self_s, spans, stack = (self.counts, self.self_s, self.spans,
                                        self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent, name, start, end))
            if post is not None:
                post(self, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, name, layer, fn):
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            return self._count(name, fn)
        return self._span(name, layer, fn, POST.get(name))

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        replaced = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"latticecft.{layer}")
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapper = self._wrap(f"{layer}.{attr}", layer, obj)
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    self._wrap_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "latticecft" or mod_name.startswith("latticecft."):
                self._rebind(mod, replaced)

    def _wrap_class(self, layer, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") and name not in EXTRA_METHODS:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, layer, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, layer, raw.__func__))
            elif inspect.isfunction(raw) and raw.__qualname__.startswith(cls.__name__ + "."):
                new = self._wrap(name, layer, raw)
            else:
                continue  # properties, constants, generated dataclass methods
            setattr(cls, attr, new)
            self._undo.append((setattr, cls, attr, raw))

    def _rebind(self, mod, replaced) -> None:
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                self._undo.append((setattr, mod, attr, value))
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    hit = replaced.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[i] = hit[1]
                        self._undo.append((_setitem, value, i, item))
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    hit = replaced.get(id(item))
                    if hit is not None and hit[0] is item:
                        value[key] = hit[1]
                        self._undo.append((_setitem, value, key, item))

    def uninstall(self) -> None:
        while self._undo:
            op, owner, key, original = self._undo.pop()
            op(owner, key, original)

    # -- results ------------------------------------------------------------

    def layer_metrics(self, traced_wall_s: float) -> dict[str, float]:
        """Self time, call count and derived counters per layer, plus the
        time no span covered."""
        out: dict[str, float] = {}
        calls = Counter()
        for name, n in self.counts.items():
            calls[name.split(".", 1)[0]] += n
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
            out[f"{layer}.calls"] = calls.get(layer, 0)
        for key in WORK:
            out[key] = self.work.get(key, 0)
        for key, names in DERIVED.items():
            out[key] = sum(self.counts.get(n, 0) for n in names)
        attributed = sum(self.self_s.values())
        out["trace.unattributed_s"] = traced_wall_s - attributed
        out["trace.spans"] = self._next_id
        return out


def _setitem(container, key, value):
    container[key] = value
