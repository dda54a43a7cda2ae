"""Combinatorial oriented surfaces with boundary.

A surface is a multiset of components (genus, ordered boundary circles);
circles carry globally unique ids and an orientation, outgoing or
incoming.  Homology with coefficients in a discriminant group A is
handled through a fixed basis per component: symplectic cycle pairs
a1, b1, ..., ag, bg followed by boundary-parallel classes for all but
the last boundary circle.  The intersection pairing on H1(S; A) is the
geometric intersection form tensored with the discriminant bilinear
form, valued in rationals mod 1, read from integer tables on elements
flattened to rows of the mixed-radix indexer in `lattices`: each form
holds that indexer of A^rank as `grid`, and `rows` turns elements into
its reduced integer rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import MissingLabel, OrientationMismatch, UnknownCircle
from .lattices import DiscriminantGroup, GroupElement, _MixedRadix, _read, as_int

OUT = "out"
IN = "in"


@dataclass(frozen=True)
class BoundaryCircle:
    id: str
    orientation: str

    def __post_init__(self):
        if self.orientation not in (OUT, IN):
            raise OrientationMismatch(f"orientation must be 'out' or 'in', got "
                                      f"{self.orientation!r}")

    def reversed(self) -> "BoundaryCircle":
        return BoundaryCircle(self.id, IN if self.orientation == OUT else OUT)


@dataclass(frozen=True)
class Component:
    genus: int
    boundaries: tuple[BoundaryCircle, ...]

    def euler_characteristic(self) -> int:
        return 2 - 2 * self.genus - len(self.boundaries)


@dataclass(frozen=True)
class Surface:
    components: tuple[Component, ...]

    def __post_init__(self):
        seen = set()
        for comp in self.components:
            if comp.genus < 0:
                raise ValueError("genus must be nonnegative")
            for c in comp.boundaries:
                if c.id in seen:
                    raise ValueError(f"duplicate circle id {c.id!r}")
                seen.add(c.id)

    # -- constructors -----------------------------------------------------

    @staticmethod
    def connected(genus: int, boundary: list[tuple[str, str]] | None = None) -> "Surface":
        circles = tuple(BoundaryCircle(i, o) for i, o in (boundary or []))
        return Surface((Component(genus, circles),))

    @staticmethod
    def closed(genus: int) -> "Surface":
        return Surface.connected(genus)

    @staticmethod
    def sphere() -> "Surface":
        return Surface.closed(0)

    @staticmethod
    def disk(circle_id: str = "c0", orientation: str = OUT) -> "Surface":
        return Surface.connected(0, [(circle_id, orientation)])

    @staticmethod
    def annulus(out_id: str = "c0", in_id: str = "c1") -> "Surface":
        return Surface.connected(0, [(out_id, OUT), (in_id, IN)])

    @staticmethod
    def pair_of_pants(ids=("c0", "c1", "c2"),
                      orientations=(OUT, OUT, OUT)) -> "Surface":
        return Surface.connected(0, list(zip(ids, orientations)))

    # -- basic invariants ---------------------------------------------------

    def circles(self) -> tuple[BoundaryCircle, ...]:
        return tuple(c for comp in self.components for c in comp.boundaries)

    def circle_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.circles())

    def euler_characteristic(self) -> int:
        return sum(comp.euler_characteristic() for comp in self.components)

    def is_closed(self) -> bool:
        return not self.circles()

    def component_signature(self) -> tuple[tuple[int, int], ...]:
        """Multiset of (genus, boundary count), sorted; surfaces are
        isomorphic iff these agree."""
        return tuple(sorted((c.genus, len(c.boundaries)) for c in self.components))

    def reversed(self) -> "Surface":
        return Surface(tuple(Component(c.genus, tuple(b.reversed() for b in c.boundaries))
                             for c in self.components))

    def disjoint_union(self, other: "Surface") -> "Surface":
        return Surface(self.components + other.components)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"components": [
            {"genus": c.genus,
             "boundaries": [{"id": b.id, "orientation": b.orientation}
                            for b in c.boundaries]}
            for c in self.components]}

    @staticmethod
    def from_json(data) -> "Surface":
        comps = []
        for c in data["components"]:
            circles = tuple(BoundaryCircle(b["id"], b["orientation"])
                            for b in c.get("boundaries", []))
            comps.append(Component(as_int(c["genus"], "genus"), circles))
        return Surface(tuple(comps))


def h1_rank(s: Surface) -> int:
    """Rank of H1: per component 2g plus (boundary count - 1) when there is
    boundary at all, the size of `homology_basis`."""
    return homology_basis(s).rank


@dataclass(frozen=True)
class BasisSlot:
    component: int
    kind: str           # "a", "b" or "boundary"
    index: int
    circle_id: str | None = None


@dataclass(frozen=True)
class HomologyBasis:
    slots: tuple[BasisSlot, ...]

    @property
    def rank(self) -> int:
        return len(self.slots)


def homology_basis(s: Surface) -> HomologyBasis:
    """Fixed basis: per component a1, b1, ..., ag, bg, then boundary-parallel
    classes for every boundary circle except the last."""
    slots = []
    for ci, comp in enumerate(s.components):
        for g in range(comp.genus):
            slots.append(BasisSlot(ci, "a", g))
            slots.append(BasisSlot(ci, "b", g))
        for circle in comp.boundaries[:-1]:
            slots.append(BasisSlot(ci, "boundary", 0, circle.id))
    return HomologyBasis(tuple(slots))


class IntersectionForm:
    """Antisymmetric pairing on H1(S; A), rationals mod 1.

    Elements are tuples of A-coordinates, one per basis slot; `rows`
    flattens them to reduced rows of rank * k ints, which `grid` numbers.
    The kernel of the pairing is exactly the span of the boundary-parallel
    slots.  A fixed 'polarized' integer cocycle P with P - P^T equal to
    the geometric intersection matrix J backs the unitary representations.
    `cocycle_int` = P (x) `bilinear_int` is N c on rows, N c(x, y) =
    x cocycle_int y mod N, and `pairing_int`, its antisymmetrization mod
    N, is N S the same way.
    """

    def __init__(self, surface: Surface, disc: DiscriminantGroup):
        self.surface = surface
        self.disc = disc
        self.basis = homology_basis(surface)
        slots, n = self.basis.slots, self.basis.rank
        sign = {("a", "b"): 1, ("b", "a"): -1}  # a_i . b_i = 1 in each component
        self.J: tuple[tuple[int, ...], ...] = tuple(tuple(
            sign.get((s.kind, t.kind), 0) if (s.component, s.index) == (t.component, t.index)
            else 0 for t in slots) for s in slots)
        self.cocycle_int = np.kron(np.array(self.J, dtype=np.int64).reshape(n, n) == 1,
                                   disc.bilinear_int)
        self.pairing_int = (self.cocycle_int - self.cocycle_int.T) % disc.exponent

    @property
    def rank(self) -> int:
        return self.basis.rank

    @cached_property
    def grid(self) -> _MixedRadix:
        """A^rank on the mixed-radix indexer: positions in `enumerate_h1` order."""
        return self.disc._power(self.rank)

    def rows(self, elements) -> np.ndarray:
        """A stack of elements (coordinate tuples or integer rows) as reduced
        rows in the tables' dtype; no `grid`, so also past its size limit."""
        factors = np.array(self.disc.invariant_factors, dtype=self.disc.bilinear_int.dtype)
        n, k = len(elements), len(factors)
        stack = np.array(elements, dtype=factors.dtype).reshape(n, self.rank, k) % factors
        return stack.reshape(n, self.rank * k)

    def zero(self) -> tuple[tuple[int, ...], ...]:
        return (self.disc.zero.coords,) * self.rank

    def pairing(self, x, y) -> Fraction:
        """S(x, y) = sum over slots of intersection number times bilinear,
        which is c(x, y) - c(y, x): one row product with `pairing_int`."""
        rx, ry = self.rows([x, y])
        return _read(rx, self.pairing_int, ry, self.disc.exponent)

    def cocycle(self, x, y) -> Fraction:
        """Bilinear cocycle c with c(x,y) - c(y,x) = S(x,y); the defining
        2-cocycle of the unitary realizations."""
        rx, ry = self.rows([x, y])
        return _read(rx, self.cocycle_int, ry, self.disc.exponent)

    def add(self, x, y):
        return self._element(self.rows([x, y]).sum(axis=0))

    def neg(self, x):
        return self._element(-self.rows([x])[0])

    def _element(self, row) -> tuple[tuple[int, ...], ...]:
        """A row of any integers as the reduced coordinate tuples of its slots."""
        k = len(self.disc.invariant_factors)
        return tuple(map(tuple, self.rows([row]).reshape(self.rank, k).tolist()))

    @staticmethod
    def closed_genus(disc: DiscriminantGroup, genus: int) -> "IntersectionForm":
        return IntersectionForm(Surface.closed(genus), disc)


@dataclass(frozen=True)
class BlockLabel:
    """One discriminant-group element per boundary circle."""

    assignments: tuple[tuple[str, GroupElement], ...]

    @staticmethod
    def from_dict(d: dict[str, GroupElement]) -> "BlockLabel":
        return BlockLabel(tuple(sorted(d.items())))

    def get(self, circle_id: str) -> GroupElement | None:
        for cid, elem in self.assignments:
            if cid == circle_id:
                return elem
        return None

    def items(self):
        return self.assignments

    def negated(self, disc: DiscriminantGroup) -> "BlockLabel":
        return BlockLabel(tuple((cid, disc.neg(e)) for cid, e in self.assignments))


def delta_obstruction(s: Surface, labels: BlockLabel,
                      disc: DiscriminantGroup) -> tuple[GroupElement, ...]:
    """Per component, the signed sum of boundary labels: outgoing counts
    positive, incoming negative.  The integer row is reduced once."""
    out = []
    for comp in s.components:
        total = [0] * len(disc.invariant_factors)
        for circle in comp.boundaries:
            lab = labels.get(circle.id)
            if lab is None:
                raise MissingLabel(f"no label for circle {circle.id!r}")
            sign = 1 if circle.orientation == OUT else -1
            total = [t + sign * c for t, c in zip(total, lab.coords)]
        out.append(disc.element(total))
    return tuple(out)


def glue(s1: Surface, s2: Surface | None,
         matching: list[tuple[str, str]]) -> Surface:
    """Glue outgoing circles to incoming circles; s2 is None for
    self-gluing.  Components and genera of the result are recomputed from
    Euler characteristics, which gluing along circles preserves."""
    combined = s1 if s2 is None else s1.disjoint_union(s2)
    by_id = {}
    comp_of = {}
    for ci, comp in enumerate(combined.components):
        for circle in comp.boundaries:
            by_id[circle.id] = circle
            comp_of[circle.id] = ci
    used = set()
    for out_id, in_id in matching:
        for cid in (out_id, in_id):
            if cid not in by_id:
                raise UnknownCircle(f"no boundary circle {cid!r}")
            if cid in used:
                raise ValueError(f"circle {cid!r} matched twice")
            used.add(cid)
        if by_id[out_id].orientation != OUT or by_id[in_id].orientation != IN:
            raise OrientationMismatch(
                f"matching {out_id!r}->{in_id!r} must glue an outgoing circle "
                f"to an incoming one")

    # union-find over components linked by the matching
    parent = list(range(len(combined.components)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for out_id, in_id in matching:
        a, b = find(comp_of[out_id]), find(comp_of[in_id])
        if a != b:
            parent[a] = b

    clusters: dict[int, list[int]] = {}
    for ci in range(len(combined.components)):
        clusters.setdefault(find(ci), []).append(ci)

    new_components = []
    for root in sorted(clusters):
        members = clusters[root]
        chi = sum(combined.components[ci].euler_characteristic() for ci in members)
        kept = []
        for ci in members:
            for circle in combined.components[ci].boundaries:
                if circle.id not in used:
                    kept.append(circle)
        b = len(kept)
        genus2 = 2 - chi - b
        if genus2 < 0 or genus2 % 2:
            raise ArithmeticError("inconsistent Euler characteristic after gluing")
        new_components.append(Component(genus2 // 2, tuple(kept)))
    return Surface(tuple(new_components))
