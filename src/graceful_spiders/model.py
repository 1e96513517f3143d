"""Graph carriers (trees, spiders), labelings, and the checkers that
certify every construction in this package.

Vertex ids are dense integers in [0, n-1]; this keeps the search modules
bitmask-friendly and makes labelings representable as plain dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ValidationError


@dataclass(frozen=True)
class Tree:
    """An unrooted tree on vertices 0..n-1.

    Edges are stored as a sorted tuple of (min, max) pairs. Construction
    validates connectivity and acyclicity.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        norm = []
        for e in edges:
            a, b = int(e[0]), int(e[1])
            if a == b:
                raise ValidationError(f"self-loop at vertex {a}")
            if not (0 <= a < n and 0 <= b < n):
                raise ValidationError(f"edge ({a},{b}) out of range for n={n}")
            norm.append((min(a, b), max(a, b)))
        norm.sort()
        for prev, cur in zip(norm, norm[1:]):
            if prev == cur:
                raise ValidationError(f"duplicate edge {cur}")
        if n < 1:
            raise ValidationError("tree needs at least one vertex")
        if len(norm) != n - 1:
            raise ValidationError(f"tree on {n} vertices needs {n-1} edges, got {len(norm)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))
        if n > 1 and len(self._component_of(0)) != n:
            raise ValidationError("edge set is not connected")

    def _component_of(self, start: int) -> set[int]:
        adj = self.adjacency()
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    @property
    def m(self) -> int:
        """Edge count."""
        return self.n - 1

    def degree(self, v: int) -> int:
        """Degree of v; one O(m) scan, so callers needing every degree should
        count over `edges` once instead."""
        return sum(1 for a, b in self.edges if v in (a, b))


def path_tree(n: int) -> Tree:
    """P_n with vertices numbered along the path."""
    if n < 1:
        raise ValidationError("path needs at least one vertex")
    return Tree(n, [(i, i + 1) for i in range(n - 1)])


@dataclass(frozen=True)
class Spider:
    """A tree with at most one vertex of degree > 2 (the center).

    Legs are ordered tuples of vertex ids running from the center-adjacent
    vertex out to the leaf. They partition V minus the center.
    """

    tree: Tree
    center: int
    legs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        t = self.tree
        if not (0 <= self.center < t.n):
            raise ValidationError(f"center {self.center} out of range")
        seen: set[int] = {self.center}
        edge_set = set(t.edges)
        for leg in self.legs:
            if not leg:
                raise ValidationError("empty leg")
            prev = self.center
            for v in leg:
                if v in seen:
                    raise ValidationError(f"vertex {v} appears in two legs")
                seen.add(v)
                if (min(prev, v), max(prev, v)) not in edge_set:
                    raise ValidationError(f"leg edge ({prev},{v}) missing from tree")
                prev = v
        if len(seen) != t.n:
            raise ValidationError("legs do not cover the tree")
        # Covering legs use all n-1 tree edges, so no non-center vertex can
        # have degree > 2.

    @property
    def leg_lengths(self) -> tuple[int, ...]:
        return tuple(len(leg) for leg in self.legs)


def build_spider(leg_lengths: Sequence[int]) -> Spider:
    """Build the canonically numbered spider with the given leg lengths.

    Center is vertex 0; legs are laid out in the given order, each leg's
    vertices numbered consecutively from the center-adjacent vertex outward.
    """
    if not leg_lengths:
        raise ValidationError("need at least one leg")
    if any(l < 1 for l in leg_lengths):
        raise ValidationError("leg lengths must be positive")
    edges = []
    legs = []
    nxt = 1
    for length in leg_lengths:
        leg = tuple(range(nxt, nxt + length))
        prev = 0
        for v in leg:
            edges.append((prev, v))
            prev = v
        legs.append(leg)
        nxt += length
    return Spider(Tree(nxt, edges), 0, tuple(legs))


@dataclass(frozen=True)
class Labeling:
    """A vertex -> integer map. Checkers decide whether it is graceful."""

    values: Mapping[int, int]

    def __getitem__(self, v: int) -> int:
        try:
            return self.values[v]
        except KeyError:
            raise ValidationError(f"vertex {v} is not labeled") from None

    def __contains__(self, v: int) -> bool:
        return v in self.values

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def from_sequence(labels: Sequence[int]) -> "Labeling":
        """Label vertex i with labels[i]."""
        return Labeling(dict(enumerate(labels)))

    def as_sequence(self, n: int) -> list[int]:
        return [self[v] for v in range(n)]


def edge_label(lab: Labeling, u: int, v: int) -> int:
    """Induced edge label |f(u) - f(v)|."""
    return abs(lab[u] - lab[v])


def is_graceful(t: Tree, lab: Labeling) -> bool:
    """True iff lab is injective into [0, m] and edge labels cover [1, m].

    A labeling missing some vertex of t is an error, not merely non-graceful.
    """
    m = t.m
    values = [lab[v] for v in range(t.n)]
    if len(set(values)) != t.n:
        return False
    if any(not 0 <= x <= m for x in values):
        return False
    diffs = {abs(lab[a] - lab[b]) for a, b in t.edges}
    return diffs == set(range(1, m + 1))


def alpha_index(t: Tree, lab: Labeling) -> Optional[int]:
    """The index alpha witnessing the alpha-labeling property, or None.

    Requires a graceful labeling. The canonical witness is the maximum over
    edges of min(f(u), f(v)); the property is then re-verified edge by edge.
    """
    if not is_graceful(t, lab):
        raise ValidationError("alpha_index requires a graceful labeling")
    if not t.edges:
        return 0
    alpha = max(min(lab[a], lab[b]) for a, b in t.edges)
    for a, b in t.edges:
        lo, hi = sorted((lab[a], lab[b]))
        if not lo <= alpha < hi:
            return None
    return alpha


@dataclass(frozen=True)
class AlphaLabeling:
    """A graceful labeling together with its index alpha; validated on build."""

    tree: Tree
    labeling: Labeling
    alpha: int

    def __post_init__(self):
        got = alpha_index(self.tree, self.labeling)
        if got != self.alpha:
            raise ValidationError(
                f"labeling has alpha index {got}, not the claimed {self.alpha}"
            )

    def __getitem__(self, v: int) -> int:
        return self.labeling[v]


def alpha_flip(al: AlphaLabeling) -> AlphaLabeling:
    """Reflect each class of an alpha-labeling within itself.

    Sends f(x) -> alpha - f(x) on the low class and f(x) -> m + alpha + 1 - f(x)
    on the high class. The result is again an alpha-labeling with the same
    index; labels 0 and alpha swap. The map is an involution.
    """
    m = al.tree.m
    a = al.alpha
    flipped = {
        v: (a - x) if x <= a else (m + a + 1 - x)
        for v, x in al.labeling.values.items()
    }
    return AlphaLabeling(al.tree, Labeling(flipped), a)


@dataclass(frozen=True)
class TraceStep:
    operation: str
    params: Mapping[str, object]
    edge_count: int


@dataclass
class ConstructionTrace:
    """Ordered record of composition steps, for explainability and debugging."""

    steps: list[TraceStep] = field(default_factory=list)

    def record(self, operation: str, params: Mapping[str, object], edge_count: int):
        if self.steps and edge_count <= self.steps[-1].edge_count:
            raise ValidationError("trace edge counts must strictly increase")
        self.steps.append(TraceStep(operation, dict(params), edge_count))
