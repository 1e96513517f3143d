"""Brute-force graceful-labeling search over arbitrary small trees.

This is the independent ground truth the constructions are checked against:
backtracking over vertex labels in a DFS preorder from the highest-degree
vertex, descending into heavier subtrees first, so long internal paths --
where the conflicts live -- are explored before the interchangeable leaves.

- Candidates. In the preorder every vertex after the first has exactly one
  labeled neighbor, its parent, labeled x. Its candidates are x - d and
  x + d over the differences d not yet used, restricted to unused labels
  (and to the vertex's class range under an alpha layout). They are bitmask
  operations on the used labels and the unused differences, tried in
  ascending label order, so the first witness is the one a scan of all
  labels in [0, m] finds.
- Forward check. After each placement the largest unused difference D
  still needs a future edge (a, a + D) with 0 <= a <= m - D and at least one
  endpoint unlabeled; the branch is cut when every such pair is already
  labeled. The condition is necessary, so counts and witnesses are
  unchanged.
- Complement. f -> m - f is a bijection on graceful labelings. A count with
  nothing fixed tries root labels up to m/2 only and weighs each labeling 2
  (1 when the root is labeled m/2); an alpha-constrained count searches one
  of the two class layouts, which the complement swaps, and weighs 2
  (1 on the one-vertex tree, where the complement is the identity).
- Stack. The search keeps one frame per depth in flat lists, not in
  recursion, so tree size is not limited by the interpreter's recursion
  depth.

One node is one candidate label tried at some vertex; the budget counts
nodes. Budget exhaustion is reported, never raised; only a fully explored
space (`exhausted`) counts as a definitive answer.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import ValidationError
from .model import Labeling, Tree

DEFAULT_ORACLE_BUDGET = 10**8


@dataclass(frozen=True)
class SearchReport:
    found: Optional[Labeling]
    count: Optional[int]
    nodes_explored: int
    elapsed: float
    exhausted: bool


def _search_order(t: Tree) -> list[int]:
    """DFS preorder from the highest-degree vertex (smallest id on ties),
    visiting children by descending subtree size so leaves come last."""
    adj = t.adjacency()
    start = min(range(t.n), key=lambda v: (-len(adj[v]), v))
    # Subtree sizes via a reverse-BFS accumulation.
    parent = {start: None}
    bfs = _bfs(adj, start)
    for v in bfs:
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
    size = [1] * t.n
    for v in reversed(bfs):
        if parent[v] is not None:
            size[parent[v]] += size[v]
    order = []
    stack = [start]
    seen = {start}
    while stack:
        v = stack.pop()
        order.append(v)
        children = [w for w in adj[v] if w not in seen]
        seen.update(children)
        for w in sorted(children, key=lambda w: (size[w], -w)):
            stack.append(w)
    return order


def _bfs(adj: dict[int, list[int]], start: int) -> list[int]:
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in sorted(adj[v]):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def _class_masks(t: Tree, alpha_constrained: bool) -> list[list[int]]:
    """Allowed labels per vertex as bitmasks: all of [0, m], or one layout
    per choice of which bipartition class is the low class of an
    alpha-labeling (layout 0 puts vertex 0's class low)."""
    m = t.m
    every = (1 << (m + 1)) - 1
    if not alpha_constrained:
        return [[every] * t.n]
    color = [-1] * t.n
    color[0] = 0
    adj = t.adjacency()
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if color[w] == -1:
                color[w] = 1 - color[v]
                queue.append(w)
    layouts = []
    # On one vertex both layouts would accept the same single labeling.
    for low_color in (0, 1) if m else (0,):
        low = (1 << color.count(low_color)) - 1  # labels 0..alpha
        layouts.append([low if c == low_color else every & ~low for c in color])
    return layouts


def find_graceful(
    t: Tree,
    fixed: Optional[Mapping[int, int]] = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
    alpha_constrained: bool = False,
) -> SearchReport:
    """First graceful labeling of t respecting the fixed assignments.

    A report without a witness is definitive infeasibility only when
    `exhausted` is set; otherwise the budget ran out first. With
    alpha_constrained, only alpha-labelings are searched (both choices of
    low bipartition class).
    """
    return _run(t, fixed or {}, budget, alpha_constrained, count_all=False)


def count_graceful(
    t: Tree,
    budget: int = DEFAULT_ORACLE_BUDGET,
    alpha_constrained: bool = False,
    fixed: Optional[Mapping[int, int]] = None,
) -> SearchReport:
    """Count all graceful labelings of t; the count is complete only when
    `exhausted` is set."""
    return _run(t, fixed or {}, budget, alpha_constrained, count_all=True)


def _run(
    t: Tree,
    fixed: Mapping[int, int],
    budget: int,
    alpha_constrained: bool,
    count_all: bool,
) -> SearchReport:
    m = t.m
    for v, lab in fixed.items():
        if not 0 <= v < t.n:
            raise ValidationError(f"fixed vertex {v} not in the tree")
        if not 0 <= lab <= m:
            raise ValidationError(f"fixed label {lab} outside [0, {m}]")
    if len(set(fixed.values())) != len(fixed):
        raise ValidationError("fixed labels must be injective")

    start_time = time.monotonic()
    n = t.n
    order = _search_order(t)
    adj = t.adjacency()
    # In a preorder every vertex after the first has exactly one labeled
    # neighbor when it is reached: its parent, up[i].
    placed = {order[0]}
    up = [-1]
    for v in order[1:]:
        up.append(next(w for w in adj[v] if w in placed))
        placed.add(v)

    # Unfixed leaf siblings are interchangeable, so a witness search may
    # demand increasing labels along each sibling group without losing
    # completeness. Counting must see every labeling, so it skips this.
    sym_prev = [-1] * n
    if not count_all:
        last_leaf: dict[int, int] = {}  # parent -> previous unfixed leaf
        for v in order:
            if len(adj[v]) == 1 and v not in fixed and v != order[0]:
                parent = adj[v][0]
                if parent in last_leaf:
                    sym_prev[v] = last_leaf[parent]
                last_leaf[parent] = v

    # f -> m - f maps graceful labelings onto graceful labelings and swaps
    # the two alpha layouts, so an unconstrained count only needs root
    # labels up to m/2, and an alpha count only the first layout.
    layouts = _class_masks(t, alpha_constrained)
    halve = count_all and not fixed
    root_mask = -1
    if halve and alpha_constrained:
        layouts = layouts[:1]
    elif halve:
        root_mask = (1 << (m // 2 + 1)) - 1

    nodes = 0
    count = 0
    witness: Optional[dict[int, int]] = None
    ran_out = False
    label = [0] * n  # by vertex
    cand = [0] * n  # by depth: untried candidate labels, as a bitmask
    used = [0] * n  # by depth: labels in use before order[i] is labeled
    free = [0] * n  # by depth: unused differences
    mirror = [0] * n  # free with bit d moved to bit m - d

    for allowed in layouts:
        for v, lab in fixed.items():
            allowed[v] &= 1 << lab  # a fixed label keeps its class range
        cand[0] = allowed[order[0]] & root_mask
        free[0] = (1 << (m + 1)) - 2
        mirror[0] = (1 << m) - 1
        i = 0
        while i >= 0:
            c = cand[i]
            if not c:
                i -= 1
                continue
            if nodes >= budget:
                ran_out = True
                break
            nodes += 1
            bit = c & -c
            cand[i] = c ^ bit
            lab = bit.bit_length() - 1
            label[order[i]] = lab
            u = used[i] | bit
            f = free[i]
            r = mirror[i]
            if i:
                d = abs(lab - label[up[i]])
                f ^= 1 << d
                r ^= 1 << (m - d)
            else:
                # At m = 0, f -> m - f is the identity and swaps nothing.
                alpha_pair = alpha_constrained and m > 0
                weight = 2 if halve and (alpha_pair or 2 * lab != m) else 1
            if i + 1 == n:
                count += weight
                if not count_all:
                    witness = {v: label[v] for v in order}
                    break
                continue
            # The largest unused difference, top, still needs an edge
            # (a, a + top) with an unlabeled endpoint.
            top = f.bit_length() - 1
            span = (1 << (m - top + 1)) - 1
            if u & (u >> top) & span == span:
                continue
            i += 1
            v = order[i]
            x = label[up[i]]
            # Labels x - d and x + d over the unused differences d.
            c = allowed[v] & ~u & ((r >> (m - x)) | (f << x))
            if sym_prev[v] >= 0:
                c &= -2 << label[sym_prev[v]]  # above the previous sibling
            cand[i] = c
            used[i] = u
            free[i] = f
            mirror[i] = r
        if witness is not None or ran_out:
            break

    elapsed = time.monotonic() - start_time
    found = Labeling(witness) if witness is not None else None
    return SearchReport(
        found=found,
        count=count if count_all else None,
        nodes_explored=nodes,
        elapsed=elapsed,
        exhausted=not ran_out,
    )
