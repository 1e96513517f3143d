"""Brute-force graceful-labeling search over arbitrary small trees.

This is the independent ground truth the constructions are checked against:
backtracking over vertex labels in a DFS preorder from the highest-degree
vertex, descending into heavier subtrees first, so long internal paths --
where the conflicts live -- are explored before the interchangeable leaves.

- Candidates. In the preorder every vertex after the first has exactly one
  labeled neighbor, its parent, labeled x. Its candidates are x - d and
  x + d over the differences d not yet used, restricted to unused labels
  (and to the vertex's class range under an alpha layout). They are bitmask
  operations on the unused labels and the unused differences, tried in
  ascending label order, so the first witness is the one a scan of all
  labels in [0, m] finds.
- Forward check. Every future edge joins an unplaced vertex to its parent.
  So after each placement, each unused difference d still needs a pair
  (a, a + d) with one end on an unused label and the other on an unused
  label or on the label of an open vertex: a placed one with unplaced
  children. The unused/unused pair only counts while some future edge has
  both ends unplaced. With the vertex at depth c having its parent at
  depth up[c] < c, after depths 0..i are placed those edges are exactly
  the (up[c], c) with up[c] > i, so one exists iff i < max(up). The branch
  is cut when one of the three largest unused differences has no such
  pair. The condition is necessary, so counts and witnesses are unchanged.
  The three tests are written out, not looped: a loop over them made the
  heaviest searches of the benchmark's oracle workload 9-25% slower.
- Root children. The root (the first vertex) is labeled r, and each of its
  unplaced children will take its own label from C, the unused labels at an
  unused difference from r. So the branch is cut when C has fewer labels
  than the root has unplaced children: one count, made before the pair
  test, for every root label. When r = 0 and C has exactly that
  many, the children take exactly the labels C and so the differences C;
  the forward check's one pair test then runs on the other differences,
  with C taken out of the unused labels, the root out of the open
  vertices, and C in them while a root child with children of its own is
  unplaced. Both conditions hold in every completion of the branch, so
  they only cut branches with no labeling. The narrowed test implies the
  plain one, so it runs in its place: with r = 0 and a root child
  unplaced, the root is open and C is the unused labels at unused
  differences, so a difference d in C has the plain pair (0, d); any other
  difference among the plain test's top three is among the top three
  outside C; and a pair the narrowed test finds is a plain pair, since
  each set it draws the ends from lies in the plain test's set. (C joins
  the open labels only while a root child with children is unplaced, and
  then unused labels already count.) The check is skipped when every
  unplaced root child is fixed.
- Root leaves. When the root is labeled 0 and its unplaced children are
  leaves, an unused difference d with no pair away from the root (one end
  on an unused label, the other on an open vertex other than the root or,
  while deep, on an unused label) can only be the edge from the root to a
  leaf labeled d. Scanning down from the largest difference, each such d
  reserves label d, which then ends no other pair, and uses up one root
  child; the branch is cut when no child is left or label d is not free.
  The scan stops at the first difference with a pair away from the root.
- Fixed labels. A fixed label is taken from every other vertex's allowed
  labels, and a layout that leaves some vertex no label is not searched.
- Fully fixed. When every vertex is fixed, the labels are a bijection
  onto [0, m], and one pass over the edges (parent[v], v) decides it: the
  labeling is graceful when the m differences are distinct. The search
  would report such a labeling with n nodes, exhausted: each depth has one
  candidate and no cut drops a completable branch. Under alpha_constrained
  the same pass also asks that every edge's low end lies below every
  edge's high end (always so on one vertex). A graceful labeling that
  fails it fits no class layout, since the low class of a layout it fitted
  would hold labels 0..alpha with every edge crossing it; so every layout
  leaves some vertex no label, and the search reports 0 nodes, exhausted,
  with nothing found. The pass returns these reports when the budget
  allows n nodes. A labeling that is not graceful, or a budget below n,
  goes to the search, whose report, nodes included, is unchanged.
- Sibling leaves. Unfixed leaves of one parent are interchangeable: find
  and count give them increasing labels, and a count weighs each labeling
  by the product of k! over groups of k such siblings.
- Complement. f -> m - f is a bijection on graceful labelings. A count with
  nothing fixed tries root labels up to m/2 only and weighs each labeling 2
  (1 when the root is labeled m/2); an alpha-constrained count searches one
  of the two class layouts, which the complement swaps, and weighs 2
  (1 on the one-vertex tree, where the complement is the identity).
- Enumeration. `enumerate_graceful` runs the same search with neither
  symmetry and keeps every labeling it reaches, in search order. The
  forward check stays: it only cuts branches that cannot be completed.
- Stack. The search keeps one frame per depth in flat lists, not in
  recursion, so tree size is not limited by the interpreter's recursion
  depth.

One node is one candidate label tried at some vertex; the budget counts
nodes. Budget exhaustion is reported, never raised; only a fully explored
space (`exhausted`) counts as a definitive answer.
"""

from __future__ import annotations

import time
from collections.abc import Mapping
from operator import sub

from .errors import DEFAULT_ORACLE_BUDGET, ValidationError
from .model import Labeling, Tree, _Record, _check_int


class SearchReport(_Record):
    __slots__ = ("found", "count", "nodes_explored", "elapsed", "exhausted", "labelings")


def _search_order(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """DFS preorder from the highest-degree vertex (smallest id on ties),
    visiting children by descending subtree size so leaves come last; and
    for each position after the first, the position of the vertex's parent
    (-1 for the first)."""
    n = len(adj)
    start = max(range(n), key=lambda v: len(adj[v]))
    # Subtree sizes via a reverse-BFS accumulation.
    parent = [-1] * n
    bfs = [start]
    for v in bfs:
        for w in adj[v]:
            if w != parent[v]:
                parent[w] = v
                bfs.append(w)
    size = [1] * n
    for v in reversed(bfs[1:]):
        size[parent[v]] += size[v]
    order: list[int] = []
    up: list[int] = []
    stack = [(start, -1)]
    while stack:
        v, p = stack.pop()
        i = len(order)
        order.append(v)
        up.append(p)
        children = [w for w in adj[v] if w != parent[v]]
        children.sort(key=lambda w: (size[w], -w))
        stack.extend([(w, i) for w in children])
    return order, up


def _class_masks(
    m: int, order: list[int], up: list[int], alpha_constrained: bool
) -> list[list[int]]:
    """Allowed labels per preorder position as bitmasks: all of [0, m], or
    one layout per choice of which bipartition class is the low class of an
    alpha-labeling (layout 0 puts vertex 0's class low). The classes are the
    parities of the depth in the search tree."""
    every = (1 << (m + 1)) - 1
    if not alpha_constrained:
        return [[every] * (m + 1)]
    side = [0] * (m + 1)
    for i in range(1, m + 1):
        side[i] = side[up[i]] ^ 1
    first = side[order.index(0)]
    layouts = []
    # On one vertex both layouts would accept the same single labeling.
    for low_side in (first, first ^ 1) if m else (first,):
        low = (1 << side.count(low_side)) - 1  # labels 0..alpha
        layouts.append([low if c == low_side else every & ~low for c in side])
    return layouts


def find_graceful(
    t: Tree,
    fixed: Mapping[int, int] | None = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
    alpha_constrained: bool = False,
) -> SearchReport:
    """First graceful labeling of t respecting the fixed assignments.

    A report without a witness is definitive infeasibility only when
    `exhausted` is set; otherwise the budget ran out first. With
    alpha_constrained, only alpha-labelings are searched (both choices of
    low bipartition class).
    """
    return _run(t, fixed or {}, budget, alpha_constrained, "find")


def count_graceful(
    t: Tree,
    budget: int = DEFAULT_ORACLE_BUDGET,
    alpha_constrained: bool = False,
    fixed: Mapping[int, int] | None = None,
) -> SearchReport:
    """Count all graceful labelings of t; the count is complete only when
    `exhausted` is set."""
    return _run(t, fixed or {}, budget, alpha_constrained, "count")


def enumerate_graceful(
    t: Tree,
    fixed: Mapping[int, int] | None = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
    alpha_constrained: bool = False,
) -> SearchReport:
    """Every graceful labeling of t respecting the fixed assignments, in
    search order, as `labelings` (with `count` their number).

    The list is complete only when `exhausted` is set; otherwise it holds
    the labelings found before the budget ran out. With alpha_constrained,
    only alpha-labelings are listed (both choices of low bipartition class).
    """
    return _run(t, fixed or {}, budget, alpha_constrained, "enumerate")


def _run(
    t: Tree,
    fixed: Mapping[int, int],
    budget: int,
    alpha_constrained: bool,
    mode: str,
) -> SearchReport:
    """The search behind find ("find": stop at the first labeling), count
    ("count": weigh each labeling by the symmetries it stands for) and
    enumerate ("enumerate": keep every labeling, use no symmetry)."""
    m = t.m
    _check_int("budget", budget)
    if budget < 0:
        raise ValidationError(f"budget must be >= 0, got {budget}")
    for v, lab in fixed.items():
        _check_int("fixed vertex", v)
        _check_int("fixed label", lab)
        if not 0 <= v < t.n:
            raise ValidationError(f"fixed vertex {v} not in the tree")
        if not 0 <= lab <= m:
            raise ValidationError(f"fixed label {lab} outside [0, {m}]")
    if len(set(fixed.values())) != len(fixed):
        raise ValidationError("fixed labels must be injective")

    start_time = time.monotonic()
    n = t.n
    if len(fixed) == n and budget >= n:
        # Fully fixed: the labels are a bijection onto [0, m], so one pass
        # over the edges (parent[v], v) decides what the search would. A
        # graceful labeling that is not alpha fits no class layout, so an
        # alpha search places nothing.
        f = [fixed[v] for v in range(n)]
        ups = [f[p] for p in t.parent[1:]]
        if len(set(map(abs, map(sub, f[1:], ups)))) == m:
            fits = (not (alpha_constrained and m)
                    or max(map(min, f[1:], ups)) < min(map(max, f[1:], ups)))
            kept = [Labeling.from_sequence(f)] if fits else []
            find = mode == "find"
            return SearchReport(kept[0] if find and kept else None, None if find else len(kept),
                                n * len(kept), time.monotonic() - start_time, True,
                                tuple(kept) if mode == "enumerate" else ())
    adj = t.adjacency()
    # Everything below is indexed by depth, the position in the preorder.
    # Every vertex after the first has exactly one neighbor earlier in the
    # preorder when it is reached: its parent, at depth up[i].
    order, up = _search_order(adj)
    # kids[i]: order[i] has children. last[i]: order[i] is its parent's last
    # child, so placing it closes the parent. rest[i]: the root's children
    # placed after order[i] (those j with up[j] == 0), or 0 when every one of
    # them is fixed, where the root children check would only repeat the
    # fixed labels. inner[i]: one of them has children (-1 as a mask when so,
    # 0 when not). A vertex's children come after it, so one reverse pass
    # knows kids[i] when it reaches i.
    kids = [False] * n
    last = [False] * n
    rest = [0] * n
    inner = [0] * n
    k = unfixed = nest = 0
    for i in range(n - 1, -1, -1):
        rest[i], inner[i] = (k if unfixed else 0), nest
        if i and not kids[up[i]]:
            kids[up[i]] = last[i] = True
        if up[i] == 0:
            k += 1
            unfixed += order[i] not in fixed
            if kids[i]:
                nest = -1
    # After depths 0..i are placed, some edge has both ends unplaced iff
    # i < deepest (module docstring, "Forward check").
    deepest = max(up)

    # Unfixed leaf siblings are interchangeable: permuting their labels
    # maps labelings onto labelings, fixes every other label and the class
    # masks, and moves each labeling to a different one. So find and count
    # demand increasing labels along each sibling group, and a count
    # weighs each labeling it finds by the number of orderings, the product
    # of k! over groups of k siblings.
    sym_prev = [-1] * n
    orderings = 1
    prev_leaf = [-1] * n  # by parent depth: its last unfixed leaf so far
    group = [0] * n  # by parent depth: its unfixed leaves so far
    symmetric = range(1, n) if mode != "enumerate" else ()
    for i in symmetric:
        if len(adj[order[i]]) == 1 and order[i] not in fixed:
            p = up[i]
            sym_prev[i] = prev_leaf[p]
            prev_leaf[p] = i
            group[p] += 1
            orderings *= group[p]

    # f -> m - f maps graceful labelings onto graceful labelings and swaps
    # the two alpha layouts, so an unconstrained count only needs root
    # labels up to m/2, and an alpha count only the first layout.
    layouts = _class_masks(m, order, up, alpha_constrained)
    halve = mode == "count" and not fixed
    root_mask = -1
    if halve and alpha_constrained:
        layouts = layouts[:1]
    elif halve:
        root_mask = (1 << (m // 2 + 1)) - 1

    where = [0] * n  # by vertex: its depth
    for i, v in enumerate(order):
        where[v] = i
    top = n - 1
    nodes = 0
    count = 0
    kept: list[Labeling] = []  # find: the witness; enumerate: every labeling
    ran_out = False
    label = [0] * n
    cand = [0] * n  # untried candidate labels, as a bitmask
    # Before order[i] is labeled: (labels not in use, unused differences,
    # the unused differences with bit d moved to bit m - d, labels of open
    # vertices: placed, with unplaced children).
    state = [()] * n

    # A fixed label keeps its class range and is taken from every other vertex.
    own = {where[v]: 1 << lab for v, lab in fixed.items()}
    free = ~sum(own.values())
    for allowed in layouts:
        allowed = [c & own.get(j, free) for j, c in enumerate(allowed)]
        if not all(allowed):
            continue
        cand[0] = allowed[0] & root_mask
        state[0] = ((1 << (m + 1)) - 1, (1 << (m + 1)) - 2, (1 << m) - 1, 0)
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
            label[i] = lab
            a, f, r, o = state[i]
            a ^= bit
            if i:
                x = label[up[i]]
                d = lab - x if lab > x else x - lab
                f ^= 1 << d
                r ^= 1 << (m - d)
                if last[i]:
                    o ^= 1 << x
            else:
                root = lab
                # At m = 0, f -> m - f is the identity and swaps nothing.
                alpha_pair = alpha_constrained and m > 0
                weight = 2 if halve and (alpha_pair or 2 * lab != m) else 1
            if i == top:
                count += weight
                if mode != "count":
                    kept.append(Labeling.from_sequence([label[p] for p in where]))
                    if mode == "find":
                        break
                continue
            if kids[i]:
                o |= bit
            # Each unplaced root child needs its own unused label at an
            # unused difference from the root's label: one of C. At root
            # label 0, C is a & f, and when it has exactly k labels the root
            # children take exactly the labels C and the differences C: the
            # pair test below then runs on the other differences, with C
            # out of the unused labels, the root out of the open vertices,
            # and C in them while an unplaced root child has children.
            k = rest[i]
            b, p, g = a, o, f
            if k:
                C = a & ((r >> (m - root)) | (f << root))
                s = C.bit_count()
                if s < k:
                    continue
                if s == k and not root:
                    b, p, g = a & ~C, (o ^ 1) | (C & inner[i]), f & ~C
            # Each of the top three differences d in g still needs a future
            # edge (c, c + d): one end unplaced, on a label in b, the other
            # on a label in b too (only while some future edge has both ends
            # unplaced) or on an open vertex's label, in p.
            w = p | b if i < deepest else p
            if g:
                d = g.bit_length() - 1
                if not (b & (w >> d) or p & (b >> d)):
                    continue
                g ^= 1 << d
            if g:
                d = g.bit_length() - 1
                if not (b & (w >> d) or p & (b >> d)):
                    continue
                g ^= 1 << d
            if g:
                d = g.bit_length() - 1
                if not (b & (w >> d) or p & (b >> d)):
                    continue
            if k and not root and s > k and not inner[i]:
                # The root is labeled 0 and its unplaced children are
                # leaves. From the largest down, an unused difference d
                # with no pair away from the root goes to a root leaf
                # labeled d, which ends no other edge.
                b, g, p = a, f, o ^ 1
                while g:
                    d = g.bit_length() - 1
                    w = p | b if i < deepest else p
                    if b & (w >> d) or p & (b >> d):
                        g = 0
                    elif k and b >> d & 1:
                        b ^= 1 << d  # reserved for that leaf
                        g ^= 1 << d
                        k -= 1
                    else:
                        break
                if g:
                    continue
            i += 1
            x = label[up[i]]
            # Labels x - d and x + d over the unused differences d.
            c = allowed[i] & a & ((r >> (m - x)) | (f << x))
            if sym_prev[i] >= 0:
                c &= -2 << label[sym_prev[i]]  # above the previous sibling
            cand[i] = c
            state[i] = (a, f, r, o)
        if ran_out or (mode == "find" and kept):
            break

    elapsed = time.monotonic() - start_time
    find = mode == "find"
    found = kept[0] if find and kept else None
    total = None if find else count * orderings
    labelings = () if find else tuple(kept)
    return SearchReport(found, total, nodes, elapsed, not ran_out, labelings)
