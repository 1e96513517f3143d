"""Tree shapes and a brute-force graceful counter, independent of the
program under test.

Trees are (n, edges) with edges as sorted [a, b] lists, so they serialize to
JSON unchanged and compare equal across runs.
"""

from __future__ import annotations

import functools
import itertools


def spider_edges(legs: list[int]) -> tuple[int, list[list[int]]]:
    """Center 0; each leg numbered consecutively outward, in the given order."""
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for v in range(nxt, nxt + length):
            edges.append([prev, v])
            prev = v
        nxt += length
    return nxt, sorted(edges)


def _adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _centers(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        layer = nxt
    return layer


def _rooted_code(adj, v, parent) -> str:
    return "(" + "".join(sorted(_rooted_code(adj, w, v) for w in adj[v] if w != parent)) + ")"


def canonical(n: int, edges) -> str:
    """AHU code of the tree rooted at its center (least code when bicentral)."""
    adj = _adjacency(n, edges)
    return min(_rooted_code(adj, c, -1) for c in _centers(adj))


def _from_code(code: str) -> tuple[int, list[list[int]]]:
    """Number the vertices of a rooted code in preorder."""
    edges, stack, n = [], [], 0
    for ch in code:
        if ch == "(":
            if stack:
                edges.append([stack[-1], n])
            stack.append(n)
            n += 1
        else:
            stack.pop()
    return n, sorted(edges)


@functools.lru_cache(maxsize=None)
def _codes(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("()",)
    out = set()
    for code in _codes(n - 1):
        k, edges = _from_code(code)
        for v in range(k):
            out.add(canonical(k + 1, edges + [[v, k]]))
    return tuple(sorted(out))


def trees_with_vertices(n: int) -> list[tuple[int, list[list[int]]]]:
    """Every tree on n vertices up to isomorphism, in a fixed order."""
    return [_from_code(code) for code in _codes(n)]


def tree_key(n: int, edges) -> str:
    return f"{n}:" + ",".join(f"{a}-{b}" for a, b in sorted(map(sorted, edges)))


def brute_force_count(n: int, edges) -> int:
    """Graceful labelings of the tree, by trying every injective labeling.

    Labels come from [0, m] with m = n - 1, so a labeling is a permutation.
    """
    m = n - 1
    full = set(range(1, m + 1))
    count = 0
    for perm in itertools.permutations(range(m + 1)):
        if {abs(perm[a] - perm[b]) for a, b in edges} == full:
            count += 1
    return count
