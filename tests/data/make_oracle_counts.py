"""Regenerate oracle_counts.json: frozen graceful-labeling counts of every
tree with at most MAX_VERTICES vertices, unconstrained and restricted to
alpha-labelings.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_oracle_counts.py
    PYTHONPATH=src python3 tests/data/make_oracle_counts.py --max-vertices 10 --out counts10.json

The counts come from `count_graceful`. The file is frozen: the tests compare
the oracle against it, so a change to the search that alters any count
fails them. The tree enumerator below is self-contained.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

MAX_VERTICES = 9
DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_counts.json")


def _centers(adj: list[list[int]]) -> list[int]:
    """The one or two vertices left after repeatedly stripping all leaves."""
    degree = [len(nbrs) for nbrs in adj]
    leaves = [v for v, d in enumerate(degree) if d <= 1]
    left = len(adj)
    while left > 2:
        left -= len(leaves)
        nxt = []
        for v in leaves:
            for w in adj[v]:
                degree[w] -= 1
                if degree[w] == 1:
                    nxt.append(w)
        leaves = nxt
    return leaves


def _shape(adj: list[list[int]], v: int, parent: int) -> tuple:
    """Isomorphism-invariant nested tuple of the subtree rooted at v."""
    return tuple(sorted(_shape(adj, w, v) for w in adj[v] if w != parent))


def _canonical(n: int, edges: list[tuple[int, int]]) -> tuple:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return min(_shape(adj, c, -1) for c in _centers(adj))


def _edges_of(shape: tuple) -> tuple[int, list[tuple[int, int]]]:
    """Number the vertices of a rooted shape in preorder."""
    edges: list[tuple[int, int]] = []
    stack = [(shape, None)]
    n = 0
    while stack:
        node, parent = stack.pop()
        v = n
        n += 1
        if parent is not None:
            edges.append((parent, v))
        for child in reversed(node):
            stack.append((child, v))
    return n, sorted(edges)


def free_trees(max_vertices: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Every tree with 1..max_vertices vertices up to isomorphism, ordered by
    vertex count and then by shape."""
    out = []
    level = {()}  # the single vertex
    for n in range(1, max_vertices + 1):
        if n > 1:
            grown = set()
            for shape in level:
                k, edges = _edges_of(shape)
                for v in range(k):
                    grown.add(_canonical(k + 1, edges + [(v, k)]))
            level = grown
        out.extend(_edges_of(shape) for shape in sorted(level))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-vertices", type=int, default=MAX_VERTICES)
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    from graceful_spiders.model import Tree
    from graceful_spiders.oracle import count_graceful

    rows = []
    for n, edges in free_trees(args.max_vertices):
        t = Tree(n, edges)
        row = {"n": n, "edges": [list(e) for e in edges]}
        for key, alpha in (("graceful", False), ("alpha", True)):
            report = count_graceful(t, alpha_constrained=alpha)
            if not report.exhausted:
                print(f"count did not finish for n={n} edges={edges}", file=sys.stderr)
                return 1
            row[key] = report.count
        rows.append(row)
    with open(args.out, "w") as fh:
        json.dump({"max_vertices": args.max_vertices, "trees": rows}, fh, indent=1)
        fh.write("\n")
    print(f"{len(rows)} trees written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
