"""Regenerate oracle_witnesses.json: the first witness `find_graceful`
returns, and the nodes it spent, on every tree with at most MAX_VERTICES
vertices (plain and alpha-constrained) and on every spider with at least
three legs and MIN_EDGES..MAX_EDGES edges.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_oracle_witnesses.py
    PYTHONPATH=src python3 tests/data/make_oracle_witnesses.py --out witnesses.json

The file is frozen: the tests demand the same witness from the oracle and
at most the recorded number of nodes, so a pruning rule may cut nodes but a
change that alters a witness fails them. The trees come from the enumerator
in make_oracle_counts.py; spiders are built by `build_spider`, legs in
descending order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MAX_VERTICES = 9
MIN_EDGES, MAX_EDGES = 7, 12
DEFAULT_OUT = os.path.join(HERE, "oracle_witnesses.json")


def spider_legs(m: int) -> list[list[int]]:
    """Every partition of m into at least three parts, largest part first,
    in reverse lexicographic order."""
    out: list[list[int]] = []

    def parts(remaining: int, max_part: int, acc: list[int]) -> None:
        if remaining == 0:
            if len(acc) >= 3:
                out.append(list(acc))
            return
        for p in range(min(remaining, max_part), 0, -1):
            acc.append(p)
            parts(remaining - p, p, acc)
            acc.pop()

    parts(m, m, [])
    return out


def _result(report, n: int) -> dict:
    if not report.exhausted and report.found is None:
        raise RuntimeError("search ran out of budget")
    found = report.found
    return {
        "witness": None if found is None else found.as_sequence(n),
        "nodes": report.nodes_explored,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    from make_oracle_counts import free_trees

    from graceful_spiders.model import Tree, build_spider
    from graceful_spiders.oracle import find_graceful

    trees = []
    for n, edges in free_trees(MAX_VERTICES):
        t = Tree(n, edges)
        row = {"n": n, "edges": [list(e) for e in edges]}
        row["find"] = _result(find_graceful(t), n)
        row["alpha"] = _result(find_graceful(t, alpha_constrained=True), n)
        trees.append(row)
    spiders = []
    for m in range(MIN_EDGES, MAX_EDGES + 1):
        for legs in spider_legs(m):
            t = build_spider(legs).tree
            spiders.append({"legs": legs, **_result(find_graceful(t), t.n)})
    # One row per line keeps the file short and its diffs readable.
    with open(args.out, "w") as fh:
        fh.write('{\n "max_vertices": %d,\n' % MAX_VERTICES)
        fh.write(' "spider_edges": [%d, %d],\n' % (MIN_EDGES, MAX_EDGES))
        for key, rows in (("trees", trees), ("spiders", spiders)):
            fh.write(' "%s": [\n' % key)
            fh.write(",\n".join("  " + json.dumps(row) for row in rows))
            fh.write("\n ]%s\n" % ("," if key == "trees" else ""))
        fh.write("}\n")
    print(f"{len(trees)} trees and {len(spiders)} spiders written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
