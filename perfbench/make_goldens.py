"""Regenerate goldens.json: graceful-labeling counts of every tree the
oracle-small and cli workloads may ask to count.

Run from the repository root: PYTHONPATH=src python3 perfbench/make_goldens.py

Counts come from the package's oracle; every tree with at most
BRUTE_FORCE_MAX_N vertices is cross-checked against a permutation brute
force that shares no code with it, and a mismatch aborts the run. The file
is frozen: the benchmark compares against it and never rewrites it.
"""

from __future__ import annotations

import json
import os
import sys

from trees import brute_force_count, tree_key, trees_with_vertices

COUNT_VERTICES = (8, 9)
BRUTE_FORCE_MAX_N = 8


def main() -> int:
    from graceful_spiders.model import Tree
    from graceful_spiders.oracle import count_graceful

    counts = {}
    cross_checked = 0
    for n in COUNT_VERTICES:
        for _, edges in trees_with_vertices(n):
            report = count_graceful(Tree(n, edges))
            if not report.exhausted:
                print(f"count did not finish for {tree_key(n, edges)}", file=sys.stderr)
                return 1
            if n <= BRUTE_FORCE_MAX_N:
                want = brute_force_count(n, edges)
                if want != report.count:
                    print(f"{tree_key(n, edges)}: oracle {report.count}, brute force {want}",
                          file=sys.stderr)
                    return 1
                cross_checked += 1
            counts[tree_key(n, edges)] = report.count
    out = {"cross_checked_by_brute_force": cross_checked, "counts": counts}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(counts)} counts, {cross_checked} cross-checked by brute force")
    return 0


if __name__ == "__main__":
    sys.exit(main())
