"""In-process A/B timing of the oracle requests of `oracle-small`, from two
source trees.

Run from the repository root, naming two directories that each hold a
`graceful_spiders` package (the `src/` of two checkouts):

    python3 tools/ab_oracle.py OLD_SRC NEW_SRC
    python3 tools/ab_oracle.py OLD_SRC NEW_SRC --pairs 10 --seed 3

Both packages are loaded into this one process, under the names `ab_old`
and `ab_new`, so both time the same interpreter on the same machine, pass
by pass; separate worker processes can differ by more than a small change
does. The requests are those of one `oracle-small` run of
`perfbench/workloads.py` for the seed, read from that file and not changed:
`find` on every spider with 7-11 edges, `recheck` (a builder's labeling,
every vertex fixed, through `find_graceful`), `count` on trees with 8 or 9
vertices and `alpha_path` (a path with one vertex fixed to 0). Each is
served as the benchmark's worker serves it, with the benchmark's budget.

The script first serves every request once with each package and exits 1
at the first request where the witnesses, the counts or the `exhausted`
flags differ, or where the new package spends more search nodes. It then
runs `--pairs` pairs of timed passes. A pass serves every request once with
one package, each timed in process time, after a full collection; the two
passes of a pair run in alternating order, old first in even pairs. It
prints each package's median over the passes of the total process time, of
the median request and of the 10th-largest request (the benchmark's tail
at 1,564 requests, its 99.36th percentile), then each pair's ratio new/old
of the total, below 1 where the new package is faster.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
from time import process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TAIL_RANK = 10  # the benchmark's req_tail_ms is the 10th-largest request here


class Package:
    """The oracle and the builders of the `graceful_spiders` package under
    `src`, imported as the package `name`."""

    def __init__(self, src: str, name: str):
        pkg = os.path.join(src, "graceful_spiders")
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)

        def sub(mod):
            return importlib.import_module(f"{name}.{mod}")

        self.model, self.oracle = sub("model"), sub("oracle")
        self.doubling, self.short_legs, self.compose = (
            sub("doubling"), sub("short_legs"), sub("compose"))

    def build(self, builder: str, legs: list[int]):
        """The spider and labeling that `builder` makes for `legs`."""
        if builder == "doubling":
            spider, lab, _ = self.doubling.label_doubling_spider(legs)
        elif builder == "short":
            ell = max(legs)
            spec = self.short_legs.ShortLegSpec(
                ell, legs.count(2) - (ell == 2), legs.count(1) - (ell == 1))
            spider, lab = self.short_legs.label_short_leg_spider(spec)
        else:
            spider, lab = self.compose.label_three_long_legs(legs)
        return spider, lab

    def serve(self, req: dict, budget: int):
        """The search report of one request."""
        oracle, op = self.oracle, req["op"]
        if op == "find":
            return oracle.find_graceful(self.model.Tree(req["n"], req["edges"]), budget=budget)
        if op == "count":
            return oracle.count_graceful(self.model.Tree(req["n"], req["edges"]), budget=budget)
        if op == "alpha_path":
            return oracle.find_graceful(self.model.path_tree(req["n"]), fixed={req["p"]: 0},
                                        budget=budget, alpha_constrained=True)
        spider, lab = self.build(req["builder"], req["legs"])
        fixed = {v: lab[v] for v in range(spider.tree.n)}
        return oracle.find_graceful(spider.tree, fixed=fixed, budget=budget)


def requests(seed: int) -> tuple[list[dict], int]:
    """The requests of one `oracle-small` run for the seed, and the budget."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    rounds = workloads.ROUNDS_PER_20S["oracle-small"]
    reqs = [req for r in range(rounds) for req in workloads.oracle_small(seed, r)]
    return reqs, workloads.CLIENT_BUDGET


def outcome(report) -> tuple:
    found = report.found
    return (None if found is None else dict(found.values), report.count, report.exhausted)


def timed_pass(package: Package, reqs: list[dict], budget: int) -> tuple[float, list[float]]:
    """Process seconds to serve every request once, and each request's."""
    gc.collect()
    times = []
    start = process_time()
    for req in reqs:
        t0 = process_time()
        package.serve(req, budget)
        times.append(process_time() - t0)
    return process_time() - start, times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="directory holding the old graceful_spiders package")
    ap.add_argument("new", help="directory holding the new graceful_spiders package")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of timed passes (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    old, new = Package(args.old, "ab_old"), Package(args.new, "ab_new")
    reqs, budget = requests(args.seed)
    if len(reqs) < TAIL_RANK:
        ap.error(f"the run has {len(reqs)} requests, fewer than {TAIL_RANK}")
    nodes = {old: 0, new: 0}
    for i, req in enumerate(reqs):
        a, b = old.serve(req, budget), new.serve(req, budget)
        nodes[old] += a.nodes_explored
        nodes[new] += b.nodes_explored
        if outcome(a) != outcome(b):
            print(f"request {i} ({req['op']}): the two packages give different results")
            return 1
        if b.nodes_explored > a.nodes_explored:
            print(f"request {i} ({req['op']}): the new package spends more nodes "
                  f"({b.nodes_explored:,} > {a.nodes_explored:,})")
            return 1
    print(f"python {sys.version.split()[0]}, {len(reqs):,} requests, identical results, "
          f"nodes {nodes[old]:,} -> {nodes[new]:,}")
    totals: dict = {old: [], new: []}
    p50: dict = {old: [], new: []}
    tail: dict = {old: [], new: []}
    for i in range(args.pairs):
        for package in (old, new) if i % 2 == 0 else (new, old):
            total, times = timed_pass(package, reqs, budget)
            times.sort()
            totals[package].append(total)
            p50[package].append(statistics.median(times) * 1e3)
            tail[package].append(times[-TAIL_RANK] * 1e3)
    for name, package in (("old", old), ("new", new)):
        print(f"{name}: total {statistics.median(totals[package]):.3f} s, "
              f"p50 {statistics.median(p50[package]):.3f} ms, "
              f"tail {statistics.median(tail[package]):.2f} ms")
    ratios = [b / a for a, b in zip(totals[old], totals[new])]
    print("new/old total per pair: " + " ".join(f"{r:.3f}" for r in ratios))
    print(f"median {statistics.median(ratios):.3f}, new faster in "
          f"{sum(r < 1 for r in ratios)} of {len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
