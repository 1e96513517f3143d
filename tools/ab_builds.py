"""In-process A/B timing of spider builds from two source trees.

Run from the repository root, naming two directories that each hold a
`graceful_spiders` package (the `src/` of two checkouts):

    python3 tools/ab_builds.py OLD_SRC NEW_SRC
    python3 tools/ab_builds.py OLD_SRC NEW_SRC --pairs 20 --seed 3

Both packages are loaded into this one process, under the names `ab_old`
and `ab_new`, so both time the same interpreter on the same machine, pass
by pass; separate worker processes can differ by more than a small change
does. The builds are those of two workloads of `perfbench/workloads.py` for
the seed, read from that file and not changed:

- `three-long-mixed`: the leg lists of one run (every long-leg pair, three
  times, with different short parts), all built by the three-long builder;
- `build-large`: the requests of one run, which cover all three builders
  (doubling, short-leg, three-long) at m = 100..4,000.

For each workload the script first checks that both packages build the
same parent array and the same labels for every request, and exits 1 at
the first request where they differ. It then runs `--pairs` pairs of timed
passes. A pass builds every request once with one package, timed in
process time after a full collection; the two passes of a pair run in
alternating order, old first in even pairs. For each workload it prints the
median microseconds per build of each package, and the quartiles of the
pairs' ratios new/old, below 1 where the new package is faster.
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
WORKLOADS = ("three-long-mixed", "build-large")


class Builders:
    """The three spider builders of the `graceful_spiders` package under
    `src`, imported as the package `name`, called as the benchmark's worker
    calls them."""

    def __init__(self, src: str, name: str):
        pkg = os.path.join(src, "graceful_spiders")
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        self.compose = importlib.import_module(f"{name}.compose")
        self.doubling = importlib.import_module(f"{name}.doubling")
        self.short_legs = importlib.import_module(f"{name}.short_legs")

    def __call__(self, req: dict):
        """The spider and labeling of one build request."""
        if req["op"] == "doubling":
            return self.doubling.label_doubling_spider(req["legs"])[:2]
        if req["op"] == "short":
            spec = self.short_legs.ShortLegSpec(req["ell"], req["s"], req["t"])
            return self.short_legs.label_short_leg_spider(spec)
        return self.compose.label_three_long_legs(req["legs"])


def requests(workload: str, seed: int) -> list[dict]:
    """The build requests of one run of the workload for the seed."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    make = {"three-long-mixed": workloads.three_long_mixed,
            "build-large": workloads.build_large}[workload]
    return [req for r in range(workloads.ROUNDS_PER_20S[workload]) for req in make(seed, r)]


def timed_pass(build, reqs: list[dict]) -> float:
    """Process seconds to build every request once."""
    gc.collect()
    start = process_time()
    for req in reqs:
        build(req)
    return process_time() - start


def compare(old: Builders, new: Builders, workload: str, reqs: list[dict], pairs: int) -> bool:
    """Check that both packages build the same spiders, then time them and
    print the result; False when the builds differ."""
    for req in reqs:
        (sp_a, lab_a), (sp_b, lab_b) = old(req), new(req)
        if (sp_a.tree.parent != sp_b.tree.parent
                or lab_a.as_sequence(sp_a.tree.n) != lab_b.as_sequence(sp_b.tree.n)):
            print(f"{workload} {req}: the two packages build different spiders")
            return False
    times: dict = {old: [], new: []}
    for i in range(pairs):
        for build in (old, new) if i % 2 == 0 else (new, old):
            times[build].append(timed_pass(build, reqs) / len(reqs) * 1e6)
    ratios = [b / a for a, b in zip(times[old], times[new])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"{workload}: {len(reqs):,} builds, identical output; "
          f"old {statistics.median(times[old]):.1f} us/build, "
          f"new {statistics.median(times[new]):.1f} us/build")
    print(f"{workload}: new/old over {len(ratios)} pairs: median {q2:.3f} "
          f"[{q1:.3f}, {q3:.3f}], new faster in {sum(r < 1 for r in ratios)}")
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="directory holding the old graceful_spiders package")
    ap.add_argument("new", help="directory holding the new graceful_spiders package")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of timed passes (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    old, new = Builders(args.old, "ab_old"), Builders(args.new, "ab_new")
    print(f"python {sys.version.split()[0]}")
    for workload in WORKLOADS:
        if not compare(old, new, workload, requests(workload, args.seed), args.pairs):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
