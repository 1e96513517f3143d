"""In-process A/B timing of three-long builds from two source trees.

Run from the repository root, naming two directories that each hold a
`graceful_spiders` package (the `src/` of two checkouts):

    python3 tools/ab_builds.py OLD_SRC NEW_SRC
    python3 tools/ab_builds.py OLD_SRC NEW_SRC --pairs 20 --seed 3

Both packages are loaded into this one process, under the names `ab_old`
and `ab_new`, so both time the same interpreter on the same machine, pass
by pass; separate worker processes can differ by more than a small change
does. The shapes are the leg lists of one `three-long-mixed` run of
`perfbench/workloads.py` for the seed (every long-leg pair, three times,
with different short parts), read from that file and not changed.

The script first checks that both packages build the same parent array and
the same labels for every shape, and exits 1 at the first shape where they
differ. It then runs `--pairs` pairs of timed passes. A pass builds every
shape once with one package, timed in process time after a full
collection; the two passes of a pair run in alternating order, old first in
even pairs. It prints the median microseconds per build of each package,
and the quartiles of the pairs' ratios new/old, below 1 where the new
package is faster.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import os
import statistics
import sys
from time import process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(src: str, name: str):
    """The `compose` module of the `graceful_spiders` package under `src`,
    imported as the package `name`."""
    pkg = os.path.join(src, "graceful_spiders")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.compose")


def shapes(seed: int) -> list[list[int]]:
    """The leg lists of one `three-long-mixed` run for the seed."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    rounds = workloads.ROUNDS_PER_20S["three-long-mixed"]
    return [req["legs"] for r in range(rounds)
            for req in workloads.three_long_mixed(seed, r)]


def timed_pass(build, legs: list[list[int]]) -> float:
    """Process seconds to build every shape once."""
    gc.collect()
    start = process_time()
    for one in legs:
        build(one)
    return process_time() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="directory holding the old graceful_spiders package")
    ap.add_argument("new", help="directory holding the new graceful_spiders package")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of timed passes (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    old = load(args.old, "ab_old").label_three_long_legs
    new = load(args.new, "ab_new").label_three_long_legs
    legs = shapes(args.seed)
    for one in legs:
        (sp_a, lab_a), (sp_b, lab_b) = old(one), new(one)
        if (sp_a.tree.parent != sp_b.tree.parent
                or lab_a.as_sequence(sp_a.tree.n) != lab_b.as_sequence(sp_b.tree.n)):
            print(f"legs {one}: the two packages build different spiders")
            return 1
    print(f"python {sys.version.split()[0]}, {len(legs):,} shapes, identical output")
    times: dict = {old: [], new: []}
    for i in range(args.pairs):
        for build in (old, new) if i % 2 == 0 else (new, old):
            times[build].append(timed_pass(build, legs) / len(legs) * 1e6)
    ratios = [b / a for a, b in zip(times[old], times[new])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"old {statistics.median(times[old]):.1f} us/build, "
          f"new {statistics.median(times[new]):.1f} us/build")
    print(f"new/old over {len(ratios)} pairs: median {q2:.3f} [{q1:.3f}, {q3:.3f}], "
          f"new faster in {sum(r < 1 for r in ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
