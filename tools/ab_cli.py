"""A/B timing of command-line calls from two source trees.

Run from the repository root, naming two directories that each hold a
`graceful_spiders` package (the `src/` of two checkouts):

    python3 tools/ab_cli.py OLD_SRC NEW_SRC
    python3 tools/ab_cli.py OLD_SRC NEW_SRC --rounds 20

Every call is a fresh `python -m graceful_spiders.cli` process with
`PYTHONDONTWRITEBYTECODE=1`, as in the benchmark's `cli` workload, so each
one compiles from source the modules it imports. The calls are fixed: one
per subcommand, on small input documents written to a temporary directory,
and one invalid call that exits 2.

The script first runs every call once with each tree and exits 1 at the
first call whose stdout or exit code differs between them, or if the
invalid call does not exit 2. It then runs `--rounds` rounds; a round runs
every call once with each tree, the two trees alternating call by call, old
first in even rounds. A call's cost is the user and system CPU time the
child process used (`RUSAGE_CHILDREN`), so the parent's own work and the
wait for the child do not count. It prints, for each call and for a round's
mean over all calls, the median milliseconds of each tree and the median
new/old ratio, below 1 where the new tree is cheaper.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from itertools import takewhile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from speed import children_cpu  # noqa: E402  (the benchmark's child CPU reading)

INPUTS = {
    "p5.json": {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]},
    # The spider with two legs of length 2, gracefully labeled.
    "spider.json": {"n": 5, "edges": [[0, 1], [0, 3], [1, 2], [3, 4]],
                    "labels": {"0": 1, "1": 4, "2": 0, "3": 3, "4": 2},
                    "center": 0, "legs": [[1, 2], [3, 4]]},
    "g.json": {"n": 3, "edges": [[0, 1], [1, 2]], "labels": {"0": 0, "1": 2, "2": 1}},
    "h.json": {"n": 2, "edges": [[0, 1]], "labels": {"0": 0, "1": 1}},
}
CALLS = [
    ["spider", "doubling", "--legs", "1,6,14", "--trace"],
    ["spider", "short", "--long", "11", "--two", "2", "--one", "1"],
    ["spider", "three-long", "--legs", "4,3,3,2,1"],
    ["attach", "--graph", "spider.json", "--vertex", "0", "--path-len", "4"],
    ["amalgamate", "--alpha", "g.json", "--u", "0", "--graceful", "h.json", "--v", "0"],
    ["path", "alpha", "--n", "9", "--position", "4"],
    ["oracle", "--graph", "p5.json", "--count"],
    ["verify", "--graph", "spider.json"],
    ["export", "--graph", "spider.json", "--format", "dot"],
]
# These legs fail Theorem 3's doubling condition: a validation error, exit 2.
INVALID = ["spider", "doubling", "--legs", "1,5,12"]


def call(src: str, argv: list[str], workdir: str) -> tuple[subprocess.CompletedProcess, float]:
    """The finished call on the package under `src`, and its CPU seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONDONTWRITEBYTECODE="1")
    start = children_cpu()
    proc = subprocess.run([sys.executable, "-m", "graceful_spiders.cli", *argv],
                          capture_output=True, env=env, cwd=workdir, timeout=120)
    return proc, children_cpu() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="directory holding the old graceful_spiders package")
    ap.add_argument("new", help="directory holding the new graceful_spiders package")
    ap.add_argument("--rounds", type=int, default=10, help="timed rounds (default 10)")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    calls = CALLS + [INVALID]
    with tempfile.TemporaryDirectory() as workdir:
        for name, doc in INPUTS.items():
            with open(os.path.join(workdir, name), "w") as fh:
                json.dump(doc, fh)
        for one in calls:
            (a, _), (b, _) = call(args.old, one, workdir), call(args.new, one, workdir)
            if (a.returncode, a.stdout) != (b.returncode, b.stdout):
                print(f"{' '.join(one)}: the two trees give different output")
                return 1
            if one is INVALID and b.returncode != 2:
                print(f"{' '.join(one)}: exit {b.returncode}, expected 2")
                return 1
        print(f"python {sys.version.split()[0]}, {len(calls)} calls, identical output")
        trees = (args.old, args.new)
        # ms[t][i]: tree t's CPU milliseconds for call i, one per round.
        ms = [[[] for _ in calls] for _ in trees]
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for i, one in enumerate(calls):
                for t in order:
                    ms[t][i].append(call(trees[t], one, workdir)[1] * 1e3)

    def row(label: str, old: list[float], new: list[float]) -> None:
        ratio = statistics.median(b / a for a, b in zip(old, new))
        print(f"{label:<34} {statistics.median(old):8.1f} {statistics.median(new):8.1f}"
              f" {ratio:9.3f}")

    print(f"{'median ms per call':<34} {'old':>8} {'new':>8} {'new/old':>9}")
    for i, one in enumerate(calls):
        words = " ".join(takewhile(lambda w: not w.startswith("--"), one))
        row(words + (" (exit 2)" if one is INVALID else ""), ms[0][i], ms[1][i])
    # A round's mean over all calls, per tree.
    old, new = ([statistics.fmean(col) for col in zip(*per_call)] for per_call in ms)
    row(f"all calls, {args.rounds} rounds", old, new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
