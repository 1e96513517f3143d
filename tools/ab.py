"""In-process A/B timing of the benchmark's four workloads on two source trees.

Run from the repository root, naming two directories that each hold a
`graceful_spiders` package (the `src/` of two checkouts):

    python3 tools/ab.py OLD_SRC NEW_SRC
    python3 tools/ab.py OLD_SRC NEW_SRC --pairs 20 --seed 3

Both trees are timed in this one process, pass by pass, so both see the same
interpreter on the same machine; separate worker processes can differ by
more than a small change does. The script keeps no copy of the benchmark's
logic. The requests are those of `perfbench/workloads.py` for the seed: one
run of `build-large`, `three-long-mixed` and `oracle-small`, and one round
of `cli`. Each side serves the first three through `perfbench/worker.py`'s
own `InProcess`, bound to that side's package, with the benchmark's budget,
timed in process time. A `cli` request is a fresh `python -m
graceful_spiders.cli` with `PYTHONDONTWRITEBYTECODE=1`, in a directory that
holds the round's input documents, timed in the child's CPU time.

The script first serves every request once on each side and exits 1 at the
first request where the two outputs differ (parent array and labels of a
build; witness, count and `exhausted` of a search; exit code and stdout of a
call, except that an `oracle` call's report is compared field by field
without `nodes_explored`), where the new side spends more search nodes (in
process or in an `oracle` call's report), or where a call's exit code is not
the one the request expects. It then runs `--pairs` pairs of timed passes
for each workload. A pass serves every request once on one side, after a
full collection; the two passes of a pair run in alternating order, old
first in even pairs. For each workload it prints each side's median over
the passes of the benchmark's three figures (edges per second, with edges
from `workloads.request_edges`; the median request; the tail of
`perfbench/run.py`), then the pairs' ratios new/old of the total CPU time,
as a median with quartiles, below 1 where the new side is faster.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
from time import process_time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  (the benchmark's tail)
import speed  # noqa: E402  (the benchmark's child CPU reading)
import worker  # noqa: E402  (the benchmark's in-process caller)
import workloads  # noqa: E402  (the benchmark's requests)


class Side:
    """One source tree: its directory, and `worker.InProcess` bound to the
    `graceful_spiders` package under it."""

    def __init__(self, src: str):
        self.src = os.path.abspath(src)
        drop_package()
        sys.path.insert(0, self.src)
        try:
            self.api = worker.InProcess(workloads.CLIENT_BUDGET)
        finally:
            sys.path.remove(self.src)
            drop_package()
        # Bound to another tree, both sides would time one package.
        code_file = self.api.label_doubling_spider.__code__.co_filename
        if not code_file.startswith(self.src + os.sep):
            raise SystemExit(f"{code_file} is not under {self.src}")

    def serve(self, workload: str, req: dict, workdir: str) -> tuple:
        """The output of one request on this side, and its CPU seconds."""
        if workload == "cli":
            env = dict(os.environ, PYTHONPATH=self.src, PYTHONDONTWRITEBYTECODE="1")
            start = speed.children_cpu()
            proc = subprocess.run([sys.executable, "-m", "graceful_spiders.cli", *req["argv"]],
                                  cwd=workdir, env=env, capture_output=True,
                                  timeout=worker.CLI_TIMEOUT_S)
            return (proc.returncode, proc.stdout), speed.children_cpu() - start
        start = process_time()
        try:
            out = self.api.serve(req)
        except Exception as exc:  # the benchmark counts it a failure; compared below
            out = exc
        return out, process_time() - start


def drop_package() -> None:
    """Forget every imported module of the `graceful_spiders` package."""
    for name in [m for m in sys.modules if m.split(".")[0] == "graceful_spiders"]:
        del sys.modules[name]


def outcome(out, req: dict) -> tuple:
    """(plain data, search nodes) of one request's output."""
    if isinstance(out, Exception):
        return (type(out).__name__, str(out)), 0
    if not isinstance(out, tuple):  # a search report
        found = None if out.found is None else dict(out.found.values)
        return (found, out.count, out.exhausted), out.nodes_explored
    if isinstance(out[0], int):  # a call: exit code and stdout
        code, stdout = out
        if code == 0 and req["argv"][0] == "oracle":  # a report: nodes apart
            doc = json.loads(stdout)
            return (code, doc), doc.pop("nodes_explored")
        return out, 0
    spider, lab, *report = out  # a build, or a recheck's build and its search
    search, nodes = outcome(report[0], req) if report else (None, 0)
    return (list(spider.tree.parent), lab.as_sequence(spider.tree.n), search), nodes


def requests(workload: str, seed: int) -> list[dict]:
    rounds = 1 if workload == "cli" else workloads.ROUNDS_PER_20S[workload]
    return [req for r in range(rounds) for req in workloads.GENERATORS[workload](seed, r)]


def check(old: Side, new: Side, workload: str, reqs: list[dict], workdir: str) -> bool:
    """Serve every request once on each side; False at the first fault."""
    nodes = [0, 0]
    for i, req in enumerate(reqs):
        (a, nodes_a), (b, nodes_b) = (outcome(side.serve(workload, req, workdir)[0], req)
                                      for side in (old, new))
        nodes[0] += nodes_a
        nodes[1] += nodes_b
        name = f"{workload} request {i} {req}"
        if a != b:
            print(f"{name}: the two trees give different outputs")
            return False
        if nodes_b > nodes_a:
            print(f"{name}: the new tree spends more nodes ({nodes_b:,} > {nodes_a:,})")
            return False
        if workload == "cli" and a[0] != req["expect"]:
            print(f"{name}: exit {a[0]}, expected {req['expect']}")
            return False
    print(f"{workload}: {len(reqs):,} requests, identical outputs, "
          f"nodes {nodes[0]:,} -> {nodes[1]:,}")
    return True


def compare(old: Side, new: Side, workload: str, reqs: list[dict], workdir: str,
            pairs: int) -> None:
    """Time `pairs` pairs of passes and print the figures."""
    edges = sum(map(workloads.request_edges, reqs))
    passes: dict = {old: [], new: []}  # per pass: (total s, edges/s, p50 ms, tail ms)
    for i in range(pairs):
        for side in (old, new) if i % 2 == 0 else (new, old):
            gc.collect()
            times = [side.serve(workload, req, workdir)[1] for req in reqs]
            total = sum(times)
            passes[side].append((total, edges / total, statistics.median(times) * 1e3,
                                 run.tail(times)[0] * 1e3))
    for label, side in (("old", old), ("new", new)):
        _, eps, p50, tail = (statistics.median(col) for col in zip(*passes[side]))
        print(f"{workload} {label}: {eps:,.0f} edges/s, p50 {p50:.3f} ms, tail {tail:.3f} ms")
    ratios = [b[0] / a[0] for a, b in zip(passes[old], passes[new])]
    q1, q2, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    print(f"{workload} new/old CPU over {pairs} pairs: median {q2:.3f} [{q1:.3f}, {q3:.3f}], "
          f"new faster in {sum(r < 1 for r in ratios)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", help="directory holding the old graceful_spiders package")
    ap.add_argument("new", help="directory holding the new graceful_spiders package")
    ap.add_argument("--pairs", type=int, default=10, help="pairs of timed passes (default 10)")
    ap.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    old, new = Side(args.old), Side(args.new)
    streams = {w: requests(w, args.seed) for w in workloads.GENERATORS}
    print(f"python {sys.version.split()[0]}, seed {args.seed}")
    with tempfile.TemporaryDirectory() as workdir:
        for req in streams["cli"]:
            for name, doc in req["files"].items():
                with open(os.path.join(workdir, name), "w") as fh:
                    json.dump(doc, fh)
        if not all(check(old, new, w, reqs, workdir) for w, reqs in streams.items()):
            return 1
        for w, reqs in streams.items():
            compare(old, new, w, reqs, workdir, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
