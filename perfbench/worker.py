"""One round of a workload, in a fresh process.

Usage: python3 worker.py ROUND_DIR [--setup-only]

The process imports the package and creates its cache directory, then prints
"ready" and the CPU seconds it has used so far (the parent's set-up
figure). It then reads ROUND_DIR/requests.json, serves the requests one at a time,
checks each output outside the timed region, and writes
ROUND_DIR/result.json. Request times are CPU times rescaled by speed.Meter:
the worker's own for in-process requests, rescaled by the interpreter loop,
and the command-line process's plus the worker's for cli requests, rescaled
by an interpreter start. The environment (PYTHONPATH, HOME,
GRACEFUL_SPIDERS_CACHE) is set by the parent.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from time import perf_counter, process_time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 60
# Calibrate after this much request CPU time; rescale over this many
# calibrations on each side of a request (about a second either way).
LOOP_EVERY_S, LOOP_WINDOW = 0.1, 10
SPAWN_EVERY_S, SPAWN_WINDOW = 0.4, 3


def setup() -> float:
    start = perf_counter()
    import graceful_spiders.cli  # noqa: F401  (imports every layer)
    import_s = perf_counter() - start
    os.makedirs(os.path.dirname(os.environ["GRACEFUL_SPIDERS_CACHE"]), exist_ok=True)
    return import_s


def classify(exc: BaseException) -> str:
    from graceful_spiders.errors import (
        ConstructionInvariantError,
        ResourceBudgetError,
        ValidationError,
    )
    if isinstance(exc, ValidationError):
        return "validation"
    if isinstance(exc, ResourceBudgetError):
        return "budget"
    if isinstance(exc, ConstructionInvariantError):
        return "invariant"
    return "crash"


class InProcess:
    """Calls the package's public functions, looked up after any wrapping."""

    def __init__(self, budget: int):
        from graceful_spiders import compose, doubling, model, oracle, short_legs
        self.budget = budget
        self.Tree = model.Tree
        self.path_tree = model.path_tree
        self.label_doubling_spider = doubling.label_doubling_spider
        self.ShortLegSpec = short_legs.ShortLegSpec
        self.label_short_leg_spider = short_legs.label_short_leg_spider
        self.label_three_long_legs = compose.label_three_long_legs
        self.find_graceful = oracle.find_graceful
        self.count_graceful = oracle.count_graceful

    def build(self, op: str, req: dict):
        if op == "doubling":
            spider, lab, _ = self.label_doubling_spider(req["legs"], budget=self.budget)
        elif op == "short":
            if "legs" in req:  # a leg multiset with at most one leg >= 3
                ell = max(req["legs"])
                spec = self.ShortLegSpec(ell, req["legs"].count(2) - (ell == 2),
                                         req["legs"].count(1) - (ell == 1))
            else:
                spec = self.ShortLegSpec(req["ell"], req["s"], req["t"])
            spider, lab = self.label_short_leg_spider(spec, budget=self.budget)
        else:
            spider, lab = self.label_three_long_legs(req["legs"], budget=self.budget)
        return spider, lab

    def serve(self, req: dict):
        """The timed part of a request. Returns raw program objects."""
        op = req["op"]
        if op in ("doubling", "short", "three_long"):
            return self.build(op, req)
        if op == "find":
            return self.find_graceful(self.Tree(req["n"], req["edges"]), budget=self.budget)
        if op == "count":
            return self.count_graceful(self.Tree(req["n"], req["edges"]), budget=self.budget)
        if op == "alpha_path":
            return self.find_graceful(self.path_tree(req["n"]), fixed={req["p"]: 0},
                                      budget=self.budget, alpha_constrained=True)
        if op == "recheck":
            spider, lab = self.build(req["builder"], req)
            fixed = {v: lab[v] for v in range(spider.tree.n)}
            return spider, lab, self.find_graceful(spider.tree, fixed=fixed, budget=self.budget)
        raise ValueError(f"unknown op {op}")


def spider_data(spider, lab) -> dict:
    t = spider.tree
    return {"n": t.n, "edges": [list(e) for e in t.edges],
            "labels": {v: x for v, x in lab.values.items()},
            "center": spider.center, "legs": [list(leg) for leg in spider.legs]}


def judge(req: dict, out, goldens: dict) -> tuple[str, str | None]:
    """(class, rejection reason) for a request that returned normally."""
    import check
    op = req["op"]
    if op in ("doubling", "short", "three_long"):
        return "ok", check.builder_output(req, spider_data(*out))
    if op == "recheck":
        spider, lab, report = out
        data = spider_data(spider, lab)
        bad = check.builder_output(req, data)
        if bad is None and report.exhausted and report.found is None:
            bad = "the oracle rejected a construction's labeling"
        if not report.exhausted:
            return "budget", bad
        return "ok", bad
    if not out.exhausted:
        return "budget", None
    found = None if out.found is None else dict(out.found.values)
    data = {"found": found, "count": out.count}
    if op == "alpha_path":
        n = req["n"]
        req = dict(req, edges=[[i, i + 1] for i in range(n - 1)], fixed={req["p"]: 0})
    return "ok", check.search_output(req, data, goldens)


def run_in_process(spec: dict, tracer, meter: speed.Meter) -> list:
    api = InProcess(spec["budget"])
    results = []
    for i, req in enumerate(spec["requests"]):
        if tracer is not None:
            tracer.request = i
        meter.between()
        start = process_time()
        try:
            out = api.serve(req)
        except Exception as exc:  # every failure is classified and counted
            cpu_s = process_time() - start
            results.append([cpu_s, classify(exc), None, type(exc).__name__])
            meter.record(results[-1], cpu_s)
            continue
        cpu_s = process_time() - start
        cls, bad = judge(req, out, spec["goldens"])
        results.append([cpu_s, cls, bad, None])
        meter.record(results[-1], cpu_s)
    return results


def run_cli(spec: dict, round_dir: str, traced: bool, meter: speed.Meter) -> list:
    import check
    env = dict(os.environ)
    results = []
    for i, req in enumerate(spec["requests"]):
        meter.between()
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "launch_cli.py")] + req["argv"]
            env["PERFBENCH_SPANS"] = os.path.join(round_dir, f"spans-{i}.json")
        else:
            cmd = [sys.executable, "-m", "graceful_spiders.cli"] + req["argv"]
        # The calls run one at a time, so the growth of the children's CPU
        # time is this call's.
        start, start_children = process_time(), speed.children_cpu()
        try:
            proc = subprocess.run(cmd, cwd=round_dir, env=env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            cpu_s = process_time() - start + speed.children_cpu() - start_children
            results.append([cpu_s, "crash", None, "timeout"])
            meter.record(results[-1], cpu_s)
            continue
        cpu_s = process_time() - start + speed.children_cpu() - start_children
        code = proc.returncode
        cls = {0: "ok", 2: "validation", 3: "budget", 4: "invariant"}.get(code, "crash")
        bad = None
        if cls == "ok" or code == req["expect"]:
            bad = check.cli_output(req, code, proc.stdout, spec["goldens"])
            cls = "ok"
        results.append([cpu_s, cls, bad, None if code in (0, 2, 3, 4) else f"exit {code}"])
        meter.record(results[-1], cpu_s)
    return results


def main(argv: list[str]) -> int:
    round_dir = argv[1]
    import_s = setup()
    print(f"ready {process_time()!r}", flush=True)
    if "--setup-only" in argv:
        return 0
    with open(os.path.join(round_dir, "requests.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "goldens.json")) as fh:
        spec["goldens"] = json.load(fh)["counts"]
    tracer = None
    if spec["trace"] and spec["kind"] == "in_process":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    if spec["kind"] == "cli":
        meter = speed.Meter(speed.spawn_cpu, speed.SPAWN_REF_S, SPAWN_EVERY_S, SPAWN_WINDOW)
        results = run_cli(spec, round_dir, spec["trace"], meter)
        meter.finish()
        rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        meter = speed.Meter(speed.loop_cpu, speed.LOOP_REF_S, LOOP_EVERY_S, LOOP_WINDOW)
        results = run_in_process(spec, tracer, meter)
        meter.finish()
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache = os.environ["GRACEFUL_SPIDERS_CACHE"]
    cache_bytes = os.path.getsize(cache) if os.path.exists(cache) else 0
    if tracer is not None:
        tracer.dump(os.path.join(round_dir, "spans.json"), {"import_s": import_s})
    with open(os.path.join(round_dir, "result.json"), "w") as fh:
        json.dump({"results": results, "rss_kib": rss_kib, "cache_bytes": cache_bytes,
                   "import_s": import_s, "cals": meter.cals}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
