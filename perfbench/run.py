"""Benchmark for graceful_spiders: one workload per run, stdlib only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the script finds `src/` next to its own
directory). A run is a sequence of rounds; each round is one fresh worker
process with a single closed-loop caller, a fresh HOME and a fresh path
cache file (see worker.py). Requests come from workloads.py, seeded by
--seed; outputs are checked by check.py, which shares no code with the
package. Every reported time is CPU time rescaled to a reference machine
speed (speed.py).

--trace 0 runs a number of rounds that grows with --seconds (the count comes
from the arguments alone, see workloads.ROUNDS_PER_20S) and prints the
end-to-end metrics. --trace 1 runs TRACE_ROUNDS rounds untraced and the
same rounds with spans recorded (spans.py), and prints the per-layer
metrics; no end-to-end metric comes from a traced run. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

The run fails (non-zero exit, no result line) if the package is missing or
if the user's own path cache file changes while it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
TRACE_ROUNDS = 2
ROUND_TIMEOUT_S = 150
FAIL_CLASSES = ("validation", "budget", "invariant", "crash")
BUILD_OPS = ("doubling", "short", "three_long")
SMALL_M, LARGE_M = 512, 2048


class RunError(Exception):
    pass


def user_cache_state():
    """(size, mtime) of the user's default path cache file, or None."""
    path = os.path.join(os.path.expanduser("~"), ".cache", "graceful-spiders", "paths.json")
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_size, st.st_mtime_ns


class Runner:
    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.kind = "cli" if workload == "cli" else "in_process"
        self.spawn_cals: list[float] = []

    def _env(self, round_dir: str) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["HOME"] = os.path.join(round_dir, "home")
        env["GRACEFUL_SPIDERS_CACHE"] = os.path.join(round_dir, "cache", "paths.json")
        return env

    def _spawn(self, round_dir: str, *extra: str):
        """Start a worker; return (process, set-up CPU seconds to its "ready").

        Set-up is the CPU time the worker used up to "ready" plus the CPU
        time this process spent starting it. Each spawn is preceded by a
        calibration (speed.spawn_cpu), kept in self.spawn_cals.
        """
        os.makedirs(os.path.join(round_dir, "home"), exist_ok=True)
        self.spawn_cals.append(speed.spawn_cpu())
        start = process_time()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), round_dir, *extra],
            env=self._env(round_dir), stdout=subprocess.PIPE, text=True)
        ready = proc.stdout.readline().split()
        spawn_cpu = process_time() - start
        if len(ready) != 2 or ready[0] != "ready":
            proc.kill()
            proc.wait()
            raise RunError(f"worker did not start: {ready!r}")
        return proc, float(ready[1]) + spawn_cpu

    def _finish(self, proc):
        try:
            proc.stdout.read()
            code = proc.wait(timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunError("round timed out") from None
        if code != 0:
            raise RunError(f"worker exited with {code}")

    def probe_setup(self) -> float:
        round_dir = tempfile.mkdtemp(dir=self.tmp)
        proc, setup_s = self._spawn(round_dir, "--setup-only")
        self._finish(proc)
        shutil.rmtree(round_dir)
        self.spawn_cals.append(speed.spawn_cpu())
        return setup_s

    def round(self, index: int, trace: bool) -> dict:
        reqs = workloads.GENERATORS[self.workload](self.seed, index)
        round_dir = tempfile.mkdtemp(dir=self.tmp)
        for name, doc in {k: v for r in reqs for k, v in r.get("files", {}).items()}.items():
            with open(os.path.join(round_dir, name), "w") as fh:
                json.dump(doc, fh)
        with open(os.path.join(round_dir, "requests.json"), "w") as fh:
            json.dump({"kind": self.kind, "trace": trace, "requests": reqs,
                       "budget": workloads.CLIENT_BUDGET}, fh)
        proc, setup_s = self._spawn(round_dir)
        self._finish(proc)
        with open(os.path.join(round_dir, "result.json")) as fh:
            out = json.load(fh)
        out["setup_s"] = setup_s
        out["requests"] = reqs
        if trace:
            out["traces"] = []
            for name in sorted(os.listdir(round_dir)):
                if name.startswith("spans"):
                    with open(os.path.join(round_dir, name)) as fh:
                        out["traces"].append(json.load(fh))
        shutil.rmtree(round_dir)
        return out


def outcomes(rounds: list) -> dict:
    """Pool per-request outcomes over rounds."""
    lat, classes, edges_ok, rejected = [], Counter(), 0, []
    by_size = {"small": [0.0, 0], "large": [0.0, 0]}
    for rnd in rounds:
        for req, (latency, cls, bad, note) in zip(rnd["requests"], rnd["results"]):
            m = workloads.request_edges(req)
            if bad is not None:
                rejected.append(f"{req.get('op') or req['argv'][:2]} m={m}: {bad}")
                cls = "invariant"
            lat.append(latency)
            classes[cls] += 1
            if cls != "ok":
                print(f"{cls}: {req.get('op') or ' '.join(req['argv'])} m={m} {note or ''}",
                      file=sys.stderr)
            if cls == "ok":
                edges_ok += m
            if req.get("op") in BUILD_OPS:
                bucket = "small" if m < SMALL_M else "large" if m >= LARGE_M else None
                if bucket:
                    by_size[bucket][0] += latency
                    by_size[bucket][1] += m
    return {"lat": lat, "classes": classes, "edges_ok": edges_ok,
            "rejected": rejected, "by_size": by_size}


def tail(lat: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond."""
    xs = sorted(lat)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runner: Runner, seconds: float):
    setups = [runner.probe_setup() for _ in range(SETUP_PROBES)]
    n_rounds = max(1, round(workloads.ROUNDS_PER_20S[runner.workload] * seconds / 20))
    rounds = [runner.round(i, trace=False) for i in range(n_rounds)]
    setups += [r["setup_s"] for r in rounds]
    o = outcomes(rounds)
    lat = o["lat"]
    value, pct = tail(lat)
    attempted = len(lat)
    ok = o["classes"]["ok"]
    round_s = ", ".join(f"{sum(r[0] for r in rnd['results']):.2f}" for rnd in rounds)
    cal_ms = ", ".join(f"{1000 * statistics.median(r['cals']):.2f}" for r in rounds)
    print(f"{runner.workload}: {len(rounds)} rounds of {round_s} s at reference speed "
          f"(calibration loop median {cal_ms} ms), {attempted} requests; "
          f"req_tail_ms is p{pct:.2f} of {attempted} samples; "
          f"failures {dict((c, o['classes'][c]) for c in FAIL_CLASSES)}")
    metrics = {
        "edges_per_s": metric(o["edges_ok"] / sum(lat), "edges/s"),
        "req_p50_ms": metric(1000 * statistics.median(lat), "ms"),
        "req_tail_ms": metric(1000 * value, "ms"),
        "ok_frac": metric(ok / attempted, "ratio"),
        "setup_s": metric(speed.SPAWN_REF_S * statistics.median(setups)
                          / statistics.median(runner.spawn_cals), "s"),
        "peak_rss_mib": metric(statistics.median(r["rss_kib"] for r in rounds) / 1024, "MiB"),
    }
    return o, attempted, attempted - ok, metrics


def per_layer(runner: Runner):
    # Untraced and traced rounds alternate (A B B A ...), so a drift in the
    # machine's speed cancels out of trace.overhead_frac.
    plain, traced = [], []
    for i in range(TRACE_ROUNDS):
        for trace in ((False, True) if i % 2 == 0 else (True, False)):
            (traced if trace else plain).append(runner.round(i, trace=trace))
    o = outcomes(plain)
    attempted = len(o["lat"])
    ok = o["classes"]["ok"]
    traced_o = outcomes(traced)

    keys = ("incl", "calls", "self_by_name", "self_by_layer", "errors", "counts")
    total = {k: Counter() for k in keys}
    imports = []  # one per traced process: the worker, or each command line call
    for rnd in traced:
        for tr in rnd["traces"]:
            s = spans.summarize(tr["spans"], Counter(tr["counts"]))
            for k in keys:
                total[k].update(s[k])
            imports.append(tr["import_s"])
    incl, calls, self_n, self_l, errors, counts = (total[k] for k in keys)
    gets = counts["paths.cache_hits"] + counts["paths.cache_misses"]
    oracle_s = incl["oracle.find"] + incl["oracle.count"]
    small, large = o["by_size"]["small"], o["by_size"]["large"]

    def us_per_edge(bucket):
        return 1e6 * bucket[0] / bucket[1] if bucket[1] else 0.0

    overhead = sum(traced_o["lat"]) / sum(o["lat"]) - 1
    m = {
        "model.tree_s": metric(incl["model.Tree"], "s"),
        "model.spider_s": metric(incl["model.Spider"], "s"),
        "model.degree_calls": metric(counts["model.degree_calls"], "count"),
        "model.is_graceful_calls": metric(calls["model.is_graceful"], "count"),
        "model.is_graceful_s": metric(incl["model.is_graceful"], "s"),
        "model.checked_edges_per_edge": metric(
            counts["model.checked_edges"] / max(1, traced_o["edges_ok"]), "ratio"),
        "paths.zero_at_calls": metric(calls["paths.zero_at"], "count"),
        "paths.zero_at_s": metric(incl["paths.zero_at"], "s"),
        "paths.end_label_calls": metric(calls["paths.end_label"], "count"),
        "paths.end_label_s": metric(incl["paths.end_label"], "s"),
        "paths.cache_hit_ratio": metric(counts["paths.cache_hits"] / gets if gets else 0.0,
                                        "ratio"),
        "paths.cache_put_s": metric(incl["paths.cache_put"], "s"),
        "paths.cache_bytes": metric(statistics.median(r["cache_bytes"] for r in plain),
                                    "bytes"),
        "paths.budget_errors": metric(errors["paths.ResourceBudgetError"], "count"),
        "attach.calls": metric(calls["attach.attach_path"], "count"),
        "attach.self_s": metric(self_l["attach"], "s"),
        "doubling.self_s": metric(self_l["doubling"], "s"),
        "short_legs.self_s": metric(self_l["short_legs"], "s"),
        "short_legs.formula_s": metric(incl["short_legs.formula"], "s"),
        "compose.amalgamate_s": metric(incl["compose.amalgamate"], "s"),
        "compose.three_long_self_s": metric(self_n["compose.three_long"], "s"),
        "oracle.calls": metric(calls["oracle.find"] + calls["oracle.count"], "count"),
        "oracle.nodes": metric(counts["oracle.nodes"], "count"),
        "oracle.nodes_per_s": metric(counts["oracle.nodes"] / oracle_s if oracle_s else 0.0,
                                     "nodes/s"),
        "oracle.self_s": metric(self_l["oracle"], "s"),
        "oracle.unexhausted": metric(counts["oracle.unexhausted"], "count"),
        "treedoc.to_document_s": metric(incl["treedoc.to_document"], "s"),
        "treedoc.dumps_s": metric(incl["treedoc.dumps"], "s"),
        "treedoc.from_document_s": metric(incl["treedoc.from_document"], "s"),
        "cli.import_s": metric(statistics.median(imports), "s"),
        "cli.run_self_s": metric(self_n["cli.run"], "s"),
        "fail_frac": metric((attempted - ok) / attempted, "ratio"),
        "fail.validation": metric(o["classes"]["validation"], "count"),
        "fail.budget": metric(o["classes"]["budget"], "count"),
        "fail.invariant": metric(o["classes"]["invariant"], "count"),
        "fail.crash": metric(o["classes"]["crash"], "count"),
        "build.us_per_edge.small": metric(us_per_edge(small), "us/edge"),
        "build.us_per_edge.large": metric(us_per_edge(large), "us/edge"),
        "trace.overhead_frac": metric(overhead, "ratio"),
    }
    summary = {
        "workload": runner.workload, "seed": runner.seed, "rounds": TRACE_ROUNDS,
        "spans": {name: {"calls": calls[name], "incl_s": incl[name], "self_s": self_n[name]}
                  for name in sorted(self_n)},
        "errors": dict(errors),
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"trace-{runner.workload}-seed{runner.seed}.json"),
              "w") as fh:
        json.dump(summary, fh, indent=1)
    o["rejected"] += traced_o["rejected"]
    return o, attempted, attempted - ok, m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "graceful_spiders", "__init__.py")):
        print("graceful_spiders sources not found under src/", file=sys.stderr)
        return 2
    before = user_cache_state()
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        runner = Runner(args.workload, args.seed, tmp)
        if args.trace:
            o, attempted, failed, metrics = per_layer(runner)
        else:
            o, attempted, failed, metrics = end_to_end(runner, args.seconds)
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:  # another run is using it
            pass
    if user_cache_state() != before:
        print("the user's ~/.cache/graceful-spiders/paths.json changed during the run",
              file=sys.stderr)
        return 1
    for line in o["rejected"]:
        print(f"rejected: {line}", file=sys.stderr)
    print(json.dumps({"correct": not o["rejected"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
