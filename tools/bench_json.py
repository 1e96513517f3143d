"""Run the benchmark's four workloads over a list of seeds and write their
end-to-end figures to one JSON file.

Run from the repository root:

    python3 tools/bench_json.py --out bench.json
    python3 tools/bench_json.py --seeds 1 --seconds 1 --out quick.json

For each workload and each seed the script runs `python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0` as a child process, one at a
time, and reads the last line of its stdout: the run's JSON result. It reads
nothing else of the benchmark. It writes one JSON object:

- `base`: `git rev-parse HEAD` of the checkout (null outside git);
  `diff_sha256`: the sha256 of the tracked changes on top of it that can
  move a figure, that is of `git diff --binary --full-index HEAD -- .
  ':(exclude)*.md' ':(exclude)BENCH_*.json'`, or null when that diff is
  empty; and `commit`: `base` when that diff is empty, else null. Once the
  measured tree is committed as C, the same diff between `base` and C
  hashes to `diff_sha256`;
- `python`: the interpreter's version; `seeds` and `seconds` as given;
- `workloads`: for each workload, `runs` (the number of seeds), `correct`
  (the runs whose result says `"correct": true`), and `metrics`: for each
  metric the result carries, its unit and the `median`, `q1` and `q3` of
  its values over the runs that printed a result (all three the one value
  when there is one run).

A run that exits non-zero or prints no result is not correct and gives no
values. The script prints one line per run as it goes and exits 1 when some
run is not correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("build-large", "three-long-mixed", "oracle-small", "cli")
# Files that cannot move a figure: left out of the measured tree's diff.
DOC_PATHS = (":(exclude)*.md", ":(exclude)BENCH_*.json")


def git(*args: str) -> str | None:
    """The stdout of a git command in the checkout, or None."""
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def run_once(workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run, parsed, or None."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def summary(values: list[float]) -> dict:
    """Median and quartiles of `values`."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the JSON file to write")
    ap.add_argument("--seeds", default="1,2,3,4,5",
                    help="comma-separated seeds (default 1,2,3,4,5)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="--seconds of each run (default 20)")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    base = git("rev-parse", "HEAD")
    base = base and base.strip()
    diff = git("diff", "--binary", "--full-index", "HEAD", "--", ".", *DOC_PATHS)
    digest = hashlib.sha256(diff.encode()).hexdigest() if diff else None
    doc = {"commit": base if diff == "" else None, "base": base, "diff_sha256": digest,
           "python": platform.python_version(), "seeds": seeds, "seconds": args.seconds,
           "workloads": {}}
    all_correct = True
    for workload in WORKLOADS:
        results = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds)
            ok = result is not None and result.get("correct") is True
            all_correct &= ok
            print(f"{workload} seed {seed}: {'correct' if ok else 'NOT correct'}", flush=True)
            if result is not None:
                results.append(result)
        metrics = {}
        for result in results:
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, {"unit": metric["unit"], "values": []})
                metrics[name]["values"].append(metric["value"])
        doc["workloads"][workload] = {
            "runs": len(seeds),
            "correct": sum(r.get("correct") is True for r in results),
            "metrics": {name: {"unit": m["unit"], **summary(m["values"])}
                        for name, m in metrics.items()},
        }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
