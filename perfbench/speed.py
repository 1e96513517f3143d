"""CPU time rescaled to a reference machine speed.

On a shared host the speed of a vCPU moves by a fifth or more within
seconds, as other tenants load the machine: on two shared vCPUs the same
pure-Python loop took 15 ms (median over one second) and 21 ms a few
seconds later, in CPU time as well as in wall time. Medians over a run do
not remove a drift that lasts longer than the run, so every time the
benchmark reports is the CPU time of the work, rescaled by a calibration
that runs between requests:

    reported = cpu_time * REF / (what the calibration takes at that moment)

The two calibrations never call the package, so a change to the program
moves the reported times and a change in the machine's speed moves them
much less:

- `loop_cpu`, for work inside one process: a loop of the kind of
  interpreter work the package does (integer arithmetic, list and dict
  building, set membership, a sort) on about a megabyte of data, which is
  also all it adds to the caller's peak resident size;
- `spawn_cpu`, for work that starts processes (set-up, command-line
  calls): starting an interpreter that imports a few standard modules.

A reported time is the time the work would take on a machine where the
calibration takes REF. Single calibrations are noisy at the scale of a few
milliseconds, and now and then one is interrupted and takes several times
as long, so a request is rescaled by the median of a window of the
calibrations around it; the drift they correct for lasts seconds.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
from time import process_time

LOOP_N = 8000
LOOP_REF_S = 0.004
SPAWN_ARGV = [sys.executable, "-I", "-c", "import argparse, json"]
SPAWN_REF_S = 0.075


def _loop(n: int) -> int:
    labels = [(i * 7919) % n for i in range(n)]
    where = {x: i for i, x in enumerate(labels)}
    seen = set()
    for i in range(1, n):
        d = abs(labels[i] - labels[i - 1])
        if d not in seen:
            seen.add(d)
    order = sorted(range(n), key=labels.__getitem__)
    return len(seen) + len(where) + order[0]


def loop_cpu() -> float:
    """CPU seconds the interpreter loop takes now."""
    start = process_time()
    _loop(LOOP_N)
    return process_time() - start


def children_cpu() -> float:
    """CPU seconds used by this process's ended children so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def spawn_cpu() -> float:
    """CPU seconds, this process's and the child's, to run SPAWN_ARGV now."""
    start, start_children = process_time(), children_cpu()
    subprocess.run(SPAWN_ARGV, check=True, stdout=subprocess.DEVNULL)
    return process_time() - start + children_cpu() - start_children


class Meter:
    """Calibrates between requests and rescales their CPU times.

    `between()` goes before each request; it calibrates once at least
    `every_s` of request CPU time has passed since the last calibration.
    A request is rescaled by the median of the `window` calibrations before
    it and the `window` after it (fewer at the ends of the round).
    """

    def __init__(self, calibrate, ref_s: float, every_s: float, window: int):
        self.calibrate, self.ref_s = calibrate, ref_s
        self.every_s, self.window = every_s, window
        self.cals = [calibrate()]
        self.rows: list = []  # (row, cpu_s, index of the calibration before)
        self.since = 0.0

    def between(self) -> None:
        if self.since >= self.every_s:
            self.cals.append(self.calibrate())
            self.since = 0.0

    def record(self, row: list, cpu_s: float) -> None:
        """Note that row[0] is a request's CPU time; `finish` rescales it."""
        self.rows.append((row, cpu_s, len(self.cals) - 1))
        self.since += cpu_s

    def finish(self) -> None:
        self.cals.append(self.calibrate())
        for row, cpu_s, i in self.rows:
            near = self.cals[max(0, i + 1 - self.window):i + 1 + self.window]
            row[0] = cpu_s * self.ref_s / statistics.median(near)

