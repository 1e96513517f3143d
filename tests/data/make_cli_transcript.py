"""Regenerate cli_transcript.json: the exit code and the sha256 of stdout of
small in-process `cli.run` calls, one per line.

The calls cover every subcommand: tree documents as JSON and as DOT,
`--trace`, the values `path` and `attach` add to a document, the oracle
report (without `--trace`, whose `elapsed` is a wall-clock time), the
verify report, and the error documents of exit 2 and exit 3. Each call
reads its input documents from INPUTS, written into a fresh directory and
named by relative paths, so no message depends on where that directory is.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_cli_transcript.py
    PYTHONPATH=src python3 tests/data/make_cli_transcript.py --out transcript.json

The file is frozen: the tests demand the same exit code and the same bytes
on stdout from every call, so a change that alters any CLI output fails
them and has to regenerate the file and say which entry changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_OUT = os.path.join(HERE, "cli_transcript.json")

_P5 = {"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}
# The input files, as JSON values or, for bytes that are not JSON, as bytes.
INPUTS = {
    "p4.json": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]},
    "p5.json": _P5,
    # The spider with two legs of length 2, gracefully labeled.
    "spider.json": {"n": 5, "edges": [[0, 1], [0, 3], [1, 2], [3, 4]],
                    "labels": {"0": 1, "1": 4, "2": 0, "3": 3, "4": 2},
                    "center": 0, "legs": [[1, 2], [3, 4]]},
    "host.json": {"n": 1, "edges": [], "labels": {"0": 0}},
    "g.json": {"n": 3, "edges": [[0, 1], [1, 2]], "labels": {"0": 0, "1": 2, "2": 1}},
    "h.json": {"n": 2, "edges": [[0, 1]], "labels": {"0": 0, "1": 1}},
    "bad.json": {"n": 3, "edges": [[0, 1], [1, 2]], "labels": {"0": 0, "1": 1, "2": 2}},
    "partial.json": {"n": 3, "edges": [[0, 1], [1, 2]], "labels": {"0": 0, "2": 1}},
    "half.json": {"n": 2, "edges": [[0, 1]], "labels": {"0": 0.5, "1": 1}},
    "notutf8.json": b"\xff\xfe",
    "deep.json": b"[" * 5000 + b"]" * 5000,
}

CALLS = [
    ["spider", "doubling", "--legs", "1,6,14"],
    ["spider", "doubling", "--legs", "1,6,14", "--trace"],
    ["spider", "doubling", "--legs", "1,6,14", "--format", "dot"],
    ["spider", "doubling", "--legs", "1,6,14", "--trace", "--format", "dot"],
    ["spider", "doubling", "--legs", "1,5,12"],
    ["spider", "short", "--long", "11", "--two", "2", "--one", "1"],
    ["spider", "short", "--long", "9", "--two", "0", "--one", "2", "--format", "dot"],
    ["spider", "three-long", "--legs", "4,3,3,2,1"],
    ["spider", "three-long", "--legs", "4,4,4,4"],
    ["path", "zigzag", "--n", "8"],
    ["path", "zigzag", "--n", "4", "--format", "dot"],
    ["path", "graceful", "--n", "7", "--position", "3"],
    ["path", "alpha", "--n", "9", "--position", "4"],
    ["path", "alpha", "--n", "9", "--position", "4", "--format", "dot"],
    ["path", "alpha", "--n", "7", "--end-label", "6", "--index", "2"],
    ["path", "alpha", "--n", "5", "--end-label", "1"],
    ["path", "zigzag", "--n", "99999999999999999999"],
    ["attach", "--graph", "spider.json", "--vertex", "0", "--path-len", "4"],
    ["attach", "--graph", "host.json", "--vertex", "0", "--path-len", "3", "--format", "dot"],
    # The three attachment preconditions: n >= 2, n != 1 (mod 4), and
    # f(u) + floor(n/2) + 1 <= n (vertex 1 carries 4).
    ["attach", "--graph", "spider.json", "--vertex", "0", "--path-len", "1"],
    ["attach", "--graph", "spider.json", "--vertex", "0", "--path-len", "5"],
    ["attach", "--graph", "spider.json", "--vertex", "1", "--path-len", "4"],
    ["amalgamate", "--alpha", "g.json", "--u", "0", "--graceful", "h.json", "--v", "0"],
    ["amalgamate", "--alpha", "g.json", "--u", "0", "--graceful", "h.json", "--v", "0",
     "--format", "dot"],
    ["oracle", "--graph", "p5.json"],
    ["oracle", "--graph", "p4.json", "--count"],
    ["oracle", "--graph", "p5.json", "--fix", "2=0", "--alpha"],
    ["oracle", "--graph", "p5.json", "--budget", "1"],
    ["oracle", "--graph", "p5.json", "--count", "--budget", "1"],
    ["oracle", "--graph", "p5.json", "--fix", "0=1", "--fix", "0=2"],
    ["verify", "--graph", "spider.json"],
    ["verify", "--graph", "bad.json"],
    ["verify", "--graph", "partial.json"],
    ["verify", "--graph", "notutf8.json"],
    ["verify", "--graph", "deep.json"],
    ["verify", "--graph", "missing.json"],
    ["export", "--graph", "spider.json"],
    ["export", "--graph", "spider.json", "--format", "dot"],
    ["export", "--graph", "partial.json"],
    ["export", "--graph", "half.json"],
]


def transcript(workdir: str) -> list[dict]:
    """Write INPUTS into `workdir`, run every call there, and return one
    {"argv", "exit", "sha256"} row per call."""
    from graceful_spiders.cli import run

    for name, value in INPUTS.items():
        data = value if type(value) is bytes else json.dumps(value).encode()
        with open(os.path.join(workdir, name), "wb") as fh:
            fh.write(data)
    rows = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in CALLS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run(list(argv))
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            rows.append({"argv": argv, "exit": code, "sha256": digest})
    finally:
        os.chdir(cwd)
    return rows


def main(argv=None) -> int:
    import tempfile

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        rows = transcript(workdir)
    # One call per line keeps the file short and its diffs readable.
    with open(args.out, "w") as fh:
        fh.write('{\n "calls": [\n')
        fh.write(",\n".join("  " + json.dumps(row) for row in rows))
        fh.write("\n ]\n}\n")
    print(f"{len(rows)} calls written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
