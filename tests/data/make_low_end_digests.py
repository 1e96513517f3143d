"""Regenerate low_end_digests.json: one frozen sha256 per path size n, over
every closed-form alpha path labeling of P_n.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_low_end_digests.py
    PYTHONPATH=src python3 tests/data/make_low_end_digests.py --max-n 100 --out digests.json

The digest of n covers, in this order, `_alpha_low_end(n, j)` for every j in
[0, alpha + 1], where alpha = ceil(n/2) - 1, and `_zero_at_construct(n, p)`
for every position p in [0, n), in path order (it writes zero first: the
vertex at p, then positions p-1 .. 0, then p+1 .. n-1, so the first p + 1
labels are reversed). A labeling enters as b"+" followed by
`array('i', seq).tobytes()`; an infeasible request or a `None` result
enters as b"-". `_alpha_low_end` refuses an infeasible request with its
band guard's `ConstructionInvariantError`, since every request it gets in
the package comes from a construction; the digest reads that refusal as
an infeasible request. Every labeling of P_n has n labels, so the
stream is unambiguous.

The file is frozen: the tests recompute each digest, so a change to the
construction that alters any labeling fails them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from array import array

MAX_N = 400
DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "low_end_digests.json")


def low_end_digest(n: int) -> str:
    from graceful_spiders.errors import ConstructionInvariantError
    from graceful_spiders.paths import _alpha_low_end, _zero_at_construct

    h = hashlib.sha256()

    def feed(seq):
        h.update(b"-" if seq is None else b"+" + array("i", seq).tobytes())

    for j in range((n + 1) // 2 + 1):
        try:
            seq = _alpha_low_end(n, j)
        except ConstructionInvariantError:
            seq = None
        feed(seq)
    for p in range(n):
        seq = _zero_at_construct(n, p, 1, 0, 0, [0] * n)
        if seq is not None:
            seq[:p + 1] = seq[p::-1]
        feed(seq)
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=MAX_N)
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    digests = {str(n): low_end_digest(n) for n in range(1, args.max_n + 1)}
    with open(args.out, "w") as fh:
        json.dump({"max_n": args.max_n, "digests": digests}, fh, indent=1)
        fh.write("\n")
    print(f"{len(digests)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
