"""Regenerate builder_digests.json: one frozen sha256 per spider builder call.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_builder_digests.py
    PYTHONPATH=src python3 tests/data/make_builder_digests.py --out digests.json

The calls are the shapes of tests/test_builders_scale.py plus one shape of
10^5 edges per builder. A call's digest covers, in this order, the vertex
count n as 8 little-endian bytes, the canonical edge list (sorted (min, max)
pairs, flattened) as `array('i', ...).tobytes()`, and the label list by
vertex id, `lab.as_sequence(n)`, in the same form. Every call of one tree
has n labels and n - 1 edges, so the stream is unambiguous.

The file is frozen: the tests recompute each digest, so a change to a
builder, to `Tree`'s edge normalization or to `Labeling` that alters any
output fails them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from array import array

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "builder_digests.json")

# name -> (builder, argument): "doubling" and "three_long" take a leg list,
# "short" takes (ell, s, t).
CALLS = {
    "doubling": ("doubling", [2, 9, 22, 60]),
    "doubling_y_leaf": ("doubling", [1, 9, 21, 45]),
    "short_formula": ("short", (11, 2, 3)),
    "short_interior_zero": ("short", (11, 1, 2)),
    "three_long": ("three_long", [9, 7, 4, 2, 1]),
    "doubling_2e4": ("doubling", [500, 1100, 2400, 16000]),
    "short_2e4": ("short", (10000, 4000, 2000)),
    "three_long_2e4": ("three_long", [12000, 6000, 1500, 2, 2, 1]),
    "doubling_1e5": ("doubling", [2500, 7000, 20000, 70500]),
    "short_1e5": ("short", (50000, 20000, 10000)),
    "three_long_1e5": ("three_long", [60000, 30000, 9995, 2, 2, 1]),
}


def build(name: str):
    """(spider, labeling) of one call in CALLS."""
    from graceful_spiders.compose import label_three_long_legs
    from graceful_spiders.doubling import label_doubling_spider
    from graceful_spiders.short_legs import ShortLegSpec, label_short_leg_spider

    builder, arg = CALLS[name]
    if builder == "doubling":
        return label_doubling_spider(list(arg))[:2]
    if builder == "short":
        return label_short_leg_spider(ShortLegSpec(*arg))
    return label_three_long_legs(list(arg))


def builder_digest(name: str) -> str:
    spider, lab = build(name)
    t = spider.tree
    h = hashlib.sha256()
    h.update(t.n.to_bytes(8, "little"))
    h.update(array("i", [x for e in t.edges for x in e]).tobytes())
    h.update(array("i", lab.as_sequence(t.n)).tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    digests = {name: builder_digest(name) for name in CALLS}
    with open(args.out, "w") as fh:
        json.dump({"digests": digests}, fh, indent=1)
        fh.write("\n")
    print(f"{len(digests)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
