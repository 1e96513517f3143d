"""Regenerate builder_digests.json: one frozen sha256 per spider builder call,
plus sweep digests over small doubling, short-leg and three-long spiders and
path attachments.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/make_builder_digests.py
    PYTHONPATH=src python3 tests/data/make_builder_digests.py --out digests.json

The calls are the shapes of tests/test_builders_scale.py plus one shape of
10^5 edges per builder. A call's digest covers, in this order, the vertex
count n as 8 little-endian bytes, the canonical edge list (sorted (min, max)
pairs, flattened) as `array('i', ...).tobytes()`, and the label list by
vertex id, `lab.as_sequence(n)`, in the same form. Every call of one tree
has n labels and n - 1 edges, so the stream is unambiguous.

Each sweep digest hashes one JSON row per case, in order, each followed by a
newline (`json.dumps` of a list, default separators):

- "doubling_m60": every leg list with at least three legs and m <= 60 edges
  that `check_doubling` accepts, in ascending lexicographic order; the row is
  [legs, labels by vertex id, trace], the trace as [operation, params,
  edge_count] per step.
- "attach_zigzag_p12": `attach_path` on the zigzag labeling of P_k, k <= 12,
  at every vertex u and for every path size n <= 40 that meets the
  attachment preconditions; the row is [k, u, n, labels by vertex id, shift,
  bridge_label, path_ids].
- "short_m": `label_short_leg_spider` on every `ShortLegSpec(ell, s, t)` with
  ell <= 60, s <= 30 and t <= 2, ell outermost and t innermost; the row is
  [ell, s, t, labels by vertex id].
- "three_long_pairs_m40": `label_three_long_legs` on the leg lists of
  `three_long_shapes()`: every pair of long legs with m <= 40, each with a
  few short parts (non-increasing lists; the builder's output does not
  depend on the order of the legs); the row is [legs, leg lengths of the
  returned spider, labels by vertex id].
- "paths_n60": the public path providers on every P_n, n <= 60: for each n,
  `zigzag_alpha_path(n)`; `alpha_path_zero_at` and `graceful_path_zero_at`
  at every position; and `alpha_path_end_label` at every end label, each
  with the index None, n // 2 - 1 and (n + 1) // 2 - 1. The row is [provider,
  n, arguments..., result]: the result is [labels by vertex id, alpha] for
  an alpha-labeling, the label list for `graceful_path_zero_at`, and [error
  type, message] when the call raises a `GracefulError`.

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
    "short_s1": ("short", (11, 1, 2)),
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


def doubling_shapes(max_m: int = 60) -> list[list[int]]:
    """Every sorted leg list with at least three legs and at most max_m edges
    that `check_doubling` accepts."""
    from graceful_spiders.doubling import check_doubling
    from graceful_spiders.errors import ValidationError

    out = []

    def grow(legs: list[int], m: int):
        # Every accepted list grows by at least 2*ell + 2 per leg;
        # check_doubling decides the rest.
        if len(legs) >= 3:
            try:
                check_doubling(legs)
                out.append(list(legs))
            except ValidationError:
                pass
        for nxt in range(2 * legs[-1] + 2, max_m - m + 1):
            grow(legs + [nxt], m + nxt)

    for first in range(1, max_m + 1):
        grow([first], first)
    return sorted(out)


def doubling_sweep_digest() -> str:
    from graceful_spiders.doubling import label_doubling_spider

    h = hashlib.sha256()
    for legs in doubling_shapes():
        spider, lab, trace = label_doubling_spider(legs)
        steps = [[s["operation"], s["params"], s["edge_count"]] for s in trace]
        row = [legs, lab.as_sequence(spider.tree.n), steps]
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def attach_sweep_digest() -> str:
    from graceful_spiders.attach import attach_path
    from graceful_spiders.paths import zigzag_alpha_path

    h = hashlib.sha256()
    for k in range(1, 13):
        host = zigzag_alpha_path(k)
        for u in range(k):
            for n in range(2, 41):
                if n % 4 == 1 or host.labeling[u] + n // 2 + 1 > n:
                    continue
                r = attach_path(host.tree, host.labeling, u, n)
                row = [k, u, n, r.labeling.as_sequence(r.tree.n), r.shift,
                       r.bridge_label, list(r.path_ids)]
                h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def short_sweep_digest() -> str:
    from graceful_spiders.short_legs import ShortLegSpec, label_short_leg_spider

    h = hashlib.sha256()
    for ell in range(1, 61):
        for s in range(31):
            for t in range(3):
                spider, lab = label_short_leg_spider(ShortLegSpec(ell, s, t))
                row = [ell, s, t, lab.as_sequence(spider.tree.n)]
                h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def three_long_shapes(max_m: int = 40) -> list[list[int]]:
    """Every pair of long legs ell1 >= ell2 >= 3 with ell1 + ell2 <= max_m,
    each with the short parts below that fit in the r = max_m - ell1 - ell2
    edges left, in ascending lexicographic order of the leg lists.

    The amalgamation table depends only on (ell1, ell2, alpha, |E(H)|), and
    the "short_m" sweep pins the short part itself, so a few short parts per
    pair suffice: none; only 1-legs (one, or r); only 2-legs (one, or
    r // 2); mixed (a 2-leg and a 1-leg, or 2-legs filled up with 1-legs);
    and a third long leg (3; 3, 2, 1; or min(ell2, r) filled up with
    1-legs).
    """
    out = set()
    for ell2 in range(3, max_m // 2 + 1):
        for ell1 in range(ell2, max_m - ell2 + 1):
            r = max_m - ell1 - ell2
            s = max((r - 1) // 2, 0)
            ell3 = min(ell2, r)
            rests = [[], [1], [1] * r, [2], [2] * (r // 2), [2, 1],
                     [2] * s + [1] * (r - 2 * s), [3], [3, 2, 1],
                     [ell3] + [1] * (r - ell3)]
            for rest in rests:
                if sum(rest) <= r and all(0 < x <= ell2 for x in rest):
                    out.add((ell1, ell2, *rest))
    return sorted(map(list, out))


def three_long_sweep_digest() -> str:
    from graceful_spiders.compose import label_three_long_legs

    h = hashlib.sha256()
    for legs in three_long_shapes():
        spider, lab = label_three_long_legs(legs)
        row = [legs, list(spider.leg_lengths), lab.as_sequence(spider.tree.n)]
        h.update(json.dumps(row).encode() + b"\n")
    return h.hexdigest()


def paths_sweep_digest(max_n: int = 60) -> str:
    from graceful_spiders import paths
    from graceful_spiders.errors import GracefulError

    def result(provider, *args):
        try:
            lab = provider(*args)
        except GracefulError as exc:
            return [type(exc).__name__, str(exc)]
        if hasattr(lab, "alpha"):
            return [lab.labeling.as_sequence(lab.tree.n), lab.alpha]
        return lab.as_sequence(len(lab))

    h = hashlib.sha256()

    def row(*fields):
        h.update(json.dumps(list(fields)).encode() + b"\n")

    for n in range(1, max_n + 1):
        row("zigzag", n, result(paths.zigzag_alpha_path, n))
        for p in range(n):
            row("alpha_zero_at", n, p, result(paths.alpha_path_zero_at, n, p))
            row("graceful_zero_at", n, p, result(paths.graceful_path_zero_at, n, p))
        for e in range(n):
            for index in (None, n // 2 - 1, (n + 1) // 2 - 1):
                row("end_label", n, e, index, result(paths.alpha_path_end_label, n, e, index))
    return h.hexdigest()


SWEEPS = {
    "doubling_m60": doubling_sweep_digest,
    "attach_zigzag_p12": attach_sweep_digest,
    "short_m": short_sweep_digest,
    "three_long_pairs_m40": three_long_sweep_digest,
    "paths_n60": paths_sweep_digest,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)

    digests = {name: builder_digest(name) for name in CALLS}
    sweeps = {name: digest() for name, digest in SWEEPS.items()}
    with open(args.out, "w") as fh:
        json.dump({"digests": digests, "sweeps": sweeps}, fh, indent=1)
        fh.write("\n")
    print(f"{len(digests)} digests and {len(sweeps)} sweep digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
