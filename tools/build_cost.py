"""Time and memory of one certified build by each spider builder at m edges.

Run from the repository root, with the package importable:

    PYTHONPATH=src python3 tools/build_cost.py
    PYTHONPATH=src python3 tools/build_cost.py --m 100000

The leg lists are those of the CI's 10^5-edge `spider doubling`, `spider
short` and `spider three-long` calls, scaled to m edges: doubling
[m/100, m/25, m/5, the rest], short ShortLegSpec(m/2, m/5, the rest) and
three-long [3m/5, 3m/10, the rest, 2, 2, 1]; `short_s1` is the short-leg
builder with one 2-leg, ShortLegSpec(m - 4, 1, 2), as CI's `spider short
--two 1` call. For each the script prints one line:

- `build_s`, the process time of one certified build;
- `certify_s`, the process time of `model.is_graceful` on that build's
  result, the final check that the build's own `certified` call makes, so
  its share of `build_s` shows;
- `to_document_s`, the process time of `treedoc.to_document` on its result;
- `from_document_s`, the process time of `treedoc.from_document` on that
  document after a JSON round trip, as the CLI reads a file, and
  `read_held_B` and `read_peak_B`, the bytes that tracemalloc sees what it
  returns hold and the peak it reaches, read again under tracing;
- `held_B` and `peak_B`, the bytes that tracemalloc sees the build's result
  hold and the peak it reaches during a second, traced build, both above
  what was allocated before it, and `held_B` per vertex;
- `gc`, the number of garbage-collector runs during the untraced build.

It then prints one `amalgamate` line at m edges: a zigzag alpha path G with
m/5 edges and a graceful path H with the rest, joined at H's vertex
v = n_H/3, whose joined parent array is not increasing and so takes the
leaf peel of `Tree`. `amalgamate_s` is the process time of the join, and
`tree_s` that of `Tree(n, parent=p)` on the joined array.

Last it prints one `zero_at` line: the process time of `alpha_path_zero_at`
on each of its three routes at about m edges. `one_step` is P_{m+1} at
position (m+1)/4, which one band step labels; `residue` is P_{6k+2} at
position 2k, the shorter arm closed by a block and then a band; `center` is
the center of P_{4s+1}, a P_6 block taken through two band steps.

Each build starts after a full collection, so the collector's counters do
not carry over from the build before it. The script prints figures and
checks no threshold: `certify_s`, like every other figure, is printed and
not checked.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from time import process_time

from graceful_spiders.compose import amalgamate, label_three_long_legs
from graceful_spiders.doubling import label_doubling_spider
from graceful_spiders.model import Tree, is_graceful, path_tree
from graceful_spiders.paths import alpha_path_zero_at, graceful_path_zero_at, zigzag_alpha_path
from graceful_spiders.short_legs import ShortLegSpec, label_short_leg_spider
from graceful_spiders.treedoc import from_document, to_document


def builders(m: int) -> list:
    """(name, build) for each builder at m edges; build() returns
    (spider, labeling)."""
    legs = [m // 100, m // 25, m // 5]
    doubling = legs + [m - sum(legs)]
    ell, s = m // 2, m // 5
    three = [3 * m // 5, 3 * m // 10]
    three += [m - sum(three) - 5, 2, 2, 1]
    return [
        ("doubling", lambda: label_doubling_spider(doubling)[:2]),
        ("short", lambda: label_short_leg_spider(ShortLegSpec(ell, s, m - ell - 2 * s))),
        ("short_s1", lambda: label_short_leg_spider(ShortLegSpec(m - 4, 1, 2))),
        ("three-long", lambda: label_three_long_legs(three)),
    ]


def traced(make) -> tuple[int, int]:
    """The bytes that tracemalloc sees what make() returns hold, and the
    peak reached while making it, both above what was allocated before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = make()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held - base, peak - base


def measure(build) -> dict:
    """The figures of one builder: an untraced build, `is_graceful`,
    `to_document` and `from_document` timed, then a traced build and a
    traced read for memory."""
    runs = []

    def count(phase, info):
        if phase == "start":
            runs.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        start = process_time()
        spider, lab = build()
        build_s = process_time() - start
    finally:
        gc.callbacks.remove(count)
    start = process_time()
    is_graceful(spider.tree, lab)
    certify_s = process_time() - start
    start = process_time()
    doc = to_document(spider.tree, lab, spider)
    doc_s = process_time() - start
    n = spider.tree.n
    del spider, lab
    doc = json.loads(json.dumps(doc))
    start = process_time()
    from_document(doc)
    read_s = process_time() - start
    read_held, read_peak = traced(lambda: from_document(doc))
    del doc
    held, peak = traced(build)
    return {"n": n, "build_s": build_s, "certify_s": certify_s, "to_document_s": doc_s,
            "from_document_s": read_s,
            "read_held_B": read_held, "read_peak_B": read_peak,
            "held_B": held, "peak_B": peak,
            "held_B_per_vertex": held / n, "gc": len(runs)}


def amalgamated(m: int) -> tuple[int, int, float, float]:
    """(n, v, amalgamate_s, tree_s) of the `amalgamate` at v != 0 on m edges."""
    g = zigzag_alpha_path(m // 5 + 1)
    n_h = m - m // 5 + 1
    v = n_h // 3
    h_tree, h_lab = path_tree(n_h), graceful_path_zero_at(n_h, v)
    gc.collect()
    start = process_time()
    tree, _ = amalgamate(g, 0, h_tree, h_lab, v)
    amalgamate_s = process_time() - start
    start = process_time()
    Tree(tree.n, parent=tree.parent)
    return tree.n, v, amalgamate_s, process_time() - start


def zero_at_routes(m: int) -> list[tuple[str, int, int]]:
    """(route, n, position) of each `alpha_path_zero_at` route at about m
    edges, m >= 1,000."""
    k, s = (m - 1) // 6, m // 4
    return [("one_step", m + 1, (m + 1) // 4), ("residue", 6 * k + 2, 2 * k),
            ("center", 4 * s + 1, 2 * s)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=10**6,
                    help="edges per spider, at least 1,000 (default 10^6)")
    args = ap.parse_args(argv)
    if args.m < 1000:
        ap.error("--m must be at least 1000")
    print(f"python {sys.version.split()[0]}, m = {args.m:,}")
    for name, build in builders(args.m):
        r = measure(build)
        print(f"{name:<10} n={r['n']:,} build_s={r['build_s']:.3f} "
              f"certify_s={r['certify_s']:.3f} "
              f"to_document_s={r['to_document_s']:.3f} "
              f"from_document_s={r['from_document_s']:.3f} read_held_B={r['read_held_B']:,} "
              f"read_peak_B={r['read_peak_B']:,} "
              f"held_B={r['held_B']:,} "
              f"peak_B={r['peak_B']:,} held_B_per_vertex={r['held_B_per_vertex']:.1f} "
              f"gc={r['gc']}")
    n, v, amalgamate_s, tree_s = amalgamated(args.m)
    print(f"{'amalgamate':<10} n={n:,} v={v:,} amalgamate_s={amalgamate_s:.3f} tree_s={tree_s:.3f}")
    routes = []
    for route, n, p in zero_at_routes(args.m):
        gc.collect()
        start = process_time()
        alpha_path_zero_at(n, p)
        routes.append(f"{route} n={n:,} p={p:,} s={process_time() - start:.3f}")
    print(f"{'zero_at':<10} " + "; ".join(routes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
