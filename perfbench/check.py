"""Output checker, independent of the program under test.

It re-derives every property from the raw vertex labels and edges and never
calls into the package (in particular not `model.is_graceful` or
`alpha_index`). Each check returns None when the output is accepted and a
one-line reason when it is rejected.
"""

from __future__ import annotations

import json
from typing import Optional

from trees import tree_key


def graceful(n: int, edges, labels) -> Optional[str]:
    """labels: a list indexed by vertex, or a {vertex: label} mapping."""
    m = n - 1
    if len(edges) != m:
        return f"{len(edges)} edges for {n} vertices"
    if isinstance(labels, dict):
        if sorted(labels) != list(range(n)):
            return "labels do not cover exactly the vertices"
        labels = [labels[v] for v in range(n)]
    if len(labels) != n:
        return f"{len(labels)} labels for {n} vertices"
    if len(set(labels)) != n:
        return "labels are not distinct"
    if min(labels) < 0 or max(labels) > m:
        return f"a label lies outside [0, {m}]"
    diffs = sorted(abs(labels[a] - labels[b]) for a, b in edges)
    if diffs != list(range(1, m + 1)):
        return "edge differences are not exactly {1..m}"
    if not _connected(n, edges):
        return "edges do not form a tree"
    return None


def alpha(edges, labels) -> Optional[str]:
    """Some alpha splits every edge into a label <= alpha and one > alpha."""
    if not edges:
        return None
    lows = [min(labels[a], labels[b]) for a, b in edges]
    highs = [max(labels[a], labels[b]) for a, b in edges]
    if max(lows) >= min(highs):
        return "not an alpha-labeling"
    return None


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def spider(n: int, edges, center: int, legs, want_lengths) -> Optional[str]:
    """The tree is a spider at `center` whose legs are `legs` (vertex lists,
    center-adjacent vertex first) with the requested length multiset."""
    if sorted(len(leg) for leg in legs) != sorted(want_lengths):
        return f"leg lengths {sorted(len(l) for l in legs)} != {sorted(want_lengths)}"
    if sum(want_lengths) != n - 1:
        return "vertex count does not match the legs"
    edge_set = {(min(a, b), max(a, b)) for a, b in edges}
    if len(edge_set) != n - 1:
        return "duplicate edges"
    walked = set()
    seen = {center}
    for leg in legs:
        prev = center
        for v in leg:
            if v in seen:
                return f"vertex {v} repeats across legs"
            seen.add(v)
            walked.add((min(prev, v), max(prev, v)))
            prev = v
    if seen != set(range(n)) or walked != edge_set:
        return "legs do not trace the tree's edges"
    return None


def builder_output(req: dict, out: dict) -> Optional[str]:
    if req["op"] == "short":
        want = [req["ell"]] + [2] * req["s"] + [1] * req["t"]
    else:
        want = req["legs"]
    return (spider(out["n"], out["edges"], out["center"], out["legs"], want)
            or graceful(out["n"], out["edges"], out["labels"]))


def search_output(req: dict, out: dict, goldens: dict) -> Optional[str]:
    """Oracle reports: a witness must be valid, a count must match its golden."""
    n, edges = req["n"], req["edges"]
    op = req["op"]
    if op == "count":
        want = goldens.get(tree_key(n, edges))
        if want is None:
            return "no golden count for this tree"
        return None if out["count"] == want else f"count {out['count']} != golden {want}"
    found = out["found"]
    fixed = {int(v): x for v, x in req.get("fixed", {}).items()}
    if found is None:
        if op == "alpha_path" and (n, req["p"]) == (5, 2):
            return None  # Lemma 2(b): the only infeasible zero position
        return "no labeling found for a tree that has one"
    if op == "alpha_path" and (n, req["p"]) == (5, 2):
        return "a labeling was found for P_5 with 0 at the center"
    bad = graceful(n, edges, found)
    if bad:
        return bad
    for v, x in fixed.items():
        if found[v] != x:
            return f"fixed label {v}={x} not respected"
    if op == "alpha_path":
        return alpha(edges, found)
    return None


def cli_output(req: dict, code: int, stdout: str, goldens: dict) -> Optional[str]:
    check = req["check"]
    if req["expect"] == 2:
        if code != 2:
            return f"exit {code}, expected 2"
        return None if '"type": "validation"' in stdout else "no validation error document"
    if code != 0:
        return f"exit {code}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    kind = check["kind"]
    if kind == "verify":
        return None if doc.get("graceful") is True else "verify rejected a graceful labeling"
    if kind == "count":
        return search_output({"op": "count", "n": check["n"], "edges": check["edges"]},
                             doc, goldens)
    if kind == "oracle_path":
        n = check["n"]
        req2 = {"op": "alpha_path", "n": n, "p": check["zero_at"],
                "edges": [[i, i + 1] for i in range(n - 1)],
                "fixed": {check["zero_at"]: 0}}
        found = doc.get("found")
        found = None if found is None else {int(v): x for v, x in found.items()}
        return search_output(req2, {"found": found}, goldens)
    if kind == "export":
        want = check["doc"]
        same = (doc.get("n") == want["n"] and doc.get("edges") == want["edges"]
                and doc.get("labels") == want["labels"])
        return None if same else "export changed the document"
    try:
        n = doc["n"]
        edges = doc["edges"]
        labels = {int(v): x for v, x in doc["labels"].items()}
    except (KeyError, AttributeError, TypeError, ValueError):
        return "output is not a labeled tree document"
    bad = graceful(n, edges, labels)
    if bad:
        return bad
    if kind == "spider":
        return spider(n, edges, doc.get("center"), doc.get("legs") or [], check["legs"])
    if kind == "tree":
        return None if n == check["n"] else f"{n} vertices, expected {check['n']}"
    if kind == "path":
        if n != check["n"] or edges != [[i, i + 1] for i in range(n - 1)]:
            return "not the requested path"
        if "zero_at" in check and labels[check["zero_at"]] != 0:
            return "0 is not at the requested position"
        if "end_label" in check and labels[0] != check["end_label"]:
            return "first endpoint does not carry the requested label"
        if check.get("alpha"):
            bad = alpha(edges, labels)
            if bad:
                return bad
            if doc.get("alpha") != max(min(labels[a], labels[b]) for a, b in edges):
                return "reported alpha index is wrong"
        return None
    return f"unknown check kind {kind}"
