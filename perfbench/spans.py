"""Spans at the package's layer boundaries, recorded from outside.

`install` wraps each layer's public functions and rebinds every
module-level name through which the layer is reached (a function imported
with `from .model import is_graceful` is a separate binding in each
importing module), plus the methods that validate `Tree` and `Spider`.
A span is (name, start, end, parent index, request id); spans stay in memory
until `dump` writes them at the end of the process. `summarize` turns the
spans of a run into per-layer figures; self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name). A span name's first component is its layer.
SPANNED = [
    ("model", "Tree.__init__", "model.Tree"),
    ("model", "Spider.__post_init__", "model.Spider"),
    ("model", "is_graceful", "model.is_graceful"),
    ("model", "alpha_index", "model.alpha_index"),
    ("model", "build_spider", "model.build_spider"),
    ("paths", "graceful_path_zero_at", "paths.zero_at"),
    ("paths", "alpha_path_zero_at", "paths.zero_at"),
    ("paths", "alpha_path_end_label", "paths.end_label"),
    ("paths", "zigzag_alpha_path", "paths.zigzag"),
    ("paths", "PathCache.get", "paths.cache_get"),
    ("paths", "PathCache.put", "paths.cache_put"),
    ("attach", "attach_path", "attach.attach_path"),
    ("doubling", "check_doubling", "doubling.check"),
    ("doubling", "label_doubling_spider", "doubling.label"),
    ("short_legs", "label_short_leg_spider", "short_legs.label"),
    ("short_legs", "short_leg_formula", "short_legs.formula"),
    ("short_legs", "extend_with_leaves", "short_legs.extend"),
    ("short_legs", "short_leg_spider", "short_legs.spider"),
    ("compose", "amalgamate", "compose.amalgamate"),
    ("compose", "label_three_long_legs", "compose.three_long"),
    ("oracle", "find_graceful", "oracle.find"),
    ("oracle", "count_graceful", "oracle.count"),
    ("treedoc", "to_document", "treedoc.to_document"),
    ("treedoc", "from_document", "treedoc.from_document"),
    ("treedoc", "dumps_document", "treedoc.dumps"),
    ("treedoc", "to_dot", "treedoc.to_dot"),
    ("cli", "run", "cli.run"),
]
# Called once per vertex by Spider validation: counted, not spanned.
COUNTED = [("model", "Tree.degree", "model.degree_calls")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1

    def span(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request,
                              None if error is None else type(error).__name__)
                if after is not None and error is None:
                    after(self, args, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str, extra: dict):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extra}, fh)


def _after_is_graceful(tracer, args, result):
    tracer.counts["model.checked_edges"] += args[0].m


def _after_cache_get(tracer, args, result):
    tracer.counts["paths.cache_hits" if result is not None else "paths.cache_misses"] += 1


def _after_search(tracer, args, result):
    tracer.counts["oracle.nodes"] += result.nodes_explored
    if not result.exhausted:
        tracer.counts["oracle.unexhausted"] += 1


AFTER = {
    "model.is_graceful": _after_is_graceful,
    "paths.cache_get": _after_cache_get,
    "oracle.find": _after_search,
    "oracle.count": _after_search,
}


def install(tracer: Tracer) -> None:
    """Wrap every target in the already imported graceful_spiders modules."""
    pkg = "graceful_spiders"
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == pkg or name.startswith(pkg + "."))]
    for modname, attr, name in COUNTED:
        cls_name, meth = attr.split(".")
        cls = getattr(sys.modules[f"{pkg}.{modname}"], cls_name)
        setattr(cls, meth, tracer.counted(name, cls.__dict__[meth]))
    for modname, attr, name in SPANNED:
        owner = sys.modules[f"{pkg}.{modname}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.span(name, cls.__dict__[meth], AFTER.get(name)))
            continue
        orig = getattr(owner, attr)
        wrapped = tracer.span(name, orig, AFTER.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list, counts: Counter) -> dict:
    """Per-layer figures for one run's spans.

    `incl[name]` sums the durations of spans not nested in a span of the same
    name (a provider calling another provider counts once); `calls[name]`
    counts those same spans; `self_by_layer` sums self time per layer.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    incl: Counter = Counter()
    calls: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    errors: Counter = Counter()
    for i, (name, start, end, parent, _, error) in enumerate(spans):
        dur = end - start
        self_t = dur - child_time[i]
        self_by_name[name] += self_t
        self_by_layer[_layer(name)] += self_t
        outer = parent < 0 or spans[parent][0] != name
        if outer:
            incl[name] += dur
            calls[name] += 1
        # An error is counted where it leaves its layer.
        if error and (parent < 0 or _layer(spans[parent][0]) != _layer(name)):
            errors[f"{_layer(name)}.{error}"] += 1
    return {"incl": incl, "calls": calls, "self_by_name": self_by_name,
            "self_by_layer": self_by_layer, "errors": errors, "counts": counts}
