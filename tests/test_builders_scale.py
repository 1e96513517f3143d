"""The spider builders at about 2*10^4 edges, their single certification,
their frozen outputs, and that they write no cache file.

At the sizes below a quadratic step (a per-vertex degree scan, a Tree rebuilt
per attachment) costs tens of seconds; the linear builders take well under a
second each.
"""

import gc
import importlib.util
import json
import os
import sys
import tracemalloc

import pytest

from graceful_spiders.compose import label_three_long_legs
from graceful_spiders.doubling import label_doubling_spider
from graceful_spiders.model import is_graceful
from graceful_spiders.paths import alpha_path_zero_at
from graceful_spiders.short_legs import ShortLegSpec, label_short_leg_spider

BUILDS = {
    "doubling": lambda **kw: label_doubling_spider([500, 1100, 2400, 16000], **kw)[:2],
    "short": lambda **kw: label_short_leg_spider(ShortLegSpec(10000, 4000, 2000), **kw),
    "three_long": lambda **kw: label_three_long_legs([12000, 6000, 1500, 2, 2, 1], **kw),
}

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

SMALL_BUILDS = {
    "doubling": lambda **kw: label_doubling_spider([2, 9, 22, 60], **kw)[:2],
    "doubling_y_leaf": lambda **kw: label_doubling_spider([1, 9, 21, 45], **kw)[:2],
    "short_formula": lambda **kw: label_short_leg_spider(ShortLegSpec(11, 2, 3), **kw),
    "short_s1": lambda **kw: label_short_leg_spider(ShortLegSpec(11, 1, 2), **kw),
    "three_long": lambda **kw: label_three_long_legs([9, 7, 4, 2, 1], **kw),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_large_build_is_graceful(name):
    spider, lab = BUILDS[name]()
    assert spider.tree.m >= 19000
    assert is_graceful(spider.tree, lab)


# The short-leg build of CI's 10^5-edge `spider short` call, which has the
# most legs, and the other two builders at the sizes above.
MEMORY_BUILDS = {
    "short_1e5": lambda: label_short_leg_spider(ShortLegSpec(50000, 20000, 10000)),
    "doubling": BUILDS["doubling"],
    "three_long": BUILDS["three_long"],
}


@pytest.mark.parametrize("name", sorted(MEMORY_BUILDS))
def test_certified_build_holds_its_arrays_only(name):
    # A certified spider holds its parent array and its label list, one int
    # object and one pointer in each per vertex, and its leg lengths: about
    # 74-80 bytes per vertex, where a tuple per leg and an int per leg vertex
    # made it 120-126. A build that makes no container per vertex or per leg
    # runs no garbage collection.
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spider, lab = MEMORY_BUILDS[name]()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(count)
    assert spider.tree.m >= 19000 and is_graceful(spider.tree, lab)
    assert held < 100 * spider.tree.n, held / spider.tree.n
    assert collections == []


@pytest.mark.parametrize("name", sorted(SMALL_BUILDS))
def test_builder_certifies_once(name, monkeypatch):
    calls = []

    def counting(t, lab):
        calls.append(t.m)
        return is_graceful(t, lab)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("graceful_spiders") and (
            getattr(mod, "is_graceful", None) is is_graceful
        ):
            monkeypatch.setattr(mod, "is_graceful", counting)
    spider, lab = SMALL_BUILDS[name]()
    assert calls == [spider.tree.m]
    assert is_graceful(spider.tree, lab)


# The builders and providers take no cache; these check that they write
# nothing under HOME either, where the default cache file used to live.
@pytest.mark.parametrize("name", sorted(SMALL_BUILDS))
def test_closed_form_builds_leave_no_cache_file(name, hermetic_home):
    SMALL_BUILDS[name]()
    assert not any(hermetic_home.iterdir())


def test_closed_form_zero_at_not_cached(hermetic_home):
    alpha_path_zero_at(14, 2)
    assert not any(hermetic_home.iterdir())


def _digest_module():
    spec = importlib.util.spec_from_file_location(
        "make_builder_digests", os.path.join(DATA, "make_builder_digests.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frozen_builder_digests():
    # builder_digests.json was written by make_builder_digests.py with the
    # dict-backed Labeling and the per-edge validators, before either changed.
    module = _digest_module()
    with open(os.path.join(DATA, "builder_digests.json")) as fh:
        digests = json.load(fh)["digests"]
    assert sorted(digests) == sorted(module.CALLS)
    for name, want in digests.items():
        assert module.builder_digest(name) == want, name


def test_frozen_sweep_digests():
    # Every doubling spider with m <= 60 and at least three legs (1,112
    # shapes, 396 of them with a y-leaf), labels and trace, and attach_path
    # on small zigzag hosts; frozen while the doubling builder still shifted
    # its whole host at every step and remapped at the end. Every short-leg
    # spec with ell <= 60, s <= 30, t <= 2, and every pair of long legs with
    # m <= 40 under a few short parts each (2,745 leg lists); frozen while
    # both builders still wrote their labels one vertex at a time.
    module = _digest_module()
    with open(os.path.join(DATA, "builder_digests.json")) as fh:
        sweeps = json.load(fh)["sweeps"]
    assert sorted(sweeps) == sorted(module.SWEEPS)
    shapes = module.doubling_shapes()
    assert len(shapes) == 1112
    assert sum(any(ell % 4 == 1 for ell in legs[1:]) for legs in shapes) == 396
    three_long = module.three_long_shapes()
    assert len(three_long) == 2745
    assert len({tuple(legs[:2]) for legs in three_long}) == 324
    for name, want in sweeps.items():
        assert module.SWEEPS[name]() == want, name
