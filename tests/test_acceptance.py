"""Acceptance criteria, one test per criterion.

Each test prints a single line `ACCEPTANCE <id>: PASS (<elapsed>s)` so the
suite output doubles as a checklist. Timing bounds are asserted after a
warm-up call where the criterion is about construction time.
"""

import itertools
import random
import time

import pytest

from graceful_spiders.attach import attach_path
from graceful_spiders.compose import amalgamate, label_three_long_legs
from graceful_spiders.doubling import check_doubling, label_doubling_spider
from graceful_spiders.errors import ValidationError
from graceful_spiders.model import (
    alpha_flip,
    alpha_index,
    AlphaLabeling,
    build_spider,
    is_graceful,
    Labeling,
    path_tree,
)
from graceful_spiders.oracle import enumerate_graceful, find_graceful
from graceful_spiders.paths import zigzag_alpha_path
from graceful_spiders.short_legs import (
    extend_with_leaves,
    formula_spider,
    label_short_leg_spider,
    role_labels,
    short_leg_formula,
    ShortLegSpec,
)

from conftest import figure1_instance

FIG3 = {"center_x": [0, 15, 5, 10, 2, 13, 7, 8, 4, 11, 9, 6], "uv": (14, 1, 12, 3)}
FIG4 = {"center_x": [0, 10, 5, 13, 2, 8, 7, 11, 4, 6, 9], "uv": (14, 1, 12, 3)}


def _report(name, t0):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.3f}s)")
    return elapsed


def test_criterion_01_figure3_golden():
    role_labels(11, 2)  # warm-up
    t0 = time.perf_counter()
    center, x, u, v = role_labels(11, 2)
    lab = short_leg_formula(11, 2)
    elapsed = time.perf_counter() - t0
    assert [center] + x == FIG3["center_x"]
    assert (u[0], v[0], u[1], v[1]) == FIG3["uv"]
    assert is_graceful(formula_spider(11, 2).tree, lab)
    assert elapsed < 0.010
    print(f"ACCEPTANCE 01 figure-3 golden: PASS ({elapsed*1000:.2f}ms)")


def test_criterion_02_figure4_golden():
    role_labels(10, 2)  # warm-up
    t0 = time.perf_counter()
    center, x, u, v = role_labels(10, 2)
    lab = short_leg_formula(10, 2)
    elapsed = time.perf_counter() - t0
    assert [center] + x == FIG4["center_x"]
    assert (u[0], v[0], u[1], v[1]) == FIG4["uv"]
    assert is_graceful(formula_spider(10, 2).tree, lab)
    assert elapsed < 0.010
    print(f"ACCEPTANCE 02 figure-4 golden: PASS ({elapsed*1000:.2f}ms)")


def test_criterion_03_figure1_semi_golden():
    t0 = time.perf_counter()
    tree, lab, u = figure1_instance()
    result = attach_path(tree, lab, u, 7)
    assert is_graceful(result.tree, result.labeling)
    g_labels = sorted(result.labeling[v] for v in range(tree.n))
    assert g_labels == [3, 4, 5, 6, 7, 8, 9]
    assert result.bridge_label == 7
    path_labels = sorted(result.labeling[v] for v in result.path_ids)
    assert path_labels == [0, 1, 2, 10, 11, 12, 13]
    elapsed = _report("03 figure-1 semi-golden", t0)
    assert elapsed < 1.0


def test_criterion_04_formula_sweep():
    t0 = time.perf_counter()
    checked = 0
    for ell in range(1, 201):
        for s in range(2, 51):
            m = 2 * s + ell
            center, x, u, v = role_labels(ell, s)
            labels = [center] + x + [a for pair in zip(u, v) for a in pair]
            assert len(set(labels)) == len(labels) and max(labels) <= m
            # Parity partition from the proof.
            W = {j: [x[i - 1] for i in range(1, ell + 1) if i % 4 == j]
                 for j in range(4)}
            even_side = u + (W[0] + W[3] if ell % 2 else W[0] + W[1])
            odd_side = v + (W[1] + W[2] if ell % 2 else W[2] + W[3])
            assert all(a % 2 == 0 for a in even_side)
            assert all(a % 2 == 1 for a in odd_side)
            # Edge labels, per class.
            diffs = []
            seq = [center] + x
            for i in range(ell):
                d = abs(seq[i] - seq[i + 1])
                r = i % 4
                if ell % 2:
                    want = {0: m - i, 1: m - 2 * s - i,
                            2: abs(m - 4 * s - i), 3: m - 2 * s - i}[r]
                else:
                    want = {0: m - 2 * s - i, 1: abs(m - 4 * s - i),
                            2: m - 2 * s - i, 3: m - i}[r]
                assert d == want
                diffs.append(d)
            for i in range(1, s + 1):
                e1, e2 = u[i - 1], abs(u[i - 1] - v[i - 1])
                if ell % 2:
                    assert e1 == m - 2 * i + 1 and e2 == abs(m - 4 * i + 2)
                else:
                    assert e1 == m - 2 * i + 2 and e2 == abs(m - 4 * i + 3)
                diffs += [e1, e2]
            assert sorted(diffs) == list(range(1, m + 1))
            checked += 1
    # Leaf extension spot checks (t = 5) across the sweep diagonal.
    for ell, s in [(1, 2), (40, 7), (200, 50), (13, 3), (100, 2)]:
        lab0 = short_leg_formula(ell, s)
        t_ext, lab = extend_with_leaves(formula_spider(ell, s).tree, lab0, 0, 5)
        assert is_graceful(t_ext, lab)
    elapsed = _report(f"04 formula sweep ({checked} instances)", t0)
    assert elapsed < 60.0


def _doubling_multisets(total, max_legs):
    out = []

    def rec(prefix, remaining):
        if prefix:
            try:
                check_doubling(list(prefix))
            except ValidationError:
                pass
            else:
                out.append(list(prefix))
        if len(prefix) == max_legs:
            return
        lo = prefix[-1] + 1 if prefix else 1
        for nxt in range(lo, remaining + 1):
            rec(prefix + [nxt], remaining - nxt)

    rec([], total)
    return out


def test_criterion_05_doubling_sweep():
    t0 = time.perf_counter()
    multisets = _doubling_multisets(64, 4)
    assert multisets, "enumeration produced no admissible instances"
    for legs in multisets:
        sp, lab, _ = label_doubling_spider(legs)
        assert is_graceful(sp.tree, lab)
        assert sp.tree.m == sum(legs)
    elapsed = _report(f"05 doubling sweep ({len(multisets)} instances)", t0)
    assert elapsed < 600.0


def test_criterion_06_three_long_sweep():
    t0 = time.perf_counter()
    count = 0
    longs = []
    for k in range(1, 4):
        longs += [list(c) for c in
                  itertools.combinations_with_replacement(range(3, 11), k)]
    shorts = [list(c) for k in range(0, 5)
              for c in itertools.combinations_with_replacement((1, 2), k)]
    for long_part in longs:
        top = sorted(long_part, reverse=True)
        if len(top) >= 2 and top[0] + top[1] + 1 > 24:
            continue
        for short_part in shorts:
            legs = long_part + short_part
            if len(legs) < 2:
                continue
            sp, lab = label_three_long_legs(legs)
            assert is_graceful(sp.tree, lab)
            assert sorted(len(leg) for leg in sp.legs) == sorted(legs)
            count += 1
    elapsed = _report(f"06 three-long sweep ({count} instances)", t0)
    assert elapsed < 600.0


def test_criterion_07_lemma_2c_exhaustive():
    t0 = time.perf_counter()
    for n, forbidden in ((5, {1, 3}), (9, {2, 6})):
        m = n - 1
        report = enumerate_graceful(path_tree(n), alpha_constrained=True)
        assert report.exhausted
        seen = {lab[v] for lab in report.labelings for v in (0, n - 1)}
        assert seen == set(range(m + 1)) - forbidden
    elapsed = _report("07 lemma 2(c) endpoint exclusion", t0)
    assert elapsed < 60.0


def test_criterion_08_lemma_2b_oracle():
    t0 = time.perf_counter()
    report = find_graceful(path_tree(5), fixed={2: 0}, alpha_constrained=True)
    assert report.found is None and report.exhausted
    elapsed = _report("08 lemma 2(b) oracle proof", t0)
    assert elapsed < 5.0


def _spider_leg_multisets(max_edges):
    for m in range(3, max_edges + 1):
        def parts(remaining, max_part):
            if remaining == 0:
                yield []
                return
            for p in range(min(remaining, max_part), 0, -1):
                for rest in parts(remaining - p, p):
                    yield [p] + rest
        for partition in parts(m, m):
            if len(partition) >= 3:
                yield partition


def test_criterion_09_oracle_cross_check():
    t0 = time.perf_counter()
    n_spiders = n_constructions = 0
    for legs in _spider_leg_multisets(12):
        t = build_spider(legs).tree
        report = find_graceful(t)
        assert report.found is not None and is_graceful(t, report.found)
        n_spiders += 1

        produced = []
        try:
            check_doubling(legs)
        except ValidationError:
            pass
        else:
            sp, lab, _ = label_doubling_spider(legs)
            produced.append((sp, lab))
        if sum(1 for x in legs if x >= 3) <= 3:
            sp, lab = label_three_long_legs(legs)
            produced.append((sp, lab))
        if sum(1 for x in legs if x >= 3) <= 1:
            ell = max(legs)
            spec = ShortLegSpec(ell, legs.count(2) - (ell == 2),
                                legs.count(1) - (ell == 1))
            sp, lab = label_short_leg_spider(spec)
            produced.append((sp, lab))
        for sp, lab in produced:
            fixed = {v: lab[v] for v in range(sp.tree.n)}
            check = find_graceful(sp.tree, fixed=fixed)
            assert check.found is not None
            n_constructions += 1
    elapsed = _report(
        f"09 oracle cross-check ({n_spiders} spiders, "
        f"{n_constructions} construction outputs)", t0)
    assert elapsed < 900.0


def _alpha_path_pool(n):
    """Every alpha-labeling of P_n, sorted by label sequence."""
    t = path_tree(n)
    labelings = enumerate_graceful(t, alpha_constrained=True).labelings
    return [AlphaLabeling(t, lab, alpha_index(t, lab))
            for lab in sorted(labelings, key=lambda lab: lab.as_sequence(n))]


def test_criterion_10_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(20260825)
    pools = {n: _alpha_path_pool(n) for n in range(2, 10)}

    # alpha_flip is an index-preserving involution swapping 0 and alpha.
    for _ in range(1000):
        al = rng.choice(pools[rng.randint(2, 9)])
        flipped = alpha_flip(al)
        assert flipped.alpha == al.alpha
        assert alpha_index(al.tree, flipped.labeling) == al.alpha
        back = alpha_flip(flipped)
        assert all(back[v] == al[v] for v in range(al.tree.n))

    # attach_path shifts every host label by floor(n/2) and stays graceful.
    for _ in range(1000):
        spec = ShortLegSpec(rng.randint(1, 6), rng.randint(0, 3), rng.randint(0, 3))
        sp, lab = label_short_leg_spider(spec)
        u = rng.randrange(sp.tree.n)
        n = rng.choice([k for k in range(2 * lab[u] + 2, 2 * lab[u] + 12)
                        if k % 4 != 1])
        result = attach_path(sp.tree, lab, u, n)
        assert all(result.labeling[v] == lab[v] + n // 2 for v in range(sp.tree.n))
        assert is_graceful(result.tree, result.labeling)

    # amalgamate partitions the edge labels: H gets [1, e_H], G the rest.
    for _ in range(1000):
        g = rng.choice(pools[rng.randint(2, 9)])
        u = next(v for v in range(g.tree.n)
                 if g[v] in (0, g.alpha))
        h = zigzag_alpha_path(rng.randint(1, 8))
        v0 = next(v for v in range(h.tree.n) if h[v] == 0)
        tree, lab = amalgamate(g, u, h.tree, h.labeling, v0)
        e_h = h.tree.m
        h_ids = {u} | set(range(g.tree.n, tree.n))
        h_diffs = sorted(abs(lab[a] - lab[b]) for a, b in tree.edges
                         if a in h_ids and b in h_ids)
        assert h_diffs == list(range(1, e_h + 1))
        assert is_graceful(tree, lab)

    # Complementation preserves gracefulness.
    for _ in range(1000):
        al = rng.choice(pools[rng.randint(2, 9)])
        m = al.tree.m
        comp = Labeling({v: m - al[v] for v in range(al.tree.n)})
        assert is_graceful(al.tree, comp)

    _report("10 property suite (4 x 1000 instances)", t0)
