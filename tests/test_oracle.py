import hashlib
import itertools
import json
import os
import time
from collections import Counter

import pytest

from graceful_spiders.errors import ValidationError
from graceful_spiders.model import (
    Labeling,
    Tree,
    alpha_index,
    build_spider,
    is_graceful,
    path_tree,
)
from graceful_spiders.oracle import (
    _search_order,
    count_graceful,
    enumerate_graceful,
    find_graceful,
)
from graceful_spiders.paths import zigzag_alpha_path
from graceful_spiders.short_legs import ShortLegSpec, label_short_leg_spider

# Frozen by exhaustive enumeration; regression constants.
GRACEFUL_COUNTS = {"P2": 2, "P4": 4, "P5": 8, "K13": 12}

# Counts of every tree with at most 9 vertices, written by
# tests/data/make_oracle_counts.py with the backtracking oracle that
# predates the difference-driven search.
ORACLE_COUNTS = os.path.join(os.path.dirname(__file__), "data", "oracle_counts.json")

ALPHA_ZERO_AT_WITNESSES = "9698fccdd92cf334f98e4aba03686874e01f9cf1e47f5519322429a41a00d1a3"

# First witnesses of find_graceful and the nodes spent on them, written by
# tests/data/make_oracle_witnesses.py with the oracle whose forward check
# looked at the largest unused difference only.
ORACLE_WITNESSES = os.path.join(os.path.dirname(__file__), "data", "oracle_witnesses.json")

# First witness (by vertex id) of find_graceful on build_spider(legs), and
# the nodes the label-scanning search spent to reach it.
FROZEN_WITNESSES = [
    ([9, 1, 1], [0, 9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 11], 1_781_550),
    ([8, 2, 1], [0, 5, 3, 9, 1, 8, 4, 7, 6, 11, 2, 10], 746_586),
    ([4, 4, 3], [0, 1, 9, 4, 6, 11, 2, 8, 5, 10, 3, 7], 133_902),
]
# The nodes the search whose forward check looked at the largest unused
# difference only spent on the same witnesses.
TOP_DIFFERENCE_NODES = {(9, 1, 1): 51_084, (8, 2, 1): 20_332, (4, 4, 3): 5_546}
# One long leg and 1-legs: the center takes label 0 first, and without the
# root-children check the search spent 5,676, 7,922, 13,792, 21,333 and
# 29,300 nodes in long-leg branches that left the 1-legs no labels; with it
# but without the forced root leaves, 453, 2,036, 5,189, 12,758 and 23,998.
# The witness (by vertex id) and the nodes the search spends with both.
ROOT_CHECK_NODES = {
    (5, 1, 1, 1, 1, 1, 1): ([0, 5, 1, 4, 2, 3, 6, 7, 8, 9, 10, 11], 18),
    (6, 1, 1, 1, 1, 1): ([0, 6, 1, 5, 2, 4, 3, 7, 8, 9, 10, 11], 21),
    (7, 1, 1, 1, 1): ([0, 7, 1, 6, 2, 5, 3, 4, 8, 9, 10, 11], 24),
    (8, 1, 1, 1): ([0, 8, 1, 7, 2, 6, 3, 5, 4, 9, 10, 11], 28),
    (9, 1, 1): ([0, 9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 11], 32),
}


class TestFind:
    def test_star_fixed_center(self):
        report = find_graceful(build_spider([1, 1, 1]).tree, fixed={0: 0})
        assert report.found is not None
        assert sorted(report.found[v] for v in range(4)) == [0, 1, 2, 3]

    def test_lemma_2b_exception(self):
        report = find_graceful(path_tree(5), fixed={2: 0}, alpha_constrained=True)
        assert report.found is None and report.exhausted

    def test_fixed_label_keeps_its_class_range(self):
        # Graceful, but its low labels 0, 1, 2 are not on one side of the
        # bipartition, so no class layout admits it.
        fixed = dict(enumerate([1, 2, 4, 0, 3]))
        report = find_graceful(path_tree(5), fixed=fixed, alpha_constrained=True)
        assert report.found is None and report.exhausted
        assert report.nodes_explored == 0  # every layout leaves a vertex no label

    def test_alpha_zero_at_witnesses(self):
        # The 0 at every position of P_2..P_12: the first witnesses are
        # frozen by the sha256 of their JSON list, taken when a fixed label
        # still overrode its class range, which cost 226,483 nodes in all;
        # 109,673 before the forced root leaves and the taken fixed labels,
        # 47,592 with the first alone and 23,818 with the second alone.
        witnesses, nodes = [], 0
        for n in range(2, 13):
            for p in range(n):
                report = find_graceful(path_tree(n), fixed={p: 0}, alpha_constrained=True)
                nodes += report.nodes_explored
                found = report.found
                witnesses.append(None if found is None else found.as_sequence(n))
        digest = hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()
        assert digest == ALPHA_ZERO_AT_WITNESSES
        assert nodes <= 21_194

    def test_graceful_but_not_alpha_exists(self):
        report = find_graceful(path_tree(5), fixed={2: 0})
        assert report.found is not None
        assert is_graceful(path_tree(5), report.found)

    def test_spider_witnesses(self):
        for legs in ([2, 2, 2], [3, 3, 3], [1, 1, 1, 1, 1], [4, 2, 1]):
            t = build_spider(legs).tree
            report = find_graceful(t)
            assert report.found is not None and is_graceful(t, report.found)

    def test_budget_stop_not_exhausted(self):
        report = find_graceful(build_spider([5, 5, 5]).tree, budget=10)
        assert report.found is None and not report.exhausted

    @pytest.mark.parametrize("search", [find_graceful, count_graceful, enumerate_graceful])
    def test_negative_budget_rejected(self, search):
        with pytest.raises(ValidationError, match="budget must be >= 0, got -1"):
            search(path_tree(3), budget=-1)
        assert not search(path_tree(3), budget=0).exhausted

    def test_fixed_validation(self):
        with pytest.raises(ValidationError):
            find_graceful(path_tree(3), fixed={5: 0})
        with pytest.raises(ValidationError):
            find_graceful(path_tree(3), fixed={0: 9})
        with pytest.raises(ValidationError):
            find_graceful(path_tree(3), fixed={0: 1, 1: 1})

    def test_fully_fixed_checks_a_labeling(self):
        # Fixing every vertex turns the oracle into an independent checker.
        report = find_graceful(path_tree(7), fixed=dict(enumerate([0, 6, 1, 5, 2, 4, 3])))
        assert report.found is not None

    @pytest.mark.parametrize("legs,witness,old_nodes", FROZEN_WITNESSES)
    def test_same_witness_fewer_nodes(self, legs, witness, old_nodes):
        t = build_spider(legs).tree
        report = find_graceful(t)
        assert report.found.as_sequence(t.n) == witness
        assert report.nodes_explored < old_nodes
        assert report.nodes_explored < TOP_DIFFERENCE_NODES[tuple(legs)]

    @pytest.mark.parametrize("legs", sorted(ROOT_CHECK_NODES))
    def test_root_children_check_nodes(self, legs):
        witness, nodes = ROOT_CHECK_NODES[legs]
        t = build_spider(list(legs)).tree
        report = find_graceful(t)
        assert report.found.as_sequence(t.n) == witness
        assert report.nodes_explored <= nodes

    def test_deep_fully_fixed_path(self):
        # 1200 vertices: deeper than the interpreter's recursion limit.
        al = zigzag_alpha_path(1200)
        fixed = dict(al.labeling.values)
        report = find_graceful(al.tree, fixed=fixed)
        assert report.found is not None and report.exhausted
        assert report.found.values == fixed
        # With one vertex free the search itself runs all 1200 levels deep.
        del fixed[1199]
        report = find_graceful(al.tree, fixed=fixed)
        assert report.found == al.labeling and report.nodes_explored == 1200

    def test_deterministic_node_count(self):
        t = build_spider([3, 3, 2]).tree
        assert find_graceful(t).nodes_explored == find_graceful(t).nodes_explored


# sha256 of the reports of fully fixed searches, frozen from the search that
# checked a fully fixed labeling by backtracking: every permutation labeling
# of every tree with at most 6 vertices, under find, count and enumerate,
# plain and alpha, at budget n, and again at budget n - 1 where budget n
# accepts the labeling. (The default budget read the same as budget n on
# every one of them: a fully fixed search tries at most n nodes.)
FULLY_FIXED_REPORTS = "5f8345c0e7caebc2fcb1f8d30281d33a20679cbb02398995e54d8aea7ba0d22c"


class TestFullyFixed:
    def test_every_permutation_up_to_six_vertices(self):
        with open(ORACLE_COUNTS) as fh:
            trees = [Tree(row["n"], row["edges"]) for row in json.load(fh)["trees"]
                     if row["n"] <= 6]
        searches = (find_graceful, count_graceful, enumerate_graceful)
        digest, searched = hashlib.sha256(), 0
        for t in trees:
            n = t.n
            for perm in itertools.permutations(range(n)):
                fixed = dict(enumerate(perm))
                for search, alpha in itertools.product(searches, (False, True)):
                    for budget in (n, n - 1):
                        report = search(t, fixed=fixed, budget=budget, alpha_constrained=alpha)
                        found = None if report.found is None else report.found.as_sequence(n)
                        digest.update(json.dumps([
                            found, report.count, report.nodes_explored, report.exhausted,
                            [lab.as_sequence(n) for lab in report.labelings]]).encode())
                        searched += 1
                        if found is None and not report.count:
                            break
        assert searched == 30_972
        assert digest.hexdigest() == FULLY_FIXED_REPORTS

    @pytest.mark.parametrize("build", ["zigzag", "short", "zigzag-alpha", "short-alpha"])
    def test_any_size_in_one_pass(self, build):
        # 10^5 edges: the search spent about 5 s on the zigzag path, and
        # 5.4 s and 1.24 s on the two alpha searches.
        if build.startswith("zigzag"):
            al = zigzag_alpha_path(100_001)
            t, lab = al.tree, al.labeling
        else:
            sp, lab = label_short_leg_spider(ShortLegSpec(50_000, 20_000, 10_000))
            t = sp.tree
        alpha = build.endswith("alpha")
        assert t.m == 100_000
        start = time.process_time()
        report = find_graceful(t, fixed=dict(lab.values), alpha_constrained=alpha)
        assert time.process_time() - start < 1.0
        if alpha and alpha_index(t, lab) is None:
            # Graceful but not alpha: no class layout gives every vertex its label.
            assert report.found is None and report.nodes_explored == 0 and report.exhausted
        else:
            assert report.found == lab
            assert report.nodes_explored == t.n and report.exhausted

    def test_budget_below_n_searches(self):
        al = zigzag_alpha_path(7)
        fixed = dict(al.labeling.values)
        report = find_graceful(al.tree, fixed=fixed, budget=6)
        assert report.found is None and not report.exhausted
        assert report.nodes_explored == 6
        report = find_graceful(al.tree, fixed=fixed, budget=7)
        assert report.found == al.labeling and report.exhausted


class TestFrozenWitnesses:
    @pytest.fixture(scope="class")
    def frozen(self):
        with open(ORACLE_WITNESSES) as fh:
            return json.load(fh)

    def test_every_tree_up_to_nine_vertices(self, frozen):
        rows = frozen["trees"]
        assert len(rows) == 95
        for row in rows:
            t = Tree(row["n"], row["edges"])
            for key, alpha in (("find", False), ("alpha", True)):
                report = find_graceful(t, alpha_constrained=alpha)
                found = report.found
                assert report.exhausted
                assert (None if found is None else found.as_sequence(t.n)) == row[key]["witness"]
                assert report.nodes_explored <= row[key]["nodes"], (row, key)

    def test_every_spider_with_7_to_12_edges(self, frozen):
        rows = frozen["spiders"]
        assert len(rows) == 209
        for row in rows:
            t = build_spider(row["legs"]).tree
            report = find_graceful(t)
            assert report.found.as_sequence(t.n) == row["witness"]
            assert report.nodes_explored <= row["nodes"], row["legs"]


class TestCount:
    def test_frozen_counts(self):
        assert count_graceful(path_tree(2)).count == GRACEFUL_COUNTS["P2"]
        assert count_graceful(path_tree(4)).count == GRACEFUL_COUNTS["P4"]
        assert count_graceful(path_tree(5)).count == GRACEFUL_COUNTS["P5"]
        assert count_graceful(build_spider([1, 1, 1]).tree).count == GRACEFUL_COUNTS["K13"]

    def test_counts_even_by_complement(self):
        for legs in ([1, 1, 1], [2, 1, 1], [2, 2, 1]):
            report = count_graceful(build_spider(legs).tree)
            assert report.exhausted and report.count % 2 == 0

    def test_partial_count_flagged(self):
        report = count_graceful(path_tree(6), budget=5)
        assert not report.exhausted

    def test_one_vertex_has_one_labeling(self):
        # f -> m - f is the identity at m = 0, so the halved alpha count must
        # not double it, and the two class layouts must not both count it.
        t = Tree(1, [])
        assert count_graceful(t).count == 1
        assert count_graceful(t, alpha_constrained=True).count == 1
        assert count_graceful(t, alpha_constrained=True, fixed={0: 0}).count == 1

    def test_alpha_count_at_most_graceful_count(self):
        t = path_tree(6)
        assert count_graceful(t, alpha_constrained=True).count <= count_graceful(t).count


@pytest.fixture(scope="module")
def small_trees():
    """Every tree with at most 7 vertices, with its graceful labelings per
    alpha mode (False: all, True: alpha-labelings) as tuples by vertex id,
    from a scan of all n! labelings."""
    with open(ORACLE_COUNTS) as fh:
        rows = [row for row in json.load(fh)["trees"] if row["n"] <= 7]
    out = []
    for row in rows:
        t = Tree(row["n"], row["edges"])
        found = {False: [], True: []}
        for f in itertools.permutations(range(t.n)):
            if len({abs(f[a] - f[b]) for a, b in t.edges}) != t.m:
                continue
            found[False].append(f)
            if alpha_index(t, Labeling.from_sequence(list(f))) is not None:
                found[True].append(f)
        out.append((t, found))
    return out


class TestFixedCountsAgainstBruteForce:
    """Counts with fixed labels against a scan of all n! labelings, on every
    tree with at most 7 vertices (K_{1,3} and the spider [2, 1, 1] among
    them). A fixed leaf leaves its sibling group and turns the complement
    halving off, so these are the counts the sibling ordering and its k!
    weight could get wrong."""

    @staticmethod
    def tallies(found):
        """Per alpha mode, how many graceful labelings there are, and how
        many give each vertex each label and each pair of vertices each
        pair of labels."""
        out = {}
        for alpha, labelings in found.items():
            singles, pairs = Counter(), Counter()
            for f in labelings:
                singles.update(enumerate(f))
                pairs.update(itertools.combinations(enumerate(f), 2))
            out[alpha] = (singles, pairs, len(labelings))
        return out

    def test_every_tree_up_to_seven_vertices(self, small_trees):
        assert len(small_trees) == 25
        for t, found in small_trees:
            adj = t.adjacency()
            # Every single fixed label; two fixed labels on sibling leaves.
            sibling_leaves = [
                (u, v)
                for u, v in itertools.combinations(range(t.n), 2)
                if len(adj[u]) == len(adj[v]) == 1 and adj[u] == adj[v]
            ]
            for alpha, (singles, pairs, total) in self.tallies(found).items():
                cases = [({}, total)]
                cases += [({v: lab}, singles[v, lab]) for v in range(t.n) for lab in range(t.n)]
                cases += [
                    ({u: a, v: b}, pairs[(u, a), (v, b)])
                    for u, v in sibling_leaves
                    for a, b in itertools.permutations(range(t.n), 2)
                ]
                for fixed, expected in cases:
                    report = count_graceful(t, alpha_constrained=alpha, fixed=fixed)
                    assert report.exhausted
                    assert report.count == expected, (t.edges, alpha, fixed)


class TestCenterZeroCounts:
    def test_every_spider_with_5_to_7_edges(self):
        # The root-children check cuts harder when the root, here the
        # center, is labeled 0. Against a scan of the (n-1)! labelings with
        # the center at 0, with and without the alpha constraint.
        spiders = [
            list(legs)
            for m in range(5, 8)
            for k in range(3, m + 1)
            for legs in itertools.combinations_with_replacement(range(1, m - 1), k)
            if sum(legs) == m
        ]
        assert len(spiders) == 22
        for legs in spiders:
            t = build_spider(legs).tree
            graceful = alpha = 0
            for rest in itertools.permutations(range(1, t.n)):
                f = (0,) + rest
                if len({abs(f[a] - f[b]) for a, b in t.edges}) != t.m:
                    continue
                graceful += 1
                alpha += alpha_index(t, Labeling.from_sequence(f)) is not None
            for constrained, expected in ((False, graceful), (True, alpha)):
                report = count_graceful(t, fixed={0: 0}, alpha_constrained=constrained)
                assert report.exhausted
                assert report.count == expected, (legs, constrained)


class TestEnumerate:
    def test_brute_force_up_to_seven_vertices(self, small_trees):
        for t, found in small_trees:
            for alpha, want in found.items():
                report = enumerate_graceful(t, alpha_constrained=alpha)
                assert report.exhausted and report.found is None
                got = [tuple(lab.as_sequence(t.n)) for lab in report.labelings]
                assert report.count == len(got) == len(set(got))
                assert set(got) == set(want), (t.edges, alpha)

    def test_frozen_counts_up_to_eight_vertices(self):
        with open(ORACLE_COUNTS) as fh:
            rows = [row for row in json.load(fh)["trees"] if row["n"] <= 8]
        assert len(rows) == 48
        for row in rows:
            t = Tree(row["n"], row["edges"])
            graceful = enumerate_graceful(t)
            alpha = enumerate_graceful(t, alpha_constrained=True)
            assert graceful.exhausted and alpha.exhausted
            assert (graceful.count, alpha.count) == (row["graceful"], row["alpha"]), row
            assert len(graceful.labelings) == graceful.count
            assert len(alpha.labelings) == alpha.count

    def test_every_single_fixed_label_up_to_seven_vertices(self, small_trees):
        for t, found in small_trees:
            for alpha, labelings in found.items():
                for v, lab in itertools.product(range(t.n), repeat=2):
                    report = enumerate_graceful(t, fixed={v: lab}, alpha_constrained=alpha)
                    assert report.exhausted
                    got = [tuple(f.as_sequence(t.n)) for f in report.labelings]
                    want = {f for f in labelings if f[v] == lab}
                    assert report.count == len(got) == len(set(got)) == len(want)
                    assert set(got) == want, (t.edges, alpha, v, lab)

    def test_fixed_labels(self):
        # The zero at the center of P_5: graceful, but no alpha-labeling.
        t = path_tree(5)
        assert enumerate_graceful(t, fixed={2: 0}, alpha_constrained=True).count == 0
        report = enumerate_graceful(t, fixed={2: 0})
        assert report.count > 0 and all(lab[2] == 0 for lab in report.labelings)

    def test_budget_stop_not_exhausted(self):
        report = enumerate_graceful(path_tree(5), budget=1)
        assert report.nodes_explored == 1 and not report.exhausted
        assert report.count == len(report.labelings) == 0

    def test_find_and_count_report_no_labelings(self):
        t = path_tree(4)
        assert find_graceful(t).labelings == count_graceful(t).labelings == ()


class TestFrozenCounts:
    def test_every_tree_up_to_nine_vertices(self):
        with open(ORACLE_COUNTS) as fh:
            rows = json.load(fh)["trees"]
        assert len(rows) == 95
        for row in rows:
            t = Tree(row["n"], row["edges"])
            graceful = count_graceful(t)
            alpha = count_graceful(t, alpha_constrained=True)
            assert graceful.exhausted and alpha.exhausted
            assert (graceful.count, alpha.count) == (row["graceful"], row["alpha"]), row


class TestNodeTotals:
    # nodes_explored summed per (mode, alpha) over every tree with at most 8
    # vertices and nothing fixed, and over every tree with at most 7
    # vertices and each single fixed (vertex, label). A change to the search
    # that moves any node count updates these totals and reports the old
    # and new figures in CHANGES.md.
    NOTHING_FIXED = {
        ("find", False): 977, ("find", True): 2_078,
        ("count", False): 22_636, ("count", True): 5_645,
        ("enumerate", False): 95_447, ("enumerate", True): 47_563,
    }
    ONE_FIXED = {
        ("find", False): 26_549, ("find", True): 14_155,
        ("count", False): 108_444, ("count", True): 29_101,
        ("enumerate", False): 152_645, ("enumerate", True): 64_999,
    }

    def test_frozen_node_totals(self):
        with open(ORACLE_COUNTS) as fh:
            trees = [Tree(row["n"], row["edges"]) for row in json.load(fh)["trees"]
                     if row["n"] <= 8]
        searches = {"find": find_graceful, "count": count_graceful,
                    "enumerate": enumerate_graceful}
        nothing, one = Counter(), Counter()
        for t in trees:
            fixes = [{v: lab} for v in range(t.n) for lab in range(t.n)] if t.n <= 7 else []
            for (mode, search), alpha in itertools.product(searches.items(), (False, True)):
                report = search(t, alpha_constrained=alpha)
                assert report.exhausted
                nothing[mode, alpha] += report.nodes_explored
                for fixed in fixes:
                    report = search(t, fixed=fixed, alpha_constrained=alpha)
                    assert report.exhausted
                    one[mode, alpha] += report.nodes_explored
        assert dict(nothing) == self.NOTHING_FIXED
        assert dict(one) == self.ONE_FIXED


class TestDepthThreshold:
    def test_max_up_is_the_last_depth_with_an_edge_unplaced_at_both_ends(self):
        # The reference: after depths 0..i are placed, the edges touching
        # them number the sum over j <= i of len(adj[order[j]]) - (j > 0),
        # and some edge has both ends unplaced iff fewer than n - 1 do.
        with open(ORACLE_COUNTS) as fh:
            trees = [Tree(row["n"], row["edges"]) for row in json.load(fh)["trees"]]
        for t in trees:
            adj = t.adjacency()
            order, up = _search_order(adj)
            touched = 0
            for i, v in enumerate(order):
                touched += len(adj[v]) - (i > 0)
                assert (i < max(up)) == (touched < t.n - 1), (t, i)


class TestComplementClosure:
    def test_on_enumerated_instances(self):
        t = build_spider([2, 2, 1]).tree
        m = t.m
        report = find_graceful(t)
        lab = report.found
        comp = Labeling({v: m - lab[v] for v in range(t.n)})
        assert is_graceful(t, comp)
