import json
import os
import pickle
import random
import sys
import time
from itertools import accumulate, combinations_with_replacement, product

import pytest

from graceful_spiders import model
from graceful_spiders.compose import amalgamate, label_three_long_legs
from graceful_spiders.doubling import check_doubling, label_doubling_spider
from graceful_spiders.errors import ConstructionInvariantError, ValidationError
from graceful_spiders.model import (
    AlphaLabeling,
    Labeling,
    Spider,
    Tree,
    alpha_flip,
    alpha_index,
    build_spider,
    edge_label,
    is_graceful,
    path_tree,
)
from graceful_spiders.attach import attach_path
from graceful_spiders.oracle import count_graceful, enumerate_graceful, find_graceful
from graceful_spiders.paths import (
    alpha_path_end_label, alpha_path_zero_at, graceful_path_zero_at, zigzag_alpha_path,
)
from graceful_spiders.short_legs import (
    ShortLegSpec, extend_with_leaves, label_short_leg_spider, short_leg_formula,
)
from graceful_spiders.treedoc import from_document, to_document

from conftest import figure1_instance

ORACLE_COUNTS = os.path.join(os.path.dirname(__file__), "data", "oracle_counts.json")


def reference_tree(n, edges):
    """(n, edges) as the list-of-dicts implementation of Tree.__init__
    stored them, raising what it raised: a per-edge loop, then a sort, a
    duplicate scan, the counts and a depth-first connectivity check."""
    norm = []
    for e in edges:
        a, b = int(e[0]), int(e[1])
        if a == b:
            raise ValidationError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"edge ({a},{b}) out of range for n={n}")
        norm.append((min(a, b), max(a, b)))
    norm.sort()
    for prev, cur in zip(norm, norm[1:]):
        if prev == cur:
            raise ValidationError(f"duplicate edge {cur}")
    if n < 1:
        raise ValidationError("tree needs at least one vertex")
    if len(norm) != n - 1:
        raise ValidationError(f"tree on {n} vertices needs {n-1} edges, got {len(norm)}")
    adj = [[] for _ in range(n)]
    for a, b in norm:
        adj[a].append(b)
        adj[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if n > 1 and len(seen) != n:
        raise ValidationError("edge set is not connected")
    return n, tuple(norm)


def parents_toward_zero(n, edges):
    """The parent array of the tree (n, edges): each vertex's neighbour on
    its path to vertex 0, found by breadth-first search."""
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    parent, queue = [-1] + [None] * (n - 1), [0]
    for v in queue:
        for w in adj[v]:
            if parent[w] is None:
                parent[w] = v
                queue.append(w)
    return parent


def same_tree(a, b):
    """Assert that two trees are one value: equal, with the same hash, repr,
    edges and neighbour sets, and that each survives a pickle round trip."""
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.edges == b.edges and a.parent == b.parent
    assert [set(ns) for ns in a.adjacency()] == [set(ns) for ns in b.adjacency()]
    for t in (a, b):
        assert pickle.loads(pickle.dumps(t)) == t


def outcome(build, *args):
    try:
        return build(*args)
    except ValidationError as exc:
        return str(exc)


def edge_lists(n):
    """Every multiset of at most n edges over the pairs of [-1, n], in its
    given order and reversed with the first edge's endpoints swapped."""
    pairs = list(combinations_with_replacement(range(-1, n + 1), 2))
    for size in range(n + 1):
        for edges in combinations_with_replacement(pairs, size):
            yield list(edges)
            if edges:
                rev = list(reversed(edges))
                rev[0] = rev[0][::-1]
                yield rev


class TestTree:
    def test_path_tree(self):
        t = path_tree(4)
        assert t.n == 4 and t.edges == ((0, 1), (1, 2), (2, 3))

    def test_empty_path_rejected(self):
        with pytest.raises(ValidationError, match="^path needs at least one vertex$"):
            path_tree(0)

    def test_edge_count_enforced(self):
        with pytest.raises(ValidationError):
            Tree(3, [(0, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Tree(2, [(0, 0)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError):
            Tree(3, [(0, 1), (1, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValidationError):
            Tree(4, [(0, 1), (2, 3), (0, 1)])

    def test_out_of_range_vertex(self):
        with pytest.raises(ValidationError):
            Tree(2, [(0, 2)])

    def test_edges_normalized_sorted(self):
        t = Tree(3, [(2, 1), (1, 0)])
        assert t.edges == ((0, 1), (1, 2))

    def test_same_checks_as_reference(self):
        def new(n, edges):
            t = Tree(n, edges)
            # The same tree, handed over as its parent array.
            same_tree(t, Tree(n, parent=parents_toward_zero(n, t.edges)))
            return t.n, t.edges

        lists = 0
        for n in range(5):
            for edges in edge_lists(n):
                lists += 1
                assert outcome(new, n, edges) == outcome(reference_tree, n, edges), (n, edges)
        assert lists > 20000

    def test_parent_array_checks_as_its_edges(self):
        # A parent array with parent[v] < v is kept as it is; any other one
        # is peeled in place, with the outcome of the edge list
        # (parent[v], v), v >= 1.
        def new(n, parent):
            t = Tree(n, parent=parent)
            return t.n, t.edges

        arrays = 0
        for n in range(1, 7):
            for rest in product(range(-1, n + 1), repeat=n - 1):
                arrays += 1
                edges = [(p, v) for v, p in enumerate(rest, start=1)]
                assert outcome(new, n, [-1, *rest]) == outcome(reference_tree, n, edges), rest
        assert arrays > 30000

    @pytest.mark.parametrize("n, parent, message", [
        (3, [-1, 0], "parent array of length 2 for n=3"),
        (0, [-1], "parent array of length 1 for n=0"),
        (2, [0, 0], "vertex 0 has parent 0, not -1"),
        (0, [], "tree needs at least one vertex"),
        (2, [-1.0, 0], "vertex 0 has parent -1.0, not -1"),
    ])
    def test_parent_array_shape(self, n, parent, message):
        with pytest.raises(ValidationError) as info:
            Tree(n, parent=parent)
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [3.0, "3", True, None])
    def test_edge_list_vertex_count_must_be_int(self, n):
        # Tree(3.0, edges) used to keep n = 3.0, and is_graceful on it then
        # raised TypeError; Tree("3", edges) raised TypeError itself.
        with pytest.raises(ValidationError, match=f"^vertex count {n!r} is not an int$"):
            Tree(n, [(0, 1), (1, 2)])

    @pytest.mark.parametrize("n", [3.0, "3", True, None])
    def test_parent_array_vertex_count_must_be_int(self, n):
        # Tree(3.0, parent=...) used to raise a bare TypeError from range().
        with pytest.raises(ValidationError, match=f"^vertex count {n!r} is not an int$"):
            Tree(n, parent=[-1, 0, 1])

    def test_parent_array_not_aliased(self):
        # The tree keeps a tuple of its own: changing the list it was given
        # changes neither its parents nor its edges.
        p = [-1, 0, 1]
        t = Tree(3, parent=p)
        p[2] = 0
        assert t.parent == (-1, 0, 1) and t == path_tree(3)
        with pytest.raises(TypeError):
            t.parent[2] = 0

    def test_edges_or_parent_not_both(self):
        with pytest.raises(TypeError):
            Tree(2, [(0, 1)], parent=[-1, 0])

    def test_degree_counts_edges(self):
        t = Tree(6, [(2, 0), (2, 1), (2, 3), (3, 4), (5, 4)])
        ends = [x for e in t.edges for x in e]
        assert [t.degree(v) for v in range(-1, 7)] == [ends.count(v) for v in range(-1, 7)]

    def test_connected_without_fast_path(self):
        # Vertex 2 is the larger endpoint of both edges.
        assert Tree(3, [(0, 2), (1, 2)]).edges == ((0, 2), (1, 2))

    def test_cycle_plus_isolated_vertex_rejected(self):
        with pytest.raises(ValidationError, match="^edge set is not connected$"):
            Tree(4, [(0, 1), (1, 2), (0, 2)])

    def test_first_bad_edge_in_input_order(self):
        with pytest.raises(ValidationError, match=r"^edge \(3,-1\) out of range for n=3$"):
            Tree(3, [(3, -1), (2, 2)])
        with pytest.raises(ValidationError, match="^self-loop at vertex 2$"):
            Tree(3, [(2, 2), (3, -1)])


class TestParentRead:
    """An edge list in any order and orientation is read by one reader into
    the parent array; the fault loop (`_checked_pairs`, then the sort, the
    duplicate scan and the counts) runs only for a list that the reader
    refuses, and names its first fault."""

    @pytest.fixture
    def no_checked_route(self, monkeypatch):
        def refuse(n, edges):
            raise AssertionError("edge list reached the fault loop")

        monkeypatch.setattr(model, "_checked_pairs", refuse)

    @pytest.fixture
    def no_edge_read(self, monkeypatch):
        def refuse(n, edges):
            raise AssertionError("parent array was read as an edge list")

        monkeypatch.setattr(model, "_edge_parents", refuse)

    @pytest.mark.parametrize("n, edges", [(10**30, []), (sys.maxsize, [(0, 1)])])
    def test_huge_vertex_count_is_an_edge_count_fault(self, n, edges):
        # Nothing sized by n is made before the edge count is compared.
        with pytest.raises(ValidationError, match=f"^tree on {n} vertices needs {n - 1} edges, "
                                                  f"got {len(edges)}$"):
            Tree(n, edges)

    def test_reversed_shuffled_pairs_give_the_same_tree(self, no_checked_route):
        t = label_three_long_legs([50000, 30000, 19992, 2, 2, 1, 1, 1, 1])[0].tree
        pairs = [(b, a) for a, b in t.edges]
        random.Random(5).shuffle(pairs)
        u = Tree(t.n, pairs)
        assert t.m == 10**5
        assert u.parent == t.parent and u.edges == t.edges and hash(u) == hash(t)

    def test_library_document_takes_the_parent_read(self, no_checked_route):
        spider, lab = label_short_leg_spider(ShortLegSpec(9, 3, 2))
        tree, labeling, read = from_document(to_document(spider.tree, lab, spider))
        assert tree.parent == spider.tree.parent and tree.edges == spider.tree.edges
        assert hash(tree) == hash(spider.tree) and read == spider and labeling == lab

    def test_library_document_needs_no_rooted_check(self, monkeypatch):
        # Every list this package writes has each parent below its child,
        # which one pass confirms; the rooted check serves only parent arrays.
        spider, lab = label_short_leg_spider(ShortLegSpec(9, 3, 2))
        doubling, doubling_lab, _ = label_doubling_spider([2, 6, 14])
        docs = [to_document(spider.tree, lab, spider),
                to_document(doubling.tree, doubling_lab, doubling)]

        def refuse(n, parent):
            raise AssertionError("an edge list took the rooted check")

        monkeypatch.setattr(model, "_rooted", refuse)
        for doc, (sp, labeling) in zip(docs, [(spider, lab), (doubling, doubling_lab)]):
            tree, read_lab, read = from_document(doc)
            assert tree.parent == sp.tree.parent and hash(tree) == hash(sp.tree)
            assert read == sp and read_lab == labeling
        # A rooted (parent, child) list in another order is peeled to the same array.
        assert Tree(4, [(2, 1), (0, 2), (1, 3)]).parent == (-1, 2, 0, 1)

    @pytest.mark.parametrize("n, edges, parent, value", [
        (3, [(0, 1.5), (1, 2)], None, "1.5"),
        (2, [(1.9, 0)], None, "1.9"),
        (3, [(0, 1), (1, 2.5)], None, "2.5"),
        (3, [(1, 2), (0.5, 1)], None, "0.5"),
        (2, [(0, "x")], None, "'x'"),
        (2, [(None, 1)], None, "None"),
        (2, None, [-1, 0.5], "0.5"),
        (3, [("2", 1.0), [True, 0]], None, "'2'"),
        (3, [(2, 1), (True, 0)], None, "True"),
        (3, None, [-1, 0, 1.0], "1.0"),
        (3, [(0, 1.0), (1, 2)], None, "1.0"),
        (3, [(0, True), (1, 2)], None, "True"),
    ])
    def test_non_integral_endpoint_named(self, n, edges, parent, value):
        # An endpoint is an int or a fault, by the one rule of every size
        # argument and document: (0, 1.5) used to be read as (0, 1), "x"
        # raised ValueError, and "2", 1.0 and True were read as vertices.
        with pytest.raises(ValidationError, match=f"^edge endpoint {value} is not an integer$"):
            Tree(n, edges) if parent is None else Tree(n, parent=parent)

    @pytest.mark.parametrize("n, edges, entry", [
        (2, [(0,)], r"\(0,\)"),
        (3, [(0, 1), 7], "7"),
        (3, [(0, 1, 9), (1, 2, 9)], r"\(0, 1, 9\)"),
        (2, [{0, 1}], r"\{0, 1\}"),
    ], ids=["one_endpoint", "not_a_sequence", "three_endpoints", "a_set"])
    def test_entry_without_two_endpoints_named(self, n, edges, entry):
        with pytest.raises(ValidationError, match=f"^edge {entry} is not a pair of endpoints$"):
            Tree(n, edges)

    def test_amalgamate_at_zero_takes_the_parent_read(self, no_checked_route, no_edge_read,
                                                      monkeypatch):
        g = alpha_path_zero_at(9, 4)
        spider, lab = label_short_leg_spider(ShortLegSpec(5, 2, 1))
        tree, joined = amalgamate(g, 4, spider.tree, lab, 0)
        # At v = 0 H's vertex w > 0 becomes g.n + w - 1, and H's center is u.
        ids = [4, *range(g.tree.n, tree.n)]
        edges = sorted([*g.tree.edges, *((ids[a], ids[b]) for a, b in spider.tree.edges)])
        assert tree.parent == tuple(parents_toward_zero(tree.n, edges))
        assert tree.edges == tuple(edges)
        monkeypatch.undo()  # the reference tree is read from the edge list
        assert tree == Tree(tree.n, edges) and hash(tree) == hash(Tree(tree.n, edges))
        assert is_graceful(tree, joined) and tree.m == g.tree.m + spider.tree.m

    def test_rooted_array_is_peeled_in_place(self, no_edge_read):
        # An array rooted at vertex 0 that is not increasing is kept as it is
        # once it peels; one that does not peel goes to the fault loop, and
        # neither is read as an edge list.
        g = alpha_path_zero_at(9, 4)
        tree, joined = amalgamate(g, 4, path_tree(7), graceful_path_zero_at(7, 3), 3)
        assert not all(p < v for v, p in enumerate(tree.parent) if v)
        assert is_graceful(tree, joined) and Tree(tree.n, parent=tree.parent) == tree
        assert Tree(4, parent=[-1, 2, 0, 1]).edges == ((0, 2), (1, 2), (1, 3))
        for parent, message in [
            ([-1, 3, 1, 2], "edge set is not connected"),
            ([-1, 2, 1], "duplicate edge (1, 2)"),
            ([-1, 1, 0], "self-loop at vertex 1"),
            ([-1, 3, 1], "edge (3,1) out of range for n=3"),
        ]:
            with pytest.raises(ValidationError) as info:
                Tree(len(parent), parent=parent)
            assert str(info.value) == message

    def test_rooted_array_peels_at_scale(self):
        # 10^5 edges amalgamated at v != 0: H's vertices before v hang from
        # their successors, so the joined array takes the leaf peel that an
        # edge list in another order takes.
        g = zigzag_alpha_path(50_001)
        tree, _ = amalgamate(g, 0, path_tree(50_001), graceful_path_zero_at(50_001, 16_667),
                             16_667)
        assert tree.m == 10**5 and not all(p < v for v, p in enumerate(tree.parent) if v)
        start = time.process_time()
        assert Tree(tree.n, parent=tree.parent) == Tree(tree.n, tree.edges) == tree
        assert time.process_time() - start < 1.0
        # H's vertex 0, a leaf, becomes the parent of its grandparent: a
        # triangle cut off from vertex 0.
        parent = list(tree.parent)
        leaf = g.tree.n
        parent[parent[parent[leaf]]] = leaf
        with pytest.raises(ValidationError, match="^edge set is not connected$"):
            Tree(tree.n, parent=parent)

    @pytest.fixture
    def no_edges(self, monkeypatch):
        def refuse(tree):
            raise AssertionError("Tree.edges was read")

        monkeypatch.setattr(model.Tree, "edges", property(refuse))

    def test_library_reads_only_the_parent_array(self, no_edges):
        # Only the document writers, repr and pickling derive Tree.edges.
        doubling, lab, _ = label_doubling_spider([2, 6, 14])
        short, short_lab = label_short_leg_spider(ShortLegSpec(6, 2, 3))
        three, three_lab = label_three_long_legs([7, 5, 4, 2, 1])
        for spider, labeling in ((doubling, lab), (short, short_lab), (three, three_lab)):
            assert is_graceful(spider.tree, labeling)
        attached = attach_path(short.tree, short_lab, 0, 6)
        assert is_graceful(attached.tree, attached.labeling)
        assert is_graceful(*extend_with_leaves(short.tree, short_lab, 0, 4))
        g = alpha_path_zero_at(9, 4)
        assert is_graceful(*amalgamate(g, 4, short.tree, short_lab, 0))
        assert is_graceful(*amalgamate(g, 4, path_tree(7), graceful_path_zero_at(7, 3), 3))
        Spider(path_tree(5), 2, ((1, 0), (3, 4)))
        with pytest.raises(ValidationError, match=r"^leg edge \(2,0\) missing from tree$"):
            Spider(path_tree(5), 2, ((0, 1), (3, 4)))
        small = build_spider([4, 3, 2, 1]).tree
        assert is_graceful(small, find_graceful(small).found) and count_graceful(small).count
        reversed_pairs = [(v, p) for v, p in enumerate(three.tree.parent) if v][::-1]
        read = Tree(three.tree.n, reversed_pairs)
        assert read == three.tree and hash(read) == hash(three.tree)


class TestSpider:
    def test_build_examples(self):
        assert build_spider([1]).tree.n == 2
        star = build_spider([1, 1, 1])
        assert star.tree.n == 4 and star.center == 0
        fig2 = build_spider([2, 2, 8])
        assert fig2.tree.n == 13

    def test_deterministic(self):
        assert build_spider([2, 3]).tree.edges == build_spider([2, 3]).tree.edges

    def test_legs_partition_vertices(self):
        sp = build_spider([2, 3, 1])
        seen = {sp.center}
        for leg in sp.legs:
            assert not (set(leg) & seen)
            seen |= set(leg)
        assert seen == set(range(sp.tree.n))

    def test_center_mismatch_rejected(self):
        sp = build_spider([2, 2, 2])
        with pytest.raises(ValidationError):
            Spider(sp.tree, 1, sp.legs)

    def test_empty_legs_rejected(self):
        with pytest.raises(ValidationError):
            build_spider([])

    @pytest.mark.parametrize("builder", [build_spider, check_doubling, label_three_long_legs])
    @pytest.mark.parametrize("legs, message", [
        ([], "leg length list must be non-empty"),
        ([3, 0], "leg lengths must be positive"),
        (None, "leg length list must be non-empty"),
    ])
    def test_leg_list_check_is_shared(self, builder, legs, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            builder(legs)

    @pytest.mark.parametrize("builder, legs", [
        (build_spider, [2]), (build_spider, [3, 1, 2]), (check_doubling, [1, 4, 10]),
        (label_doubling_spider, [2, 6, 14]), (label_three_long_legs, [7, 5, 4, 2, 1]),
        (check_doubling, [1, 3]),
    ])
    def test_one_shot_iterable_reads_like_its_list(self, builder, legs):
        assert outcome(builder, iter(legs)) == outcome(builder, legs)

    @pytest.mark.parametrize("builder", [build_spider, check_doubling, label_doubling_spider,
                                         label_three_long_legs])
    @pytest.mark.parametrize("legs", [[], [2.0], [3, 0], [None]])
    def test_one_shot_iterable_faults_like_its_list(self, builder, legs):
        with pytest.raises(ValidationError) as listed:
            builder(legs)
        with pytest.raises(ValidationError) as once:
            builder(iter(legs))
        assert str(once.value) == str(listed.value)

    def test_non_center_degree_three_rejected(self):
        # Vertex 1 has degree 3; the legs through the center cannot cover it.
        t = Tree(6, [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5)])
        with pytest.raises(ValidationError):
            Spider(t, 0, ((1, 2), (4,), (5,)))

    @pytest.mark.parametrize(
        "edges, legs, message",
        [
            ([(0, 1), (1, 2)], ((1, 2), ()), "empty leg"),
            ([(0, 1), (1, 2)], ((1, 2), (1,)), "vertex 1 appears in two legs"),
            ([(0, 1), (1, 2)], ((2, 1),), "leg edge (0,2) missing from tree"),
            ([(0, 1), (0, 2)], ((1,),), "legs do not cover the tree"),
            # The first fault in leg order is the one named.
            ([(0, 1), (1, 2)], ((2, 1), ()), "leg edge (0,2) missing from tree"),
            ([(0, 1), (0, 2)], ((1,), (0,)), "vertex 0 appears in two legs"),
            # parent[-1] would wrap to the last vertex, so v is range-checked.
            ([(0, 1), (1, 2)], ((-1,),), "leg edge (0,-1) missing from tree"),
        ],
    )
    def test_messages(self, edges, legs, message):
        with pytest.raises(ValidationError) as info:
            Spider(Tree(3, edges), 0, legs)
        assert str(info.value) == message

    def test_same_checks_as_reference(self):
        def reference(tree, center, legs):
            if not (0 <= center < tree.n):
                raise ValidationError(f"center {center} out of range")
            seen, edge_set = {center}, set(tree.edges)
            for leg in legs:
                if not leg:
                    raise ValidationError("empty leg")
                prev = center
                for v in leg:
                    if v in seen:
                        raise ValidationError(f"vertex {v} appears in two legs")
                    seen.add(v)
                    if (min(prev, v), max(prev, v)) not in edge_set:
                        raise ValidationError(f"leg edge ({prev},{v}) missing from tree")
                    prev = v
            if len(seen) != tree.n:
                raise ValidationError("legs do not cover the tree")
            return "ok"

        def new(tree, center, legs):
            Spider(tree, center, legs)
            return "ok"

        # Vertex 4 and center -1 are outside the 4-vertex trees.
        leg_choices = [()] + [leg for k in (1, 2) for leg in product(range(5), repeat=k)]
        # With center 2 of P_5, legs such as ((1, 0), (3, 4)) run toward
        # vertex 0 and fail the parent-array check before the per-vertex one.
        trees = (build_spider([2, 1]).tree, Tree(4, [(0, 1), (0, 2), (2, 3)]), path_tree(5))
        for tree in trees:
            for center in (-1, 0, 2):
                for k in range(4):
                    for legs in product(leg_choices, repeat=k):
                        assert outcome(new, tree, center, legs) == outcome(
                            reference, tree, center, legs), (tree.edges, center, legs)

        # build_spider's trees with 1-6 legs of lengths 1-3, under their own
        # legs and under layouts that are near them but not equal.
        shapes = 0
        for k in range(1, 7):
            for lengths in product((1, 2, 3), repeat=k):
                shapes += 1
                sp = build_spider(list(lengths))
                tree, legs = sp.tree, sp.legs
                flat = [v for leg in legs for v in leg]
                starts = list(accumulate(lengths[1:] + lengths[:1], initial=0))
                resplit = tuple(tuple(flat[a:b]) for a, b in zip(starts, starts[1:]))
                layouts = [
                    legs,
                    legs[::-1],
                    tuple(leg[::-1] for leg in legs),
                    resplit,  # leg boundaries moved
                    legs[:-1] + (legs[-1][:-1],),  # one vertex left out
                    legs[:-1] + (legs[-1] + (tree.n,),),  # a vertex outside the tree
                    legs[:-1] + (legs[-1] + (legs[0][0],),),  # a vertex in two legs
                    legs + ((),),
                    [list(leg) for leg in legs],
                ]
                for layout in layouts:
                    for center in (0, 1):
                        assert outcome(new, tree, center, layout) == outcome(
                            reference, tree, center, layout), (lengths, center, layout)
        assert shapes == 1092

    @pytest.mark.parametrize("legs, center", [
        (((1, 0), (3, 4)), 2),
        (((3, 4), (1, 0)), 2),
        (((3, 2, 1, 0),), 4),
    ])
    def test_legs_toward_vertex_zero_accepted(self, legs, center):
        assert Spider(path_tree(5), center, legs).legs == legs

    def test_build_spider_is_the_edge_list_tree(self):
        def compositions(m):
            if m == 0:
                yield []
            for first in range(1, m + 1):
                for rest in compositions(m - first):
                    yield [first, *rest]

        shapes = 0
        for m in range(1, 13):
            for legs in compositions(m):
                shapes += 1
                edges, start = [], 1
                for ell in legs:
                    edges.append((0, start))
                    edges += [(v, v + 1) for v in range(start, start + ell - 1)]
                    start += ell
                same_tree(build_spider(legs).tree, Tree(m + 1, sorted(edges)))
        assert shapes == 2 ** 12 - 1

    def test_build_spider_edges_sorted(self):
        sp = build_spider([3, 1, 2])
        assert sp.tree.edges == ((0, 1), (0, 4), (0, 5), (1, 2), (2, 3), (5, 6))
        assert sp.legs == ((1, 2, 3), (4,), (5, 6))

    def test_lengths_checked_as_their_legs(self):
        # The leg lengths build_spider hands to Spider are checked against
        # the tree, with the outcome of the tuple legs they stand for.
        trees = [path_tree(5), build_spider([2, 2]).tree, build_spider([1, 3]).tree,
                 build_spider([1, 1, 1, 1]).tree, Tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])]
        for tree in trees:
            for center in (0, 1):
                for lengths in ([4], [2, 2], [1, 3], [3, 1], [1, 1, 1, 1], [2, 1], [5]):
                    legs = build_spider(lengths).legs
                    assert outcome(Spider, tree, center, model._LegLengths(lengths)) == outcome(
                        Spider, tree, center, legs), (tree, center, lengths)

    @pytest.mark.parametrize("legs", [[[1, 2], [3]], [[3], [1, 2]]])
    def test_list_legs_changed_later_stay_as_checked(self, legs):
        sp = Spider(build_spider([2, 1]).tree, 0, legs)
        checked = tuple(map(tuple, legs))
        legs[0].append(9)
        legs.append([7])
        assert sp.legs == checked and sp.leg_lengths == tuple(map(len, checked))
        assert to_document(sp.tree, spider=sp)["legs"] == [list(leg) for leg in checked]

    @pytest.mark.parametrize("legs", [((1, 2), (3,)), ((3,), (1, 2))])
    def test_generator_legs_kept_whole(self, legs):
        sp = Spider(build_spider([2, 1]).tree, 0, (iter(leg) for leg in legs))
        assert sp.legs == legs and sp.leg_lengths == tuple(map(len, legs))
        assert to_document(sp.tree, spider=sp)["legs"] == [list(leg) for leg in legs]

    def test_explicit_canonical_legs_are_the_built_spider(self):
        built = build_spider([2, 1])
        sp = Spider(built.tree, 0, [[1, 2], [3]])
        assert sp == built and hash(sp) == hash(built) and repr(sp) == repr(built)
        assert sp.legs == ((1, 2), (3,))

    def test_read_back_spider_keeps_lengths_only_in_canonical_numbering(self):
        built = build_spider([3, 1, 2])
        _, _, sp = from_document(to_document(built.tree, spider=built))
        assert type(sp._legs) is model._LegLengths and sp == built
        layout = Spider(built.tree, 0, built.legs[::-1])
        _, _, sp = from_document(to_document(built.tree, spider=layout))
        assert type(sp._legs) is tuple and sp.legs == built.legs[::-1]

    def test_validation_counts_degrees_in_one_pass(self, monkeypatch):
        def per_vertex_scan(self, v):
            raise AssertionError("Spider validation scanned the edges per vertex")

        monkeypatch.setattr(Tree, "degree", per_vertex_scan)
        sp = build_spider([3, 5, 7])
        assert sp.leg_lengths == (3, 5, 7)


class TestLabeling:
    def test_sequence_equals_dict(self):
        xs = [3, 0, 2, 1]
        lab = Labeling.from_sequence(xs)
        assert lab == Labeling(dict(enumerate(xs)))
        assert lab.values == dict(enumerate(xs))
        assert dict(enumerate(xs)) == lab.values
        assert dict(lab.values) == dict(enumerate(xs))
        assert sorted(lab.values) == [0, 1, 2, 3]
        assert list(lab.values.items()) == list(enumerate(xs))
        assert len(lab) == 4 and 3 in lab and 4 not in lab and -1 not in lab
        assert lab != Labeling.from_sequence([3, 0, 1, 2])

    def test_sequence_is_copied(self):
        # A checked labeling stays graceful when its caller reuses the list.
        xs = [0, 2, 1]
        al = AlphaLabeling(path_tree(3), Labeling.from_sequence(xs), 1)
        xs[0] = 5
        assert al.labeling.as_sequence(3) == [0, 2, 1]
        assert is_graceful(al.tree, al.labeling)

    def test_dict_is_copied(self):
        # ... and when it reuses the dict; its own copy cannot be written to.
        d = {0: 0, 1: 2, 2: 1}
        al = AlphaLabeling(path_tree(3), Labeling(d), 1)
        d[0] = 5
        assert al.labeling.values == {0: 0, 1: 2, 2: 1}
        with pytest.raises(TypeError):
            al.labeling.values[0] = 5
        assert is_graceful(al.tree, al.labeling)

    @pytest.mark.parametrize("v", [-1, 4, "0", 1.5, True, 1.0])
    def test_out_of_range_vertex_not_labeled(self, v):
        # A vertex is an int and not a bool, from a sequence or a mapping.
        xs = [3, 0, 2, 1]
        for lab in (Labeling.from_sequence(xs), Labeling(dict(enumerate(xs)))):
            assert v not in lab
            with pytest.raises(ValidationError) as info:
                lab[v]
            assert str(info.value) == f"vertex {v} is not labeled"

    @pytest.mark.parametrize("d, message", [
        ({0: 0, 1.0: 1}, "vertex 1.0 is not an int"),
        ({0: 0, True: 1}, "vertex True is not an int"),
        ({0: 0, "1": 1}, "vertex '1' is not an int"),
        ({-1: 0}, "vertex -1 is negative"),
        ({0: 0, sys.maxsize: 1}, f"{sys.maxsize + 1} vertices exceed the index range"),
    ])
    def test_vertex_key_is_an_int(self, d, message):
        # The one int rule of every vertex: a key 1.0 or True is not vertex 1.
        with pytest.raises(ValidationError, match=f"^{message}"):
            Labeling(d)

    @pytest.mark.parametrize("label", [True, 1.0, "1"])
    def test_label_is_an_int(self, label):
        # A label that compares equal to 1 is still not the label 1: both
        # constructors name the first such label by its vertex.
        message = f"^label {label!r} of vertex 1 is not an int$"
        for make in (lambda: Labeling.from_sequence([0, label, None, 2.5]),
                     lambda: Labeling({0: 0, 3: 2.5, 1: label})):
            with pytest.raises(ValidationError, match=message):
                make()

    def test_unlabeled_vertices(self):
        # None marks an unlabeled vertex, in a sequence or a mapping; a
        # labeling is the same value however it was made.
        gaps = [Labeling.from_sequence([3, None, 1, None]), Labeling({2: 1, 0: 3}),
                Labeling({0: 3, 1: None, 2: 1})]
        for lab in gaps:
            assert lab == gaps[0] and hash(lab) == hash(gaps[0])
            assert len(lab) == 2 and list(lab.values) == [0, 2]
            assert 1 not in lab and 3 not in lab and lab[2] == 1
            assert repr(lab) == "Labeling(values={0: 3, 2: 1})"
            assert lab.as_sequence(1) == [3]
            with pytest.raises(ValidationError, match="^vertex 1 is not labeled$"):
                lab.as_sequence(3)
            with pytest.raises(ValidationError, match="^vertex 1 is not labeled$"):
                is_graceful(path_tree(3), lab)
        assert Labeling({}) == Labeling.from_sequence([None]) and len(Labeling({})) == 0

    def test_values_read_only(self):
        for lab in (Labeling.from_sequence([0, 1]), Labeling({0: 0, 1: 1})):
            with pytest.raises(TypeError):
                lab.values[0] = 1
            assert repr(lab) == "Labeling(values={0: 0, 1: 1})"
            assert pickle.loads(pickle.dumps(lab)) == lab

    def test_hash_agrees_with_equality(self):
        # Equal labelings hash equally, whether a list or a dict backs them.
        xs = [3, 0, 2, 1]
        by_list, by_dict = Labeling.from_sequence(xs), Labeling(dict(enumerate(xs)))
        assert by_list == by_dict and hash(by_list) == hash(by_dict)
        assert len({by_list, by_dict, Labeling.from_sequence([3, 0, 1, 2])}) == 2
        assert hash(Labeling.from_sequence([0, 1])) == hash(Labeling({1: 1, 0: 0}))
        partial = Labeling({0: 3, 2: 2})
        assert hash(partial) == hash(Labeling({2: 2, 0: 3}))
        al = AlphaLabeling(path_tree(3), Labeling.from_sequence([0, 2, 1]), 1)
        same = AlphaLabeling(path_tree(3), Labeling({0: 0, 1: 2, 2: 1}), 1)
        assert al == same and hash(al) == hash(same) and len({al, same}) == 1

    def test_trailing_unlabeled_vertices_do_not_count(self):
        # A view compares its list without the trailing Nones; a view and a
        # dict still compare as mappings.
        lab, padded = Labeling.from_sequence([0, 1]), Labeling.from_sequence([0, 1, None])
        assert lab == padded and hash(lab) == hash(padded) and len({lab, padded}) == 1
        assert padded.values == {0: 0, 1: 1} and padded.values != {0: 0}
        assert Labeling.from_sequence([0, None, 1]) != Labeling.from_sequence([0, 1])

    def test_short_sequence_is_error_not_false(self):
        with pytest.raises(ValidationError) as info:
            is_graceful(path_tree(3), Labeling.from_sequence([0, 2]))
        assert str(info.value) == "vertex 2 is not labeled"

    def test_as_sequence(self):
        lab = Labeling.from_sequence([0, 2, 1])
        seq = lab.as_sequence(3)
        seq[0] = 9
        assert lab[0] == 0
        assert lab.as_sequence(2) == [0, 2]
        with pytest.raises(ValidationError, match="^vertex 3 is not labeled$"):
            lab.as_sequence(4)


class TestCheckers:
    def test_edge_label(self):
        lab = Labeling({0: 0, 1: 6})
        assert edge_label(lab, 0, 1) == 6
        assert edge_label(Labeling({0: 13, 1: 0}), 1, 0) == 13

    def test_is_graceful_figure1(self):
        tree, lab, _ = figure1_instance()
        assert is_graceful(tree, lab)

    def test_is_graceful_single_edge(self):
        assert is_graceful(path_tree(2), Labeling.from_sequence([0, 1]))

    def test_is_graceful_duplicate_difference(self):
        assert not is_graceful(path_tree(3), Labeling.from_sequence([0, 1, 2]))

    def test_partial_labeling_is_error_not_false(self):
        with pytest.raises(ValidationError):
            is_graceful(path_tree(3), Labeling({0: 0, 1: 2}))

    def test_label_outside_the_tree_is_error_not_true(self):
        # The message is the one the document reader gives the same labels.
        lab = Labeling.from_sequence([0, 1, 7])
        for check in (lambda: is_graceful(path_tree(2), lab),
                      lambda: AlphaLabeling(path_tree(2), lab, 0),
                      lambda: from_document({"n": 2, "edges": [[0, 1]],
                                             "labels": {"0": 0, "1": 1, "2": 7}})):
            with pytest.raises(ValidationError, match=r"^label for vertex 2 outside 0\.\.1$"):
                check()
        assert is_graceful(path_tree(2), Labeling.from_sequence([0, 1, None]))

    def test_same_verdicts_as_reference(self):
        def reference(t, lab):
            m = t.m
            values = [lab[v] for v in range(t.n)]
            if len(set(values)) != t.n or any(not 0 <= x <= m for x in values):
                return False, None
            if {abs(lab[a] - lab[b]) for a, b in t.edges} != set(range(1, m + 1)):
                return False, None
            alpha = max(min(lab[a], lab[b]) for a, b in t.edges)
            for a, b in t.edges:
                lo, hi = sorted((lab[a], lab[b]))
                if not lo <= alpha < hi:
                    return True, None
            return True, alpha

        # Half-integer labels could be distinct, lie in [0, m] and give m
        # distinct edge labels without being graceful; both constructors
        # refuse them.
        for t in (path_tree(4), build_spider([1, 1, 1]).tree, build_spider([2, 1]).tree):
            for labels in product([*range(-1, t.n + 1), 0.5, 1.5, 2.5], repeat=t.n):
                makers = (lambda: Labeling.from_sequence(list(labels)),
                          lambda: Labeling(dict(enumerate(labels))))
                if not all(type(x) is int for x in labels):
                    for make in makers:
                        with pytest.raises(ValidationError, match="is not an int$"):
                            make()
                    continue
                for make in makers:
                    lab = make()
                    graceful = is_graceful(t, lab)
                    alpha = alpha_index(t, lab) if graceful else None
                    assert (graceful, alpha) == reference(t, lab), labels

    def test_full_labeling_is_read_in_place(self):
        # is_graceful reads a full labeling's own list and leaves it as it was.
        lab = Labeling.from_sequence([6, 0, 5, 1, 4, 2, 3])
        labels = lab.values.labels
        assert is_graceful(path_tree(7), lab)
        assert not is_graceful(path_tree(7), Labeling.from_sequence([0, 1, 2, 3, 4, 5, 6]))
        assert lab.values.labels is labels and labels == [6, 0, 5, 1, 4, 2, 3]

    @pytest.mark.parametrize("labels", [[0, None, 1], [None, 2, 1], [0, 2, None]])
    @pytest.mark.parametrize("alpha", [None, 1])
    def test_certified_refuses_a_none(self, labels, alpha):
        # certified counts its list as full, so a None reaches the in-place
        # read, which must refuse it as the copy did.
        with pytest.raises(ConstructionInvariantError, match="^broken$"):
            model.certified(path_tree(3), labels, "broken", alpha=alpha)

    def test_alpha_of_matches_whole_list_passes(self):
        # The per-edge loop against the oracle's whole-list alpha test, on
        # every graceful labeling of every tree with at most 7 vertices.
        def passes(t, f):
            ups = [f[p] for p in t.parent[1:]]
            alpha = max(map(min, f[1:], ups), default=0)
            return alpha if alpha < min(map(max, f[1:], ups), default=t.n) else None

        with open(ORACLE_COUNTS) as fh:
            rows = [row for row in json.load(fh)["trees"] if row["n"] <= 7]
        got = []
        for row in rows:
            t = Tree(row["n"], row["edges"])
            report = enumerate_graceful(t)
            assert report.exhausted and report.count == row["graceful"]
            for lab in report.labelings:
                f = lab.as_sequence(t.n)
                got.append(model._alpha_of(t, f))
                assert got[-1] == passes(t, f) == alpha_index(t, lab), (row["edges"], f)
        assert model._alpha_of(Tree(1, []), [0]) == 0
        assert None in got and 0 in got and max(filter(None, got)) >= 3

    def test_alpha_index_figure1_path(self):
        assert alpha_index(path_tree(7), Labeling.from_sequence([6, 0, 5, 1, 4, 2, 3])) == 2

    def test_alpha_index_p2(self):
        assert alpha_index(path_tree(2), Labeling.from_sequence([0, 1])) == 0

    def test_alpha_index_zigzag_none_case(self):
        # Graceful but not alpha: P_5 as 1,4,0,2,3 has a crossing edge.
        lab = Labeling.from_sequence([1, 4, 0, 2, 3])
        assert is_graceful(path_tree(5), lab)
        assert alpha_index(path_tree(5), lab) is None

    def test_alpha_index_rejects_non_graceful(self):
        # The sequence 3,0,4,1,2 repeats the difference 3, so the checker
        # must refuse it rather than hunt for an index.
        lab = Labeling.from_sequence([3, 0, 4, 1, 2])
        assert not is_graceful(path_tree(5), lab)
        with pytest.raises(ValidationError):
            alpha_index(path_tree(5), lab)


class TestAlphaFlip:
    def test_formula_example(self):
        al = AlphaLabeling(path_tree(3), Labeling.from_sequence([0, 2, 1]), 1)
        flipped = alpha_flip(al)
        assert flipped.labeling.as_sequence(3) == [1, 2, 0]
        assert flipped.alpha == 1

    def test_involution(self):
        al = AlphaLabeling(path_tree(7), Labeling.from_sequence([6, 0, 5, 1, 4, 2, 3]), 2)
        twice = alpha_flip(alpha_flip(al))
        assert twice.labeling.as_sequence(7) == al.labeling.as_sequence(7)

    def test_fixed_point_p2(self):
        al = AlphaLabeling(path_tree(2), Labeling.from_sequence([0, 1]), 0)
        assert alpha_flip(al).labeling.as_sequence(2) == [0, 1]

    def test_zero_maps_to_alpha(self):
        al = AlphaLabeling(path_tree(7), Labeling.from_sequence([6, 0, 5, 1, 4, 2, 3]), 2)
        flipped = alpha_flip(al)
        seq = al.labeling.as_sequence(7)
        fseq = flipped.labeling.as_sequence(7)
        assert fseq[seq.index(0)] == 2 and fseq[seq.index(2)] == 0


class TestAlphaLabelingValidation:
    def test_wrong_index_rejected(self):
        with pytest.raises(ValidationError):
            AlphaLabeling(path_tree(3), Labeling.from_sequence([0, 2, 1]), 0)

    def test_non_alpha_rejected(self):
        with pytest.raises(ValidationError):
            AlphaLabeling(path_tree(5), Labeling.from_sequence([1, 4, 0, 2, 3]), 2)


@pytest.mark.parametrize("call, value", [
    (lambda: label_three_long_legs([3.0, 3, 3]), "leg length 3.0"),
    (lambda: build_spider([2.0]), "leg length 2.0"),
    (lambda: path_tree(3.0), "vertex count 3.0"),
    (lambda: label_doubling_spider(["1"]), "leg length '1'"),
    (lambda: alpha_path_zero_at(7, 1.0), "position 1.0"),
    (lambda: alpha_path_end_label(7, 1.0), "end_label 1.0"),
    (lambda: ShortLegSpec(3, 0, True), "t True"),
    (lambda: ShortLegSpec(3.0, 1, 1), "ell 3.0"),
    (lambda: extend_with_leaves(path_tree(2), Labeling.from_sequence([0, 1]), 0, 1.0),
     "t_count 1.0"),
    (lambda: zigzag_alpha_path("3"), "vertex count '3'"),
    (lambda: alpha_path_end_label("3", 0), "vertex count '3'"),
    (lambda: short_leg_formula("3", 2), "ell '3'"),
    (lambda: short_leg_formula(3, 2.0), "s 2.0"),
    (lambda: attach_path(path_tree(2), Labeling.from_sequence([0, 1]), 0.0, 3), "u 0.0"),
    (lambda: attach_path(path_tree(2), Labeling.from_sequence([0, 1]), 0, "3"), "n '3'"),
    (lambda: alpha_path_end_label(7, 0, 3.0), "required_index 3.0"),
    (lambda: graceful_path_zero_at(5, 2.0), "position 2.0"),
    (lambda: AlphaLabeling(path_tree(3), Labeling.from_sequence([0, 2, 1]), 1.0), "alpha 1.0"),
    (lambda: AlphaLabeling(path_tree(3), Labeling.from_sequence([0, 2, 1]), True), "alpha True"),
    (lambda: AlphaLabeling(path_tree(3), Labeling.from_sequence([0, 2, 1]), "1"), "alpha '1'"),
    (lambda: Spider(path_tree(3), 0.0, ((1, 2),)), "center 0.0"),
    (lambda: Spider(path_tree(3), "0", ((1, 2),)), "center '0'"),
    (lambda: Spider(path_tree(3), 0, (("x", 2),)), "leg vertex 'x'"),
    (lambda: Spider(build_spider([2]).tree, 0, ((1.0, 2),)), "leg vertex 1.0"),
    (lambda: Spider(build_spider([2]).tree, 0, ((True, 2),)), "leg vertex True"),
    (lambda: amalgamate(zigzag_alpha_path(3), "0", path_tree(2),
                        Labeling.from_sequence([0, 1]), 0), "u '0'"),
    (lambda: amalgamate(zigzag_alpha_path(3), 0, path_tree(2),
                        Labeling.from_sequence([0, 1]), 0.0), "v 0.0"),
    (lambda: extend_with_leaves(path_tree(2), Labeling.from_sequence([0, 1]), "0", 1),
     "center '0'"),
    (lambda: find_graceful(path_tree(3), fixed={True: 0}), "fixed vertex True"),
    (lambda: find_graceful(path_tree(3), fixed={"a": 1}), "fixed vertex 'a'"),
    (lambda: find_graceful(path_tree(3), fixed={0: 1.0}), "fixed label 1.0"),
    (lambda: find_graceful(path_tree(3), budget=None), "budget None"),
    (lambda: count_graceful(path_tree(3), budget=2.5), "budget 2.5"),
], ids=["three_long", "build_spider", "path_tree", "doubling", "zero_at", "end_label",
        "spec_t", "spec_ell", "t_count", "zigzag", "end_label_n", "formula_ell", "formula_s",
        "attach_u", "attach_n", "required_index", "graceful_zero_at", "alpha_float",
        "alpha_bool", "alpha_str", "spider_center_float", "spider_center_str",
        "spider_leg_vertex", "spider_canonical_leg_float", "spider_canonical_leg_bool",
        "amalgamate_u", "amalgamate_v", "leaves_center",
        "fixed_vertex_bool", "fixed_vertex_str", "fixed_label", "budget_none", "budget_float"])
def test_non_int_sizes_rejected(call, value):
    # Each used to end in a TypeError from deep inside the construction, or
    # was accepted (a bool leg count, a float index, a float center), or was
    # refused with a message about something else ("vertex 0 is not labeled").
    with pytest.raises(ValidationError, match=f"^{value} is not an int$"):
        call()
