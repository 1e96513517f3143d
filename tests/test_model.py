import pytest

from graceful_spiders.errors import ValidationError
from graceful_spiders.model import (
    AlphaLabeling,
    ConstructionTrace,
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

from conftest import figure1_instance


class TestTree:
    def test_path_tree(self):
        t = path_tree(4)
        assert t.n == 4 and t.edges == ((0, 1), (1, 2), (2, 3))

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

    def test_non_center_degree_three_rejected(self):
        # Vertex 1 has degree 3; the legs through the center cannot cover it.
        t = Tree(6, [(0, 1), (1, 2), (1, 3), (0, 4), (0, 5)])
        with pytest.raises(ValidationError):
            Spider(t, 0, ((1, 2), (4,), (5,)))

    def test_validation_counts_degrees_in_one_pass(self, monkeypatch):
        def per_vertex_scan(self, v):
            raise AssertionError("Spider validation scanned the edges per vertex")

        monkeypatch.setattr(Tree, "degree", per_vertex_scan)
        sp = build_spider([3, 5, 7])
        assert sp.leg_lengths == (3, 5, 7)


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


class TestTrace:
    def test_strictly_increasing(self):
        trace = ConstructionTrace()
        trace.record("base", {}, 3)
        trace.record("attach", {}, 7)
        with pytest.raises(ValidationError):
            trace.record("attach", {}, 7)
