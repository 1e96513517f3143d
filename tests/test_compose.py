import time
from itertools import permutations

import pytest

from graceful_spiders.compose import _amalgam_labels, amalgamate, label_three_long_legs
from graceful_spiders.errors import ConstructionInvariantError, ValidationError
from graceful_spiders.model import (
    AlphaLabeling,
    Labeling,
    Tree,
    is_graceful,
    path_tree,
)
from graceful_spiders.paths import alpha_path_zero_at, graceful_path_zero_at, zigzag_alpha_path
from graceful_spiders.short_legs import ShortLegSpec, label_short_leg_spider


def p3_alpha():
    return AlphaLabeling(path_tree(3), Labeling.from_sequence([0, 2, 1]), 1)


class TestAmalgamate:
    def test_p3_p2_example(self):
        tree, lab = amalgamate(p3_alpha(), 0, path_tree(2), Labeling.from_sequence([0, 1]), 0)
        assert tree.m == 3
        assert lab[0] == 1  # identified vertex gets alpha
        assert [lab[v] for v in range(tree.n)] == [1, 3, 0, 2]
        assert is_graceful(tree, lab)

    def test_single_vertex_h(self):
        tree, lab = amalgamate(p3_alpha(), 0, Tree(1, []), Labeling({0: 0}), 0)
        assert tree.m == 2 and is_graceful(tree, lab)

    def test_alpha_zero_case(self):
        g = AlphaLabeling(path_tree(2), Labeling.from_sequence([0, 1]), 0)
        tree, lab = amalgamate(g, 0, path_tree(2), Labeling.from_sequence([0, 1]), 0)
        assert tree.n == 3 and is_graceful(tree, lab)

    def test_u_at_alpha_no_flip_needed(self):
        g = AlphaLabeling(path_tree(3), Labeling.from_sequence([1, 2, 0]), 1)
        tree, lab = amalgamate(g, 0, path_tree(2), Labeling.from_sequence([0, 1]), 0)
        assert lab[0] == 1 and is_graceful(tree, lab)

    def test_u_label_hypothesis(self):
        with pytest.raises(ValidationError, match="0 or alpha"):
            amalgamate(p3_alpha(), 1, path_tree(2), Labeling.from_sequence([0, 1]), 0)

    def test_v_label_hypothesis(self):
        with pytest.raises(ValidationError, match="labeled 0"):
            amalgamate(p3_alpha(), 0, path_tree(2), Labeling.from_sequence([0, 1]), 1)

    @pytest.mark.parametrize("u, v, message", [(9, 0, "vertex 9 not in G"),
                                                (0, 9, "vertex 9 not in H")])
    def test_vertex_out_of_range(self, u, v, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            amalgamate(p3_alpha(), u, path_tree(2), Labeling.from_sequence([0, 1]), v)

    def test_h_graceful_hypothesis(self):
        with pytest.raises(ValidationError, match="graceful"):
            amalgamate(p3_alpha(), 0, path_tree(3), Labeling.from_sequence([0, 1, 2]), 0)

    def test_edge_label_partition(self):
        g = alpha_path_zero_at(9, 4)
        star, star_lab = label_short_leg_spider(ShortLegSpec(2, 2, 1))
        e_h = star.tree.m
        tree, lab = amalgamate(g, 4, star.tree, star_lab, 0)
        assert tree.m == g.tree.m + e_h
        h_ids = {4} | set(range(g.tree.n, tree.n))
        h_diffs = sorted(
            abs(lab[a] - lab[b]) for a, b in tree.edges if a in h_ids and b in h_ids
        )
        g_diffs = sorted(
            abs(lab[a] - lab[b]) for a, b in tree.edges if not (a in h_ids and b in h_ids)
        )
        assert h_diffs == list(range(1, e_h + 1))
        assert g_diffs == list(range(e_h + 1, tree.m + 1))

    def test_same_tree_and_labels_as_reference(self):
        # The joined tree is G's edges plus H's renumbered ones, and G's
        # parent array need not have parent[w] < w.
        def reference(g, u, h_tree, h_lab, v):
            n_g, e_h, alpha = g.tree.n, h_tree.m, g.alpha
            h_id = [*range(n_g, n_g + v), u, *range(n_g + v, n_g + h_tree.n - 1)]
            tree = Tree(n_g + e_h, [*g.tree.edges, *((h_id[a], h_id[b]) for a, b in h_tree.edges)])
            flip = g[u] == 0 and alpha != 0
            labels = []
            for x in g.labeling.as_sequence(n_g):
                if flip:
                    x = alpha - x if x <= alpha else g.tree.m + alpha + 1 - x
                labels.append(x if x <= alpha else x + e_h)
            labels += [x + alpha for w, x in enumerate(h_lab.as_sequence(h_tree.n)) if w != v]
            return tree, labels

        hosts = [zigzag_alpha_path(k) for k in range(1, 8)]
        hosts.append(AlphaLabeling(Tree(3, [(0, 2), (1, 2)]), Labeling.from_sequence([0, 1, 2]), 1))
        assert hosts[-1].tree.parent == (-1, 2, 0)
        guests = [(path_tree(n), graceful_path_zero_at(n, p), p) for n in range(1, 7) for p in range(n)]
        guests += [(sp.tree, lab, 0) for sp, lab in
                   (label_short_leg_spider(ShortLegSpec(ell, 2, 1)) for ell in range(1, 5))]
        cases = 0
        for g in hosts:
            for u in range(g.tree.n):
                if g[u] not in (0, g.alpha):
                    continue
                for h_tree, h_lab, v in guests:
                    cases += 1
                    tree, lab = amalgamate(g, u, h_tree, h_lab, v)
                    want_tree, want_labels = reference(g, u, h_tree, h_lab, v)
                    assert tree == want_tree and lab.as_sequence(tree.n) == want_labels

        assert cases > 300

    @pytest.mark.parametrize("v", [0, 4])
    def test_inputs_unchanged(self, v):
        # _amalgam_labels deletes v's entry from the list it is given, so
        # amalgamate must hand it a copy of H's labels.
        g, h_tree, h_lab = zigzag_alpha_path(5), path_tree(7), graceful_path_zero_at(7, v)
        g_labels, h_labels = g.labeling.values.labels, h_lab.values.labels
        g_before, h_before = list(g_labels), list(h_labels)
        amalgamate(g, 0, h_tree, h_lab, v)
        assert g.labeling.values.labels is g_labels and g_labels == g_before
        assert h_lab.values.labels is h_labels and h_labels == h_before
        assert h_lab == graceful_path_zero_at(7, v) and len(h_lab) == 7

    @pytest.mark.parametrize("g", [[-1, 1, 2], [0, 3, 1], [0, 1, 5]])
    def test_label_outside_g_range_is_an_invariant_error(self, g):
        with pytest.raises(ConstructionInvariantError, match=r"^G has a label outside 0\.\.2$"):
            _amalgam_labels(g, 1, 0, [0, 1], 0)


class TestThreeLongLegs:
    @pytest.mark.parametrize(
        "legs,m",
        [
            ([3, 3, 2, 2, 1], 11),
            ([5, 1, 1, 1], 8),
            ([4, 3, 3, 2, 2], 14),
            ([3, 3], 6),
            ([10, 9, 8], 27),
            ([6, 5], 11),
        ],
    )
    def test_graceful(self, legs, m):
        sp, lab = label_three_long_legs(legs)
        assert sp.tree.m == m
        assert is_graceful(sp.tree, lab)

    @pytest.mark.parametrize("legs", [[64, 64, 3], [29, 15, 1], [18, 18, 2], [20, 20]])
    def test_zero_at_residue_paths(self, legs):
        # The path through the two longest legs needs 0 where
        # `_zero_at_construct` has no decomposition: the center of P_129,
        # (45, 15), and the centers of P_37 and P_41.
        start = time.process_time()
        sp, lab = label_three_long_legs(legs)
        assert time.process_time() - start < 1.0
        assert is_graceful(sp.tree, lab)

    def test_leg_multiset_preserved(self):
        sp, _ = label_three_long_legs([4, 3, 3, 2, 2])
        assert sorted(len(leg) for leg in sp.legs) == [2, 2, 3, 3, 4]

    @pytest.mark.parametrize(
        "legs", [[5, 4, 4, 2, 1], [7, 3, 3, 2], [9, 9, 2, 2, 1, 1], [3, 3, 3, 2], [4, 3]]
    )
    def test_leg_order_does_not_matter(self, legs):
        first = label_three_long_legs(legs)
        for order in permutations(legs):
            assert label_three_long_legs(list(order)) == first, order

    def test_too_many_long_legs(self):
        with pytest.raises(ValidationError, match="three"):
            label_three_long_legs([3, 3, 3, 3])

    def test_bad_input(self):
        with pytest.raises(ValidationError):
            label_three_long_legs([])
        with pytest.raises(ValidationError):
            label_three_long_legs([3, 0])

    @pytest.mark.parametrize("short, spec", [([], None), ([2], ShortLegSpec(2, 0, 0)),
                                             ([1, 1], ShortLegSpec(1, 0, 1)),
                                             ([2, 2, 1], ShortLegSpec(2, 1, 1))])
    def test_is_lemma1_amalgam(self, short, spec):
        # The builder writes Lemma 1's amalgam in place: it equals the public
        # `amalgamate` of the alpha path with 0 at the center and Theorem 4's
        # spider, renumbered into canonical ids (the center, then L1 = path
        # positions ell1-1 .. 0, then L2 and H's vertices as they are). Every
        # pair with n <= 101 takes in both arms, every center of P_{4s+1},
        # the 6k+2 / 6k+3 shorter-arm residues and the P_9 and P_13 literals.
        if spec is None:
            h_tree, h_lab = Tree(1, []), Labeling({0: 0})
        else:
            h_spider, h_lab = label_short_leg_spider(spec)
            h_tree = h_spider.tree
        pairs = 0
        for n in range(7, 102):
            for ell2 in range(3, (n - 1) // 2 + 1):
                ell1 = n - 1 - ell2
                tree, lab = amalgamate(alpha_path_zero_at(n, ell1), ell1, h_tree, h_lab, 0)
                ids = [ell1, *range(ell1 - 1, -1, -1), *range(ell1 + 1, tree.n)]
                sp, sp_lab = label_three_long_legs([ell1, ell2, *short])
                assert sp_lab.as_sequence(sp.tree.n) == [lab[v] for v in ids], (ell1, ell2)
                canonical = {v: i for i, v in enumerate(ids)}
                assert sp.tree == Tree(tree.n, [(canonical[a], canonical[b])
                                                for a, b in tree.edges]), (ell1, ell2)
                pairs += 1
        assert pairs == 2304
