import pytest

from graceful_spiders import attach
from graceful_spiders.attach import _attach_block, attach_path
from graceful_spiders.errors import ConstructionInvariantError, ValidationError
from graceful_spiders.model import Labeling, Tree, alpha_index, is_graceful, path_tree

from conftest import figure1_instance


class TestFigure1:
    def test_semi_golden(self):
        tree, f, u = figure1_instance()
        result = attach_path(tree, f, u, 7)
        m = tree.m
        g_side = {result.labeling[w] for w in range(tree.n)}
        assert g_side == {3, 9, 8, 4, 6, 7, 5}
        assert result.bridge_label == m + 1 == 7
        diffs = sorted(
            abs(result.labeling[a] - result.labeling[b]) for a, b in result.tree.edges
        )
        assert diffs == list(range(1, 14))
        path_labels = {result.labeling[w] for w in result.path_ids}
        assert path_labels == {0, 1, 2, 10, 11, 12, 13}
        # The attached path carries an index-2 alpha-labeling with endpoint 6
        # before the relabeling.
        assert result.labeling[result.path_ids[0]] - (m + 1) == 6


class TestSmallCases:
    def test_single_vertex_base(self):
        result = attach_path(Tree(1, []), Labeling({0: 0}), 0, 2)
        assert [result.labeling[v] for v in range(3)] == [1, 2, 0]
        assert sorted(abs(result.labeling[a] - result.labeling[b]) for a, b in result.tree.edges) == [1, 2]

    def test_p2_attach_4(self):
        result = attach_path(path_tree(2), Labeling.from_sequence([0, 1]), 0, 4)
        assert {result.labeling[0], result.labeling[1]} == {2, 3}
        assert is_graceful(result.tree, result.labeling)


class TestPreconditions:
    def test_n_mod_4(self):
        with pytest.raises(ValidationError, match="mod 4"):
            attach_path(Tree(1, []), Labeling({0: 0}), 0, 5)

    def test_n_too_small(self):
        with pytest.raises(ValidationError, match="n >= 2"):
            attach_path(Tree(1, []), Labeling({0: 0}), 0, 1)

    def test_inequality(self):
        # f(u) = 1 with n = 2: 1 + 1 + 1 > 2.
        with pytest.raises(ValidationError, match="floor"):
            attach_path(path_tree(2), Labeling.from_sequence([0, 1]), 1, 2)

    def test_vertex_range(self):
        with pytest.raises(ValidationError):
            attach_path(path_tree(2), Labeling.from_sequence([0, 1]), 5, 4)

    def test_non_graceful_host(self):
        t = path_tree(3)
        with pytest.raises(ValidationError):
            attach_path(t, Labeling.from_sequence([0, 1, 2]), 0, 4)


class TestPostconditions:
    def test_shift_and_partitions(self):
        tree, f, u = figure1_instance()
        for n in (4, 7, 8, 11):
            if f[u] + n // 2 + 1 > n:
                continue
            result = attach_path(tree, f, u, n)
            m = tree.m
            shift = n // 2
            assert result.shift == shift
            for w in range(tree.n):
                assert result.labeling[w] - f[w] == shift
            assert {result.labeling[w] for w in range(tree.n)} == set(range(shift, m + shift + 1))
            path_labels = {result.labeling[w] for w in result.path_ids}
            assert path_labels == set(range(0, shift)) | set(range(m + shift + 1, m + n + 1))
            g_internal = sorted(
                abs(result.labeling[a] - result.labeling[b])
                for a, b in tree.edges
            )
            assert g_internal == list(range(1, m + 1))
            path_internal = sorted(
                abs(result.labeling[result.path_ids[i]] - result.labeling[result.path_ids[i + 1]])
                for i in range(n - 1)
            )
            assert path_internal == list(range(m + 2, m + n + 1))

    def test_path_side_is_alpha(self):
        tree, f, u = figure1_instance()
        result = attach_path(tree, f, u, 8)
        n = 8
        shift = n // 2
        raw = [result.labeling[w] for w in result.path_ids]
        g = [x if x < shift else x - (tree.m + 1) for x in raw]
        assert alpha_index(path_tree(n), Labeling.from_sequence(g)) == shift - 1


class TestAttachBlock:
    def test_offset_raises_every_label(self):
        for x, m, n in ((0, 6, 7), (3, 6, 7), (0, 1, 4), (2, 10, 12)):
            block = _attach_block(x, m, n)
            assert _attach_block(x, m, n, 5) == [g + 5 for g in block]
            # The bridge from u, shifted by floor(n/2), carries label m + 1.
            assert abs(x + n // 2 - block[0]) == m + 1

    def test_bridge_label_checked(self, monkeypatch):
        monkeypatch.setattr(attach, "_alpha_low_end", lambda n, *args: list(range(n)))
        with pytest.raises(ConstructionInvariantError, match="bridge edge label is 3, expected 7"):
            _attach_block(0, 6, 7)
