import pytest

from graceful_spiders.errors import ValidationError
from graceful_spiders.model import Labeling, is_graceful, path_tree
from graceful_spiders.short_legs import (
    ShortLegSpec,
    _formula_labels,
    extend_with_leaves,
    formula_spider,
    label_short_leg_spider,
    role_labels,
    short_leg_formula,
    short_leg_spider,
)

FIG3_X = [0, 15, 5, 10, 2, 13, 7, 8, 4, 11, 9, 6]
FIG3_UV = (14, 1, 12, 3)
FIG4_X = [0, 10, 5, 13, 2, 8, 7, 11, 4, 6, 9]
FIG4_UV = (14, 1, 12, 3)


def edge_classes(ell, s):
    """The proof's edge partition over x-path indices: E1/E2 are the
    two-leg edges, F_j collects x_i x_{i+1} with i = j (mod 4)."""
    F = {0: [], 1: [], 2: [], 3: []}
    for i in range(ell):
        F[i % 4].append(i)
    return F


class TestFormulaGoldens:
    def test_figure3(self):
        center, x, u, v = role_labels(11, 2)
        assert [center] + x == FIG3_X
        assert (u[0], v[0], u[1], v[1]) == FIG3_UV

    def test_figure4(self):
        center, x, u, v = role_labels(10, 2)
        assert [center] + x == FIG4_X
        assert (u[0], v[0], u[1], v[1]) == FIG4_UV

    def test_small_example(self):
        lab = short_leg_formula(1, 2)
        t = formula_spider(1, 2).tree
        assert is_graceful(t, lab) and lab[0] == 0

    def test_s_below_two_is_the_builder_labeling(self):
        for ell in (1, 2, 5, 6, 11):
            for s in (0, 1):
                lab = short_leg_formula(ell, s)
                assert lab == label_short_leg_spider(ShortLegSpec(ell, s, 0))[1]
                assert is_graceful(formula_spider(ell, s).tree, lab) and lab[0] == 0

    def test_raise_and_base(self):
        # The three-long builder has the formula write its labels raised by
        # G's index, after G's slots: x0 stays at index 0, vertex v >= 1
        # moves to index base + v, and the slots 1..base carry the raise.
        for ell, s, t in ((1, 0, 0), (2, 0, 3), (5, 1, 2), (10, 2, 0), (11, 3, 1)):
            plain = _formula_labels(ell, s, t)
            for shift, base in ((0, 4), (7, 0), (9, 6)):
                assert _formula_labels(ell, s, t, shift, base) == (
                    [shift] * (base + 1) + [x + shift for x in plain[1:]]), (ell, s, t)

    def test_ell_below_one_rejected(self):
        with pytest.raises(ValidationError, match="^ell must be >= 1$"):
            short_leg_formula(0, 2)


class TestInvariants:
    @pytest.mark.parametrize("ell,s", [(11, 2), (10, 2), (7, 3), (8, 4), (13, 5), (20, 2)])
    def test_parity_partition(self, ell, s):
        m = 2 * s + ell
        center, x, u, v = role_labels(ell, s)
        W = {j: [x[i - 1] for i in range(1, ell + 1) if i % 4 == j] for j in range(4)}
        if ell % 2 == 1:
            even_side = u + W[0] + W[3]
            odd_side = v + W[1] + W[2]
        else:
            even_side = u + W[0] + W[1]
            odd_side = v + W[2] + W[3]
        assert all(lab % 2 == 0 for lab in even_side)
        assert all(lab % 2 == 1 for lab in odd_side)

    @pytest.mark.parametrize("ell,s", [(11, 2), (10, 2), (9, 3), (12, 4)])
    def test_edge_class_labels(self, ell, s):
        m = 2 * s + ell
        center, x, u, v = role_labels(ell, s)
        labels = [center] + x
        # Leg edges: E1 = {x0 u_i}, E2 = {u_i v_i}.
        for i in range(1, s + 1):
            e1 = abs(u[i - 1] - 0)
            e2 = abs(u[i - 1] - v[i - 1])
            if ell % 2 == 1:
                assert e1 == m - 2 * i + 1
                assert e2 == abs(m - 4 * i + 2)
            else:
                assert e1 == m - 2 * i + 2
                assert e2 == abs(m - 4 * i + 3)
        # Path edges x_i x_{i+1} by residue class of i.
        for i in range(ell):
            d = abs(labels[i] - labels[i + 1])
            r = i % 4
            if ell % 2 == 1:
                want = {0: m - i, 1: m - 2 * s - i, 2: abs(m - 4 * s - i), 3: m - 2 * s - i}[r]
            else:
                want = {0: m - 2 * s - i, 1: abs(m - 4 * s - i), 2: m - 2 * s - i, 3: m - i}[r]
            assert d == want, (ell, s, i)


class TestExtendWithLeaves:
    def test_smallest(self):
        t, lab = extend_with_leaves(path_tree(2), Labeling.from_sequence([0, 1]), 0, 2)
        assert sorted(lab[v] for v in range(t.n)) == [0, 1, 2, 3]
        assert is_graceful(t, lab)

    def test_identity(self):
        t0 = path_tree(2)
        f0 = Labeling.from_sequence([0, 1])
        t, lab = extend_with_leaves(t0, f0, 0, 0)
        assert t is t0 and lab is f0

    def test_figure3_plus_three(self):
        lab0 = short_leg_formula(11, 2)
        t0 = formula_spider(11, 2).tree
        t, lab = extend_with_leaves(t0, lab0, 0, 3)
        new = [lab[v] for v in range(t0.n, t.n)]
        assert new == [16, 17, 18]
        assert is_graceful(t, lab) and lab[0] == 0

    def test_center_must_be_zero(self):
        with pytest.raises(ValidationError):
            extend_with_leaves(path_tree(2), Labeling.from_sequence([1, 0]), 0, 1)

    def test_size_past_index_range(self):
        # It used to end in OverflowError from building the parent array.
        with pytest.raises(ValidationError, match="vertices exceed the index range"):
            extend_with_leaves(path_tree(2), Labeling.from_sequence([0, 1]), 0, 10**19)

    def test_negative_leaf_count(self):
        with pytest.raises(ValidationError, match="^leaf count must be non-negative$"):
            extend_with_leaves(path_tree(2), Labeling.from_sequence([0, 1]), 0, -1)

    def test_requires_graceful(self):
        with pytest.raises(ValidationError):
            extend_with_leaves(path_tree(3), Labeling.from_sequence([0, 1, 2]), 0, 1)


class TestDispatch:
    @pytest.mark.parametrize(
        "spec",
        [
            ShortLegSpec(8, 2, 0),
            ShortLegSpec(7, 1, 1),
            ShortLegSpec(5, 0, 0),
            ShortLegSpec(2, 1, 0),
            ShortLegSpec(1, 0, 0),
            ShortLegSpec(3, 2, 4),
            ShortLegSpec(2, 0, 3),
        ],
    )
    def test_graceful_center_zero(self, spec):
        sp, lab = label_short_leg_spider(spec)
        assert is_graceful(sp.tree, lab)
        assert lab[sp.center] == 0
        assert sp.tree.m == spec.m

    def test_s1_sweep(self):
        # Theorem 4's formula at s = 1, certified by the builder, for every
        # ell <= 1,000, bare and with two 1-legs.
        for ell in range(1, 1001):
            for t in (0, 2):
                sp, lab = label_short_leg_spider(ShortLegSpec(ell, 1, t))
                assert lab[sp.center] == 0

    def test_star(self):
        sp, lab = label_short_leg_spider(ShortLegSpec(1, 0, 4))
        assert sorted(lab[v] for v in range(sp.tree.n)) == [0, 1, 2, 3, 4, 5]
        assert lab[0] == 0

    def test_invalid_spec(self):
        with pytest.raises(ValidationError):
            ShortLegSpec(0, 2, 0)
        with pytest.raises(ValidationError):
            ShortLegSpec(3, -1, 0)

    def test_canonical_shape(self):
        spec = ShortLegSpec(6, 2, 2)
        sp, _ = label_short_leg_spider(spec)
        assert sp.tree.edges == short_leg_spider(spec).tree.edges
