import json
from itertools import permutations

import pytest

from graceful_spiders import attach
from graceful_spiders.cli import run
from graceful_spiders.doubling import check_doubling, label_doubling_spider
from graceful_spiders.errors import ValidationError
from graceful_spiders.model import build_spider, is_graceful


def _leaf_legs(legs):
    """The leg indices that get a pre-labeled leaf y_i: the keys of the base
    step's `leaves`."""
    _, _, trace = label_doubling_spider(legs)
    assert trace[0]["operation"] == "base"
    return list(trace[0]["params"]["leaves"])


class TestCheckDoubling:
    def test_valid_plan(self):
        assert check_doubling([1, 6, 14]) == (1, 6, 14)
        assert _leaf_legs([1, 6, 14]) == []

    def test_sorts_input(self):
        assert check_doubling([14, 1, 6]) == (1, 6, 14)

    def test_residue_one_bound(self):
        with pytest.raises(ValidationError, match="ell_2 = 5 < 6"):
            check_doubling([1, 5, 12])

    def test_plain_bound(self):
        with pytest.raises(ValidationError, match="i=2"):
            check_doubling([2, 5])

    def test_later_bound(self):
        with pytest.raises(ValidationError, match="ell_3 = 13"):
            check_doubling([1, 6, 13])

    def test_single_leg(self):
        assert check_doubling([3]) == (3,)

    def test_k_indices(self):
        assert _leaf_legs([1, 9, 20]) == [2]
        assert _leaf_legs([1, 9, 21]) == [2, 3]

    def test_k_steps_attach_reduced_count(self):
        _, _, trace = label_doubling_spider([1, 9, 20])
        step = next(s for s in trace if s["operation"] == "attach")
        assert step["params"]["attach_at"] == "y" and step["params"]["vertex_count"] == 8

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError, match="must be non-empty"):
            check_doubling([])
        with pytest.raises(ValidationError, match="must be positive"):
            check_doubling([0, 6])


class TestLabelDoubling:
    @pytest.mark.parametrize(
        "legs",
        [[1, 6, 14], [1, 9, 20], [2, 6], [3], [1], [1, 6, 14, 30], [2, 8, 18], [1, 9, 21]],
    )
    def test_graceful_on_canonical_spider(self, legs):
        sp, lab, trace = label_doubling_spider(legs)
        assert is_graceful(sp.tree, lab)
        assert sp.tree.edges == build_spider(sorted(legs)).tree.edges
        assert sp.tree.m == sum(legs)

    @pytest.mark.parametrize("legs", [[1, 6, 14], [2, 8, 19, 40]])
    def test_leg_order_does_not_matter(self, legs):
        first = label_doubling_spider(legs)
        for order in permutations(legs):
            assert label_doubling_spider(list(order)) == first, order

    def test_path_case_center_zero(self):
        # A one-leg spider is a path whose center is an end: the base alone,
        # the zigzag with the center at 0 and the leaf at ell.
        for ell in (1, 2, 3, 4, 9):
            sp, lab, trace = label_doubling_spider([ell])
            assert lab[sp.center] == 0
            assert sorted(lab[v] for v in range(ell + 1)) == list(range(ell + 1))
            assert [s["operation"] for s in trace] == ["base"]

    def test_trace_records_steps(self):
        _, _, trace = label_doubling_spider([1, 6, 14])
        assert [s["operation"] for s in trace] == ["base", "attach", "attach"]
        assert trace[-1]["edge_count"] == 21

    @pytest.mark.parametrize("legs", ["1,9,21,45", "1,6,14"])
    def test_cli_trace_is_the_returned_list(self, legs, capsys):
        # The CLI prints the builder's step documents as they are, keys in
        # their order; a y-leaf list's `leaves` keys become JSON strings.
        _, _, trace = label_doubling_spider([int(x) for x in legs.split(",")])
        assert run(["spider", "doubling", "--legs", legs, "--trace"]) == 0
        printed = json.loads(capsys.readouterr().out)["trace"]
        assert json.dumps(printed) == json.dumps(trace)
        assert all(list(step) == ["operation", "params", "edge_count"] for step in trace)

    def test_y_attachment_branch(self):
        _, _, trace = label_doubling_spider([1, 9, 20])
        attach_steps = [s for s in trace if s["operation"] == "attach"]
        assert attach_steps[0]["params"]["attach_at"] == "y"
        assert attach_steps[0]["params"]["vertex_count"] == 8
        assert attach_steps[1]["params"]["attach_at"] == "x"

    def test_invariant_one_shift_bound(self):
        # Invariant (1): base labels grow by exactly the per-step shifts,
        # each of which is at most ell_j / 2. Two legs take the same steps
        # as more, and one leg keeps the center at 0.
        for legs in ([1, 6, 14, 30], [2, 6], [3, 8], [1, 9], [4]):
            sp, lab, trace = label_doubling_spider(legs)
            shifts = [s["params"]["shift"] for s in trace if s["operation"] == "attach"]
            assert len(shifts) == len(legs) - 1
            assert all(2 * sh <= ell for sh, ell in zip(shifts, sorted(legs)[1:]))
            assert lab[sp.center] == sum(shifts)

    def test_two_leg_sweep(self):
        # Every two-leg list with m <= 200 that check_doubling accepts is
        # the base plus one step, certified by the builder.
        count = 0
        for a in range(1, 200):
            for b in range(2 * a + 2, 201 - a):
                try:
                    check_doubling([a, b])
                except ValidationError:
                    continue
                _, _, trace = label_doubling_spider([a, b])
                assert [s["operation"] for s in trace] == ["base", "attach"]
                count += 1
        assert count == 6468

    def test_invalid_legs_rejected(self):
        with pytest.raises(ValidationError):
            label_doubling_spider([1, 5, 12])

    def test_one_pass_no_host_rewrite(self):
        assert not hasattr(attach, "_attach_labels")
