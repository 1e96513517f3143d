import importlib.util
import json
import os
import sys

import pytest

from graceful_spiders import paths
from graceful_spiders.errors import (
    InfeasibleError,
    ResourceBudgetError,
    ValidationError,
)
from graceful_spiders.model import Labeling, alpha_index, is_graceful, path_tree
from graceful_spiders.paths import (
    PathCache,
    alpha_path_end_label,
    alpha_path_zero_at,
    enumerate_alpha_paths,
    graceful_path_zero_at,
    zigzag_alpha_path,
)

# Frozen by exhaustive enumeration (enumerate_alpha_paths); regression
# constants for the provider's search space.
ALPHA_PATH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 4, 5: 4, 6: 8, 7: 16, 8: 8, 9: 20, 10: 56, 11: 72, 12: 128}

# One sha256 per n <= 400 over every closed-form alpha path labeling of P_n,
# written by tests/data/make_low_end_digests.py with the recursive, memoized
# construction that the loop replaced.
DATA = os.path.join(os.path.dirname(__file__), "data")
LOW_END_DIGESTS = os.path.join(DATA, "low_end_digests.json")


def _low_end_digest():
    spec = importlib.util.spec_from_file_location(
        "make_low_end_digests", os.path.join(DATA, "make_low_end_digests.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.low_end_digest


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestZigzag:
    def test_example_n4(self):
        al = zigzag_alpha_path(4)
        assert al.labeling.as_sequence(4) == [0, 3, 1, 2]
        assert al.alpha == 1

    def test_trivial(self):
        assert zigzag_alpha_path(1).labeling.as_sequence(1) == [0]
        assert zigzag_alpha_path(2).labeling.as_sequence(2) == [0, 1]

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            zigzag_alpha_path(0)

    def test_always_alpha(self):
        for n in range(1, 30):
            al = zigzag_alpha_path(n)
            assert is_graceful(al.tree, al.labeling)


class TestGracefulZeroAt:
    def test_endpoint_examples(self, mem_cache):
        assert graceful_path_zero_at(7, 0, cache=mem_cache).as_sequence(7) == [0, 6, 1, 5, 2, 4, 3]
        assert graceful_path_zero_at(1, 0, cache=mem_cache).as_sequence(1) == [0]

    def test_far_endpoint_reversed(self, mem_cache):
        seq = graceful_path_zero_at(7, 6, cache=mem_cache).as_sequence(7)
        assert seq == [3, 4, 2, 5, 1, 6, 0]

    def test_interior_position(self, mem_cache):
        lab = graceful_path_zero_at(6, 2, cache=mem_cache)
        assert lab[2] == 0 and is_graceful(path_tree(6), lab)

    def test_p5_central_exception_still_graceful(self, mem_cache):
        lab = graceful_path_zero_at(5, 2, cache=mem_cache)
        assert lab[2] == 0 and is_graceful(path_tree(5), lab)
        assert alpha_index(path_tree(5), lab) is None

    def test_position_range(self, mem_cache):
        with pytest.raises(ValidationError):
            graceful_path_zero_at(5, 5, cache=mem_cache)


class TestAlphaZeroAt:
    def test_p5_central_infeasible(self, mem_cache):
        with pytest.raises(InfeasibleError):
            alpha_path_zero_at(5, 2, cache=mem_cache)

    def test_trivial(self, mem_cache):
        assert alpha_path_zero_at(2, 0, cache=mem_cache).labeling.as_sequence(2) == [0, 1]

    def test_example_7_2(self, mem_cache):
        al = alpha_path_zero_at(7, 2, cache=mem_cache)
        assert al.labeling[2] == 0
        assert alpha_index(al.tree, al.labeling) == al.alpha

    def test_all_positions_up_to_20(self, mem_cache):
        for n in range(1, 21):
            for pos in range(n):
                if (n, pos) == (5, 2):
                    continue
                al = alpha_path_zero_at(n, pos, cache=mem_cache)
                assert al.labeling[pos] == 0
                assert alpha_index(al.tree, al.labeling) == al.alpha

    def test_deterministic(self, mem_cache):
        a = alpha_path_zero_at(15, 6, cache=mem_cache).labeling.as_sequence(15)
        b = alpha_path_zero_at(15, 6, cache=PathCache(None)).labeling.as_sequence(15)
        assert a == b

    def test_budget_is_ignored(self):
        # The center of P_9 needs no search, so a one-node budget is enough.
        al = alpha_path_zero_at(9, 4, budget=1)
        assert al.labeling[4] == 0 and alpha_index(al.tree, al.labeling) == al.alpha


def _construct_misses(n: int, p: int) -> bool:
    """Whether `_zero_at_construct(n, p)` has no decomposition: neither arm
    leaves a band whose endpoint label is feasible."""
    for q in (p, n - 1 - p):
        r = n - 1 - q
        if q >= 1 and r >= 1 and paths._low_end_feasible(r, q // 2):
            return False
    return True


class TestZeroAtResidue:
    """The pairs `_zero_at_construct` misses, built by `_zero_at_residue`."""

    def test_every_pair_up_to_400(self):
        pairs = [
            (n, p)
            for n in range(3, 401)
            for p in range(1, n - 1)
            if (n, p) != (5, 2) and _construct_misses(n, p)
        ]
        assert len(pairs) == 362
        for n, p in pairs:
            # The center of P_{4s+1}, or n = 6k+2 / 6k+3 with a shorter arm
            # of 2k / 2k+1 vertices beyond zero.
            q = min(p, n - 1 - p)
            assert (n % 4 == 1 and 2 * p == n - 1) or (n % 6, q) in (
                (2, (n - 2) // 3),
                (3, (n - 3) // 3 + 1),
            ), (n, p)
            assert paths._zero_at_construct(n, p) is None
            al = alpha_path_zero_at(n, p)  # AlphaLabeling certifies the index
            assert al.labeling[p] == 0
            assert al.alpha == (n + 1 - p % 2) // 2 - 1

    @pytest.mark.parametrize(
        "n, p", [(10001, 5000), (9998, 3332), (9998, 6665), (9999, 3333), (9999, 6665)]
    )
    def test_large_pairs(self, n, p):
        assert paths._zero_at_construct(n, p) is None
        seq, alpha = paths._alpha_zero_seq(n, p)
        lab = Labeling.from_sequence(seq)
        assert seq[p] == 0 and is_graceful(path_tree(n), lab)
        assert alpha_index(path_tree(n), lab) == alpha

    def test_no_search_left(self):
        for name in ("_search_path", "_Budget", "_outward_order", "default_cache",
                     "CACHE_ENV_VAR"):
            assert not hasattr(paths, name), name


class TestAlphaEndLabel:
    def test_figure1_path_golden(self, mem_cache):
        al = alpha_path_end_label(7, 6, 2, cache=mem_cache)
        assert al.labeling.as_sequence(7) == [6, 0, 5, 1, 4, 2, 3]
        assert al.alpha == 2

    def test_trivial(self, mem_cache):
        assert alpha_path_end_label(2, 1, 0, cache=mem_cache).labeling.as_sequence(2) == [1, 0]

    def test_lemma2c_exception(self, mem_cache):
        with pytest.raises(InfeasibleError):
            alpha_path_end_label(5, 1, cache=mem_cache)
        with pytest.raises(InfeasibleError):
            alpha_path_end_label(5, 3, cache=mem_cache)
        with pytest.raises(InfeasibleError):
            alpha_path_end_label(9, 2, cache=mem_cache)

    def test_validation(self, mem_cache):
        with pytest.raises(ValidationError):
            alpha_path_end_label(1, 0, cache=mem_cache)
        with pytest.raises(ValidationError):
            alpha_path_end_label(6, 6, cache=mem_cache)

    def test_impossible_index(self, mem_cache):
        with pytest.raises(InfeasibleError):
            alpha_path_end_label(8, 2, required_index=1, cache=mem_cache)

    def test_exhaustive_against_enumeration(self, mem_cache):
        for n in range(2, 11):
            feasible = set()
            for al in enumerate_alpha_paths(n):
                feasible.add((al.labeling[0], al.alpha))
            hi, lo = (n + 1) // 2 - 1, n // 2 - 1
            for e in range(n):
                for idx in (None, hi, lo):
                    want = any(
                        (e, i) in feasible for i in ((hi, lo) if idx is None else (idx,))
                    )
                    try:
                        al = alpha_path_end_label(n, e, idx, cache=mem_cache)
                        got = True
                        assert al.labeling[0] == e
                        assert idx is None or al.alpha == idx
                        assert alpha_index(al.tree, al.labeling) == al.alpha
                    except InfeasibleError:
                        got = False
                    assert got == want, (n, e, idx)

    def test_deterministic(self, mem_cache):
        a = alpha_path_end_label(20, 13, cache=mem_cache).labeling.as_sequence(20)
        b = alpha_path_end_label(20, 13, cache=PathCache(None)).labeling.as_sequence(20)
        assert a == b


class TestLowEndConstruction:
    def test_frozen_digests(self):
        with open(LOW_END_DIGESTS) as fh:
            digests = json.load(fh)["digests"]
        assert len(digests) == 400
        low_end_digest = _low_end_digest()
        for n, want in digests.items():
            assert low_end_digest(int(n)) == want, n

    def test_no_memo(self):
        assert not hasattr(paths, "_low_end_memo")

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_deep_paths_without_recursion(self, j, mem_cache):
        # A small endpoint label peels about n / (2j + 2) blocks.
        n = 10**5
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            end = alpha_path_end_label(n, j, cache=mem_cache)
            zero = alpha_path_zero_at(n, j, cache=mem_cache)
        finally:
            sys.setrecursionlimit(limit)
        assert end.labeling[0] == j and zero.labeling[j] == 0


class TestEnumerate:
    def test_frozen_counts(self):
        for n, want in ALPHA_PATH_COUNTS.items():
            assert sum(1 for _ in enumerate_alpha_paths(n)) == want

    def test_n2_exact(self):
        seqs = [al.labeling.as_sequence(2) for al in enumerate_alpha_paths(2)]
        assert seqs == [[0, 1], [1, 0]]

    def test_lexicographic(self):
        seqs = [tuple(al.labeling.as_sequence(6)) for al in enumerate_alpha_paths(6)]
        assert seqs == sorted(seqs)

    def test_p5_endpoint_exceptions(self):
        ends = {al.labeling[0] for al in enumerate_alpha_paths(5)}
        assert ends == {0, 2, 4}

    def test_bound(self):
        with pytest.raises(ResourceBudgetError):
            next(enumerate_alpha_paths(15))


class TestCache:
    def test_disk_roundtrip(self, tmp_path):
        path = str(tmp_path / "cache.json")
        PathCache(path).put("k", [1, 0, 2])
        assert PathCache(path).get("k") == [1, 0, 2]

    def test_corrupt_file_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        c = PathCache(str(path))
        assert c.get("anything") is None

    def test_wrong_version_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text('{"format": "graceful-spiders-path-cache", "version": 99, "entries": {"k": [1]}}')
        assert PathCache(str(path)).get("k") is None
