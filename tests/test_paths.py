import hashlib
import importlib.util
import json
import os
import sys

import pytest

from graceful_spiders import attach, paths
from graceful_spiders.cli import run
from graceful_spiders.errors import (
    ConstructionInvariantError,
    InfeasibleError,
    ValidationError,
)
from graceful_spiders.model import Labeling, alpha_index, is_graceful, path_tree
from graceful_spiders.oracle import enumerate_graceful
from graceful_spiders.paths import (
    PathCache,
    alpha_path_end_label,
    alpha_path_zero_at,
    graceful_path_zero_at,
    zigzag_alpha_path,
)

# Frozen by exhaustive enumeration; regression constants for the number of
# alpha-labelings of P_n.
ALPHA_PATH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 4, 5: 4, 6: 8, 7: 16, 8: 8, 9: 20, 10: 56, 11: 72, 12: 128}

# Per n, the sha256 of the JSON list of every alpha-labeling of P_n as
# [label sequence, index] pairs, sorted; taken from the path-only
# backtracking enumerator that the oracle's enumeration replaced.
ALPHA_PATH_DIGESTS = {
    1: "9fc8bfd4b83b0317a2a7bdd826cc1f2d8559f1c1cce79972af2ebf3a418dc1af",
    2: "517a6c9ec5a01b3c969a8cd8406a4f0c0f29ab1f42738227c2d5d6b1efffbc67",
    3: "f80dca388a78d3f05943e96a53e88826eacbd9b5956b8f2317b1a429ca77bb65",
    4: "838ba8498efa017553f97530827b5f23b24a0441ba31e0b9a039838d52818a71",
    5: "9fb76b55262724ee74c86c49a5a246b1d7e6aa37c76b1cf8d2e120dba3db82cc",
    6: "385874de133c10378422523631a83951af17fee24cb54b1fd6f41616627667fb",
    7: "2b6ebd439d9643bf1eda16a4090c104cac763f6a4adbbb960f9276f4b09a14b6",
    8: "dbe72fbd3e3195b5bab83bfb9b41530f9d4bfa3bebd1c950dd4200e051d39578",
    9: "986bad3c79897c314394d4236f056bd2f3d6c6118b31485e74f2e6bc84c7c8f6",
    10: "5e8538a8146d0d8d076ab879a1306d988cdd5205f3d09c08ad3e9252a4787ef1",
    11: "404c4270eaea662567bdeb4d25b5a8d0898fb4287b000f900f94c7e3ef16678f",
    12: "df6a6a38990d6fe68e4250fb4063cbd1eee9787efe7ad8b3a1f0940796184e1a",
}

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


def alpha_paths(n: int) -> list[tuple[list[int], int]]:
    """Every alpha-labeling of P_n as (label sequence, index), sorted."""
    t = path_tree(n)
    report = enumerate_graceful(t, alpha_constrained=True)
    assert report.exhausted and report.count == len(report.labelings)
    return sorted((lab.as_sequence(n), alpha_index(t, lab)) for lab in report.labelings)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class _Slots(list):
    """n empty slots that record the index of every write into them."""

    def __init__(self, n: int):
        super().__init__([None] * n)
        self.written = []

    def __setitem__(self, key, value):
        if isinstance(key, slice):
            value = list(value)
            self.written += range(*key.indices(len(self)))
        else:
            self.written.append(key)
        super().__setitem__(key, value)


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
    def test_endpoint_examples(self):
        assert graceful_path_zero_at(7, 0).as_sequence(7) == [0, 6, 1, 5, 2, 4, 3]
        assert graceful_path_zero_at(1, 0).as_sequence(1) == [0]

    def test_far_endpoint_reversed(self):
        seq = graceful_path_zero_at(7, 6).as_sequence(7)
        assert seq == [3, 4, 2, 5, 1, 6, 0]

    def test_interior_position(self):
        lab = graceful_path_zero_at(6, 2)
        assert lab[2] == 0 and is_graceful(path_tree(6), lab)

    def test_p5_central_exception_still_graceful(self):
        lab = graceful_path_zero_at(5, 2)
        assert lab[2] == 0 and is_graceful(path_tree(5), lab)
        assert alpha_index(path_tree(5), lab) is None

    def test_position_range(self):
        with pytest.raises(ValidationError):
            graceful_path_zero_at(5, 5)


class TestAlphaZeroAt:
    def test_p5_central_infeasible(self):
        with pytest.raises(InfeasibleError):
            alpha_path_zero_at(5, 2)

    def test_trivial(self):
        assert alpha_path_zero_at(2, 0).labeling.as_sequence(2) == [0, 1]

    def test_example_7_2(self):
        al = alpha_path_zero_at(7, 2)
        assert al.labeling[2] == 0
        assert alpha_index(al.tree, al.labeling) == al.alpha

    def test_all_positions_up_to_20(self):
        for n in range(1, 21):
            for pos in range(n):
                if (n, pos) == (5, 2):
                    continue
                al = alpha_path_zero_at(n, pos)
                assert al.labeling[pos] == 0
                assert alpha_index(al.tree, al.labeling) == al.alpha

    def test_deterministic(self):
        a = alpha_path_zero_at(15, 6).labeling.as_sequence(15)
        b = alpha_path_zero_at(15, 6).labeling.as_sequence(15)
        assert a == b


class TestProvidersCertify:
    """The alpha providers certify through `model.certified`, index
    included, so a faulty construction is internal (exit 4), not a
    validation error. A non-graceful one is covered in
    test_final_checks.py."""

    CASES = [
        (lambda: zigzag_alpha_path(5), "zigzag provider produced no alpha-labeling of P_5",
         ["zigzag", "--n", "5"]),
        (lambda: alpha_path_zero_at(5, 0),
         "path provider produced no alpha-labeling of P_5 with 0 at position 0",
         ["alpha", "--n", "5", "--position", "0"]),
        (lambda: alpha_path_end_label(5, 0),
         "path provider produced no alpha-labeling of P_5 with endpoint label 0",
         ["alpha", "--n", "5", "--end-label", "0"]),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_wrong_index_is_internal(self, monkeypatch, capsys, case):
        make, message, argv = self.CASES[case]
        low_end = paths._alpha_low_end
        # Graceful, but P_5's complemented zigzag has index 1, not 2.
        monkeypatch.setattr(paths, "_alpha_low_end",
                            lambda n, *a: [n - 1 - x for x in low_end(n, *a)])
        with pytest.raises(ConstructionInvariantError) as err:
            make()
        assert str(err.value) == message
        assert run(["path", *argv]) == 4
        assert json.loads(capsys.readouterr().out) == {
            "error": {"type": "internal", "message": message}}


def _construct(n: int, p: int) -> list[int] | None:
    """`_zero_at_construct(n, p)` through the identity map, into new slots."""
    return paths._zero_at_construct(n, p, 1, 0, 0, [0] * n)


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
            assert _construct(n, p) is None
            al = alpha_path_zero_at(n, p)  # certified with its index
            assert al.labeling[p] == 0
            assert al.alpha == (n + 1 - p % 2) // 2 - 1

    @pytest.mark.parametrize(
        "n, p", [(10001, 5000), (9998, 3332), (9998, 6665), (9999, 3333), (9999, 6665)]
    )
    def test_large_pairs(self, n, p):
        assert _construct(n, p) is None
        seq, alpha = paths._alpha_zero_seq(n, p)
        lab = Labeling.from_sequence(seq)
        assert seq[p] == 0 and is_graceful(path_tree(n), lab)
        assert alpha_index(path_tree(n), lab) == alpha

    @pytest.mark.parametrize("k", [401, 1000, 2345, 9999])
    def test_pairs_beyond_400(self, k):
        # The shorter arm, closed by `_zero_at_construct(q+2, q)` and a band.
        for n, q in ((6 * k + 2, 2 * k), (6 * k + 3, 2 * k + 1)):
            for p in (q, n - 1 - q):
                assert _construct(n, p) is None
                al = alpha_path_zero_at(n, p)  # certified with its index
                assert al.labeling[p] == 0

    def test_p9_band_is_infeasible(self):
        # P_9's shorter-arm block, the P_5 of `_zero_at_construct(5, 3)`
        # with its highs raised by the 4 band vertices, ends on the top
        # label 8 and leaves P_4 with endpoint 2, hence the literal; the
        # band guard raises rather than fall back.
        out = [None] * 9
        paths._zero_at_arms(5, 1, 1, 0, 4, out, 4, 1)
        assert out[:5] == [0, 7, 1, 6, 8]
        with pytest.raises(ConstructionInvariantError,
                           match="^a band needs P_4 with endpoint label 2, which has no "):
            paths._extend_by_band(4, 1, 8, 1, 0, 0, out, 5)
        assert paths._zero_at_residue(9, 3, 1, 0, 0, [0] * 9) == [0, 6, 2, 7, 8, 1, 4, 3, 5]
        assert paths._alpha_zero_seq(9, 3)[0] == [7, 2, 6, 0, 8, 1, 4, 3, 5]

    def test_no_search_left(self):
        for name in ("_search_path", "_Budget", "_outward_order", "default_cache",
                     "CACHE_ENV_VAR"):
            assert not hasattr(paths, name), name


class TestAlphaEndLabel:
    def test_figure1_path_golden(self):
        al = alpha_path_end_label(7, 6, 2)
        assert al.labeling.as_sequence(7) == [6, 0, 5, 1, 4, 2, 3]
        assert al.alpha == 2

    def test_trivial(self):
        assert alpha_path_end_label(2, 1, 0).labeling.as_sequence(2) == [1, 0]

    def test_lemma2c_exception(self):
        with pytest.raises(InfeasibleError):
            alpha_path_end_label(5, 1)
        with pytest.raises(InfeasibleError):
            alpha_path_end_label(5, 3)
        with pytest.raises(InfeasibleError):
            alpha_path_end_label(9, 2)

    def test_lemma2c_rule_is_the_low_end_rule(self):
        # The endpoint pairs refused as Lemma 2(c)'s, n = 4s+1 with endpoint
        # s or 3s, are exactly those whose low endpoint label (the label
        # itself, or its complement n-1-e when high) `_low_end_feasible`
        # refuses; each is refused with the Lemma 2(c) message.
        for n in range(2, 200):
            hi = (n + 1) // 2 - 1
            s = (n - 1) // 4
            for e in range(n):
                lemma = n % 4 == 1 and e in (s, 3 * s)
                assert lemma == (not paths._low_end_feasible(n, e if e <= hi else n - 1 - e)), (n, e)
                if lemma:
                    with pytest.raises(InfeasibleError) as err:
                        alpha_path_end_label(n, e)
                    assert str(err.value) == (
                        f"P_{n} (n=4s+1, s={s}) has no alpha-labeling with endpoint label {e}"
                    )

    def test_validation(self):
        with pytest.raises(ValidationError):
            alpha_path_end_label(1, 0)
        with pytest.raises(ValidationError):
            alpha_path_end_label(6, 6)

    def test_impossible_index(self):
        with pytest.raises(InfeasibleError):
            alpha_path_end_label(8, 2, required_index=1)

    @pytest.mark.parametrize("n, indices", [(2, "0"), (6, "2"), (7, "2 or 3"), (9, "3 or 4")])
    def test_impossible_index_message(self, n, indices):
        # Even n has one index; the message names it once.
        with pytest.raises(InfeasibleError) as err:
            alpha_path_end_label(n, 1, required_index=5)
        assert str(err.value) == (
            f"every alpha-labeling of P_{n} has index {indices}; index 5 is impossible"
        )

    def test_exhaustive_against_enumeration(self):
        for n in range(2, 11):
            feasible = {(seq[0], idx) for seq, idx in alpha_paths(n)}
            hi, lo = (n + 1) // 2 - 1, n // 2 - 1
            for e in range(n):
                for idx in (None, hi, lo):
                    want = any(
                        (e, i) in feasible for i in ((hi, lo) if idx is None else (idx,))
                    )
                    try:
                        al = alpha_path_end_label(n, e, idx)
                        got = True
                        assert al.labeling[0] == e
                        assert idx is None or al.alpha == idx
                        assert alpha_index(al.tree, al.labeling) == al.alpha
                    except InfeasibleError:
                        got = False
                    assert got == want, (n, e, idx)

    def test_deterministic(self):
        a = alpha_path_end_label(20, 13).labeling.as_sequence(20)
        b = alpha_path_end_label(20, 13).labeling.as_sequence(20)
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

    def test_one_zigzag_and_one_lift(self):
        assert not hasattr(paths, "_zigzag_seq")
        assert not hasattr(attach, "_alpha_end_seq")

    def test_zero_at_arm_through_the_map(self, monkeypatch):
        # `_zero_at_construct` writes zero first through the map (s, lo, hi)
        # it is handed, each slot once: 0, the zigzag arm as the zigzag of
        # P_q complemented, and the other arm through the one band step.
        # No labeling is lifted, reversed or copied after it is written;
        # path order is the zero-first one with its first p + 1 reversed.
        # The residues write each slot once too.
        calls, steps = [], []
        low_end, extend = paths._alpha_low_end, paths._extend_by_band
        monkeypatch.setattr(paths, "_alpha_low_end",
                            lambda *a: calls.append(a[:5]) or low_end(*a))
        monkeypatch.setattr(paths, "_extend_by_band",
                            lambda *a: steps.append(a[:6]) or extend(*a))
        for n in range(3, 80):
            for p in range(1, n - 1):
                if _construct_misses(n, p):
                    continue
                q = next(q for q in (p, n - 1 - p) if paths._low_end_feasible(n - 1 - q, q // 2))
                j, r = q // 2, n - 1 - q
                alpha = (n - 1 - p % 2) // 2
                plain = _construct(n, p)
                assert plain[p::-1] + plain[p + 1:] == paths._alpha_zero_seq(n, p)[0], (n, p)
                for s, lo, hi in ((1, 0, 3), (-1, alpha, alpha + n + 3)):
                    calls.clear()
                    steps.clear()
                    out = _Slots(n)
                    assert paths._zero_at_construct(n, p, s, lo, hi, out) is out
                    assert sorted(out.written) == list(range(n)), (n, p)
                    # A 6j+3 band's peel writes its first block through a
                    # call of its own, into the same slots.
                    assert calls[:2] == [(q, 0, -s, s * (n - 1) + hi, s * q + lo),
                                         (r, j, -s, s * (j + r) + hi, s * (j + r) + lo)], (n, p)
                    assert steps == [(r, j, 0, s, lo, hi)], (n, p)
                    assert out == [s * x + (lo if x <= alpha else hi) for x in plain], (n, p)
        routes = {(14, 4): 2, (14, 9): 2, (15, 5): 2, (9, 4): 1, (17, 8): 2, (13, 6): 0,
                  (9, 3): 0, (9, 5): 0}
        for (n, p), bands in routes.items():
            steps.clear()
            out = _Slots(n)
            assert paths._zero_at_residue(n, p, 1, 0, 0, out) is out
            assert sorted(out.written) == list(range(n)), (n, p)
            assert len(steps) == bands, (n, p)
            assert out[p::-1] + out[p + 1:] == paths._alpha_zero_seq(n, p)[0], (n, p)

    def test_peel_rule_at_6j_plus_3(self):
        # n = 6j+3 peels a block of 2j+4 vertices, not the plain fan, whose
        # rest would be Lemma 2(c)'s infeasible P_{4j+1} with endpoint j.
        for j in list(range(1, 301)) + [10_000]:
            al = alpha_path_end_label(6 * j + 3, j)  # certifies graceful and index
            assert al.labeling[0] == j and al.alpha == 3 * j + 1

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_deep_paths_without_recursion(self, j):
        # A small endpoint label peels about n / (2j + 2) blocks.
        n = 10**5
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 100)
        try:
            end = alpha_path_end_label(n, j)
            zero = alpha_path_zero_at(n, j)
        finally:
            sys.setrecursionlimit(limit)
        assert end.labeling[0] == j and zero.labeling[j] == 0


class TestEnumerate:
    """Every alpha-labeling of a path, listed by the oracle."""

    def test_frozen_counts(self):
        for n, want in ALPHA_PATH_COUNTS.items():
            assert len(alpha_paths(n)) == want

    def test_frozen_digests(self):
        for n, want in ALPHA_PATH_DIGESTS.items():
            rows = [[seq, idx] for seq, idx in alpha_paths(n)]
            assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == want, n

    def test_n2_exact(self):
        assert alpha_paths(2) == [([0, 1], 0), ([1, 0], 0)]

    def test_p5_endpoint_exceptions(self):
        ends = {seq[0] for seq, _ in alpha_paths(5)}
        assert ends == {0, 2, 4}


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
