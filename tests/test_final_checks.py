"""Every construction's final check: with the `is_graceful` that
`model.certified` calls made to refuse, each builder and provider raises
`ConstructionInvariantError` with its own message, and the CLI exits 4
(`internal`).

The steps inside a construction keep no check of their own beyond the
band guard of `paths._alpha_low_end`, which stops an infeasible band from
crashing or hanging its loop, and the bridge label of
`attach._attach_block`. The faults the deleted step checks caught still end
as `ConstructionInvariantError` and exit 4: an infeasible band at the guard,
and a doubling step whose attachment precondition fails (its lengths let
through a patched `check_doubling`) at the guard too. No module under
`src/` holds an `assert`, which `python -O` strips."""

import ast
import json
import pathlib
import signal
import sys

import pytest

from graceful_spiders import doubling, model, paths
from graceful_spiders.attach import attach_path
from graceful_spiders.cli import run
from graceful_spiders.compose import amalgamate, label_three_long_legs
from graceful_spiders.doubling import label_doubling_spider
from graceful_spiders.errors import ConstructionInvariantError
from graceful_spiders.model import Labeling, path_tree
from graceful_spiders.paths import (
    alpha_path_end_label,
    alpha_path_zero_at,
    graceful_path_zero_at,
    zigzag_alpha_path,
)
from graceful_spiders.short_legs import ShortLegSpec, extend_with_leaves, label_short_leg_spider
from graceful_spiders.treedoc import dumps_document, to_document

P3 = [0, 2, 1]  # a graceful labeling of P_3 with 0 at an endpoint
G6 = zigzag_alpha_path(6)  # alpha = 2, carried by the vertex at position 4

CASES = {
    "doubling": (lambda: label_doubling_spider([1, 9, 20]),
                 "doubling construction produced a non-graceful labeling; this "
                 "contradicts Theorem 3"),
    "short": (lambda: label_short_leg_spider(ShortLegSpec(9, 2, 1)),
              "short-leg construction produced a non-graceful labeling; this "
              "contradicts Theorem 4"),
    "three-long": (lambda: label_three_long_legs([5, 4, 3, 2, 1]),
                   "three-long-leg construction produced a non-graceful labeling; "
                   "this contradicts Theorem 5"),
    "graceful_path_zero_at": (lambda: graceful_path_zero_at(7, 2),
                              "path provider produced a non-graceful labeling of P_7 with 0 "
                              "at position 2"),
    "attach_path": (lambda: attach_path(path_tree(3), Labeling.from_sequence(P3), 0, 4),
                    "attach_path produced a non-graceful labeling; this contradicts the "
                    "attachment guarantee"),
    "amalgamate": (lambda: amalgamate(G6, 4, path_tree(3), Labeling.from_sequence(P3), 0),
                   "amalgamation produced a non-graceful labeling; this contradicts Lemma 1"),
    "extend_with_leaves": (lambda: extend_with_leaves(path_tree(3), Labeling.from_sequence(P3),
                                                      0, 2),
                           "leaf extension broke gracefulness"),
    "zigzag_alpha_path": (lambda: zigzag_alpha_path(6),
                          "zigzag provider produced no alpha-labeling of P_6"),
    "alpha_path_zero_at": (lambda: alpha_path_zero_at(7, 2),
                           "path provider produced no alpha-labeling of P_7 with 0 at "
                           "position 2"),
    "alpha_path_end_label": (lambda: alpha_path_end_label(7, 6, 2),
                             "path provider produced no alpha-labeling of P_7 with endpoint "
                             "label 6"),
}


@pytest.fixture
def refusing(monkeypatch):
    """Make `model.certified`'s gracefulness check refuse every labeling.
    Every layer is read (and a lazy one loaded) before the patch, so none
    imports the refusing function as its own name."""
    for name, module in list(sys.modules.items()):
        if name.startswith("graceful_spiders."):
            getattr(module, "is_graceful", None)
    monkeypatch.setattr(model, "is_graceful", lambda t, lab: False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_final_check_raises(name, refusing):
    make, message = CASES[name]
    with pytest.raises(ConstructionInvariantError) as err:
        make()
    assert str(err.value) == message
    if name == "doubling":
        # The trace of every step taken comes with the error.
        assert [s["operation"] for s in err.value.trace][0] == "base"
        assert len(err.value.trace) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["spider", "doubling", "--legs", "1,9,20"],
        ["spider", "short", "--long", "9", "--two", "2"],
        ["spider", "three-long", "--legs", "5,4,3"],
        ["path", "zigzag", "--n", "6"],
        ["path", "graceful", "--n", "7", "--position", "2"],
        ["path", "alpha", "--n", "7", "--position", "2"],
        ["path", "alpha", "--n", "7", "--end-label", "6"],
        ["attach", "--graph", "{host}", "--vertex", "0", "--path-len", "4"],
    ],
)
def test_final_check_exit4(argv, tmp_path, capsys, refusing):
    # `amalgamate` is left out: its input check, `alpha_index`, reads the
    # same refusing name and exits 2 first.
    host = tmp_path / "host.json"
    host.write_text(dumps_document(to_document(path_tree(3), Labeling.from_sequence(P3))))
    assert run([a.format(host=host) for a in argv]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "internal"


@pytest.fixture
def bounded():
    """Fail a call that does not end within 5 s, rather than hang: without
    the band guard, some of these calls never end."""
    def expire(signum, frame):
        raise TimeoutError("the call did not end within 5 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("n, j", [(9, 2), (4, 2), (13, 3)])
def test_band_guard(n, j, bounded):
    # Lemma 2(c)'s pairs (9, 2) and (13, 3) crash the loop unguarded, and
    # (4, 2), an endpoint above the low class, never ends it.
    with pytest.raises(ConstructionInvariantError) as err:
        paths._alpha_low_end(n, j)
    assert str(err.value) == (
        f"a band needs P_{n} with endpoint label {j}, which has no alpha-labeling"
    )
    assert err.value.trace is None


def test_broken_attachment_precondition_is_internal(monkeypatch, capsys, bounded):
    # [1, 5, 12] breaks ell_2 >= 2*ell_1 + 4. Let through, its first step
    # grows the 5-leg from y_2, labeled 2, by a P_4: 2 + 2 + 1 > 4 breaks
    # f(u) + floor(n/2) + 1 <= n, and the band's endpoint label is -1.
    monkeypatch.setattr(doubling, "check_doubling", lambda legs: tuple(sorted(legs)))
    with pytest.raises(ConstructionInvariantError) as err:
        label_doubling_spider([1, 5, 12])
    assert str(err.value) == (
        "a band needs P_4 with endpoint label -1, which has no alpha-labeling"
    )
    assert run(["spider", "doubling", "--legs", "1,5,12"]) == 4
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "internal"


def test_no_assert_statement_in_src():
    # `python -O` strips asserts, so each check raises a package error,
    # which the CLI maps to exit 2, 3 or 4.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    found = [f"{path.relative_to(src)}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
