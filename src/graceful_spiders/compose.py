"""Amalgamation of an alpha-labeled graph with a graceful one, and its
application: graceful labelings of spiders with up to three legs of length
three or more.

The amalgamation identifies a vertex u of G (labeled 0 or alpha in an
alpha-labeling) with a 0-labeled vertex v of a graceful H. Shifting H's
labels up by alpha and G's upper-class labels up by |E(H)| interleaves the
two edge-label ranges into [1, |E(G)|+|E(H)|]. A spider with three long legs
splits into the path through its two longest legs (alpha-labeled with the
center at 0) and the remaining short-legged spider (Theorem 4, center 0);
one amalgamation at the center glues them. The spider builder writes that
amalgam in place: G's labels go through Lemma 1's relabeling as the path
writer's map, H's come raised by alpha, and each lands once in its
canonical slot.

Both results are checked graceful once, as they leave the library.
`_amalgam_labels`, the writer of `amalgamate` (its only caller) for an
arbitrary G, checks only that G's labels index its lookup table.
"""

from __future__ import annotations

from itertools import repeat
from operator import add

from .errors import ConstructionInvariantError, ValidationError
from .model import (
    AlphaLabeling, Labeling, Spider, Tree, _canonical_spider, _check_int,
    _check_legs, certified, is_graceful,
)
from .paths import _zero_at_index, _zero_at_write
from .short_legs import (
    ShortLegSpec, _formula_labels, _short_leg_lengths, label_short_leg_spider,
)


def amalgamate(
    g: AlphaLabeling, u: int, h_tree: Tree, h_labeling: Labeling, v: int
) -> tuple[Tree, Labeling]:
    """Identify vertex u of G (alpha-labeled, u labeled 0 or alpha) with
    vertex v of H (gracefully labeled, v labeled 0) and return the graceful
    labeling.

    When u carries 0 rather than alpha, the flip is applied first. Result
    vertex ids: G keeps its ids (the identified vertex is u); an H vertex w
    becomes g.n + w when w < v and g.n + w - 1 when w > v. The tree is one
    parent array: G's, then H's rooted at v (the links on v's path to H's
    vertex 0 reversed) with v's slot dropped and the rest renumbered, so
    v's neighbours hang from u. At v = 0 H's vertices keep their order after
    G's and the array passes `Tree`'s fast check whenever both arrays do;
    at other v it may not, and `Tree` peels it in place. The result is
    checked graceful before it is returned.
    """
    _check_int("u", u)
    _check_int("v", v)
    if not 0 <= u < g.tree.n:
        raise ValidationError(f"vertex {u} not in G")
    if not 0 <= v < h_tree.n:
        raise ValidationError(f"vertex {v} not in H")
    if g[u] not in (0, g.alpha):
        raise ValidationError(f"u must be labeled 0 or alpha={g.alpha}, got {g[u]}")
    if not is_graceful(h_tree, h_labeling):
        raise ValidationError("H's labeling is not graceful")
    if h_labeling[v] != 0:
        raise ValidationError(f"v must be labeled 0, got {h_labeling[v]}")
    n_g = g.tree.n
    ids = [*range(n_g, n_g + v), u, *range(n_g + v, n_g + h_tree.n - 1)]
    # Root H at v: reverse the parent links on v's path to H's vertex 0.
    up, w, p = list(h_tree.parent), v, -1
    while w >= 0:
        up[w], w, p = p, up[w], w
    del up[v]
    tree = Tree(n_g + h_tree.n - 1, parent=(*g.tree.parent, *map(ids.__getitem__, up)))
    labels = _amalgam_labels(g.labeling.as_sequence(n_g), g.alpha, u,
                             h_labeling.as_sequence(h_tree.n), v)
    return tree, certified(
        tree,
        labels,
        "amalgamation produced a non-graceful labeling; this contradicts "
        "Lemma 1",
    )


def _amalgam_labels(g: list[int], alpha: int, u: int, h: list[int], v: int) -> list[int]:
    """Labels by vertex id (amalgamate's numbering) of the amalgam of an
    alpha-labeled G and a graceful H, identifying u with v (H labels v 0);
    `amalgamate` is its only caller, as the spider builder writes its G
    through the path writer's map. It consumes `h`, a list the caller owns:
    v's entry is deleted from it in place.

    G's labels go through one lookup table of its m_G + 1 possible labels:
    reflected within their class first when u carries 0 (`alpha_flip`), then
    raised by |E(H)| above alpha. H's labels, v's left out, are raised by
    alpha. The inputs are not re-checked, but G's labels are checked to
    index the table, which turns a label out of range into
    ConstructionInvariantError rather than an IndexError or a wrong label.
    The identified vertex needs no check: `amalgamate` has checked that u
    carries 0 or alpha, and the table sends both to alpha.
    """
    m_g, e_h = len(g) - 1, len(h) - 1
    if not 0 <= min(g) <= max(g) <= m_g:
        raise ConstructionInvariantError(f"G has a label outside 0..{m_g}")
    if g[u] == 0 and alpha != 0:
        table = [*range(alpha, -1, -1), *range(m_g + e_h, alpha + e_h, -1)]
    else:
        table = [*range(alpha + 1), *range(alpha + 1 + e_h, m_g + 1 + e_h)]
    out = list(map(table.__getitem__, g))
    del h[v]
    out += map(add, h, repeat(alpha))
    return out


def label_three_long_legs(
    leg_lengths: list[int], budget: int | None = None
) -> tuple[Spider, Labeling]:
    """Graceful labeling of a spider with at most three legs of length >= 3.

    With at most one long leg the short-leg construction already applies and
    is delegated to. Otherwise the two longest legs become the path G
    through the center, alpha-labeled with the center at 0; the rest of the
    spider is labeled by the short-leg construction and amalgamated at the
    center, as `amalgamate` would, with each label written once, final, in
    its canonical slot. Every step is closed form, so `budget` is accepted
    and ignored.
    The lengths are checked once, here, and the result is checked graceful
    once, on the canonical spider.
    """
    leg_lengths = _check_legs(leg_lengths)
    long_count = sum(map((3).__le__, leg_lengths))
    if long_count > 3:
        raise ValidationError(
            f"at most three legs of length >= 3 are supported, got {long_count}"
        )
    if long_count <= 1:
        return label_short_leg_spider(ShortLegSpec(*_short_counts(leg_lengths)))

    ell1, ell2, *rest = sorted(leg_lengths, reverse=True)

    # Both legs are at least 3 long, so n_path >= 7 and Lemma 2(b)'s P_5
    # exception (index None) never comes up.
    n_path = ell1 + ell2 + 1
    alpha = _zero_at_index(n_path, ell1)

    # H's labels come raised by alpha, after G's slots; H's center is the
    # spider's center, slot 0, which G's writer labels alpha too.
    if rest:
        ell, s, t = _short_counts(rest)
        lab = _formula_labels(ell, s, t, alpha, n_path - 1)
        star_lengths = _short_leg_lengths(ell, s, t)
    else:
        lab, star_lengths = [0] * n_path, []

    # Lemma 1 at the center, which G labels 0: each class of G is flipped
    # (x -> alpha - x on the lows, m_G + alpha + 1 - x on the highs) and the
    # highs are raised by |E(H)| = len(lab) - n_path, which sends G's lows x
    # to alpha - x and its highs to alpha + len(lab) - x. G is written zero
    # first, which is the canonical order: the center, leg L1 (path
    # positions ell1-1 .. 0) and leg L2, each read outward.
    _zero_at_write(n_path, ell1, -1, alpha, alpha + len(lab), lab)
    spider = _canonical_spider([ell1, ell2, *star_lengths])
    return spider, certified(
        spider.tree,
        lab,
        "three-long-leg construction produced a non-graceful labeling; "
        "this contradicts Theorem 5",
    )


def _short_counts(leg_lengths: list[int]) -> tuple[int, int, int]:
    """The short-leg counts (ell, s, t) of a leg list whose legs other than
    its longest have length at most 2, as both callers' lists do: the
    longest leg ell, and how many of the others have length 2 and 1."""
    ell = max(leg_lengths)
    return ell, leg_lengths.count(2) - (ell == 2), leg_lengths.count(1) - (ell == 1)
