"""Closed-form graceful labelings for spiders with one leg of arbitrary
length and every other leg of length at most two; the center always ends up
labeled 0, which is what makes these spiders a useful base for further path
attachment.

Vertex naming convention (mirrored by the canonical spider numbering): the
center is x0 = vertex 0; each length-2 leg i in [1, s] is x0-u_i-v_i with
u_i = 2i-1 and v_i = 2i; the distinguished leg runs x1..x_ell with
x_i = 2s + i; any length-1 legs are appended after that.

Every role's labels are arithmetic progressions: u_i and v_i in steps of 2
over i, and x_i in steps of 2 within each class of i mod 4. So the labels
are written by vertex id as six slice assignments of a `range` each, with
no per-vertex step.
"""

from __future__ import annotations

from .errors import ConstructionInvariantError, ValidationError
from .model import (
    Labeling, Spider, Tree, _Record, _canonical_spider, _center_first, _check_int,
    _check_vertex_count, build_spider, certified, is_graceful,
)
from .paths import _alpha_zero_seq


class ShortLegSpec(_Record):
    """Leg profile: one distinguished leg of length ell, s legs of length 2,
    t legs of length 1."""

    __slots__ = ("ell", "s", "t")

    def __post_init__(self):
        for field in self.__slots__:
            _check_int(field, getattr(self, field))
        if self.ell < 1:
            raise ValidationError("distinguished leg length must be >= 1")
        if self.s < 0 or self.t < 0:
            raise ValidationError("leg counts must be non-negative")
        _check_vertex_count(self.m + 1)

    @property
    def m(self) -> int:
        return 2 * self.s + self.ell + self.t

    @property
    def leg_lengths(self) -> list[int]:
        """Leg lengths in canonical order: 2-legs, distinguished leg, 1-legs."""
        return _short_leg_lengths(self.ell, self.s, self.t)


def _short_leg_lengths(ell: int, s: int, t: int) -> list[int]:
    """Leg lengths in the canonical order of this module's spiders: s
    2-legs, the distinguished leg ell, then t 1-legs."""
    return [2] * s + [ell] + [1] * t


def role_labels(ell: int, s: int) -> tuple[int, list[int], list[int], list[int]]:
    """Evaluate the closed-form labeling for the (2 x s, ell) spider.

    Returns (center label, x labels for x1..x_ell, u labels, v labels).
    """
    labels = _formula_labels(ell, s)
    return labels[0], labels[2 * s + 1:], labels[1:2 * s:2], labels[2:2 * s + 1:2]


def formula_spider(ell: int, s: int) -> Spider:
    """The canonical spider the closed-form labeling applies to."""
    return build_spider(_short_leg_lengths(ell, s, 0))


def short_leg_formula(ell: int, s: int) -> Labeling:
    """Closed-form graceful labeling of the (2 x s, ell) spider, center 0.

    Proven for s >= 2, where it is the labeling `label_short_leg_spider`
    gives ShortLegSpec(ell, s, 0), certified by that builder.
    """
    _check_int("ell", ell)
    _check_int("s", s)
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    if s < 2:
        raise ValidationError(
            "closed-form labeling requires s >= 2; use label_short_leg_spider "
            "for smaller spiders"
        )
    return label_short_leg_spider(ShortLegSpec(ell, s, 0))[1]


def _formula_labels(ell: int, s: int) -> list[int]:
    """The closed-form labels laid out by vertex id: x0, then u_i, v_i, then
    x1..x_ell. The formulas split on the parity of ell; m = 2s + ell."""
    m = 2 * s + ell
    odd = ell % 2
    labels = [0] * (m + 1)
    # u_i = m - (2i - 1) for odd ell and m - 2(i - 1) for even ell; v_i = 2i - 1.
    labels[1:2 * s:2] = range(m - odd, m - odd - 2 * s, -2)
    labels[2:2 * s + 1:2] = range(1, 2 * s, 2)
    # x_i (id 2s + i) for i = c, c + 4, ... runs down or up in steps of 2:
    #   i = 1 mod 4: m - (i - 1)/2 (odd ell), m - 2s - (i - 1)/2 (even ell);
    #   i = 2 mod 4: 2s - 1 + (i + 2)/2;
    #   i = 3 mod 4: m - (2s - 1) - (i + 1)/2 (odd ell), m - 1 - (i - 3)/2 (even ell);
    #   i = 0 mod 4: i/2.
    for c, first, step in ((1, m if odd else m - 2 * s, -2), (2, 2 * s + 1, 2),
                           (3, m - 2 * s - 1 if odd else m - 1, -2), (4, 2, 2)):
        labels[2 * s + c::4] = range(first, first + step * len(range(c, ell + 1, 4)), step)
    return labels


def extend_with_leaves(
    t: Tree, f: Labeling, center: int, t_count: int
) -> tuple[Tree, Labeling]:
    """Add t_count leaves at a 0-labeled center, labeled m'+1 .. m'+t_count.

    Preserves gracefulness and the center label.
    """
    _check_int("center", center)
    _check_int("t_count", t_count)
    _check_vertex_count(t.n + t_count)
    if t_count < 0:
        raise ValidationError("leaf count must be non-negative")
    if not is_graceful(t, f):
        raise ValidationError("labeling must be graceful before extending")
    if f[center] != 0:
        raise ValidationError(f"center must be labeled 0, got {f[center]}")
    if t_count == 0:
        return t, f
    extended = Tree(t.n + t_count, parent=t.parent + (center,) * t_count)
    values = _with_leaves(f.as_sequence(t.n), t_count)
    return extended, certified(extended, values, "leaf extension broke gracefulness")


def _with_leaves(labels: list[int], t_count: int) -> list[int]:
    """`labels` (a graceful labeling of an m'-edge tree, m' = len(labels) - 1)
    extended in place by the labels m'+1 .. m'+t_count of leaves added at its
    0-labeled vertex; edge label m'+j goes to the j-th leaf."""
    labels += range(len(labels), len(labels) + t_count)
    return labels


def label_short_leg_spider(
    spec: ShortLegSpec, budget: int | None = None
) -> tuple[Spider, Labeling]:
    """Graceful labeling, center 0, of the spider with legs
    (ell, 2 x s, 1 x t), on the canonical numbering of `short_leg_spider`.

    Only s = 1 is labeled as a path: the reduced spider is then a path,
    labeled by the zero-at-position provider with the center at the
    distance-2 interior vertex. Every other s uses the closed-form labeling;
    at s = 0 that is the zigzag of the path x0..x_ell. Length-1 legs are
    appended as labeled leaves afterward. Every step is closed form, so
    `budget` is accepted and ignored. The result is checked graceful once,
    on the canonical spider.
    """
    spider = short_leg_spider(spec)
    return spider, certified(
        spider.tree,
        _short_leg_labels(spec.ell, spec.s, spec.t),
        "short-leg construction produced a non-graceful labeling; this "
        "contradicts Theorem 4",
    )


def _short_leg_labels(ell: int, s: int, t: int) -> list[int]:
    """Labels by vertex id of `short_leg_spider(ShortLegSpec(ell, s, t))`,
    center 0; not certified (the steps of label_short_leg_spider, on a
    plain list). The counts are not checked again."""
    if s == 1:
        # reduced spider is the path v1-u1-x0-x1-..-x_ell; ids 2,1,0,3,4,...
        labels = _center_first(_alpha_zero_seq(ell + 3, 2)[0], 2)
    else:
        labels = _formula_labels(ell, s)
    if labels[0] != 0:
        raise ConstructionInvariantError(
            f"short-leg center is labeled {labels[0]}, expected 0"
        )
    return _with_leaves(labels, t)


def short_leg_spider(spec: ShortLegSpec) -> Spider:
    """Canonical spider for a ShortLegSpec: legs ordered 2-legs, distinguished
    leg, then 1-legs, matching the role numbering in this module. The spec
    has checked the lengths."""
    return _canonical_spider(spec.leg_lengths)
