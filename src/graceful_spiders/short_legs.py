"""Closed-form graceful labelings for spiders with one leg of arbitrary
length and every other leg of length at most two (Theorem 4): one formula
labels every count s >= 0 of length-2 legs, and the center always ends up
labeled 0, which is what makes these spiders a useful base for further path
attachment.

Vertex naming convention (mirrored by the canonical spider numbering): the
center is x0 = vertex 0; each length-2 leg i in [1, s] is x0-u_i-v_i with
u_i = 2i-1 and v_i = 2i; the distinguished leg runs x1..x_ell with
x_i = 2s + i; any length-1 legs are appended after that.

Every role's labels are arithmetic progressions: u_i and v_i in steps of 2
over i, x_i in steps of 2 within each class of i mod 4, and the length-1
legs' leaves in steps of 1. So the labels are written by vertex id as
seven slice assignments of a `range` each, with no per-vertex step, by
`_formula_labels`, the one writer of Theorem 4's labels; it states the
formulas and why they are graceful for every s.
"""

from __future__ import annotations

from .errors import ValidationError
from .model import (
    Labeling, Spider, Tree, _Record, _canonical_spider, _check_int,
    _check_vertex_count, build_spider, certified, is_graceful,
)


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
    """Closed-form graceful labeling of the (2 x s, ell) spider, center 0,
    for every s >= 0: the labeling `label_short_leg_spider` gives
    ShortLegSpec(ell, s, 0), certified by that builder.
    """
    _check_int("ell", ell)
    _check_int("s", s)
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    return label_short_leg_spider(ShortLegSpec(ell, s, 0))[1]


def _formula_labels(
    ell: int, s: int, t: int = 0, shift: int = 0, base: int = 0
) -> list[int]:
    """The closed-form labels laid out by vertex id: x0, then u_i, v_i, then
    x1..x_ell, then t leaves at x0 labeled m+1 .. m+t, where edge label m+j
    goes to the j-th leaf; so labels by vertex id of
    `short_leg_spider(ShortLegSpec(ell, s, t))`. The counts are not checked.
    The formulas split on the parity of ell; m = 2s + ell.

    Every label is written raised by `shift`, and vertex v >= 1 sits at
    index base + v: the slots 1..base, labeled `shift` here, are the
    caller's. So a spider that glues this one at x0 after its own `base`
    other vertices gets the list its labels go into, this part already
    final.

    They are graceful for every s >= 0, s = 1 included; no step below needs
    s >= 2. Let r = ell mod 2.
    - Vertex labels. The odd ones are v_i (1 .. 2s - 1), x_i for i = 2 mod 4
      (up from 2s + 1), and x_i for one odd class of i mod 4 (down from the
      top odd label). The even ones are x0 and x_i for i = 0 mod 4 (up from
      0), x_i for the other odd class (down), and u_i (the top s even
      labels). Each run ends where the next starts, since the classes of
      1..ell mod 4 split ell as the formulas need, so every label in 0..m is
      used once.
    - Edge labels. x0 u_i carries u_i, the s even labels above ell, and
      x_i x_{i+1} with i = r mod 2 carries ell - i, the even labels 2 .. ell.
      u_i v_i and x_i x_{i+1} with i = 1 + r mod 4 carry |m - j| for
      j = 4i - 3 + r and j = 4s + i: j runs over every number = 1 + r mod 4
      in [1, m + 2s - 1]. The j below m give every odd label = m - 1 - r
      mod 4; the j above m give the odd labels of the other class up to
      2s - 1. x_i x_{i+1} with i = 3 + r mod 4 (x0 x1 when r = 1) carries
      m - i, the rest of that class, from 2s + 1 up to m. So every label in
      1..m is used once.
    At s = 1 the j above m give at most the one label 1; at s = 0 they give
    none, and the labels are the zigzag of the path x0..x_ell."""
    m = 2 * s + ell
    odd = ell % 2
    b, top = base, m + shift  # vertex v at b + v; label x written as x + shift
    labels = [shift] * (b + m + t + 1)
    # u_i = m - (2i - 1) for odd ell and m - 2(i - 1) for even ell; v_i = 2i - 1.
    labels[b + 1:b + 2 * s:2] = range(top - odd, top - odd - 2 * s, -2)
    labels[b + 2:b + 2 * s + 1:2] = range(shift + 1, shift + 2 * s, 2)
    # x_i (id 2s + i) for i = c, c + 4, ... runs down or up in steps of 2:
    #   i = 1 mod 4: m - (i - 1)/2 (odd ell), m - 2s - (i - 1)/2 (even ell);
    #   i = 2 mod 4: 2s - 1 + (i + 2)/2;
    #   i = 3 mod 4: m - (2s - 1) - (i + 1)/2 (odd ell), m - 1 - (i - 3)/2 (even ell);
    #   i = 0 mod 4: i/2.
    for c, first, step in ((1, top if odd else top - 2 * s, -2), (2, shift + 2 * s + 1, 2),
                           (3, top - 2 * s - 1 if odd else top - 1, -2), (4, shift + 2, 2)):
        labels[b + 2 * s + c:b + m + 1:4] = range(
            first, first + step * len(range(c, ell + 1, 4)), step)
    labels[b + m + 1:] = range(top + 1, top + t + 1)
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
    # Edge label m'+j goes to the j-th leaf, labeled m'+j; m' + 1 = t.n.
    values = f.as_sequence(t.n)
    values += range(t.n, t.n + t_count)
    return extended, certified(extended, values, "leaf extension broke gracefulness")


def label_short_leg_spider(
    spec: ShortLegSpec, budget: int | None = None
) -> tuple[Spider, Labeling]:
    """Graceful labeling, center 0, of the spider with legs
    (ell, 2 x s, 1 x t), on the canonical numbering of `short_leg_spider`.

    Every s uses the closed-form labeling of `_formula_labels`; at s = 0
    that is the zigzag of the path x0..x_ell. The same call labels the
    length-1 legs' leaves, after the formula's vertices. Every step is closed form, so `budget` is
    accepted and ignored. The result is checked graceful once, on the
    canonical spider.
    """
    spider = short_leg_spider(spec)
    return spider, certified(
        spider.tree,
        _formula_labels(spec.ell, spec.s, spec.t),
        "short-leg construction produced a non-graceful labeling; this "
        "contradicts Theorem 4",
    )


def short_leg_spider(spec: ShortLegSpec) -> Spider:
    """Canonical spider for a ShortLegSpec: legs ordered 2-legs, distinguished
    leg, then 1-legs, matching the role numbering in this module. The spec
    has checked the lengths."""
    return _canonical_spider(spec.leg_lengths)
