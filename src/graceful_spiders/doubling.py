"""Graceful labelings of spiders whose sorted leg lengths grow by doubling.

A spider with legs ell_1 <= ... <= ell_s is labeled by iterated path
attachment when ell_{i+1} >= 2*ell_i + 2 for i in [2, s-1] and
ell_2 >= 2*ell_1 + 2 (or + 4 when ell_2 = 1 mod 4). The base tree S_1 is the
first leg, center at an endpoint labeled 0, plus one pre-labeled leaf y_i for
every later leg whose length is 1 mod 4 (those lengths cannot be attached
directly, since attachment requires a vertex count != 1 mod 4; extending a
leaf by ell_i - 1 vertices sidesteps the residue). Each remaining leg is then
grafted by the attachment step of `attach`, whose preconditions
`check_doubling` has proved for every step, so no step checks them again:
a fault that breaks one raises in `paths._alpha_low_end`'s guard or fails
the final check, both `ConstructionInvariantError`. Each step shifts the
host by floor(n/2), fixed by the lengths, so every label is written once,
already raised by the shifts of the later steps, straight into the
canonical numbering; the finished spider is certified once. The same
steps run for every s >= 1: a single leg is the base alone, and a second
leg is attached at x, or grown from y_2, like any later one, although two
legs make the spider a path.

The trace is a plain list with one document per step, written as `spider
doubling --trace` prints it: {"operation", "params", "edge_count"}, where
edge_count is the host's edge count after the step. Each attachment adds
n >= 2 edges (the growth conditions make every later leg at least 4 long),
so the counts strictly increase.
"""

from __future__ import annotations

from .attach import _attach_block
from .errors import ValidationError
from .model import Labeling, Spider, _canonical_spider, _check_legs, certified
from .paths import _alpha_low_end

# The message of the one gracefulness check of a doubling build.
_CONTRADICTION = (
    "doubling construction produced a non-graceful labeling; this "
    "contradicts Theorem 3"
)


def check_doubling(leg_lengths: list[int]) -> tuple[int, ...]:
    """Validate the doubling growth conditions and return the sorted lengths.

    Lengths are sorted ascending first; the conditions are stated (and only
    satisfiable) in that order. Raises a validation error naming the first
    violated inequality.
    """
    lengths = tuple(sorted(_check_legs(leg_lengths)))
    s = len(lengths)
    if s >= 2:
        bound = 2 * lengths[0] + (4 if lengths[1] % 4 == 1 else 2)
        if lengths[1] < bound:
            raise ValidationError(
                f"doubling condition failed at i=2: ell_2 = {lengths[1]} < {bound}"
                + (" (ell_2 = 1 mod 4 requires 2*ell_1 + 4)" if lengths[1] % 4 == 1 else "")
            )
    for i in range(2, s):  # 1-based i in [2, s-1]: compare ell_{i+1} with ell_i
        if lengths[i] < 2 * lengths[i - 1] + 2:
            raise ValidationError(
                f"doubling condition failed at i={i}: ell_{i + 1} = {lengths[i]} < "
                f"2*{lengths[i - 1]} + 2 = {2 * lengths[i - 1] + 2}"
            )
    return lengths


def label_doubling_spider(
    leg_lengths: list[int], budget: int | None = None
) -> tuple[Spider, Labeling, list[dict]]:
    """Graceful labeling of the doubling spider, on the canonical numbering
    of build_spider(sorted lengths).

    The base and the iterated attachment run for every number of legs,
    checking the bridge label at every step: one leg is the zigzag base
    with the center at 0, and from the second leg on each step raises the
    center by its shift. Every step is closed form, so `budget` is accepted
    and ignored. The result is checked graceful once, on the canonical
    spider. The third value is the trace, one step document per step; the
    final check's `ConstructionInvariantError` carries every step as its
    `trace`, and a fault inside a step raises without one.
    """
    lengths = check_doubling(leg_lengths)
    s = len(lengths)
    spider = _canonical_spider(lengths)
    trace: list[dict] = []

    # Base S_1: the first leg as a path with the center x at an endpoint
    # labeled 0 (zigzag), plus a leaf y_i labeled ell_1 + j for the j-th
    # later leg whose length is 1 mod 4. Such a leg attaches ell_i - 1
    # vertices at y_i, any other leg ell_i vertices at x. Labels go out in
    # canonical order (center, leg 1, then each later leg's leaf y_i, if
    # any, and block), each raised by the shifts of the steps after the one
    # that writes it.
    ell1 = lengths[0]
    leaves: dict[int, int] = {}
    for i in range(2, s + 1):
        if lengths[i - 1] % 4 == 1:
            leaves[i] = ell1 + len(leaves) + 1
    counts = [lengths[i - 1] - 1 if i in leaves else lengths[i - 1] for i in range(2, s + 1)]
    later = sum(n // 2 for n in counts)
    m = ell1 + len(leaves)
    trace.append({"operation": "base", "params": {"leg": ell1, "leaves": leaves},
                  "edge_count": m})
    final = _alpha_low_end(ell1 + 1, 0, 1, later, later)

    done = 0  # the center's label on the host of the current step
    for i, n in enumerate(counts, start=2):
        shift = n // 2
        later -= shift
        x = done
        if i in leaves:
            x += leaves[i]
            final.append(x + shift + later)  # y_i rises like the rest of the host
        final += _attach_block(x, m, n, later)
        trace.append({
            "operation": "attach",
            "params": {
                "leg_index": i,
                "attach_at": "y" if i in leaves else "x",
                "vertex_count": n,
                "shift": shift,
                "bridge_label": m + 1,
            },
            "edge_count": m + n,
        })
        m += n
        done += shift
    return spider, certified(spider.tree, final, _CONTRADICTION, trace), trace
