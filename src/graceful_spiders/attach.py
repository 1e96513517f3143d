"""Graft a labeled path onto a gracefully labeled graph and relabel.

Given a graceful labeling f of a tree G and a vertex u with
f(u) + floor(n/2) + 1 <= n and n not congruent to 1 mod 4, joining u to the
first endpoint of an n-vertex path yields a graceful tree. The path is
labeled by an alpha-labeling g with index floor(n/2) - 1 and endpoint label
f(u) + floor(n/2); the combined labeling shifts G up by floor(n/2) and the
high part of the path up by m + 1, so the bridge edge lands on label m + 1.

`attach_path` refuses input that breaks these preconditions. The block
writer `_attach_block` assumes them, since the doubling builder has proved
them for every step before it writes one; it checks only the bridge label,
the value that `AttachResult` and the doubling trace report.
"""

from __future__ import annotations

from .errors import ConstructionInvariantError, ValidationError
from .model import Labeling, Tree, _Record, _check_int, _check_vertex_count, certified, is_graceful
from .paths import _alpha_low_end


class AttachResult(_Record):
    """The joined tree and its labeling. `path_ids` holds the ids of the
    attached path's vertices, in path order; path_ids[0] is the endpoint v
    joined to u."""

    __slots__ = ("tree", "labeling", "shift", "bridge_label", "path_ids")


def attach_path(t: Tree, f: Labeling, u: int, n: int) -> AttachResult:
    """Attach an n-vertex path at u and return the graceful relabeling.

    Path vertices get the ids t.n .. t.n+n-1 in path order. The host must be
    gracefully labeled, and u and n must meet the attachment preconditions,
    checked here in the order n >= 2, n != 1 (mod 4), f(u) + floor(n/2) + 1
    <= n. The result is certified here, where it leaves the library: the
    joined labeling is checked graceful and `_attach_block` checks the
    bridge label m+1, and a failure raises ConstructionInvariantError, since
    the construction guarantees both. The doubling builder labels each leg
    with `_attach_block` instead and certifies the finished spider once.
    """
    _check_int("u", u)
    _check_int("n", n)
    if not 0 <= u < t.n:
        raise ValidationError(f"vertex {u} not in the host tree")
    if not is_graceful(t, f):
        raise ValidationError("host labeling is not graceful")
    host = f.as_sequence(t.n)
    if n < 2:
        raise ValidationError(f"precondition failed: n >= 2 (got n={n})")
    if n % 4 == 1:
        raise ValidationError(f"precondition failed: n != 1 (mod 4) (got n={n})")
    shift = n // 2
    if host[u] + shift + 1 > n:
        raise ValidationError(
            f"precondition failed: f(u) + floor(n/2) + 1 <= n "
            f"({host[u]} + {shift} + 1 > {n})"
        )
    _check_vertex_count(t.n + n)
    block = _attach_block(host[u], t.m, n)
    labels = [x + shift for x in host] + block

    path_ids = range(t.n, t.n + n)
    # The path's first vertex hangs off u, each later one off the one before.
    joined = Tree(t.n + n, parent=t.parent + (u, *path_ids[:-1]))
    labeling = certified(
        joined,
        labels,
        "attach_path produced a non-graceful labeling; this contradicts the "
        "attachment guarantee",
    )
    return AttachResult(joined, labeling, shift, t.m + 1, tuple(path_ids))


def _attach_block(x: int, m: int, n: int, off: int = 0) -> list[int]:
    """Labels of an n-vertex path joined at its first endpoint to a vertex
    labeled x of an m-edge gracefully labeled host, in path order, each
    raised by `off`.

    The host itself moves up by the shift floor(n/2); the caller applies
    that shift. The caller has checked the attachment preconditions; a
    fault that breaks one raises at `_alpha_low_end`'s band guard or fails
    the caller's final check. Checks the bridge label m+1, the one check of
    the value reported as `bridge_label`.
    """
    shift = n // 2
    # The path's labeling g is the complement x -> n-1-x of a low-end
    # labeling with endpoint n-1-g(v); its high part moves up by m + 1.
    block = _alpha_low_end(n, n - 1 - x - shift, -1, n + m + off, n - 1 + off)
    bridge = abs(x + shift + off - block[0])
    if bridge != m + 1:
        raise ConstructionInvariantError(f"bridge edge label is {bridge}, expected {m + 1}")
    return block
