"""Path labeling providers.

The existence results these providers fulfill (graceful path labelings with a
prescribed zero vertex, alpha-labelings with a prescribed endpoint label or
index) come without constructions. Every witness here is produced by a
closed-form construction.

The construction rests on the structure of alpha-labelings of paths: the
low/high classes coincide with the two bipartition classes (alternating
positions), and the subsequence of low labels must descend cyclically while
the highs ascend cyclically in interleaved "fan" blocks. Concretely, the
labeling with a prescribed low endpoint j is assembled by one loop that peels
fan blocks off the front -- lows j..0 interleaved with the top highs,
consuming the largest edge differences. What is left is the same problem on
the contiguous middle label band, shifted, so the loop carries a pending map
(lows x -> s*x + lo, highs x -> s*x + hi, s = +-1) and writes each block
through it, instead of building the rest and shifting it afterwards. Two
symmetries extend the family: the flip x -> alpha - x (resp. m + alpha + 1 -
x) moves the endpoint within the low class, and the complement x -> m - x
swaps the classes, turning high-endpoint requests into low-endpoint ones.
Both are folded into the map, and callers pass their own complement and shift
in as the starting map. The only unreachable cases are exactly the known
infeasible pairs (n = 4s+1 with endpoint s or 3s, and the central vertex of
P_5 for the zero-position variant, whose graceful labeling is a literal).

Every choice is made in closed form, and nothing is tried and dropped. Two
rules carry the choices, both forced by Lemma 2(c)'s infeasible pair
(P_{4s+1}, endpoint s):

- Peel block. The plain fan of 2j+2 vertices leaves P_{n-2j-2} with endpoint
  j, which is that pair exactly when n = 6j+3. Then the block is the
  labeling of P_{2j+4} with endpoint j instead: it ends on its label 2j+2
  and leaves P_{4j-1}, again with endpoint j, which is feasible.
- Residue. The zero-position variant runs a zigzag along one arm and the
  low-endpoint construction on the other (`_zero_at_construct`). With 0 at
  the shorter arm of q = 2k or 2k+1 vertices of P_{6k+2} or P_{6k+3}, the
  other arm's band is P_{4k+1} with endpoint k, the infeasible pair, and the
  longer arm's endpoint falls outside its band's low class.
  `_zero_at_residue` closes the shorter arm with one vertex past zero, the
  block `_zero_at_construct(q+2, q)`, which ends on the top label. Its band
  is P_{4k} with endpoint k or k+1: 4k is even, so no Lemma 2(c) pair, and
  the endpoint is low except for P_4 with endpoint 2 (n = 9, a literal).
  The construction also misses the center of P_{4s+1}, which extends a P_6
  block twice. With it, 362 pairs with n <= 400 are residues, 912 with
  n <= 1000.

The zero-position writers lay P_n out zero first: the vertex labeled 0,
then the arm toward position 0, then the arm toward n-1, each read outward
from 0, which is the canonical order of a spider centered there. They write
each label once, into its slot, through a map (s, lo, hi) of P_n's own
classes, the map of `_alpha_low_end`, which they compose into every block
and band they write. The map carries a caller's whole relabeling:
`_alpha_zero_seq` passes none and reverses the first position + 1 labels
into path order; the three-long builder passes Lemma 1's, which flips each
class (lows x -> alpha - x, highs x -> m + alpha + 1 - x) and raises the
highs by |E(H)|, and writes G straight into the spider's label list.

Every zero-position labeling that is not a zigzag or a literal ends in one
band step, `_extend_by_band`: a block with 0 on it, its lows kept and its
highs already at the top of P_n, continues past its last label with a
low-endpoint band on the middle labels, entered by a bridge of difference
the band's size. No block is lifted or reversed after it is written: a
block whose highs later bands raise is written through the map with the
raise composed in (hi grows by s times the raise). `_zero_at_construct`
writes its zigzag arm outward as the complemented zigzag of P_q, through
`_alpha_low_end`, and takes one step. `_zero_at_residue` takes one more
step on a smaller zero-position block, the block of
`_zero_at_construct(q+2, q)`, or two on a P_6 literal.

No step re-checks what the two rules prove. One guard stays, because a
fault there would crash or hang rather than show in the final check:
`_alpha_low_end` writes every band, a request or a peel's rest, and raises
`ConstructionInvariantError` on a band whose endpoint has no
alpha-labeling. Every other fault ends in the final `certified` call.
Nothing here searches:
listing every alpha-labeling of a small path is the oracle's job
(`oracle.enumerate_graceful(path_tree(n), alpha_constrained=True)`).

Each public provider certifies its result as it returns it, through
`model.certified`: gracefulness, and for an alpha provider the index it
built, so a fault is a `ConstructionInvariantError`. The spider builders
call the private writers `_alpha_low_end` and `_zero_at_write` (after
`_zero_at_index` checks the request), which write bare labels, and certify
the finished spider once instead.
`alpha_path_end_label` has no `_seq` twin: no builder asks for an end label
(the attachment step calls `_alpha_low_end` directly), so its checks, its
choice of class and its index sit in the public function.
"""

from __future__ import annotations

import json
import os

from .errors import ConstructionInvariantError, InfeasibleError, ValidationError
from .model import AlphaLabeling, Labeling, _check_int, _check_vertex_count, certified, path_tree

_CACHE_FORMAT = "graceful-spiders-path-cache"
_CACHE_VERSION = 1


class PathCache:
    """Disk-backed map of label sequences, keyed by request parameters.

    The file is a versioned JSON map; writes go through a temp file and an
    atomic replace so concurrent readers never see a torn file. Every path
    labeling is closed form, so nothing in the package reads or writes it.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self._entries: dict[str, list[int]] = {}
        self._loaded = path is None

    def _load(self):
        if self._loaded:
            return
        self._loaded = True
        try:
            with open(self.path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return
        if doc.get("format") == _CACHE_FORMAT and doc.get("version") == _CACHE_VERSION:
            self._entries = {k: list(map(int, v)) for k, v in doc.get("entries", {}).items()}

    def get(self, key: str) -> list[int] | None:
        self._load()
        return self._entries.get(key)

    def put(self, key: str, labels: list[int]):
        self._load()
        self._entries[key] = list(labels)
        if self.path is None:
            return
        doc = {"format": _CACHE_FORMAT, "version": _CACHE_VERSION, "entries": self._entries}
        import tempfile  # only here: it loads shutil, random, bz2 and lzma

        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(self.path) or ".", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(doc, fh)
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def zigzag_alpha_path(n: int) -> AlphaLabeling:
    """The classical alternating path labeling 0, m, 1, m-1, ...

    Position j gets j/2 when j is even and (n-1) - (j-1)/2 when odd; the
    first endpoint is labeled 0. The result is certified graceful with its
    index (n-1)//2.
    """
    _check_vertex_count(n)
    if n < 1:
        raise ValidationError("n must be >= 1")
    return certified(path_tree(n), _alpha_low_end(n, 0),
                     f"zigzag provider produced no alpha-labeling of P_{n}", alpha=(n - 1) // 2)


# ---------------------------------------------------------------------------
# Closed-form construction of alpha path labelings.
#
# _alpha_low_end(n, j) produces the label sequence of an alpha-labeling of
# P_n whose low class [0, alpha] sits on the even positions (so the index is
# alpha = ceil(n/2) - 1) and whose first endpoint carries the low label j.
# All other requests reduce to it by reversal, flip and complement.
# ---------------------------------------------------------------------------


def _low_end_feasible(n: int, j: int) -> bool:
    """Whether P_n has an alpha-labeling with the low endpoint label j: j in
    the low class, and not the infeasible pair n = 4j+1 of Lemma 2(c)."""
    alpha = (n + 1) // 2 - 1
    return 0 <= j <= alpha and not (j > 0 and n % 2 == 1 and alpha == 2 * j)


def _alpha_low_end(
    n: int, j: int, s: int = 1, lo: int = 0, hi: int = 0,
    out: list[int] | None = None, at: int = 0,
) -> list[int]:
    """The alpha-labeling of P_n with low endpoint label j, each label x
    written as s*x + lo when it is low (x <= alpha) and s*x + hi when high,
    into out[at:at+n] (a new list when `out` is None), endpoint first;
    returns `out`.

    The map (s = +-1) lets a caller fold a complement and a shift into the
    single pass that writes the labels, and `out` lets it write them into
    their final slots. The loop peels fan blocks off the front; each block
    leaves the same problem on a shorter path, which the loop continues
    through an updated map instead of a copy.

    The band guard: each pass first asks whether its band, the caller's
    request or a peel's rest, is feasible, and raises
    ConstructionInvariantError if not, since every endpoint here is picked
    by a construction. On an infeasible pair the loop would crash or never
    end; with the guard each pass returns or shortens the path.
    """
    if out is None:
        out = [0] * n
    pos, end = at, at + n  # out[pos:end] holds the current P_n, low endpoint first
    while True:
        if not _low_end_feasible(n, j):
            raise ConstructionInvariantError(
                f"a band needs P_{n} with endpoint label {j}, which has no alpha-labeling"
            )
        m = n - 1
        alpha = (n + 1) // 2 - 1
        if 2 * j > alpha:
            # Flip x -> alpha - x on lows, m + alpha + 1 - x on highs: it keeps
            # gracefulness, the classes and feasibility and moves the endpoint
            # to alpha - j, below alpha / 2. The fan (j = alpha) becomes the
            # zigzag.
            lo, hi, s, j = s * alpha + lo, s * (m + alpha + 1) + hi, -s, alpha - j
        if j == 0:
            # Zigzag: lows ascend from 0, highs descend from m.
            out[pos:end:2] = range(lo, lo + s * (alpha + 1), s)
            out[pos + 1 : end : 2] = range(s * m + hi, s * (m - n // 2) + hi, -s)
            return out
        if alpha == 2 * j:
            # n = 4j+2 (4j+1 is infeasible): a fan on the extreme labels, a
            # bridge of difference 2j+1, then a fan on the middle band.
            out[pos : pos + 2 * j + 1 : 2] = range(s * j + lo, lo - s, -s)
            out[pos + 1 : pos + 2 * j : 2] = range(
                s * (3 * j + 2) + hi, s * n + hi, s
            )
            out[pos + 2 * j + 1 : end : 2] = range(
                s * (2 * j + 1) + hi, s * (3 * j + 2) + hi, s
            )
            out[pos + 2 * j + 2 : end : 2] = range(s * 2 * j + lo, s * j + lo, -s)
            return out
        # Peel a block of 2k+2 vertices off the front: an alpha-labeling of
        # P_{2k+2} with endpoint j, its lows kept as the extreme lows [0, k]
        # and its highs shifted onto the extreme highs [m-k, m]. The block
        # consumes the top differences [m-2k, m]; the bridge edge contributes
        # m-2k-1; the rest is the same problem on the band [k+1, m-k-1],
        # shifted down by k+1, again with endpoint j.
        if n != 6 * j + 3:
            # The plain fan (k = j) ends on the top label m.
            k = j
            out[pos : pos + 2 * j + 2 : 2] = range(s * j + lo, lo - s, -s)
            out[pos + 1 : pos + 2 * j + 2 : 2] = range(
                s * (m - j) + hi, s * n + hi, s
            )
        else:
            # The plain fan would leave P_{4j+1} with endpoint j, Lemma 2(c)'s
            # infeasible pair. The block of 2j+4 vertices ends on its label
            # 2j+2, here m-1, and leaves P_{4j-1}.
            k = j + 1
            _alpha_low_end(2 * k + 2, j, s, lo, hi + s * (m - 2 * k - 1), out, pos)
        pos += 2 * k + 2
        lo += s * (k + 1)
        hi += s * (k + 1)
        n -= 2 * k + 2


def graceful_path_zero_at(n: int, position: int) -> Labeling:
    """A graceful labeling of P_n with the vertex at `position` labeled 0.

    The alpha provider's labeling (an alpha-labeling is graceful), except
    the lone alpha-infeasible case (n=5, central vertex), which is a fixed
    labeling. The result is certified graceful here.
    """
    return certified(
        path_tree(n),
        _alpha_zero_seq(n, position)[0],
        f"path provider produced a non-graceful labeling of P_{n} with 0 at "
        f"position {position}",
    )


def alpha_path_zero_at(n: int, position: int) -> AlphaLabeling:
    """An alpha-labeling of P_n with the vertex at `position` labeled 0.

    Infeasible exactly for n=5 with the central vertex. The construction
    runs a zigzag from the zero vertex along one arm (consuming the largest
    differences) and reduces the other arm to an endpoint-constrained
    labeling of the remaining label band; the pairs where neither arm admits
    that reduction (see the module docstring) extend a small zero-position
    block by an end-label band instead. The result is certified graceful
    with its index here; the spider builders skip that and certify their
    whole spider once.
    """
    seq, alpha = _alpha_zero_seq(n, position)
    if alpha is None:
        raise InfeasibleError("P_5 has no alpha-labeling with the central vertex at 0")
    return certified(path_tree(n), seq, f"path provider produced no alpha-labeling of P_{n} "
                     f"with 0 at position {position}", alpha=alpha)


def _alpha_zero_seq(n: int, position: int) -> tuple[list[int], int | None]:
    """(label sequence, index) behind alpha_path_zero_at, not certified;
    the sequence alone is behind graceful_path_zero_at. The center of P_5
    has no alpha-labeling: its graceful labeling is a literal, returned
    with the index None. An interior position is written zero first and
    put in path order by reversing its first position + 1 labels."""
    alpha = _zero_at_index(n, position)
    if alpha is None:
        return [1, 4, 0, 2, 3], None
    if position in (0, n - 1):
        seq = _alpha_low_end(n, 0)
        return (seq[::-1] if position == n - 1 else seq), alpha
    seq = _zero_at_write(n, position, 1, 0, 0, [0] * n)
    seq[:position + 1] = seq[position::-1]
    return seq, alpha


def _zero_at_index(n: int, position: int) -> int | None:
    """Check a request for P_n with 0 at `position` and return the index of
    the alpha-labeling written for it, whose lows sit on position's
    parity; None for the center of P_5, which has no alpha-labeling."""
    _check_vertex_count(n)
    _check_int("position", position)
    if not 0 <= position < n:
        raise ValidationError(f"position {position} out of range for n={n}")
    return None if (n, position) == (5, 2) else (n - 1 - position % 2) // 2


def _zero_at_write(
    n: int, position: int, s: int, lo: int, hi: int, out: list[int]
) -> list[int]:
    """The alpha-labeling of P_n with 0 at an interior position, written
    zero first through the map (s, lo, hi) into out[:n], which is
    returned: `_zero_at_construct`'s one band step, or else its residue."""
    return (_zero_at_construct(n, position, s, lo, hi, out)
            or _zero_at_residue(n, position, s, lo, hi, out))


def _zero_at_construct(
    n: int, position: int, s: int, lo: int, hi: int, out: list[int]
) -> list[int] | None:
    """Closed-form alpha-labeling of P_n with 0 at an interior position,
    written zero first into out[:n] and returned; None, with nothing
    written, when neither arm has a feasible band.

    Each label x is written as s*x + lo when low (x <= alpha, the lows on
    position's parity) and s*x + hi when high, the map of `_alpha_low_end`,
    into which a caller folds its whole relabeling: (1, 0, 0) writes the
    labeling itself, (1, 0, c) raises its highs by c, and Lemma 1's
    (-1, alpha, alpha + N) flips each class and raises the highs by N - n.

    Zigzag along the arm of q vertices beyond zero: it consumes the top q
    differences, the lows [0, q//2] and the top highs. The other arm then
    lives on a contiguous label band of its own size r = n-1-q, entered
    through a bridge edge of difference exactly r, which pins its endpoint
    label to q//2; `_zero_at_arms` writes both arms. The arm at `position`
    is taken when the band's endpoint is feasible, else the other arm.
    """
    for q in (position, n - 1 - position):
        if 0 < q < n - 1 and _low_end_feasible(n - 1 - q, q // 2):
            zig, band = (1, q + 1) if q == position else (position + 1, 1)
            _zero_at_arms(n, q, s, lo, hi, out, zig, band)
            return out
    return None


def _zero_at_arms(
    n: int, q: int, s: int, lo: int, hi: int, out: list[int], zig: int, band: int
) -> None:
    """Write the one-step alpha-labeling of P_n with 0 and a zigzag arm of
    q vertices through the map (s, lo, hi): 0 at out[0], the zigzag arm
    outward from out[zig], the other arm's r = n-1-q vertices outward from
    out[band].

    Read outward, the zigzag arm is n-1, 1, n-2, 2, ...: the zigzag of P_q
    with its lows x sent to the highs n-1-x and its highs x to the lows
    q-x. The other arm is the band step past the block of 0 and the
    zigzag, whose lows are [0, q//2] and whose last label, 0, is low.
    """
    out[0] = lo
    _alpha_low_end(q, 0, -s, s * (n - 1) + hi, s * q + lo, out, zig)
    _extend_by_band(n - 1 - q, q // 2, 0, s, lo, hi, out, band)


def _zero_at_residue(
    n: int, position: int, s: int, lo: int, hi: int, out: list[int]
) -> list[int]:
    """The alpha-labeling with 0 at `position` for the pairs that
    `_zero_at_construct` misses, written as it writes: zero first, through
    the map (s, lo, hi), into out[:n], which is returned. The
    pairs are the center of P_{4s+1}, and n = 6k+2 or 6k+3 with a shorter
    arm of 2k or 2k+1 vertices beyond zero.

    The center of P_{4s+1} writes the P_6 block [4, 0, 5, 2, 3, 1] (0 at
    index 1), its highs raised by n-6: its four-vertex arm starts the arm
    toward position 0, its one vertex the other arm. A band of 2s-4
    vertices extends the four-vertex arm (the block is then P_{2s+2}, its
    highs raised by the 2s-1 vertices still to come), and a band of 2s-1
    the one-vertex arm (P_13 is a literal). Every other pair writes the
    block `_zero_at_construct(q+2, q)`, its highs raised by the band still
    to come: the shorter arm q as its band, and one vertex, on the top
    label, starting the longer arm, which a band extends (P_9 is a
    literal).
    """
    if 2 * position == n - 1 and n % 4 == 1:
        # The P_6 block extends to P_{2s+2} only when its band is longer
        # than 2, that is for s > 3; s = 3 is a literal.
        if n == 13:
            out[:13] = _mapped([0, 11, 3, 8, 4, 10, 1, 12, 2, 9, 6, 7, 5], 6, s, lo, hi)
            return out
        six = hi + s * (n - 6)
        out[:5] = _mapped([0, 5, 2, 3, 1], 2, s, lo, six)
        out[position + 1] = s * 4 + six
        if n > 9:
            _extend_by_band(position - 4, 2, 1, s, lo, hi + s * (position - 1), out, 5)
        _extend_by_band(position - 1, position // 2, n - 2, s, lo, hi, out, position + 2)
        return out
    q = min(position, n - 1 - position)
    short, long = (1, q + 1) if q == position else (position + 1, 1)
    if n == 9:
        # The band of P_9's 5-vertex block has an infeasible endpoint.
        out[0] = lo
        out[short:short + 3] = _mapped([6, 2, 7], 3, s, lo, hi)
        out[long:long + 5] = _mapped([8, 1, 4, 3, 5], 3, s, lo, hi)
        return out
    _zero_at_arms(q + 2, 1, s, lo, hi + s * (n - q - 2), out, long, short)
    _extend_by_band(n - q - 2, (q + 1 - q % 2) // 2, n - 1, s, lo, hi, out, long + 1)
    return out


def _mapped(labels: list[int], alpha: int, s: int, lo: int, hi: int) -> list[int]:
    """A literal's labels through the map (s, lo, hi), its lows being the
    labels up to alpha."""
    return [s * x + (lo if x <= alpha else hi) for x in labels]


def _extend_by_band(
    r: int, a: int, e: int, s: int, lo: int, hi: int, out: list[int], at: int
) -> None:
    """The one band step: write the r vertices that continue a block past
    its last vertex outward from out[at], through the map (s, lo, hi) of
    the alpha-labeling they complete. The block has 0 on it, its lows are
    [0, a], its highs are already raised by r, and its last label is e
    (before the map).

    The raised highs sit on the top labels, so the block uses the top
    differences. The band takes the labels [a+1, a+r], entered by a bridge
    of difference r, so its first label sits in the class opposite e. After
    a low e it is the complement of the low-end labeling of P_r with
    endpoint a-e, whose lows land among the highs; after a high one, the
    low-end labeling with endpoint e-r-a-1 itself. Both are written through
    the map of `_alpha_low_end`, each of the band's classes taking the lo
    or hi of the class it lands in.
    """
    if e <= a:
        _alpha_low_end(r, a - e, -s, s * (a + r) + hi, s * (a + r) + lo, out, at)
    else:
        _alpha_low_end(r, e - r - a - 1, s, s * (a + 1) + lo, s * (a + 1) + hi, out, at)


def alpha_path_end_label(
    n: int, end_label: int, required_index: int | None = None
) -> AlphaLabeling:
    """An alpha-labeling of P_n whose first endpoint carries `end_label`.

    When required_index is given the result's index equals it; that pins the
    low-class size, hence which class the endpoint may sit in. The
    (n = 4s+1, end_label in {s, 3s}) pairs are provably infeasible; every
    other in-range request is served by the closed-form construction (via
    the complement symmetry when the endpoint is a high label). The result
    is certified graceful with its index here.
    """
    _check_vertex_count(n)
    if n < 2:
        raise ValidationError("n must be >= 2")
    _check_int("end_label", end_label)
    if required_index is not None:
        _check_int("required_index", required_index)
    if not 0 <= end_label <= n - 1:
        raise ValidationError(f"end_label {end_label} out of range for n={n}")
    hi_index = (n + 1) // 2 - 1
    lo_index = n // 2 - 1
    # Lemma 2(c)'s pair, on the low endpoint label that a high one reduces to.
    if not _low_end_feasible(n, end_label if end_label <= hi_index else n - 1 - end_label):
        raise InfeasibleError(
            f"P_{n} (n=4s+1, s={(n - 1) // 4}) has no alpha-labeling with endpoint "
            f"label {end_label}"
        )
    if required_index is not None and required_index not in (hi_index, lo_index):
        indices = lo_index if lo_index == hi_index else f"{lo_index} or {hi_index}"
        raise InfeasibleError(
            f"every alpha-labeling of P_{n} has index {indices}; "
            f"index {required_index} is impossible"
        )
    if end_label <= hi_index and required_index in (None, hi_index):
        # Low endpoint; the low class carries the larger index and sits on
        # the even positions, endpoint included.
        seq, alpha = _alpha_low_end(n, end_label), hi_index
    elif end_label > lo_index and required_index in (None, lo_index):
        # High endpoint; complement a low-endpoint labeling, which swaps the
        # classes and turns the index into lo_index.
        seq, alpha = _alpha_low_end(n, (n - 1) - end_label, -1, n - 1, n - 1), lo_index
    else:
        raise InfeasibleError(
            f"no alpha-labeling of P_{n} has endpoint label {end_label}"
            + (f" with index {required_index}" if required_index is not None else "")
        )
    return certified(path_tree(n), seq, f"path provider produced no alpha-labeling of P_{n} "
                     f"with endpoint label {end_label}", alpha=alpha)

