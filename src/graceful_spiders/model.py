"""Graph carriers (trees, spiders), labelings, and the checkers that
certify every construction in this package.

Vertex ids are dense integers in [0, n-1]; this keeps the search modules
bitmask-friendly and lets a labeling be one list indexed by vertex id, with
None at an unlabeled vertex, read through a read-only mapping interface
(`Labeling.values`) that also keeps the count of labeled vertices.

A tree is held as a parent array: `parent[v]` is v's neighbour toward
vertex 0. The builders number every tree they make so that `parent[v] < v`,
which alone makes the array a tree, and they write it directly. The array
is a tree's value: it is unique to the edge set, however it was read, so
equality and hash go by `(n, parent)`, and library code reads nothing else.
`Tree.edges` derives the sorted edge tuples on each read; only the document
writers (`treedoc.to_document`, `treedoc.to_dot`), `repr` and pickling
call it. One rooted check, `_rooted`, accepts a given parent array: n int
entries, parent[0] = -1 and the others in [0, n), then one pass that
accepts an array with every `parent[v]` in [0, v). An edge list has one
reader, `_edge_parents`, for any order and orientation: checks of the whole
list (n-1 entries, each of length 2 with two int endpoints in range), then
a direct read of the pairs as (parent, child), kept when one pass finds
every `parent[v]` below v, as in every list this package writes. An array
or a list that fails its pass goes to the one leaf peel, `_peel`, which
takes the two endpoint sequences (an array's are `parent[1:]` and 1..n-1,
read in place): each vertex keeps its degree and the XOR of its
neighbours, so a leaf's one neighbour, its parent, is that XOR. Only a
list or array that is refused reaches the fault loop, which names the
first fault in input order, an array's as its edges (parent[v], v).
Every check keeps the one int rule of `_check_int`, of every size argument
and of every document: a vertex is an int and not a bool, so an endpoint
or a `Labeling(d)` key of 1.0, True or "1" is a fault, not vertex 1, and a
negative key is one too. A label is an int too: `Labeling.from_sequence`
and `Labeling(d)` refuse a label of 1.0, True or "1", which would
otherwise compare equal to 1. The checks read edges as the pairs
(v, parent[v]): a spider's leg edge has one end the other's parent,
`adjacency` lists each v >= 1 beside `parent[v]`, and a labeling's edge
labels are |f(v) - f(parent[v])|.

The validators make each check as a few whole-list passes (sets, min/max,
`map` over the parent array) and run the per-edge or per-vertex loop that
names the first fault only once a check has failed, so the messages and the
order of the checks do not depend on the fast path.

- A spider in `build_spider`'s numbering keeps its leg lengths, not a
  tuple per leg, and `Spider` checks it from them: center 0, n = the
  lengths' sum + 1, and the tree's parent array equal to the canonical one
  for those lengths (its parent[v] = v - 1 but 0 at each leg's first
  vertex), which costs O(legs) steps and whole-array passes.
  `_canonical_spider` hands `Spider` the array it made the tree from, and
  a tree that keeps that very array is not compared again. Legs given
  explicitly are first copied into a tuple of tuples, and kept as their
  lengths when no leg is empty and their vertices, in order, are the ints
  1..n-1; that alone makes the legs a partition of the non-center
  vertices, and the parent array compare puts them along the tree's
  edges. Any other layout goes through the one fault loop, which walks the
  legs vertex by vertex and raises for the first fault.
- `is_graceful` reads a full labeling of exactly the tree's vertices in
  place, its own list, and any other through `as_sequence`'s copy and its
  errors. It asks that the labels, as a set, are n values covering
  0..m = n-1: then they are exactly 0..m, each once. The m edge labels are
  then integers in [1, m], so they cover it iff they are distinct, and one
  count of the edge-label set, built in one set comprehension over the
  pairs (f(v), parent[v]), decides. The vertex test must be this one
  for a labeling that `certified` makes without a type pass: distinct
  labels in [0, m] alone admit half-integers (0, 1.5, 0.5 on P_3 has two
  distinct edge labels, 1.5 and 1, and is not graceful). Once
  vertices 0..n-1 are known labeled, the count of labeled vertices tells
  in O(1) whether some vertex >= n is labeled too, which is an error.

The records here and in the other modules are plain `__slots__` classes on
`_Record`, not dataclasses: importing `dataclasses` (which pulls in
`inspect`, `ast`, `dis` and `tokenize`) and generating the methods of the
records cost every process about 23 ms of CPU time at start-up (Python
3.11, two shared vCPUs), several times the work of labeling a spider. A
construction trace is no record: `doubling` writes it as a list of the step
documents that `spider doubling --trace` prints, and `certified` passes it
on to the error it raises.
"""

from __future__ import annotations

import sys
from collections import abc
from itertools import accumulate, chain, islice
from operator import itemgetter, lt

from .errors import ConstructionInvariantError, ValidationError

_LABEL_TYPES = {int, type(None)}  # a label, or no label
_SET_FIELD = object.__setattr__


class _Record:
    """Base of an immutable record whose fields are its `__slots__`, in
    order: one constructor that sets the fields and then calls
    `__post_init__` (a subclass's validation hook), equality and hash by
    field values, a `Name(field=value, ...)` repr, no assignment or deletion
    after construction, and pickling and copying through the constructor, so
    a restored record is validated again. Every field is required. A
    subclass that keeps a field in a slot of another name, read through a
    property of the field's name, lists its field names as `_fields`, in the
    order of its slots."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        for slot, value in zip(self.__slots__, args):
            _SET_FIELD(self, slot, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords or a wrong argument
        count; raises TypeError where a `def` with these parameters
        would."""
        fields, name = self._fields, type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for argument {field!r}")
            values[field] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing required arguments: "
                            + ", ".join(map(repr, missing)))
        return [values[f] for f in fields]

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()


def _unchecked(cls: type, *values) -> _Record:
    """The record of `cls` whose slots hold `values`, in order, made without
    its constructor and so without its checks."""
    rec = object.__new__(cls)
    for slot, value in zip(cls.__slots__, values):
        _SET_FIELD(rec, slot, value)
    return rec


class Tree(_Record):
    """An unrooted tree on vertices 0..n-1, held as a parent array:
    `parent[v]` is v's neighbour toward vertex 0, and `parent[0] = -1`.

    `Tree(n, parent=p)` takes a parent array as a tuple (a tuple is kept,
    anything else copied into one, so no caller can change a checked array)
    when the one rooted check, `_rooted`, accepts it: n int entries,
    `p[0] = -1`, every other `p[v]` in [0, v), which alone makes a tree, or
    else in [0, n) with its edges (p[v], v) passing the one leaf peel,
    `_peel`. `Tree(n, edges)` takes an edge list in any order and
    orientation through one reader, `_edge_parents`: whole-list checks (n-1
    entries, each of length 2 with two int endpoints in range), then a
    direct read of the pairs as (parent, child), kept when every parent is
    below its child, or else the same leaf peel, which finds the parents.
    Only a list or array that is refused reaches the fault loop, an array as
    its edges (p[v], v), v >= 1, which names the first fault: the pairs one
    by one in input order (two endpoints, each an int and not a bool, no
    self-loop, in range), sorted, a duplicate scan, the vertex and edge
    counts, and else "edge set is not connected". The parent array toward
    vertex 0 is unique to the edge set, so equality and hash go by the
    fields `(n, parent)` and a tree is the same value however it was built.
    `edges` is the sorted tuple of (min, max) pairs, derived from the parent
    array on each read; `repr` and pickling go through `(n, edges)`, so a
    restored tree is read and checked again.
    """

    __slots__ = ("n", "parent")

    def __init__(self, n: int, edges: abc.Iterable[abc.Sequence[int]] | None = None, *,
                 parent: abc.Sequence[int] | None = None):
        _check_int("vertex count", n)
        if parent is None:
            edges = list(edges)
            parent = _edge_parents(n, edges)
        elif edges is not None:
            raise TypeError("Tree() takes edges or parent, not both")
        else:
            parent = parent if type(parent) is tuple else tuple(parent)
            if not _rooted(n, parent):
                edges, parent = _parent_pairs(n, parent), None
        if parent is None:
            norm = sorted(_checked_pairs(n, edges))
            for prev, cur in zip(norm, islice(norm, 1, None)):
                if prev == cur:
                    raise ValidationError(f"duplicate edge {cur}")
            if n < 1:
                raise ValidationError("tree needs at least one vertex")
            if len(norm) != n - 1:
                raise ValidationError(f"tree on {n} vertices needs {n-1} edges, got {len(norm)}")
            raise ValidationError("edge set is not connected")
        _SET_FIELD(self, "n", n)
        _SET_FIELD(self, "parent", parent)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as a sorted tuple of (min, max) pairs."""
        return tuple(sorted((p, v) if p < v else (v, p) for v, p in enumerate(self.parent) if v))

    def __reduce__(self):
        return Tree, (self.n, self.edges)

    def __repr__(self):
        return f"Tree(n={self.n!r}, edges={self.edges!r})"

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in zip(range(1, self.n), islice(self.parent, 1, None)):
            adj[v].append(p)
            adj[p].append(v)
        return adj

    @property
    def m(self) -> int:
        """Edge count."""
        return self.n - 1

    def degree(self, v: int) -> int:
        """Degree of v: its children in the parent array, and its parent
        unless v is vertex 0; one O(n) count."""
        return self.parent[1:].count(v) + (0 < v < self.n)


def _edge_parents(n: int, edges: abc.Sequence[abc.Sequence[int]]) -> tuple | None:
    """The parent array of the edge list when it is a tree on 0..n-1, else
    None. Whole-list checks come first: n-1 entries, each of length 2 with
    two int endpoints in range, read as `e[0]`, `e[1]` by the rule of
    `_checked_pairs`. Nothing sized by n is made before they pass, so a
    vertex count far past the list's length costs nothing.

    A list of (parent, child) pairs whose children are 1..n-1, each once,
    with every parent below its child, is read directly in one pass, as
    every list this package writes is: that alone makes a tree. Any other
    list, a rooted one in another order too, goes to the one leaf peel,
    `_peel`, as its first and its second endpoints."""
    try:
        ends = [*map(itemgetter(0), edges), *map(itemgetter(1), edges)]
        if (len(edges) != n - 1 or set(map(len, edges)) - {2} or set(map(type, ends)) - {int}
                or min(ends, default=0) < 0 or max(ends, default=0) >= n):
            return None
    except (TypeError, LookupError):
        return None
    # ends holds every first endpoint, then every second one. A slot that
    # no pair sets keeps n, which fails parent[v] < v; so does a pair that
    # sets slot 0, since some other slot is then left unset.
    parent = [-1] + [n] * (n - 1)
    for child, p in zip(islice(ends, n - 1, None), ends):
        parent[child] = p
    if all(map(lt, islice(parent, 1, None), range(1, n))):
        return tuple(parent)
    return _peel(n, ends, islice(ends, n - 1, None))


def _peel(n: int, firsts: abc.Iterable[int], seconds: abc.Iterable[int]) -> tuple | None:
    """The parent array toward vertex 0 of the n-1 edges zipped from
    `firsts` and `seconds`, endpoints in [0, n), when they form a tree, else
    None.
    Each vertex keeps its degree and the XOR of its neighbours, so a leaf's
    one neighbour is that XOR, and peeling the leaves other than 0 one at a
    time gives each its parent. The edges are a tree exactly when all n-1
    of them peel. A leaf whose degree has dropped to 0 by its turn lies in
    a component without vertex 0; a self-loop or a doubled edge never lets
    its ends' degree fall to 1."""
    degree, xor, parent = [0] * n, [0] * n, [-1] * n
    for a, b in zip(firsts, seconds):
        degree[a] += 1
        degree[b] += 1
        xor[a] ^= b
        xor[b] ^= a
    leaves = [v for v in range(1, n) if degree[v] == 1]
    for v in leaves:
        if not degree[v]:
            return None
        p = parent[v] = xor[v]
        xor[p] ^= v
        degree[p] -= 1
        if degree[p] == 1 and p:
            leaves.append(p)
    return tuple(parent) if len(leaves) == n - 1 else None


def _rooted(n: int, parent: abc.Sequence) -> bool:
    """Whether a parent array given to `Tree(n, parent=...)` is a tree on
    0..n-1 rooted at vertex 0: n >= 1 int entries, parent[0] = -1 and every
    other entry in [0, n), and every vertex but 0 peels. One pass accepts an
    array with each parent[v] in [0, v), as the builders write it: that
    alone makes a tree. Any other array goes to the one leaf peel, `_peel`,
    as its edges (parent[v], v), read in place with no pair built; a tree's
    parent array toward vertex 0 is unique, so an array that peels is its
    own."""
    if not (len(parent) == n >= 1 and parent[0] == -1 and set(map(type, parent)) == {int}
            and min(islice(parent, 1, None), default=0) >= 0):
        return False
    if all(map(lt, islice(parent, 1, None), range(1, n))):
        return True
    return max(parent) < n and _peel(n, islice(parent, 1, None), range(1, n)) is not None


def _parent_pairs(n: int, parent: tuple) -> list[tuple]:
    """The edges (parent[v], v), v >= 1, of a parent array that `Tree`
    refused, for the fault loop; raises unless the array has n entries and
    parent[0] is the int -1."""
    if len(parent) != n:
        raise ValidationError(f"parent array of length {len(parent)} for n={n}")
    if n and (parent[0] != -1 or type(parent[0]) is not int):
        raise ValidationError(f"vertex 0 has parent {parent[0]!r}, not -1")
    return list(zip(islice(parent, 1, None), range(1, n)))


def _checked_pairs(n: int, edges: abc.Sequence[abc.Sequence[int]]) -> list[tuple[int, int]]:
    """Edges as (min, max) int pairs; raises for the first entry that is not
    two endpoints, endpoint that is not an int, self-loop or out-of-range
    edge in input order, naming it as given."""
    norm = []
    for e in edges:
        try:
            if len(e) != 2:
                raise TypeError
            a, b = e[0], e[1]
        except (TypeError, LookupError):
            raise ValidationError(f"edge {e!r} is not a pair of endpoints") from None
        if type(a) is not int or type(b) is not int:
            bad = b if type(a) is int else a
            raise ValidationError(f"edge endpoint {bad!r} is not an integer")
        if a == b:
            raise ValidationError(f"self-loop at vertex {a}")
        if not (0 <= a < n and 0 <= b < n):
            raise ValidationError(f"edge ({a},{b}) out of range for n={n}")
        norm.append((min(a, b), max(a, b)))
    return norm


def _check_int(what: str, value) -> None:
    """Raise unless value is an int (not a bool), naming it as `what`."""
    if type(value) is not int:
        raise ValidationError(f"{what} {value!r} is not an int")


def _check_vertex_count(n: int) -> None:
    """Raise unless n is an int and n vertices fit the index range of a
    list: past it every list or range over the vertices overflows."""
    _check_int("vertex count", n)
    if n > sys.maxsize:
        raise ValidationError(f"{n} vertices exceed the index range (at most {sys.maxsize})")


def path_tree(n: int) -> Tree:
    """P_n with vertices numbered along the path."""
    _check_vertex_count(n)
    if n < 1:
        raise ValidationError("path needs at least one vertex")
    return Tree(n, parent=tuple(range(-1, n - 1)))


class _LegLengths(tuple):
    """The leg lengths of a spider in `build_spider`'s numbering, which
    `Spider` keeps in place of its legs."""

    __slots__ = ()


class Spider(_Record):
    """A tree with at most one vertex of degree > 2 (the center).

    Legs are ordered tuples of vertex ids running from the center-adjacent
    vertex out to the leaf. They partition V minus the center.

    Legs given explicitly, as any iterable of iterables, are copied into a
    tuple of tuples, so no caller can change them once checked. Legs in
    `build_spider`'s numbering (no leg empty, and their vertices, in order,
    the ints 1..n-1), and the lengths `build_spider` hands over, are kept as
    the leg lengths, and `legs` derives the tuples from them on each read.
    Either way the field is `legs`, so equality, hash, repr and pickling see
    the same value however the spider was built.
    """

    __slots__ = ("tree", "center", "_legs")
    _fields = ("tree", "center", "legs")

    def __post_init__(self, parent: tuple[int, ...] | None = None):
        """`parent` is the canonical array of the spider's leg lengths, given
        only by `_canonical_spider`, which made the tree from it: a tree that
        keeps that very array needs no second one to compare."""
        t, c, legs = self.tree, self.center, self._legs
        _check_int("center", c)
        if not (0 <= c < t.n):
            raise ValidationError(f"center {c} out of range")
        if type(legs) is not _LegLengths:
            legs = tuple(map(tuple, legs))
            # The type pass keeps a leg vertex 1.0 or True, which the list
            # compare takes for 1, out of the numbering.
            flat = list(chain.from_iterable(legs))
            if all(legs) and flat == list(range(1, t.n)) and set(map(type, flat)) == {int}:
                legs = _LegLengths(map(len, legs))
            _SET_FIELD(self, "_legs", legs)
        # build_spider's numbering: center 0 and the canonical parent array.
        # n is compared first, so no array is built for a wrong one.
        if not (type(legs) is _LegLengths and c == 0 and sum(legs) + 1 == t.n
                and (t.parent is parent or t.parent == _canonical_parent(legs))):
            self._check_layout()

    def _check_layout(self):
        """The one fault loop, the check of every layout but build_spider's
        numbering: it walks the legs vertex by vertex and raises for the
        first fault in leg order (an empty leg, a vertex that is not an int,
        a vertex seen before or the center, a leg edge missing from the
        tree, legs that leave a vertex out), or returns. A leg edge (prev, v)
        is in the tree when either end is the other's parent; v is checked in
        range first, as `parent[-1]` would wrap. Distinct leg vertices that
        cover the tree along its edges use all n-1 of them, so no non-center
        vertex can have degree > 2."""
        t, parent = self.tree, self.tree.parent
        seen: set[int] = {self.center}
        for leg in self.legs:
            if not leg:
                raise ValidationError("empty leg")
            prev = self.center
            for v in leg:
                _check_int("leg vertex", v)
                if v in seen:
                    raise ValidationError(f"vertex {v} appears in two legs")
                seen.add(v)
                if not (0 <= v < t.n and (parent[v] == prev or parent[prev] == v)):
                    raise ValidationError(f"leg edge ({prev},{v}) missing from tree")
                prev = v
        if len(seen) != t.n:
            raise ValidationError("legs do not cover the tree")

    @property
    def legs(self) -> tuple[tuple[int, ...], ...]:
        """The legs as tuples of vertex ids, derived on each read when the
        spider keeps its leg lengths."""
        return tuple(map(tuple, self._leg_vertices()))

    def _leg_vertices(self) -> abc.Iterable[abc.Iterable[int]]:
        """Each leg's vertices in order: a range per leg when the spider
        keeps its leg lengths, else the tuples it keeps."""
        legs = self._legs
        if type(legs) is _LegLengths:
            starts = list(accumulate(legs, initial=1))
            return map(range, starts, islice(starts, 1, None))
        return legs

    @property
    def leg_lengths(self) -> tuple[int, ...]:
        return tuple(map(len, self._leg_vertices()))


def build_spider(leg_lengths: abc.Iterable[int]) -> Spider:
    """Build the canonically numbered spider with the given leg lengths.

    Center is vertex 0; legs are laid out in the given order, each leg's
    vertices numbered consecutively from the center-adjacent vertex outward.
    So each vertex's parent is the vertex before it, except at each leg's
    first vertex, whose parent is the center. The spider keeps the lengths,
    not a tuple per leg.
    """
    return _canonical_spider(_check_legs(leg_lengths))


def _canonical_spider(leg_lengths: abc.Sequence[int]) -> Spider:
    """`build_spider` without its check of the lengths, for the builders
    that have made that check already; `Tree` and `Spider` still check the
    result, and `Spider` is handed the array the tree was made from, so it
    builds no second one."""
    lengths = _LegLengths(leg_lengths)
    parent = _canonical_parent(lengths)
    spider = _unchecked(Spider, Tree(len(parent), parent=parent), 0, lengths)
    spider.__post_init__(parent)
    return spider


def _canonical_parent(leg_lengths: abc.Sequence[int]) -> tuple[int, ...]:
    """The parent array of `build_spider(leg_lengths)`: parent[v] = v - 1,
    except 0 at each leg's first vertex."""
    starts = list(accumulate(leg_lengths, initial=1))
    parent = list(range(-1, starts.pop() - 1))
    for s in starts:
        parent[s] = 0
    return tuple(parent)


def _check_legs(leg_lengths: abc.Iterable[int]) -> list[int]:
    """The leg lengths as a list, read once, so a one-shot iterable is
    checked and used like a list; raise unless the list is non-empty, every
    length is a positive int and the spider's vertices fit the index range."""
    legs = list(leg_lengths) if leg_lengths else []
    if not legs:
        raise ValidationError("leg length list must be non-empty")
    if set(map(type, legs)) != {int}:
        _check_int("leg length", next(ell for ell in legs if type(ell) is not int))
    if min(legs) < 1:
        raise ValidationError("leg lengths must be positive")
    _check_vertex_count(sum(legs) + 1)
    return legs


class _LabelList(abc.Mapping):
    """Read-only mapping view of a label list: vertex v -> labels[v], over
    the vertices whose entry is not None. `count` is the number of labeled
    vertices, so a full labeling (`count == len(labels)`) is known to be
    full without a scan. The list is a list, not a tuple: every builder
    writes its labels as a list and `certified` keeps that very list, so a
    tuple would cost a copy per build. Reading one is no cheaper:
    `is_graceful`, which indexes the list in place, took the same time on
    a tuple (median ratio 0.985 at m = 4,000 and 0.992 at m = 359 over 15
    interleaved timings, Python 3.11, two shared vCPUs)."""

    __slots__ = ("labels", "count")

    def __init__(self, labels: list, count: int):
        self.labels = labels
        self.count = count

    def __getitem__(self, v: int) -> int:
        if type(v) is int and 0 <= v < len(self.labels) and self.labels[v] is not None:
            return self.labels[v]
        raise KeyError(v)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> abc.Iterator[int]:
        return (v for v, x in enumerate(self.labels) if x is not None)

    def __repr__(self) -> str:
        return repr(dict(self.items()))

    def _key(self) -> list:
        """The list without its trailing Nones: two views are equal
        mappings iff their keys are equal."""
        labels, end = self.labels, len(self.labels)
        if self.count < end:
            while end and labels[end - 1] is None:
                end -= 1
        return labels if end == len(labels) else labels[:end]

    def __eq__(self, other) -> bool:
        # Two views compare their lists at C speed; anything else compares
        # as a `Mapping`.
        if isinstance(other, _LabelList):
            return self.count == other.count and self._key() == other._key()
        return super().__eq__(other)

    def __hash__(self) -> int:
        # Equal views have equal keys, so they hash equally.
        return hash(tuple(self._key()))


class Labeling(_Record):
    """A vertex -> label map on the vertices 0..n-1, held as one list
    indexed by vertex with None at an unlabeled vertex. Checkers decide
    whether it is graceful.

    `Labeling.from_sequence` copies the labels it is given, and
    `Labeling(d)` spreads the mapping d into a list of its own, as `Tree`
    and `Spider` copy theirs; `values` is a read-only mapping view of that
    list, so no caller can change a labeling once it is made. Equal
    labelings hash equally. A vertex is an int and not a bool: `Labeling(d)`
    refuses a key of 1.0, True, "1" or -1, and `lab[v]` raises and
    `v in lab` is False for such a v. A label is an int and not a bool
    either: both constructors refuse a label of 1.0, True or "1", naming
    the first such label by vertex.
    """

    __slots__ = ("values",)

    def __post_init__(self):
        d = dict(self.values)
        # Whole-list passes first; only a failed one looks for the first
        # fault in key order.
        if d and (set(map(type, d)) != {int} or min(d) < 0):
            v = next(v for v in d if type(v) is not int or v < 0)
            _check_int("vertex", v)
            raise ValidationError(f"vertex {v} is negative")
        n = max(d, default=-1) + 1
        _check_vertex_count(n)
        labels = _int_labels(list(map(d.get, range(n))))
        _SET_FIELD(self, "values", _LabelList(labels, n - labels.count(None)))

    def __getitem__(self, v: int) -> int:
        try:
            return self.values[v]
        except KeyError:
            raise ValidationError(f"vertex {v} is not labeled") from None

    def __contains__(self, v: int) -> bool:
        return v in self.values

    def __len__(self) -> int:
        return len(self.values)

    @staticmethod
    def from_sequence(labels: abc.Iterable[int]) -> Labeling:
        """Label vertex i with labels[i], an int, from a copy of `labels`;
        a None entry leaves its vertex unlabeled."""
        labels = _int_labels(list(labels))
        return _over(labels, len(labels) - labels.count(None))

    def as_sequence(self, n: int) -> list[int]:
        """Labels of vertices 0..n-1 as a new list; raises for the first
        unlabeled vertex. Only a labeling that is not full is scanned for
        None, so a full one costs the copy alone. `is_graceful` reads a
        full labeling of exactly n vertices in place and comes here only
        for any other."""
        f = self.values.labels[:max(n, 0)]
        if len(f) < n or (len(self) < len(self.values.labels) and None in f):
            self[(f + [None]).index(None)]  # raises for the first unlabeled vertex
        return f


def _int_labels(labels: list) -> list:
    """`labels` itself when each entry is an int (not a bool) or None; else
    raise for the first other entry, by vertex. A whole-list type pass
    first; only a failed one looks for the fault."""
    if not _LABEL_TYPES.issuperset(map(type, labels)):
        v = next(v for v, x in enumerate(labels) if type(x) not in _LABEL_TYPES)
        raise ValidationError(f"label {labels[v]!r} of vertex {v} is not an int")
    return labels


def _over(labels: list, count: int) -> Labeling:
    """The labeling whose view holds `labels` itself, with `count` labeled
    vertices, made without `Labeling.__post_init__`'s spread."""
    return _unchecked(Labeling, _LabelList(labels, count))


def edge_label(lab: Labeling, u: int, v: int) -> int:
    """Induced edge label |f(u) - f(v)|."""
    return abs(lab[u] - lab[v])


def is_graceful(t: Tree, lab: Labeling) -> bool:
    """True iff lab is injective into [0, m] and edge labels cover [1, m].

    A labeling missing some vertex of t, or labeling a vertex outside t, is
    an error, not merely non-graceful. A full labeling of exactly t's
    vertices is read in place; any other goes through `as_sequence`.
    """
    f = lab.values.labels
    if not lab.values.count == len(f) == t.n:
        f = lab.as_sequence(t.n)
        if lab.values.count != t.n:  # 0..n-1 are labeled, so more labels means some v >= n
            v = next(v for v in lab.values if v >= t.n)
            raise ValidationError(f"label for vertex {v} outside 0..{t.n - 1}")
    labels = set(f)
    if len(labels) != t.n or not labels.issuperset(range(t.n)):
        return False
    # f is a permutation of 0..m, so the m edge labels |f(v) - f(parent[v])|,
    # v >= 1, are integers in [1, m]: they cover it iff they are distinct.
    edges = zip(islice(f, 1, None), islice(t.parent, 1, None))
    return len({abs(x - f[p]) for x, p in edges}) == t.m


def certified(
    t: Tree,
    labels: list[int],
    message: str,
    trace: list[dict] | None = None,
    alpha: int | None = None,
) -> Labeling | AlphaLabeling:
    """The labeling of t by `labels` (vertex i gets labels[i]), checked
    graceful, and when `alpha` is given the `AlphaLabeling` of it, checked
    to have that index; raises ConstructionInvariantError(message, trace)
    when a check fails, since every caller's construction guarantees it.
    The labeling keeps `labels`, not a copy, and counts it full without a
    scan: each caller has just written the list and keeps no other
    reference to it, and a None in it fails the check."""
    lab = _over(labels, len(labels))
    if not is_graceful(t, lab) or alpha is not None and _alpha_of(t, labels) != alpha:
        raise ConstructionInvariantError(message, trace)
    return lab if alpha is None else _unchecked(AlphaLabeling, t, lab, alpha)


def alpha_index(t: Tree, lab: Labeling) -> int | None:
    """The index alpha witnessing the alpha-labeling property, or None.

    Requires a graceful labeling. The canonical witness is the maximum over
    edges of min(f(u), f(v)); the property then holds iff every edge's
    max(f(u), f(v)) exceeds it.
    """
    if not is_graceful(t, lab):
        raise ValidationError("alpha_index requires a graceful labeling")
    return _alpha_of(t, lab.as_sequence(t.n))


def _alpha_of(t: Tree, f: list[int]) -> int | None:
    """`alpha_index` of a graceful labeling of t, given as its label list
    by vertex."""
    # Labels lie in [0, m], m + 1 = n; the vertex labeled 0 is the low end of
    # its edges, so the maximum low end starts at 0 (and stays 0 on one vertex).
    # One loop over the edges: on alpha paths at m = 4,000 and 10^5 it took
    # a fifth to a quarter of the time of the whole-list passes
    # `max(map(min, ...))` and `min(map(max, ...))`, whose two-argument min
    # and max calls cost more per edge than the loop's int compares (Python
    # 3.11, two shared vCPUs).
    alpha, above = 0, t.n
    for lo, hi in zip(islice(f, 1, None), map(f.__getitem__, islice(t.parent, 1, None))):
        if lo > hi:
            lo, hi = hi, lo
        if lo > alpha:
            alpha = lo
        if hi < above:
            above = hi
    return alpha if alpha < above else None


class AlphaLabeling(_Record):
    """A graceful labeling together with its index alpha; validated on build."""

    __slots__ = ("tree", "labeling", "alpha")

    def __post_init__(self):
        _check_int("alpha", self.alpha)
        got = alpha_index(self.tree, self.labeling)
        if got != self.alpha:
            raise ValidationError(
                f"labeling has alpha index {got}, not the claimed {self.alpha}"
            )

    def __getitem__(self, v: int) -> int:
        return self.labeling[v]


def alpha_flip(al: AlphaLabeling) -> AlphaLabeling:
    """Reflect each class of an alpha-labeling within itself.

    Sends f(x) -> alpha - f(x) on the low class and f(x) -> m + alpha + 1 - f(x)
    on the high class. The result is again an alpha-labeling with the same
    index; labels 0 and alpha swap. The map is an involution.
    """
    m, alpha = al.tree.m, al.alpha
    table = [*range(alpha, -1, -1), *range(m, alpha, -1)]  # label -> flipped label
    flipped = map(table.__getitem__, al.labeling.as_sequence(al.tree.n))
    return AlphaLabeling(al.tree, Labeling.from_sequence(flipped), alpha)

