"""Value semantics of the package's seven record classes, their one shared
constructor (every field required, as in a `def` without defaults), and the
start-up cost they must not bring back: importing the CLI pulls in neither
`dataclasses` nor `inspect`. A construction trace is no record but a list of
step documents (`tests/test_doubling.py`)."""

import copy
import json
import os
import pickle
import subprocess
import sys
from itertools import product

import pytest

from graceful_spiders.attach import AttachResult
from graceful_spiders.errors import ValidationError
from graceful_spiders.model import (
    AlphaLabeling,
    Labeling,
    Spider,
    Tree,
    build_spider,
    path_tree,
)
from graceful_spiders.oracle import SearchReport
from graceful_spiders.short_legs import ShortLegSpec
from graceful_spiders.treedoc import to_document

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _examples():
    """(class, field values in declaration order, field names) for each
    record; the values build a valid instance."""
    p3 = path_tree(3)
    return [
        (Tree, (3, ((0, 1), (1, 2))), ("n", "edges")),
        (Spider, (build_spider([1, 2]).tree, 0, ((1,), (2, 3))), ("tree", "center", "legs")),
        (Labeling, (Labeling.from_sequence([0, 2, 1]).values,), ("values",)),
        (AlphaLabeling, (p3, Labeling.from_sequence([0, 2, 1]), 1),
         ("tree", "labeling", "alpha")),
        (SearchReport, (None, 4, 10, 0.5, True, ()),
         ("found", "count", "nodes_explored", "elapsed", "exhausted", "labelings")),
        (AttachResult, (p3, Labeling.from_sequence([0, 2, 1]), 1, 3, (3, 4)),
         ("tree", "labeling", "shift", "bridge_label", "path_ids")),
        (ShortLegSpec, (3, 1, 0), ("ell", "s", "t")),
    ]


EXAMPLES = _examples()
IDS = [cls.__name__ for cls, _, _ in EXAMPLES]


@pytest.mark.parametrize("cls, values, names", EXAMPLES, ids=IDS)
class TestRecordValueSemantics:
    def test_equality_goes_by_field_values(self, cls, values, names):
        a, b = cls(*values), cls(*values)
        assert a == b and not a != b
        assert tuple(getattr(a, f) for f in names) == values
        assert a != values and a != object()
        other = next(ex for ex in EXAMPLES if ex[0] is not cls)
        assert a != other[0](*other[1])

    def test_hash(self, cls, values, names):
        # No example holds a list; a labeling hashes by its items.
        a, b = cls(*values), cls(*values)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_frozen(self, cls, values, names):
        a = cls(*values)
        for f in names:
            with pytest.raises(AttributeError):
                setattr(a, f, getattr(a, f))
            with pytest.raises(AttributeError):
                delattr(a, f)
        assert tuple(getattr(a, f) for f in names) == values

    def test_keyword_construction(self, cls, values, names):
        assert cls(**dict(zip(names, values))) == cls(*values)

    def test_repr(self, cls, values, names):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(names, values))
        assert repr(cls(*values)) == f"{cls.__name__}({fields})"

    def test_pickle_and_copy_round_trip(self, cls, values, names):
        a = cls(*values)
        for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):
            b = pickle.loads(pickle.dumps(a, proto))
            assert type(b) is cls and b == a
        for dup in (copy.copy(a), copy.deepcopy(a)):
            assert type(dup) is cls and dup == a


def test_canonical_spider_is_the_value_of_its_explicit_legs():
    # build_spider keeps the leg lengths; a spider given the same legs as
    # tuples keeps them. The two are one value, and `legs` reads the same.
    shapes = 0
    for k in range(1, 7):
        for lengths in product(range(1, 5), repeat=k):
            shapes += 1
            starts = [1]
            for ell in lengths:
                starts.append(starts[-1] + ell)
            legs = tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))
            built, read = build_spider(list(lengths)), build_spider(list(lengths))
            explicit = Spider(built.tree, 0, legs)
            docs = [json.dumps(to_document(sp.tree, None, sp)) for sp in (built, explicit)]
            assert read.legs == legs and read.leg_lengths == lengths
            docs.append(json.dumps(to_document(read.tree, None, read)))
            assert docs[0] == docs[1] == docs[2]
            assert built == explicit and hash(built) == hash(explicit)
            assert repr(built) == repr(explicit)
            for dup in (pickle.loads(pickle.dumps(built)), copy.copy(built)):
                assert dup == explicit and repr(dup) == repr(explicit)
            assert built.legs == legs and built.leg_lengths == lengths
            assert type(built.legs) is tuple and type(built.leg_lengths) is tuple
    assert shapes == 5460


def test_one_differing_field_breaks_equality():
    assert ShortLegSpec(3, 1, 0) != ShortLegSpec(3, 1, 1)
    assert Labeling.from_sequence([0, 2, 1]) != Labeling.from_sequence([1, 2, 0])
    assert SearchReport(None, 4, 10, 0.5, True, ()) != SearchReport(None, 4, 11, 0.5, True, ())


def test_reprs_are_frozen():
    assert repr(ShortLegSpec(3, 1, 0)) == "ShortLegSpec(ell=3, s=1, t=0)"
    assert repr(Labeling.from_sequence([0, 2, 1])) == "Labeling(values={0: 0, 1: 2, 2: 1})"


@pytest.mark.parametrize("cls, values, names", EXAMPLES, ids=IDS)
def test_bad_arguments_raise_type_error(cls, values, names):
    # As a `def` with the fields as parameters would.
    with pytest.raises(TypeError, match=f"missing .*{names[0]!r}"):
        cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=f"multiple values for argument {names[0]!r}"):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError, match="positional arguments but"):
        cls(*values, None)


def test_one_constructor():
    # Every record but Tree (which validates while it normalizes its edges)
    # uses `_Record.__init__`.
    own = {cls for cls, _, _ in EXAMPLES if "__init__" in vars(cls)}
    assert own == {Tree}


def test_constructors_still_validate():
    with pytest.raises(ValidationError, match="distinguished leg length"):
        ShortLegSpec(0, 0, 0)
    with pytest.raises(ValidationError, match="leg counts"):
        ShortLegSpec(ell=1, s=-1, t=0)
    with pytest.raises(ValidationError, match="not the claimed 0"):
        AlphaLabeling(path_tree(3), Labeling.from_sequence([0, 2, 1]), 0)
    with pytest.raises(ValidationError):
        Tree(3, [(0, 1)])
    with pytest.raises(ValidationError, match="legs do not cover"):
        Spider(path_tree(3), 0, ((1,),))


def test_cli_import_skips_dataclasses_and_inspect():
    # Annotations are never evaluated, so nothing needs `typing` at run time;
    # `tempfile` loads only when `PathCache.put` writes a file.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import graceful_spiders.cli; "
        "print(sorted({'dataclasses', 'inspect', 'tempfile', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, SRC],
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
