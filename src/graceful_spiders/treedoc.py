"""The JSON tree document and DOT export.

The document is the interchange unit for every CLI subcommand:
{"n": int, "edges": [[a,b],...], "labels": {"0": int, ...}?, "center": int?,
"legs": [[v1,...],...]?}. `to_document` alone decides the canonical order:
keys as listed, sorted edges, labels keyed by ascending vertex id (by
`document_labels`, which the CLI's oracle report shares). The CLI appends
its extra keys after those. `dumps_document` alone decides the JSON
format and keeps the order it is given, so export -> import -> export
round-trips byte-identically.
"""

from __future__ import annotations

import json

from .errors import ValidationError
from .model import Labeling, Spider, Tree, _over


def to_document(
    tree: Tree,
    labeling: Labeling | None = None,
    spider: Spider | None = None,
) -> dict:
    doc: dict = {"n": tree.n, "edges": [[a, b] for a, b in tree.edges]}
    if labeling is not None:
        doc["labels"] = document_labels(labeling)
    if spider is not None:
        doc["center"] = spider.center
        doc["legs"] = [list(leg) for leg in spider._leg_vertices()]
    return doc


def document_labels(labeling: Labeling) -> dict[str, int]:
    """The "labels" value of a document: each labeled vertex's id in
    decimal, ascending, with its label, read from the label list in one
    pass in vertex order."""
    return {str(v): x for v, x in enumerate(labeling.values.labels) if x is not None}


def _int(x) -> int:
    """`x` if it is an integer: int() would read 0.5 as 0 and true as 1."""
    if type(x) is not int:
        raise ValueError(f"{json.dumps(x)} is not an integer")
    return x


def _vertex_key(key) -> int:
    """A "labels" key: a vertex id in the decimal form `to_document` writes."""
    v = int(key)
    if str(v) != str(key):
        raise ValueError(f"{json.dumps(key)} is not a vertex id")
    return v


def from_document(doc: dict) -> tuple[Tree, Labeling | None, Spider | None]:
    try:
        n = _int(doc["n"])
        edges = doc["edges"]
        for a, b in edges:  # Tree reads the parsed [a, b] lists themselves
            _int(a), _int(b)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed tree document: {exc}") from exc
    tree = Tree(n, edges)
    labeling = None
    if "labels" in doc and doc["labels"] is not None:
        # One pass fills a list by vertex; a vertex outside the tree is
        # named only after every label has been read.
        labels, outside = [None] * n, []
        try:
            for v, x in doc["labels"].items():
                v, x = _vertex_key(v), _int(x)
                if 0 <= v < n:
                    labels[v] = x
                else:
                    outside.append(v)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed labels: {exc}") from exc
        if outside:
            raise ValidationError(f"label for vertex {outside[0]} outside 0..{n - 1}")
        labeling = _over(labels, n - labels.count(None))
    spider = None
    if "center" in doc and "legs" in doc:
        try:
            center = _int(doc["center"])
            legs = tuple(tuple(map(_int, leg)) for leg in doc["legs"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"malformed spider: {exc}") from exc
        spider = Spider(tree, center, legs)
    return tree, labeling, spider


def dumps_document(doc: dict) -> str:
    """The JSON text of `doc`: indented by 2, with a trailing newline, keys
    in the order `doc` holds them. Every JSON text the CLI writes goes
    through here."""
    return json.dumps(doc, indent=2) + "\n"


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValidationError(f"{path} nests its JSON values too deeply to read") from None


def to_dot(tree: Tree, labeling: Labeling | None = None, attrs: dict | None = None) -> str:
    """DOT rendering with vertex labels as node text and edge differences
    as edge text; without a labeling the node text is the vertex id. Under a
    partial labeling an unlabeled vertex has empty node text, and an edge
    with an unlabeled end has no edge text. `attrs` become graph attributes
    (`alpha=3;`), an int as it is and any other value as its JSON text in a
    quoted string."""
    lines = ["graph G {", "  node [shape=circle];"]
    for key, value in (attrs or {}).items():
        text = value if type(value) is int else json.dumps(json.dumps(value))
        lines.append(f"  {key}={text};")
    # The labels of vertices 0..n-1, with None past the end of the list.
    f = None if labeling is None else (labeling.values.labels + [None] * tree.n)[:tree.n]
    for v, x in enumerate(range(tree.n) if f is None else f):
        lines.append(f'  v{v} [label="{"" if x is None else x}"];')
    for a, b in tree.edges:
        if f is not None and f[a] is not None and f[b] is not None:
            lines.append(f'  v{a} -- v{b} [label="{abs(f[a] - f[b])}"];')
        else:
            lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
