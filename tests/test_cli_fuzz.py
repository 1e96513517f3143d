"""A seeded fuzz test of the CLI's exit contract.

Every call of `cli.run` returns 0, 2, 3 or 4 and raises nothing else, and
its stdout is exactly one JSON document, or DOT text when a tree is written
under `--format dot`. A command line that argparse rejects exits 2 through
`SystemExit`, with its usage message on stderr and nothing on stdout.

The calls mutate valid documents (flip bytes, truncate, nest deeply, swap
types, drop or duplicate keys, swap labels) and valid command lines (drop,
swap or repeat tokens, extreme numbers). Sizes stay small or past the
index range, where they exit 2 before anything is allocated, so no call
makes a big allocation. Every call runs in this process and passes a small
`--budget` unless a mutation drops it; the oracle's input trees have at
most 5 vertices, so even the default budget ends its search quickly.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys

import pytest

from graceful_spiders.cli import run
from graceful_spiders.model import Labeling, build_spider, path_tree
from graceful_spiders.short_legs import ShortLegSpec, label_short_leg_spider
from graceful_spiders.treedoc import dumps_document, to_document

_sp, _lab = label_short_leg_spider(ShortLegSpec(5, 1, 1))
# Valid inputs: a labeled spider, an alpha-labeled path (for amalgamate's G)
# and two unlabeled trees small enough for any oracle count.
DOCS = {
    "spider": dumps_document(to_document(_sp.tree, _lab, _sp)).encode(),
    "alpha": dumps_document(
        to_document(path_tree(4), Labeling.from_sequence([0, 3, 1, 2]))).encode(),
    "small": dumps_document(to_document(build_spider([2, 1, 1]).tree)).encode(),
    "p5": dumps_document(to_document(path_tree(5))).encode(),
}

BUDGET = ["--budget", "2000"]
# Valid command lines; {name} is the path of the input document `name`.
TEMPLATES = [
    ["spider", "doubling", "--legs", "1,6,14"],
    ["spider", "doubling", "--legs", "1,6,14", "--trace"],
    ["spider", "short", "--long", "9", "--two", "1", "--one", "2"],
    ["spider", "three-long", "--legs", "4,3,3,2,1"],
    ["path", "zigzag", "--n", "8"],
    ["path", "graceful", "--n", "7", "--position", "3"],
    ["path", "alpha", "--n", "9", "--position", "4"],
    ["path", "alpha", "--n", "7", "--end-label", "6", "--index", "2"],
    ["attach", "--graph", "{spider}", "--vertex", "0", "--path-len", "4"],
    ["amalgamate", "--alpha", "{alpha}", "--u", "0", "--graceful", "{spider}", "--v", "0"],
    ["oracle", "--graph", "{small}", "--count"],
    ["oracle", "--graph", "{p5}", "--fix", "2=0", "--alpha"],
    ["oracle", "--graph", "{small}", "--fix", "0=0", "--trace"],
    ["verify", "--graph", "{spider}"],
    ["verify", "--graph", "{alpha}"],
    ["export", "--graph", "{spider}"],
]
EMITS_TREE = ("spider", "path", "attach", "amalgamate", "export")

SIZE_FLAGS = ("--n", "--path-len", "--long", "--two", "--one")
INDEX_FLAGS = ("--vertex", "--u", "--v", "--position", "--end-label", "--index")
# Sizes past sys.maxsize exit 2 before any list is made; a size that fits
# the index range but not memory exits 3 (test_treedoc_cli.py), so sizes
# here stay small.
SIZES = [-1, 0, 1, 2, 3, 5, 13, 40, sys.maxsize + 1, 10**30]
INDICES = [-1, 0, 1, 2, 7, 2**31, sys.maxsize - 1, sys.maxsize, -sys.maxsize - 1]
JUNK = ["", "x", "1e3", "0x10", "1.5", "--n", "=", "1,,2", "-", "dot"]
TYPES = [None, True, False, 0, -1, 0.5, 2**64, "x", "3", [], {}, [[]], {"0": 0}]
JSON_BYTES = b'0123456789[]{}",:-. tfn'
KIND = {2: "validation", 3: "resource", 4: "internal"}

# Inputs that once broke the contract, each a named case.
NAMED = {
    # verify wrote its report and then an error document.
    "verify_non_graceful": (["verify", "--graph", "{bad}"],
                            {"bad": b'{"n": 3, "edges": [[0, 1], [1, 2]], '
                                    b'"labels": {"0": 0, "1": 1, "2": 2}}'}),
    # load_document raised UnicodeDecodeError and RecursionError.
    "not_utf8": (["verify", "--graph", "{doc}"], {"doc": b"\xff\xfe"}),
    "nested_1e5": (["export", "--graph", "{doc}"], {"doc": b"[" * 10**5 + b"]" * 10**5}),
    "labels_nested_1e5": (["verify", "--graph", "{doc}"],
                          {"doc": b'{"n": 1, "edges": [], "labels": '
                                  + b"[" * 10**5 + b"]" * 10**5 + b"}"}),
}


def check_call(argv: list[str]) -> int:
    """Run the CLI on `argv` and assert the exit contract; return the code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(argv))
    except SystemExit as exc:
        assert exc.code == 2 and out.getvalue() == "" and "usage:" in err.getvalue(), argv
        return 2
    except Exception as exc:
        raise AssertionError(f"{argv} raised {exc!r}") from exc
    text = out.getvalue()
    assert code in (0, 2, 3, 4), (argv, code)
    if code == 0 and text.startswith("graph G {"):
        assert "dot" in argv and text.endswith("\n}\n"), argv
        assert text.count("{") == 1 and text.count("}") == 1, argv
        return code
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AssertionError(f"{argv} (exit {code}): stdout is not one JSON "
                             f"document: {exc}\n{text[:400]}") from exc
    assert type(doc) is dict, argv
    if code:
        error = doc.get("error")
        assert list(doc) == ["error"] and type(error) is dict, (argv, doc)
        assert error["type"] == KIND[code] and type(error["message"]) is str, (argv, doc)
    else:
        assert "error" not in doc, (argv, doc)
    return code


def write_inputs(tmp_path, argv: list[str], files: dict[str, bytes]) -> list[str]:
    paths = {}
    for name, data in files.items():
        p = tmp_path / f"{name}.json"
        p.write_bytes(data)
        paths[name] = str(p)
    return [token.format(**paths) if "{" in token else token for token in argv]


def _nodes(value, out):
    """Every (container, key) slot under `value`, depth first."""
    if type(value) is dict:
        items = value.items()
    elif type(value) is list:
        items = enumerate(value)
    else:
        return out
    for key, child in items:
        out.append((value, key))
        _nodes(child, out)
    return out


def mutate_document(rng: random.Random, data: bytes) -> bytes:
    op = rng.randrange(7)
    if op == 0:  # flip bytes
        buf = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            alphabet = JSON_BYTES if rng.random() < 0.8 else range(256)
            buf[rng.randrange(len(buf))] = rng.choice(alphabet)
        return bytes(buf)
    if op == 1:  # truncate
        return data[:rng.randrange(len(data))]
    if op == 2:  # nest deeply, around the document or around one value
        depth = rng.choice([2, 50, 10**5])
        if rng.random() < 0.5:
            return b"[" * depth + data + b"]" * depth
        doc = json.loads(data)
        container, key = rng.choice(_nodes(doc, []))
        marker = "\x00nest\x00"
        container[key] = marker
        text = json.dumps(doc)
        return text.replace(json.dumps(marker), "[" * depth + "0" + "]" * depth, 1).encode()
    doc = json.loads(data)
    slots = _nodes(doc, [])
    if op == 3:  # swap types
        container, key = rng.choice(slots)
        container[key] = rng.choice(TYPES)
        return json.dumps(doc).encode()
    if op == 4:  # drop a key
        dicts = [doc] + [c[k] for c, k in slots if type(c[k]) is dict]
        d = rng.choice(dicts)
        if d:
            del d[rng.choice(list(d))]
        return json.dumps(doc).encode()
    if op == 5:  # duplicate a top-level key; the parser keeps the last value
        key = rng.choice(list(doc))
        value = rng.choice(TYPES + [doc[key]])
        return (json.dumps(doc)[:-1] + f", {json.dumps(key)}: {json.dumps(value)}}}").encode()
    # swap two labels, which keeps the document well formed
    labels = doc.get("labels")
    if type(labels) is dict and len(labels) >= 2:
        a, b = rng.sample(list(labels), 2)
        labels[a], labels[b] = labels[b], labels[a]
    return json.dumps(doc).encode()


def _number(rng: random.Random, flag: str, token: str) -> str:
    if rng.random() < 0.15:
        return rng.choice(JUNK)
    if flag in SIZE_FLAGS:
        return str(rng.choice(SIZES))
    if flag in INDEX_FLAGS:
        return str(rng.choice(INDICES))
    if flag == "--legs":
        return ",".join(str(rng.choice(SIZES)) for _ in range(rng.randint(1, 5)))
    if flag == "--fix":
        return f"{rng.choice(INDICES)}={rng.choice(INDICES)}"
    if flag == "--budget":
        return str(rng.choice([-1, 0, 1, 50]))
    return token


def mutate_argv(rng: random.Random, argv: list[str]) -> list[str]:
    argv = list(argv)
    op = rng.randrange(4)
    if op == 0:  # a value becomes an extreme number or junk
        spots = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")
                 and not argv[i].startswith("--")]
        if spots:
            i = rng.choice(spots)
            argv[i] = _number(rng, argv[i - 1], argv[i])
    elif op == 1:  # drop a token
        del argv[rng.randrange(len(argv))]
    elif op == 2:  # swap two tokens
        i, j = rng.randrange(len(argv)), rng.randrange(len(argv))
        argv[i], argv[j] = argv[j], argv[i]
    else:  # repeat a flag with its value
        flags = [i for i, t in enumerate(argv) if t.startswith("--")]
        if flags:
            i = rng.choice(flags)
            end = i + 1 + (i + 1 < len(argv) and not argv[i + 1].startswith("--"))
            argv += argv[i:end]
    return argv


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_case(tmp_path, name):
    argv, files = NAMED[name]
    assert check_call(write_inputs(tmp_path, argv, files)) == 2


@pytest.mark.parametrize("seed", range(4))
def test_fuzz(tmp_path, seed):
    rng = random.Random(seed)
    codes = set()
    for _ in range(100):
        argv = list(rng.choice(TEMPLATES))
        if argv[0] in EMITS_TREE and rng.random() < 0.3:
            argv += ["--format", "dot"]
        files = {}
        for name, data in DOCS.items():
            if f"{{{name}}}" in argv:
                files[name] = mutate_document(rng, data) if rng.random() < 0.6 else data
        argv += BUDGET
        if not files or rng.random() < 0.5:
            argv = mutate_argv(rng, argv)
        codes.add(check_call(write_inputs(tmp_path, argv, files)))
    assert {0, 2} <= codes
