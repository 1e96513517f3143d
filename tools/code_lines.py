"""Count the code lines of each module under src/: lines that hold a token of
code, not counting docstrings, comments or blank lines.

Run from the repository root:

    python3 tools/code_lines.py
    python3 tools/code_lines.py src/graceful_spiders/paths.py

A docstring is the string literal that opens a module, class or function
body. A line counts when some token on it is code (not a comment, a line
break, an indent or a dedent) and lies outside every docstring, so a
statement that spans lines counts each of them. The script prints one line
per module, the module's path and its count, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """Line numbers covered by the docstrings of a module's source."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code outside docstrings."""
    skip = docstring_lines(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(v for v in range(tok.start[0], tok.end[0] + 1) if v not in skip)
    return len(lines)


def modules(paths: list[str]) -> list[str]:
    """The .py files named, or found under the directories named, sorted."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, _, files in os.walk(path):
                out += [os.path.join(root, f) for f in files if f.endswith(".py")]
        else:
            out.append(path)
    return sorted(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=["src"])
    args = ap.parse_args(argv)
    total = 0
    for path in modules(args.paths):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{path} {count}")
    print(f"total {total:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
