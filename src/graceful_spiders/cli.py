"""Command-line surface for the spider labeling constructions.

Subcommands: spider doubling | spider short | spider three-long | attach |
amalgamate | path | oracle | verify | export. Exit codes: 0 success, 2
validation (including provable infeasibility), 3 resource (a search budget,
or a request too large for memory), 4 internal theorem-contradiction.

Each call writes one text to stdout, and only `run` writes it: the
subcommand's result, or on exit 2, 3 or 4 the error document
{"error": {"type": ..., "message": ...}}. `verify` of a labeling that is not
graceful writes only the error document. `treedoc.to_document` decides the
order of a tree document, `treedoc.dumps_document` the JSON format of every
document (tree, report, error), and `treedoc.to_dot` the DOT text.

Flags shared by several subcommands:
- `--format json|dot`: the subcommands that emit a tree document (the three
  `spider` variants, `attach`, `amalgamate`, `path`, `export`) write it as
  canonical JSON or as DOT. The values a subcommand adds to the document
  (`alpha` of `path zigzag|alpha`; `shift`, `bridge_label` and `path_ids` of
  `attach`) become DOT graph attributes. `oracle` and `verify` write a JSON
  report and take no `--format`.
- `--trace`: `spider doubling` adds its construction trace to the JSON
  document: the list of step documents that `label_doubling_spider`
  returns, as it is (with `--format dot` it exits 2, since DOT has no place
  for it); `oracle` adds the search time. No other subcommand takes it.
- `--budget`, `--cache`: every subcommand accepts both. Only `oracle`
  searches, so only `oracle` uses `--budget` and can exit 3 at it; every
  other subcommand is closed form and ignores both, so existing command
  lines keep working. Any subcommand exits 3, with a fixed message, when
  its request is too large for memory (a `MemoryError`).

Importing this module runs only `model` and `errors` (with the package's
`__init__`). `attach`, `compose`, `doubling`, `oracle`, `paths`, `short_legs`
and `treedoc` go into `sys.modules` at import through
`importlib.util.LazyLoader`, and each one's body runs on its first attribute
read, so a call compiles only the layers its subcommand reaches: `spider
short` runs `short_legs` and `treedoc`, never the oracle, `paths`,
`compose`, `doubling` or `attach`. The `--budget` default is read from
`errors`, so parsing loads no layer. A tool that wraps a layer's functions
from outside finds every layer in `sys.modules`, and its first read loads it.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys

from .errors import (
    DEFAULT_ORACLE_BUDGET,
    ConstructionInvariantError,
    ResourceBudgetError,
    ValidationError,
)
from .model import AlphaLabeling, _alpha_of, _unchecked, alpha_index, is_graceful, path_tree


def _lazy(name: str):
    """The package's module `name`, put in `sys.modules` (and on the
    package) now, its body run on the first attribute read. A module that
    is already imported is returned as it is."""
    full = f"{__package__}.{name}"
    if full in sys.modules:
        return sys.modules[full]
    spec = importlib.util.find_spec(full)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


attach = _lazy("attach")
compose = _lazy("compose")
doubling = _lazy("doubling")
oracle = _lazy("oracle")
paths = _lazy("paths")
short_legs = _lazy("short_legs")
treedoc = _lazy("treedoc")


def _parse_legs(text: str) -> list[int]:
    try:
        legs = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValidationError(f"cannot parse leg lengths from {text!r}")
    if not legs:
        raise ValidationError("no leg lengths given")
    return legs


def _parse_fixed(items: list[str]) -> dict[int, int]:
    fixed = {}
    for item in items:
        try:
            v, lab = map(int, item.split("="))
        except ValueError:
            raise ValidationError(f"--fix expects v=label, got {item!r}")
        if v in fixed:
            raise ValidationError(f"vertex {v} fixed twice")
        fixed[v] = lab
    return fixed


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--budget", type=int, default=DEFAULT_ORACLE_BUDGET,
                        help="oracle search node budget")
    common.add_argument("--cache", help="accepted and ignored: every path "
                                        "labeling is closed form")
    # The subcommands that emit a tree document.
    emits = argparse.ArgumentParser(add_help=False, parents=[common])
    emits.add_argument("--format", choices=["json", "dot"], default="json",
                       help="output format")

    parser = argparse.ArgumentParser(prog="graceful-spiders")
    sub = parser.add_subparsers(dest="command", required=True)

    spider = sub.add_parser("spider", help="label a spider")
    ssub = spider.add_subparsers(dest="variant", required=True)
    p = ssub.add_parser("doubling", parents=[emits])
    p.add_argument("--legs", required=True, help="comma-separated leg lengths")
    p.add_argument("--trace", action="store_true",
                   help="include the construction trace in the JSON document")
    p = ssub.add_parser("short", parents=[emits])
    p.add_argument("--long", dest="long_leg", type=int, required=True)
    p.add_argument("--two", type=int, default=0)
    p.add_argument("--one", type=int, default=0)
    p = ssub.add_parser("three-long", parents=[emits])
    p.add_argument("--legs", required=True)

    p = sub.add_parser("attach", parents=[emits])
    p.add_argument("--graph", required=True, help="labeled tree document")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--path-len", type=int, required=True,
                   help="vertex count n of the attached path")

    p = sub.add_parser("amalgamate", parents=[emits])
    p.add_argument("--alpha", required=True, help="alpha-labeled G document")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--graceful", required=True, help="gracefully labeled H document")
    p.add_argument("--v", type=int, required=True)

    p = sub.add_parser("path", parents=[emits])
    p.add_argument("kind", choices=["zigzag", "graceful", "alpha"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--position", type=int, help="position of the 0 label")
    p.add_argument("--end-label", type=int, help="label of the first endpoint")
    p.add_argument("--index", type=int, help="required alpha index")

    p = sub.add_parser("oracle", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--fix", action="append", default=[], help="v=label")
    p.add_argument("--alpha", action="store_true", dest="alpha_only",
                   help="restrict to alpha-labelings")
    p.add_argument("--trace", action="store_true",
                   help="include the search time in the output")

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--graph", required=True)

    p = sub.add_parser("export", parents=[emits])
    p.add_argument("--graph", required=True)

    return parser


def _emit(args, tree, labeling=None, spider=None, extra: dict | None = None) -> str:
    if args.format == "dot":
        return treedoc.to_dot(tree, labeling, extra)
    doc = treedoc.to_document(tree, labeling, spider)
    if extra:
        doc.update(extra)
    return treedoc.dumps_document(doc)


def run(argv: list[str]) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        out, code = _dispatch(args), 0
    except ConstructionInvariantError as exc:
        out, code = _error("internal", exc), 4
    except ResourceBudgetError as exc:
        out, code = _error("resource", exc), 3
    except MemoryError:
        out, code = _error("resource", "the request needs more memory than is available"), 3
    except ValidationError as exc:
        out, code = _error("validation", exc), 2
    sys.stdout.write(out)
    return code


def _read(path: str):
    """(tree, labeling or None, spider or None) of the document at `path`."""
    return treedoc.from_document(treedoc.load_document(path))


def _error(kind: str, exc: Exception | str) -> str:
    return treedoc.dumps_document({"error": {"type": kind, "message": str(exc)}})


def _dispatch(args) -> str:
    """The text the command writes to stdout: one JSON document, or DOT."""
    if args.command == "spider":
        if args.variant == "doubling":
            if args.trace and args.format == "dot":
                raise ValidationError("spider doubling --format dot does not take --trace")
            sp, lab, trace = doubling.label_doubling_spider(_parse_legs(args.legs))
            extra = {"trace": trace} if args.trace else None
            return _emit(args, sp.tree, lab, sp, extra)
        if args.variant == "short":
            spec = short_legs.ShortLegSpec(args.long_leg, args.two, args.one)
            sp, lab = short_legs.label_short_leg_spider(spec)
        else:
            sp, lab = compose.label_three_long_legs(_parse_legs(args.legs))
        return _emit(args, sp.tree, lab, sp)
    if args.command == "attach":
        tree, labeling, _ = _read(args.graph)
        if labeling is None:
            raise ValidationError("attach requires a labeled graph document")
        result = attach.attach_path(tree, labeling, args.vertex, args.path_len)
        return _emit(args, result.tree, result.labeling,
                     extra={"shift": result.shift, "bridge_label": result.bridge_label,
                            "path_ids": list(result.path_ids)})
    if args.command == "amalgamate":
        g_tree, g_lab, _ = _read(args.alpha)
        h_tree, h_lab, _ = _read(args.graceful)
        if g_lab is None or h_lab is None:
            raise ValidationError("amalgamate requires labeled documents")
        idx = alpha_index(g_tree, g_lab)
        if idx is None:
            raise ValidationError("G's labeling is not an alpha-labeling")
        # alpha_index has checked G, so the record takes the index unchecked.
        tree, lab = compose.amalgamate(_unchecked(AlphaLabeling, g_tree, g_lab, idx), args.u,
                                       h_tree, h_lab, args.v)
        return _emit(args, tree, lab)
    if args.command == "path":
        return _path_cmd(args)
    if args.command == "oracle":
        tree, _, _ = _read(args.graph)
        fixed = _parse_fixed(args.fix)
        if args.count:
            report = oracle.count_graceful(tree, budget=args.budget,
                                           alpha_constrained=args.alpha_only, fixed=fixed)
        else:
            report = oracle.find_graceful(tree, fixed=fixed, budget=args.budget,
                                          alpha_constrained=args.alpha_only)
        if not report.exhausted:
            raise ResourceBudgetError(
                f"oracle stopped at its budget of {args.budget} nodes "
                f"before a verdict"
            )
        out = {
            "found": None if report.found is None else treedoc.document_labels(report.found),
            "count": report.count,
            "nodes_explored": report.nodes_explored,
            "exhausted": report.exhausted,
        }
        if args.trace:
            out["elapsed"] = report.elapsed
        return treedoc.dumps_document(out)
    if args.command == "verify":
        tree, labeling, _ = _read(args.graph)
        if labeling is None:
            raise ValidationError("verify requires a labeled document")
        if not is_graceful(tree, labeling):
            raise ValidationError("labeling is not graceful")
        # The index is read off the label list that is_graceful has checked.
        alpha = _alpha_of(tree, labeling.as_sequence(tree.n))
        return treedoc.dumps_document({"graceful": True, "alpha_index": alpha})
    # export
    tree, labeling, spider = _read(args.graph)
    return _emit(args, tree, labeling, spider)


def _path_cmd(args) -> str:
    if args.kind == "alpha" and (args.position is None) == (args.end_label is None):
        raise ValidationError("path alpha requires exactly one of --position / --end-label")
    if args.kind == "graceful" and args.position is None:
        raise ValidationError("path graceful requires --position")
    # A flag the request does not read is an error, not a silent no-op.
    request, reads = f"path {args.kind}", ()
    if args.position is not None and args.kind != "zigzag":
        request, reads = f"{request} --position", ("position",)
    elif args.kind == "alpha":
        reads = ("end_label", "index")
    for flag in ("position", "end_label", "index"):
        if getattr(args, flag) is not None and flag not in reads:
            raise ValidationError(f"{request} does not take --{flag.replace('_', '-')}")
    if args.kind == "graceful":
        lab = paths.graceful_path_zero_at(args.n, args.position)
        return _emit(args, path_tree(args.n), lab)
    if args.kind == "zigzag":
        al = paths.zigzag_alpha_path(args.n)
    elif args.position is not None:
        al = paths.alpha_path_zero_at(args.n, args.position)
    else:
        al = paths.alpha_path_end_label(args.n, args.end_label, args.index)
    return _emit(args, al.tree, al.labeling, extra={"alpha": al.alpha})


def entrypoint():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
