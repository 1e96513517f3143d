"""Which layers a command-line process runs: importing `graceful_spiders.cli`
puts every layer in `sys.modules`, where the benchmark's span hooks look
them up, but runs only `model` and `errors`; a subcommand runs the layers it
reaches and no other. Each check runs in a fresh interpreter, since the
test process has long since loaded every layer."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "tests", "data")
LAZY = ("attach", "compose", "doubling", "oracle", "paths", "short_legs", "treedoc")


def _python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120, check=True)


def _load(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_import_registers_every_spanned_layer():
    spans = _load("spans", os.path.join(ROOT, "perfbench", "spans.py"))
    layers = sorted({mod for mod, _, _ in spans.SPANNED + spans.COUNTED})
    code = (
        "import json, sys, types; import graceful_spiders.cli; "
        "print(json.dumps({m: [f'graceful_spiders.{m}' in sys.modules, "
        "type(sys.modules.get(f'graceful_spiders.{m}')) is types.ModuleType] "
        "for m in json.loads(sys.argv[1])}))"
    )
    state = json.loads(_python(code, json.dumps(layers)).stdout)
    assert {m: registered for m, (registered, _) in state.items()} == dict.fromkeys(layers, True)
    # Registered, not run: reading `type` leaves a lazy module unloaded.
    assert sorted(m for m, (_, ran) in state.items() if ran) == ["cli", "model"]


def test_spider_short_runs_only_the_layers_it_reaches():
    code = (
        "import contextlib, io, json, sys, types; import graceful_spiders.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['spider', 'short', '--long', '11', '--two', sys.argv[2],\n"
        "                    '--one', '1'])\n"
        "ran = [m for m in json.loads(sys.argv[1])\n"
        "       if type(sys.modules[f'graceful_spiders.{m}']) is types.ModuleType]\n"
        "print(json.dumps([code, ran]))"
    )
    # s = 1 takes the same formula as every other s, so no path layer either.
    for two in ("2", "1"):
        assert json.loads(_python(code, json.dumps(LAZY), two).stdout) == [
            0, ["short_legs", "treedoc"]]


def test_lazy_layers_are_the_package_attributes():
    code = (
        "import json, sys, graceful_spiders, graceful_spiders.cli as cli\n"
        "print(json.dumps([getattr(graceful_spiders, m) is sys.modules[f'graceful_spiders.{m}']\n"
        "                  is getattr(cli, m) for m in json.loads(sys.argv[1])]))\n"
        "from graceful_spiders import oracle\n"
        "from graceful_spiders.errors import DEFAULT_ORACLE_BUDGET\n"
        "print(oracle.DEFAULT_ORACLE_BUDGET == DEFAULT_ORACLE_BUDGET == 10**8)"
    )
    same, budget = _python(code, json.dumps(LAZY)).stdout.splitlines()
    assert json.loads(same) == [True] * len(LAZY)
    assert budget == "True"


# One frozen transcript call per layer the command line loads on demand, and
# the error documents of exit 2 and 3.
PROCESS_CALLS = [
    ["oracle", "--graph", "p4.json", "--count"],
    ["oracle", "--graph", "p5.json", "--budget", "1"],
    ["spider", "short", "--long", "11", "--two", "2", "--one", "1"],
    ["spider", "doubling", "--legs", "1,6,14", "--trace"],
    ["spider", "doubling", "--legs", "1,5,12"],
    ["spider", "three-long", "--legs", "4,3,3,2,1"],
    ["path", "alpha", "--n", "7", "--end-label", "6", "--index", "2"],
    ["attach", "--graph", "spider.json", "--vertex", "0", "--path-len", "4"],
    ["amalgamate", "--alpha", "g.json", "--u", "0", "--graceful", "h.json", "--v", "0"],
    ["verify", "--graph", "spider.json"],
]


@pytest.fixture(scope="module")
def frozen(tmp_path_factory):
    """The frozen transcript rows by argv, and a directory holding the
    transcript's input files."""
    maker = _load("make_cli_transcript", os.path.join(DATA, "make_cli_transcript.py"))
    workdir = tmp_path_factory.mktemp("inputs")
    for name, value in maker.INPUTS.items():
        data = value if type(value) is bytes else json.dumps(value).encode()
        (workdir / name).write_bytes(data)
    with open(os.path.join(DATA, "cli_transcript.json")) as fh:
        rows = {tuple(row["argv"]): row for row in json.load(fh)["calls"]}
    return rows, workdir


@pytest.mark.parametrize("argv", PROCESS_CALLS, ids=" ".join)
def test_module_entry_point_matches_transcript(frozen, argv):
    rows, workdir = frozen
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "graceful_spiders.cli", *argv],
                          capture_output=True, env=env, cwd=workdir, timeout=120)
    row = rows[tuple(argv)]
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == (row["exit"],
                                                                         row["sha256"])
