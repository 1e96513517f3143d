import importlib.util
import json
import os
import subprocess
import sys
from itertools import product

import pytest

from conftest import USER_CACHE_FILE
from graceful_spiders import model
from graceful_spiders.cli import run
from graceful_spiders.model import Labeling, build_spider, path_tree
from graceful_spiders.treedoc import (
    dumps_document,
    from_document,
    to_document,
    to_dot,
)


class TestTreeDoc:
    def test_roundtrip(self):
        sp = build_spider([2, 3])
        lab = Labeling.from_sequence([0, 5, 1, 4, 2, 3])
        doc = to_document(sp.tree, lab, sp)
        tree2, lab2, sp2 = from_document(json.loads(dumps_document(doc)))
        assert tree2.edges == sp.tree.edges
        assert lab2.values == lab.values
        assert sp2.legs == sp.legs

    def test_canonical_emission(self):
        doc = {"edges": [[1, 0]], "n": 2, "labels": {"1": 1, "0": 0}}
        tree, lab, _ = from_document(doc)
        once = dumps_document(to_document(tree, lab))
        twice = dumps_document(to_document(*from_document(json.loads(once))[:2]))
        assert once == twice

    def test_malformed(self):
        from graceful_spiders.errors import ValidationError

        with pytest.raises(ValidationError):
            from_document({"edges": []})

    def test_dot(self):
        dot = to_dot(path_tree(2), Labeling.from_sequence([0, 1]))
        assert 'v0 [label="0"]' in dot and '[label="1"]' in dot

    def test_dot_is_frozen(self):
        lab = Labeling.from_sequence([0, 2, 1])
        head = 'graph G {\n  node [shape=circle];\n'
        assert to_dot(path_tree(3), lab) == head + (
            '  v0 [label="0"];\n  v1 [label="2"];\n  v2 [label="1"];\n'
            '  v0 -- v1 [label="2"];\n  v1 -- v2 [label="1"];\n}\n')
        assert to_dot(path_tree(3), Labeling(dict(lab.values))) == to_dot(path_tree(3), lab)
        assert to_dot(path_tree(3)) == head + (
            '  v0 [label="0"];\n  v1 [label="1"];\n  v2 [label="2"];\n'
            '  v0 -- v1;\n  v1 -- v2;\n}\n')

    def test_dot_of_partial_labeling(self):
        # Vertex 1 is unlabeled: empty node text, and neither of its edges
        # carries a difference.
        dot = to_dot(path_tree(3), Labeling({0: 0, 2: 1}))
        assert dot == ('graph G {\n  node [shape=circle];\n'
                       '  v0 [label="0"];\n  v1 [label=""];\n  v2 [label="1"];\n'
                       '  v0 -- v1;\n  v1 -- v2;\n}\n')

    def test_every_labeling_round_trips(self):
        # Full and partial labelings, made from a sequence or a mapping, read
        # back as the same labeling; a gap is a vertex the document leaves out.
        sp = build_spider([2, 1])
        t = sp.tree
        for labels in product([None, 0, 3], repeat=t.n):
            d = {v: x for v, x in enumerate(labels) if x is not None}
            for lab in (Labeling.from_sequence(labels), Labeling(d),
                        Labeling(dict(reversed(d.items())))):
                doc = to_document(t, lab, sp)
                assert list(doc["labels"]) == [str(v) for v in sorted(d)]
                tree2, lab2, sp2 = from_document(json.loads(dumps_document(doc)))
                assert (tree2, lab2, sp2) == (t, lab, sp)
                assert dumps_document(to_document(tree2, lab2, sp2)) == dumps_document(doc)

    def test_dict_and_list_labelings_give_one_document(self):
        sp = build_spider([2, 3])
        labels = [0, 5, 1, 4, 2, 3]
        as_list = to_document(sp.tree, Labeling.from_sequence(labels), sp)
        # Keys inserted out of order: emission sorts them either way.
        as_dict = to_document(sp.tree, Labeling(dict(reversed(list(enumerate(labels))))), sp)
        assert as_list == as_dict
        assert list(as_list["labels"]) == [str(v) for v in range(6)]
        assert dumps_document(as_list) == dumps_document(as_dict)


def run_cli(capsys, *argv):
    code = run(list(argv))
    return code, capsys.readouterr().out


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter on this checkout's sources."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "graceful_spiders.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.fixture
def graceful_calls(monkeypatch):
    """The trees that `is_graceful` is called on, through every module of
    the package that holds the name, in call order."""
    real, calls = model.is_graceful, []

    def spy(t, lab):
        calls.append(t)
        return real(t, lab)

    # Every module is read (and a lazy one loaded) before any is patched, so
    # none imports the spy as its own name.
    holders = [module for name, module in list(sys.modules.items())
               if name.startswith("graceful_spiders.")
               and getattr(module, "is_graceful", None) is real]
    for module in holders:
        monkeypatch.setattr(module, "is_graceful", spy)
    return calls


class TestCli:
    def test_spider_short_json(self, capsys):
        code, out = run_cli(capsys, "spider", "short", "--long", "11", "--two", "2")
        assert code == 0
        doc = json.loads(out)
        labels = {int(k): v for k, v in doc["labels"].items()}
        assert labels[0] == 0 and doc["center"] == 0

    def test_path_alpha_lemma2c_exit2(self, capsys):
        code, out = run_cli(capsys, "path", "alpha", "--n", "5", "--end-label", "1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "validation"

    def test_resource_exit3(self, capsys, tmp_path):
        # Only the oracle searches, so only it can stop at its budget.
        p = tmp_path / "p5.json"
        p.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}))
        for extra in ([], ["--count"]):
            code, out = run_cli(capsys, "oracle", "--graph", str(p), "--budget", "1", *extra)
            assert code == 3
            assert json.loads(out)["error"]["type"] == "resource"

    def test_bad_doubling_exit2(self, capsys):
        code, _ = run_cli(capsys, "spider", "doubling", "--legs", "1,5,12")
        assert code == 2

    def test_verify_and_roundtrip(self, capsys, tmp_path):
        code, out = run_cli(capsys, "spider", "three-long", "--legs", "4,3,3")
        assert code == 0
        p = tmp_path / "sp.json"
        p.write_text(out)
        code, report = run_cli(capsys, "verify", "--graph", str(p))
        assert code == 0 and json.loads(report)["graceful"] is True
        code, out2 = run_cli(capsys, "export", "--graph", str(p))
        assert out == out2

    def test_verify_checks_the_labeling_once(self, capsys, tmp_path, graceful_calls):
        p = tmp_path / "sp.json"
        p.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]],
                                 "labels": {"0": 0, "1": 3, "2": 1, "3": 2}}))
        code, report = run_cli(capsys, "verify", "--graph", str(p))
        assert code == 0 and json.loads(report) == {"graceful": True, "alpha_index": 1}
        assert len(graceful_calls) == 1

    def test_verify_bad_labeling(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]],
                                 "labels": {"0": 0, "1": 1, "2": 2}}))
        code, out = run_cli(capsys, "verify", "--graph", str(p))
        # Only the error document: the report used to come first.
        assert code == 2
        assert json.loads(out) == {"error": {"type": "validation",
                                             "message": "labeling is not graceful"}}

    def test_oracle_count(self, capsys, tmp_path):
        p = tmp_path / "p4.json"
        p.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
        code, out = run_cli(capsys, "oracle", "--graph", str(p), "--count")
        doc = json.loads(out)
        assert code == 0 and doc["count"] == 4 and doc["exhausted"]

    def test_oracle_fix_and_alpha(self, capsys, tmp_path):
        p = tmp_path / "p5.json"
        p.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}))
        code, out = run_cli(capsys, "oracle", "--graph", str(p), "--fix", "2=0", "--alpha")
        doc = json.loads(out)
        assert code == 0 and doc["found"] is None and doc["exhausted"]

    def test_oracle_contract_on_short_spider(self, capsys, tmp_path):
        # The oracle's answers on this document are frozen; only the nodes it
        # spends may fall. Its budget is exact: the nodes a run reports
        # suffice, one fewer stops it with exit 3.
        code, out = run_cli(capsys, "spider", "short", "--long", "9", "--two", "0",
                            "--one", "2")
        assert code == 0
        p = tmp_path / "tree.json"
        p.write_text(out)
        witness = [0, 9, 1, 8, 2, 7, 3, 6, 4, 5, 10, 11]
        found = {str(v): lab for v, lab in enumerate(witness)}
        for extra, answer, parent_nodes in (
            ([], {"found": found, "count": None}, 51_084),
            (["--count"], {"found": None, "count": 2040}, 1_234_704),
        ):
            argv = ["oracle", "--graph", str(p), *extra]
            code, out = run_cli(capsys, *argv)
            doc = json.loads(out)
            nodes = doc.pop("nodes_explored")
            assert code == 0 and doc == {**answer, "exhausted": True}
            assert nodes < parent_nodes
            code, at_budget = run_cli(capsys, *argv, "--budget", str(nodes))
            assert code == 0 and at_budget == out
            code, out = run_cli(capsys, *argv, "--budget", str(nodes - 1))
            assert code == 3 and json.loads(out)["error"]["type"] == "resource"

    def test_oracle_negative_budget_exit2(self, capsys, tmp_path):
        p = tmp_path / "p5.json"
        p.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}))
        for extra in ([], ["--count"]):
            code, out = run_cli(capsys, "oracle", "--graph", str(p), "--budget", "-1", *extra)
            assert code == 2
            assert json.loads(out)["error"] == {
                "type": "validation", "message": "budget must be >= 0, got -1"}
            code, out = run_cli(capsys, "oracle", "--graph", str(p), "--budget", "0", *extra)
            assert code == 3 and json.loads(out)["error"]["type"] == "resource"

    def test_oracle_repeated_fix_exit2(self, capsys, tmp_path):
        p = tmp_path / "p5.json"
        p.write_text(json.dumps({"n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]]}))
        code, out = run_cli(capsys, "oracle", "--graph", str(p), "--fix", "0=1", "--fix", "0=2")
        assert code == 2
        assert json.loads(out)["error"] == {"type": "validation",
                                            "message": "vertex 0 fixed twice"}
        code, out = run_cli(capsys, "oracle", "--graph", str(p), "--fix", "0=1", "--fix", "1=2")
        assert code == 0 and json.loads(out)["exhausted"]

    def test_path_alpha_single_index_message(self, capsys):
        code, out = run_cli(capsys, "path", "alpha", "--n", "2", "--end-label", "1",
                            "--index", "5")
        assert code == 2
        assert json.loads(out)["error"]["message"] == (
            "every alpha-labeling of P_2 has index 0; index 5 is impossible")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["alpha", "--n", "3", "--position", "1", "--index", "5"],
             "path alpha --position does not take --index"),
            (["graceful", "--n", "3", "--position", "1", "--end-label", "1"],
             "path graceful --position does not take --end-label"),
            (["graceful", "--n", "3", "--position", "1", "--index", "1"],
             "path graceful --position does not take --index"),
            (["zigzag", "--n", "3", "--position", "0"], "path zigzag does not take --position"),
            (["zigzag", "--n", "3", "--end-label", "0"], "path zigzag does not take --end-label"),
            (["zigzag", "--n", "3", "--index", "1"], "path zigzag does not take --index"),
        ],
    )
    def test_path_unread_flag_exit2(self, capsys, argv, message):
        # Each of these once exited 0 and ignored the flag.
        code, out = run_cli(capsys, "path", *argv)
        assert code == 2
        assert json.loads(out)["error"] == {"type": "validation", "message": message}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["path", "alpha", "--n", "5"],
             "path alpha requires exactly one of --position / --end-label"),
            (["path", "graceful", "--n", "5"], "path graceful requires --position"),
            (["spider", "doubling", "--legs", "a,b"], "cannot parse leg lengths from 'a,b'"),
            (["oracle", "--graph", "{unlabeled}", "--fix", "1"],
             "--fix expects v=label, got '1'"),
            (["attach", "--graph", "{unlabeled}", "--vertex", "0", "--path-len", "2"],
             "attach requires a labeled graph document"),
            (["verify", "--graph", "{unlabeled}"], "verify requires a labeled document"),
            (["amalgamate", "--alpha", "{graceful}", "--u", "0", "--graceful", "{graceful}",
              "--v", "0"], "G's labeling is not an alpha-labeling"),
        ],
    )
    def test_validation_message_exit2(self, capsys, tmp_path, argv, message):
        unlabeled = tmp_path / "unlabeled.json"
        unlabeled.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}))
        # A graceful labeling of P_5 that is not an alpha-labeling.
        code, out = run_cli(capsys, "path", "graceful", "--n", "5", "--position", "2")
        assert code == 0
        graceful = tmp_path / "graceful.json"
        graceful.write_text(out)
        argv = [a.format(unlabeled=unlabeled, graceful=graceful) for a in argv]
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == {"type": "validation", "message": message}

    def test_oracle_trace_adds_elapsed(self, capsys, tmp_path):
        p = tmp_path / "p4.json"
        p.write_text(json.dumps({"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}))
        keys = {"found", "count", "nodes_explored", "exhausted"}
        for extra in ([], ["--count"]):
            code, out = run_cli(capsys, "oracle", "--graph", str(p), *extra)
            assert code == 0 and set(json.loads(out)) == keys
            code, out = run_cli(capsys, "oracle", "--graph", str(p), *extra, "--trace")
            doc = json.loads(out)
            assert code == 0 and set(doc) == keys | {"elapsed"}
            assert isinstance(doc["elapsed"], float) and doc["elapsed"] >= 0

    def test_oracle_deep_fully_fixed_path(self, tmp_path):
        n = 1200
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"n": n, "edges": [[i, i + 1] for i in range(n - 1)]}))
        fixes = [f"{v}={v // 2 if v % 2 == 0 else n - 1 - v // 2}" for v in range(n)]
        assert fixes[0] == "0=0" and fixes[-1] == "1199=600"
        argv = ["oracle", "--graph", str(p)]
        for fix in fixes:
            argv += ["--fix", fix]
        proc = run_cli_process(argv)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["exhausted"] and len(doc["found"]) == n

    @pytest.mark.parametrize(
        "argv",
        [
            ["path", "alpha", "--n", "2000", "--end-label", "1"],
            ["spider", "doubling", "--legs", "2,6,14,30,62,126,254,510,1022,2046,4094,8190,16382"],
        ],
    )
    def test_long_alpha_paths_exit_0(self, argv):
        # Both need an alpha path with a small endpoint label on thousands of
        # vertices, which once overflowed the interpreter stack.
        proc = run_cli_process(argv)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert "labels" in json.loads(proc.stdout)

    @pytest.mark.parametrize(
        "argv",
        [
            ["spider", "three-long", "--legs", "64,64,3"],
            ["spider", "three-long", "--legs", "29,15,1"],
            ["spider", "short", "--long", "5", "--two", "1"],
            ["path", "alpha", "--n", "99999", "--position", "33333"],
        ],
    )
    def test_zero_at_residue_exit_0(self, argv):
        # Each needs an alpha path with 0 where `_zero_at_construct` has no
        # decomposition: the center of P_129, (45, 15), (8, 2) and
        # (99999, 33333).
        proc = run_cli_process(argv)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert "labels" in json.loads(proc.stdout)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"center": 0, "legs": [["x"]]}, "malformed spider"),
            ({"center": "c", "legs": [[1]]}, "malformed spider"),
            ({"center": 0, "legs": 5}, "malformed spider"),
            ({"labels": {"0": 0, "1": 1, "-1": 5}}, "label for vertex -1 outside 0..1"),
            ({"labels": {"0": 0, "1": 1, "2": 5}}, "label for vertex 2 outside 0..1"),
            # int() would truncate these to a valid, graceful document.
            ({"labels": {"0": 0.5, "1": 1}}, "malformed labels: 0.5 is not an integer"),
            ({"labels": {"0": True, "1": 0}}, "malformed labels: true is not an integer"),
            ({"labels": {"0": 0, "01": 1}}, 'malformed labels: "01" is not a vertex id'),
            ({"n": 2.5}, "malformed tree document: 2.5 is not an integer"),
            ({"n": True, "edges": []}, "malformed tree document: true is not an integer"),
            ({"edges": [[0, True]]}, "malformed tree document: true is not an integer"),
            ({"edges": [["0", 1]]}, 'malformed tree document: "0" is not an integer'),
            ({"center": 0.0, "legs": [[1]]}, "malformed spider: 0.0 is not an integer"),
            ({"center": 0, "legs": [[1.0]]}, "malformed spider: 1.0 is not an integer"),
            # Every label is read before the first vertex outside the tree
            # is named.
            ({"labels": {"7": 0, "-1": 1, "0": 0.5}}, "malformed labels: 0.5 is not an integer"),
            ({"labels": {"7": 0, "-1": 1, "0": 0}}, "label for vertex 7 outside 0..1"),
        ],
    )
    def test_malformed_document_exit2(self, tmp_path, doc, message):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps({"n": 2, "edges": [[0, 1]], **doc}))
        for command in ("export", "verify"):
            proc = run_cli_process([command, "--graph", str(p)])
            assert proc.returncode == 2 and "Traceback" not in proc.stderr
            error = json.loads(proc.stdout)["error"]
            assert error["type"] == "validation" and message in error["message"]

    def test_unlabeled_vertex_exit2(self, capsys, tmp_path):
        p = tmp_path / "partial.json"
        p.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]],
                                 "labels": {"0": 0, "1": 2}}))
        code, out = run_cli(capsys, "verify", "--graph", str(p))
        assert code == 2
        assert json.loads(out)["error"]["message"] == "vertex 2 is not labeled"

    def test_attach_cmd(self, capsys, tmp_path):
        p = tmp_path / "host.json"
        p.write_text(json.dumps({"n": 1, "edges": [], "labels": {"0": 0}}))
        code, out = run_cli(capsys, "attach", "--graph", str(p), "--vertex", "0",
                            "--path-len", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["bridge_label"] == 1

    def test_amalgamate_cmd(self, capsys, tmp_path, graceful_calls):
        g = tmp_path / "g.json"
        g.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]],
                                 "labels": {"0": 0, "1": 2, "2": 1}}))
        h = tmp_path / "h.json"
        h.write_text(json.dumps({"n": 2, "edges": [[0, 1]],
                                 "labels": {"0": 0, "1": 1}}))
        code, out = run_cli(capsys, "amalgamate", "--alpha", str(g), "--u", "0",
                            "--graceful", str(h), "--v", "0")
        assert code == 0
        labels = {int(k): v for k, v in json.loads(out)["labels"].items()}
        assert labels == {0: 1, 1: 3, 2: 0, 3: 2}
        # G, then H, then the amalgam: G's input check is not repeated.
        assert [t.n for t in graceful_calls] == [3, 2, 4]

    def test_dot_output(self, capsys):
        code, out = run_cli(capsys, "path", "zigzag", "--n", "4", "--format", "dot")
        assert code == 0 and out.startswith("graph G {")

    def test_trace_flag(self, capsys):
        code, out = run_cli(capsys, "spider", "doubling", "--legs", "1,6,14", "--trace")
        doc = json.loads(out)
        assert code == 0 and doc["trace"][0]["operation"] == "base"

    def test_trace_with_dot_exit2(self, capsys):
        # DOT has no place for the trace; it used to be dropped silently.
        code, out = run_cli(capsys, "spider", "doubling", "--legs", "1,6,14",
                            "--trace", "--format", "dot")
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "validation",
            "message": "spider doubling --format dot does not take --trace"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["spider", "short", "--long", "3", "--trace"],
            ["spider", "three-long", "--legs", "4,3,3", "--trace"],
            ["path", "zigzag", "--n", "4", "--trace"],
            ["attach", "--graph", "g.json", "--vertex", "0", "--path-len", "4", "--trace"],
            ["amalgamate", "--alpha", "g.json", "--u", "0", "--graceful", "g.json",
             "--v", "0", "--trace"],
            ["verify", "--graph", "g.json", "--trace"],
            ["export", "--graph", "g.json", "--trace"],
            ["oracle", "--graph", "g.json", "--format", "dot"],
            ["verify", "--graph", "g.json", "--format", "json"],
        ],
    )
    def test_unread_shared_flag_exit2(self, capsys, argv):
        # Each of these once exited 0 and ignored the flag.
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_export_partial_labeling_as_dot(self, capsys, tmp_path):
        p = tmp_path / "part.json"
        p.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]],
                                 "labels": {"0": 0, "2": 1}}))
        code, out = run_cli(capsys, "export", "--graph", str(p), "--format", "dot")
        assert code == 0
        assert out == to_dot(path_tree(3), Labeling({0: 0, 2: 1}))

    def test_search_route_writes_only_under_temp_home(self, capsys, hermetic_home):
        # With no --cache, a path request writes no file under HOME and
        # leaves the user's cache file alone.
        before = _stat(USER_CACHE_FILE)
        code, _ = run_cli(capsys, "path", "alpha", "--n", "9", "--position", "4")
        assert code == 0
        assert [p for p in hermetic_home.rglob("*") if p.is_file()] == []
        assert _stat(USER_CACHE_FILE) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["spider", "doubling", "--legs", "99999999999999999999999"],
            ["spider", "short", "--long", "99999999999999999999", "--two", "0", "--one", "0"],
            ["spider", "short", "--long", "3", "--two", "99999999999999999999"],
            ["spider", "three-long", "--legs", "3,3,99999999999999999999"],
            ["path", "alpha", "--n", "99999999999999999999", "--position", "5"],
            ["path", "alpha", "--n", "99999999999999999999", "--end-label", "5"],
            ["path", "graceful", "--n", "99999999999999999999", "--position", "5"],
            # This one and `path graceful` wrote the path's edge list before
            # any array and grew until the process was killed.
            ["path", "zigzag", "--n", "99999999999999999999"],
        ],
    )
    def test_size_past_index_range_exit2(self, capsys, argv):
        # The others ended in an OverflowError traceback.
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["message"].endswith(
            f"vertices exceed the index range (at most {sys.maxsize})")

    @pytest.mark.parametrize(
        "argv",
        [
            ["path", "zigzag", "--n", "100000000000000000"],
            ["path", "alpha", "--n", "100000000000000001", "--end-label", "3"],
            ["spider", "short", "--long", "100000000000000000"],
            ["spider", "three-long", "--legs", "100000000000000000,5,4"],
        ],
    )
    def test_size_past_memory_exit3(self, capsys, argv):
        # Within the index range, but no address space holds the first list
        # of 10^17 entries, so its allocation is refused before anything is
        # allocated. The MemoryError once ended in a traceback.
        code, out = run_cli(capsys, *argv)
        assert code == 3
        assert json.loads(out) == {"error": {
            "type": "resource", "message": "the request needs more memory than is available"}}

    def test_attach_past_index_range_exit2(self, capsys, tmp_path):
        p = tmp_path / "host.json"
        p.write_text(json.dumps({"n": 1, "edges": [], "labels": {"0": 0}}))
        code, out = run_cli(capsys, "attach", "--graph", str(p), "--vertex", "0",
                            "--path-len", "99999999999999999998")
        assert code == 2
        assert "vertices exceed the index range" in json.loads(out)["error"]["message"]

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "verify", "--graph", "/no/such/file.json")
        assert code == 2

    def test_not_utf8_exit2(self, capsys, tmp_path):
        p = tmp_path / "tree.json"
        p.write_bytes(b"\xff\xfe")
        code, out = run_cli(capsys, "verify", "--graph", str(p))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "validation" and error["message"].startswith(
            f"{p} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff")

    def test_deeply_nested_document_exit2(self, tmp_path):
        p = tmp_path / "tree.json"
        p.write_text("[" * 10**5 + "]" * 10**5)
        proc = run_cli_process(["verify", "--graph", str(p)])
        assert proc.returncode == 2 and proc.stderr == ""
        assert json.loads(proc.stdout) == {"error": {
            "type": "validation", "message": f"{p} nests its JSON values too deeply to read"}}

    @pytest.mark.parametrize("argv, attrs", [
        (["path", "zigzag", "--n", "4"], ["  alpha=1;"]),
        (["path", "alpha", "--n", "9", "--position", "4"], ["  alpha=4;"]),
        (["path", "alpha", "--n", "7", "--end-label", "6", "--index", "2"], ["  alpha=2;"]),
        (["attach", "--vertex", "0", "--path-len", "3"],
         ["  shift=1;", "  bridge_label=1;", '  path_ids="[1, 2, 3]";']),
    ])
    def test_dot_keeps_extra_values(self, capsys, tmp_path, argv, attrs):
        # Every value the JSON document adds to the tree is a graph
        # attribute of the DOT rendering, right after the node defaults.
        if argv[0] == "attach":
            p = tmp_path / "host.json"
            p.write_text(json.dumps({"n": 1, "edges": [], "labels": {"0": 0}}))
            argv = [argv[0], "--graph", str(p), *argv[1:]]
        code, out = run_cli(capsys, *argv)
        extra = {k: v for k, v in json.loads(out).items() if k not in ("n", "edges", "labels")}
        code_dot, dot = run_cli(capsys, *argv, "--format", "dot")
        assert code == code_dot == 0
        lines = dot.splitlines()
        assert lines[:2] == ["graph G {", "  node [shape=circle];"]
        assert lines[2:2 + len(attrs)] == attrs and len(attrs) == len(extra)
        for line, (key, value) in zip(attrs, extra.items()):
            assert line.startswith(f"  {key}=") and str(value) in line
        assert not any("=" in line and "[" not in line for line in lines[2 + len(attrs):])


def test_frozen_transcript(tmp_path):
    # cli_transcript.json was written by make_cli_transcript.py before every
    # JSON text of the CLI went through dumps_document; since then only
    # `verify --graph bad.json` changed, to the error document alone.
    path = os.path.join(os.path.dirname(__file__), "data", "make_cli_transcript.py")
    spec = importlib.util.spec_from_file_location("make_cli_transcript", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with open(os.path.join(os.path.dirname(path), "cli_transcript.json")) as fh:
        frozen = json.load(fh)["calls"]
    assert [row["argv"] for row in frozen] == module.CALLS
    assert module.transcript(str(tmp_path)) == frozen


def _stat(path):
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_size, st.st_mtime_ns
