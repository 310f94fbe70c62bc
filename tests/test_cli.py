import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unidom import cli, emit_edge_list, emit_graph6, from_edge_list, parse_graph6
from unidom.cli import main
from unidom.schema import validate_document

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_c4(tmp_path, fmt="g6"):
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = tmp_path / f"c4.{fmt}"
    if fmt == "g6":
        path.write_text(emit_graph6(g) + "\n")
    else:
        path.write_text(emit_edge_list(g))
    return str(path)


class TestBoundCommand:
    def test_single_json(self, capsys):
        code, out, _ = run(capsys, ["bound", "--n", "10", "--gamma", "3", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert validate_document(doc) == []
        assert doc["m_bipartite"] == 15
        assert doc["m_fischermann"] == 18
        assert doc["vizing"] == "63/2"
        assert doc["phi"] == 0

    def test_tsv_table(self, capsys):
        code, out, _ = run(capsys, ["bound", "--n", "6", "--gamma", "2", "--n-to", "8"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t") == [
            "n", "gamma", "m_bipartite", "m_fischermann", "vizing", "phi"
        ]
        assert len(lines) == 4
        assert lines[1].split("\t")[2] == "6"

    def test_range_json_schema(self, capsys):
        code, out, _ = run(
            capsys, ["bound", "--n", "6", "--gamma", "2", "--n-to", "10", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "bound_table"
        assert validate_document(doc) == []
        assert [row["m_bipartite"] for row in doc["rows"]] == [6, 9, 12, 16, 20]

    def test_usage_error_outside_hypothesis(self, capsys):
        code, _, err = run(capsys, ["bound", "--n", "5", "--gamma", "2"])
        assert code == 2
        assert "error" in err


class TestConstructCommand:
    def test_verify_bipartite(self, capsys):
        code, out, _ = run(
            capsys,
            ["construct", "--family", "bipartite", "--n", "6", "--gamma", "2", "--verify"],
        )
        assert code == 0
        doc = json.loads(out)
        assert validate_document(doc) == []
        assert doc["passed"] is True

    def test_verify_sweep_exit_codes(self, capsys):
        for family in ("bipartite", "fischermann"):
            for gamma in (2, 3):
                for n in (3 * gamma, 3 * gamma + 4):
                    code, _, _ = run(
                        capsys,
                        ["construct", "--family", family, "--n", str(n),
                         "--gamma", str(gamma), "--verify"],
                    )
                    assert code == 0

    def test_graph6_output_parses(self, capsys):
        code, out, _ = run(
            capsys, ["construct", "--family", "bipartite", "--n", "10", "--gamma", "3"]
        )
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 10 and g.size() == 15

    def test_dot_output_uses_labels(self, capsys):
        code, out, _ = run(
            capsys,
            ["construct", "--family", "bipartite", "--n", "6", "--gamma", "2",
             "--format", "dot"],
        )
        assert code == 0
        assert 'label="x1"' in out and 'label="b1,2"' in out

    def test_star_family(self, capsys):
        code, out, _ = run(capsys, ["construct", "--family", "star", "--n", "5",
                                    "--format", "edgelist"])
        assert code == 0
        assert out.splitlines()[0] == "5 4"

    def test_star_verify(self, capsys):
        code, out, _ = run(
            capsys, ["construct", "--family", "star", "--n", "5", "--verify"]
        )
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "g.g6"
        code, out, _ = run(
            capsys,
            ["construct", "--family", "fischermann", "--n", "9", "--gamma", "3",
             "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert parse_graph6(target.read_text().strip()).size() == 12

    def test_invalid_params_usage_error(self, capsys):
        code, _, err = run(
            capsys, ["construct", "--family", "bipartite", "--n", "5", "--gamma", "2"]
        )
        assert code == 2

    def test_verify_out_file_keeps_format(self, capsys, tmp_path):
        target = tmp_path / "g.dot"
        code, out, _ = run(
            capsys,
            ["construct", "--family", "bipartite", "--n", "6", "--gamma", "2",
             "--verify", "--out", str(target), "--format", "dot"],
        )
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert target.read_text().startswith("graph")
        assert 'label="x1"' in target.read_text()

    def test_verify_without_out_renders_nothing(self, capsys, monkeypatch):
        rendered = []
        monkeypatch.setattr(cli, "emit_graph6", lambda g: rendered.append(g) or "")
        code, out, _ = run(
            capsys,
            ["construct", "--family", "fischermann", "--n", "9", "--gamma", "3", "--verify"],
        )
        assert code == 0
        assert json.loads(out)["passed"] is True
        assert rendered == []


class TestVerifyCommand:
    def test_reference_file(self, capsys, tmp_path, reference_10_3):
        path = tmp_path / "ref.g6"
        path.write_text(emit_graph6(reference_10_3) + "\n")
        code, out, _ = run(
            capsys, ["verify", "--in", str(path), "--expect-gamma", "3", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert validate_document(doc) == []
        assert doc["report"]["unique"] is True
        assert doc["report"]["perfect"] is True

    def test_c4_not_unique_fails(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["verify", "--in", write_c4(tmp_path), "--json"])
        assert code == 1
        doc = json.loads(out)
        assert doc["report"]["unique"] is False

    def test_expectation_mismatch(self, capsys, tmp_path, reference_10_3):
        path = tmp_path / "ref.g6"
        path.write_text(emit_graph6(reference_10_3) + "\n")
        code, out, _ = run(
            capsys, ["verify", "--in", str(path), "--expect-gamma", "4", "--json"]
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["expectations"]["gamma"]["ok"] is False

    def test_edgeless_warns_isolated(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("3 0\n")
        code, out, _ = run(capsys, ["verify", "--in", str(path), "--json"])
        doc = json.loads(out)
        assert doc["report"]["gamma"] == 3
        assert any("isolated" in w for w in doc["warnings"])

    def test_edge_list_input(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["verify", "--in", write_c4(tmp_path, fmt="txt"), "--json"]
        )
        assert code == 1
        assert json.loads(out)["report"]["gamma"] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["verify", "--in", "/nonexistent.g6"])
        assert code == 2

    @pytest.mark.parametrize("text,message", [
        ("3 1\n0 1\n1 2\n0 2\n", "header declares 1 edges, found 3 edge lines"),
        ("3 2\n0 1\n1 0\n", "edge 1 0 is listed twice"),
    ])
    def test_malformed_edge_list_is_usage_error(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, ["verify", "--in", str(path), "--json"])
        assert code == 2
        assert out == ""
        assert message in err


class TestSearchCommand:
    def test_max_json(self, capsys):
        code, out, err = run(
            capsys, ["search", "--n", "6", "--gamma", "2", "--json", "--progress"]
        )
        assert code == 0
        doc = json.loads(out)
        assert validate_document(doc) == []
        assert doc["max_size"] == 6
        assert doc["complete"] is True
        assert 0 < doc["masks_visited"] < doc["graphs_scanned"] == 801
        assert "scanned=" in err and "best=" in err

    def test_count_mode(self, capsys):
        code, out, err = run(
            capsys,
            ["search", "--n", "6", "--gamma", "2", "--size", "7", "--json", "--progress"],
        )
        assert code == 0
        doc = json.loads(out)
        assert validate_document(doc) == []
        assert doc["kind"] == "witness_count"
        assert doc["count"] == 0
        # best is the largest size with a witness so far, -1 with none
        lines = err.splitlines()
        assert lines and all(line.endswith(" best=-1") for line in lines)

    def test_budget_exit_code(self, capsys):
        code, out, _ = run(
            capsys,
            ["search", "--n", "8", "--gamma", "2", "--budget", "0", "--json"],
        )
        assert code == 3
        assert json.loads(out)["complete"] is False

    @pytest.mark.parametrize("budget", ["-1", "nan"])
    def test_bad_budget_is_usage_error(self, capsys, budget):
        code, out, err = run(
            capsys, ["search", "--n", "6", "--gamma", "2", "--budget", budget, "--json"]
        )
        assert code == 2
        assert out == ""
        assert "budget must be a nonnegative number of seconds" in err

    def test_schema_bounds_masks_visited(self, capsys):
        code, out, _ = run(capsys, ["search", "--n", "6", "--gamma", "2", "--size", "6",
                                    "--json"])
        doc = json.loads(out)
        assert code == 0 and validate_document(doc) == []
        assert doc["masks_visited"] > 0
        for bad in (-1, doc["graphs_scanned"] + 1, None):
            problems = validate_document({**doc, "masks_visited": bad})
            assert any("masks_visited" in p for p in problems)

    def test_human_mode(self, capsys):
        code, out, _ = run(capsys, ["search", "--n", "6", "--gamma", "2"])
        assert code == 0
        assert "max_size\t6" in out

    def test_witness_file(self, capsys, tmp_path):
        target = tmp_path / "w.g6"
        code, _, _ = run(
            capsys,
            ["search", "--n", "6", "--gamma", "2", "--witnesses", str(target)],
        )
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert lines
        for line in lines:
            assert parse_graph6(line).size() == 6


@pytest.mark.parametrize("argv", [
    ["bound", "--n", "10", "--gamma", "3", "--tsv"],
    ["search", "--n", "6", "--gamma", "2", "--threads", "2"],
])
def test_removed_flags_are_usage_errors(capsys, argv):
    code, _, _ = run(capsys, argv)
    assert code == 2


def _outcome(capsys, argv, tmp_path):
    """(exit code, stdout with JSON 'elapsed' dropped, stderr, files in tmp_path)."""
    code, out, err = run(capsys, argv)
    try:
        doc = json.loads(out)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        doc.pop("elapsed", None)
        out = doc
    files = {p.name: p.read_text() for p in sorted(tmp_path.iterdir())}
    return code, out, err, files


class TestParserReuse:
    """main builds its parser once per process; no call sees another's options."""

    def test_sequence_matches_fresh_parsers(self, capsys, tmp_path):
        w, g = str(tmp_path / "w.g6"), str(tmp_path / "g.g6")
        construct = ["construct", "--family", "bipartite", "--n", "6", "--gamma", "2"]
        sequence = [
            ["search", "--n", "6", "--gamma", "2", "--size", "6", "--witnesses", w, "--json"],
            ["search", "--n", "6", "--gamma", "2", "--json"],
            ["search", "--n", "6", "--gamma", "2", "--threads", "2"],
            construct + ["--verify", "--out", g],
            construct,
            ["search", "--help"],
            ["verify", "--in", g, "--json"],
            ["verify", "--in", g],
            ["bound", "--n", "6", "--gamma", "2"],
        ]
        main(["bound", "--n", "6", "--gamma", "2"])  # the parser is cached from here
        capsys.readouterr()
        reused = [_outcome(capsys, argv, tmp_path) for argv in sequence]

        codes = [r[0] for r in reused]
        assert codes == [0, 0, 2, 0, 0, 0, 0, 0, 0]
        assert reused[0][1]["kind"] == "witness_count"
        assert reused[1][1]["kind"] == "search"
        assert reused[1][1]["max_size"] == 6
        assert "unrecognized arguments: --threads 2" in reused[2][2]
        assert reused[3][1]["kind"] == "certificate"
        assert parse_graph6(reused[4][1].strip()).size() == 6
        assert reused[5][1].startswith("usage: unidom search")
        assert reused[6][1]["kind"] == "verify"
        assert reused[7][1].startswith("gamma\t2\n")
        assert reused[8][1].startswith("n\tgamma\t")

        for p in tmp_path.iterdir():
            p.unlink()
        fresh = []
        for argv in sequence:
            cli._parser.cache_clear()
            fresh.append(_outcome(capsys, argv, tmp_path))
        assert reused == fresh

    def test_no_options_carry_over(self, capsys, monkeypatch, tmp_path):
        seen = []
        real = cli._bound_rows
        monkeypatch.setattr(cli, "_bound_rows",
                            lambda args: seen.append(vars(args)) or real(args))
        main(["search", "--n", "6", "--gamma", "2", "--size", "6",
              "--witnesses", str(tmp_path / "w.g6"), "--json"])
        main(["bound", "--n", "6", "--gamma", "2"])
        assert set(seen[0]) == {"command", "n", "gamma", "n_to", "json", "func"}
        assert seen[0]["json"] is False

    def test_main_builds_the_parser_once(self, capsys, monkeypatch):
        real, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        for argv in (["bound", "--n", "6", "--gamma", "2"], ["frobnicate"], ["--help"],
                     ["bound", "--n", "7", "--gamma", "2", "--json"]):
            main(argv)
        assert len(built) == 1
        assert real() is not real()
        assert real() is not cli._parser()


def _unidom_process(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


def test_fresh_process_command_line():
    """The one-shot path, which builds the parser on its only call."""
    proc = _unidom_process("-m", "unidom.cli", "construct", "--family", "bipartite",
                           "--n", "6", "--gamma", "2", "--verify")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert validate_document(doc) == [] and doc["passed"] is True

    proc = _unidom_process("-m", "unidom.cli", "search", "--n", "6", "--gamma", "2",
                           "--threads", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("usage: unidom")

    proc = _unidom_process("-m", "unidom.cli", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: unidom")


def test_import_builds_no_parser():
    script = (
        "import argparse, io, contextlib\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *a, **k):\n"
        "    made.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import unidom.cli\n"
        "counts = [len(made)]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for _ in range(3):\n"
        "        unidom.cli.main(['bound', '--n', '6', '--gamma', '2'])\n"
        "        counts.append(len(made))\n"
        "print(counts)\n"
    )
    proc = _unidom_process("-c", script)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout)
    assert counts[0] == 0
    assert counts[1] > 0
    assert counts[1:] == [counts[1]] * 3


_VALID = {
    "bound": {"schema": "unidom/1", "kind": "bound", "n": 7, "gamma": 2,
              "m_bipartite": 9, "m_fischermann": 9, "vizing": "21/2", "phi": 0},
    "verify": {"schema": "unidom/1", "kind": "verify", "ok": True,
               "report": {"gamma": 2, "unique": True, "min_sets": [[0, 1]],
                          "epn": {"0": [2]}, "perfect": True, "epn_condition": True},
               "warnings": [], "expectations": {}},
    "search": {"schema": "unidom/1", "kind": "search", "n": 6, "gamma": 2,
               "max_size": 6, "witnesses": ["ECr_"], "graphs_scanned": 5,
               "masks_visited": 3, "complete": True},
    "witness_count": {"schema": "unidom/1", "kind": "witness_count", "n": 6,
                      "gamma": 2, "size": 6, "count": 2, "witnesses": ["ECr_", "EDr?"],
                      "graphs_scanned": 5, "masks_visited": 3, "complete": True},
}


@pytest.mark.parametrize("kind, report, fields", [
    ("bound", False, {"n": True}),
    ("bound", False, {"phi": False}),
    ("bound", False, {"vizing": True}),
    ("bound", False, {"vizing": "1/0"}),
    ("bound", False, {"vizing": "3/-2"}),
    ("bound", False, {"vizing": "--3/2"}),
    ("verify", True, {"gamma": True}),
    ("verify", True, {"min_sets": [[True, False]]}),
    ("verify", True, {"epn": {"0": [True]}}),
    ("search", False, {"graphs_scanned": True, "masks_visited": False}),
    ("search", False, {"max_size": True}),
])
def test_schema_rejects_bools_and_bad_fractions(kind, report, fields):
    doc = json.loads(json.dumps(_VALID[kind]))
    assert validate_document(doc) == []
    (doc["report"] if report else doc).update(fields)
    assert validate_document(doc) != []


@pytest.mark.parametrize("kind, fields, message", [
    ("witness_count", {"count": 3}, "count must equal"),
    ("witness_count", {"count": 0, "witnesses": []}, None),
    ("witness_count", {"witnesses": [1, None]}, "graph6 strings"),
    ("search", {"witnesses": [1, None]}, "graph6 strings"),
    ("search", {"max_size": None}, "max_size must be null exactly"),
    ("search", {"witnesses": []}, "max_size must be null exactly"),
    ("search", {"max_size": None, "witnesses": []}, None),
])
def test_schema_checks_witness_consistency(kind, fields, message):
    doc = {**_VALID[kind], **fields}
    problems = validate_document(doc)
    if message is None:
        assert problems == []
    else:
        assert any(message in p for p in problems), problems


class TestComplementCommand:
    def test_c4_complement_edgeless(self, capsys, tmp_path):
        # C4 uses all four cross pairs of its bipartition
        code, out, _ = run(capsys, ["complement", "--in", write_c4(tmp_path)])
        assert code == 0
        g = parse_graph6(out.strip())
        assert g.n == 4 and g.size() == 0

    def test_p4_complement(self, capsys, tmp_path):
        from unidom import emit_graph6, from_edge_list

        p4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        path = tmp_path / "p4.g6"
        path.write_text(emit_graph6(p4) + "\n")
        code, out, _ = run(capsys, ["complement", "--in", str(path)])
        assert code == 0
        g = parse_graph6(out.strip())
        # sides {0,2} and {1,3} admit four cross pairs, three are used
        assert g.size() == 1
        assert g.edges() == [(0, 3)]

    def test_not_bipartite(self, capsys, tmp_path):
        g = from_edge_list(3, [(0, 1), (1, 2), (2, 0)])
        path = tmp_path / "k3.g6"
        path.write_text(emit_graph6(g) + "\n")
        code, _, err = run(capsys, ["complement", "--in", str(path)])
        assert code == 1
        assert "not bipartite" in err


class TestIsoCommand:
    def test_isomorphic_pair(self, capsys, tmp_path):
        a = tmp_path / "a.g6"
        b = tmp_path / "b.g6"
        a.write_text(emit_graph6(from_edge_list(3, [(0, 1), (1, 2)])) + "\n")
        b.write_text(emit_graph6(from_edge_list(3, [(2, 1), (1, 0)])) + "\n")
        code, out, _ = run(capsys, ["iso", str(a), str(b), "--json"])
        assert code == 0
        doc = json.loads(out)
        assert validate_document(doc) == []
        assert doc["isomorphic"] is True

    def test_non_isomorphic_pair(self, capsys, tmp_path):
        a = tmp_path / "a.g6"
        b = tmp_path / "b.g6"
        a.write_text(emit_graph6(from_edge_list(3, [(0, 1), (1, 2)])) + "\n")
        b.write_text(emit_graph6(from_edge_list(3, [(0, 1)])) + "\n")
        code, _, _ = run(capsys, ["iso", str(a), str(b)])
        assert code == 1


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("command", ["verify", "iso"])
    def test_multi_line_graph6_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "two.g6"
        path.write_text("Bw\nBo\n")
        argv = ["verify", "--in", str(path)] if command == "verify" else [
            "iso", write_c4(tmp_path), str(path)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert "2 lines" in err

    def test_bad_edge_list_header_is_not_graph6(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1 4\n0 1\n")
        code, out, err = run(capsys, ["verify", "--in", str(path)])
        assert code == 2
        assert out == ""
        assert "header must be 'n m'" in err
        assert "graph6" not in err

    def test_edge_list_may_open_with_a_comment(self, capsys, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("# path on three vertices\n3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, ["verify", "--in", str(path), "--json"])
        assert code == 0
        assert json.loads(out)["report"]["min_sets"] == [[1]]


def _edge_list_like():
    token = st.one_of(st.integers(-2, 12).map(str), st.sampled_from(["", "x", "1.5", "#"]))
    line = st.lists(token, min_size=0, max_size=3).map(" ".join)
    return st.lists(line, min_size=1, max_size=6).map("\n".join)


def _graph6_like():
    line = st.text(alphabet=[chr(c) for c in range(63, 127)], max_size=12)
    return st.lists(line, min_size=1, max_size=2).map("\n".join)


@given(text=st.one_of(st.text(max_size=40), _edge_list_like(), _graph6_like()))
@settings(max_examples=300, deadline=None)
def test_verify_input_fuzz(tmp_path_factory, text):
    """Any input file gives a report (exit 0 or 1) or one error line (exit 2)."""
    path = tmp_path_factory.getbasetemp() / "fuzz_input"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", "--in", str(path), "--json"])
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert code in (0, 1)
        assert validate_document(json.loads(out.getvalue())) == []
