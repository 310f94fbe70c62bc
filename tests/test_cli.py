import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unidom import emit_edge_list, emit_graph6, from_edge_list, parse_graph6
from unidom.cli import main
from unidom.schema import validate_document


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
