import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unidom import (
    cli,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    from_edge_list,
    is_umd,
    parse_graph6,
)
from unidom.cli import main
from unidom.construct import (
    construct_bipartite,
    construct_fischermann,
    construct_star,
    verify_construction,
)
from unidom.schema import CERTIFICATE_CHECKS, validate_document, validate_report

from conftest import (
    graphs,
    reference_bipartite_edge_groups,
    reference_bipartite_layout,
    reference_fischermann_edges,
    reference_fischermann_layout,
    reference_star_edges,
    reference_star_layout,
)

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

    def test_n_to_below_n_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["bound", "--n", "9", "--gamma", "2", "--n-to", "8"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: --n-to must not be below --n"]


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

    def test_dot_output_uses_labels(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["construct", "--family", "bipartite", "--n", "6", "--gamma", "2",
             "--format", "dot"],
        )
        assert code == 0
        assert 'label="x1"' in out and 'label="b1,2"' in out
        # the whole text, on stdout and in an --out file, is the reference
        # graph labelled with the reference names of each family
        bip_edges = [e for group in reference_bipartite_edge_groups(15, 3).values()
                     for e in group]
        cases = [
            (["--family", "bipartite", "--n", "15", "--gamma", "3"],
             from_edge_list(15, bip_edges), reference_bipartite_layout(15, 3)[0]),
            (["--family", "fischermann", "--n", "11", "--gamma", "3"],
             from_edge_list(11, reference_fischermann_edges(11, 3)),
             reference_fischermann_layout(11, 3)[0]),
            (["--family", "star", "--n", "5"],
             from_edge_list(5, reference_star_edges(5)), reference_star_layout(5)[0]),
        ]
        for args, g, labels in cases:
            want = emit_dot(g, labels)
            argv = ["construct", *args, "--format", "dot"]
            assert run(capsys, argv) == (0, want, "")
            target = tmp_path / "g.dot"
            assert run(capsys, argv + ["--out", str(target)]) == (0, "", "")
            assert target.read_text() == want

    def test_star_family(self, capsys):
        code, out, _ = run(capsys, ["construct", "--family", "star", "--n", "5",
                                    "--format", "edgelist"])
        assert code == 0
        assert out.splitlines()[0] == "5 4"

    @pytest.mark.parametrize("n,message", [
        (0, "a star with a unique dominator needs n >= 3, got n = 0"),
        (1, "a star with a unique dominator needs n >= 3, got n = 1"),
        (2, "a two-vertex star has two minimum dominating sets"),
    ])
    def test_star_too_few_vertices_is_usage_error(self, capsys, n, message):
        code, out, err = run(capsys, ["construct", "--family", "star", "--n", str(n)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_star_with_other_gamma_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["construct", "--family", "star", "--n", "5",
                                      "--gamma", "2"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: the star family fixes gamma = 1"]

    def test_missing_gamma_is_usage_error(self, capsys):
        code, out, err = run(capsys, ["construct", "--family", "bipartite", "--n", "6"])
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: --gamma is required for this family"]

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

    @pytest.mark.parametrize("target", ["", "missing/g.g6"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, monkeypatch, target):
        # an empty path is a path too: it must not fall back to stdout
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys,
            ["construct", "--family", "fischermann", "--n", "9", "--gamma", "3",
             "--out", target],
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family", ["bipartite", "fischermann", "star"])
    def test_huge_order_is_usage_error(self, capsys, family):
        gamma = [] if family == "star" else ["--gamma", "2"]
        code, out, err = run(
            capsys, ["construct", "--family", family, "--n", str(10**12), *gamma]
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: vertex count 1000000000000 outside 0..64"]

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

    def test_text_mode_warns_on_stderr(self, capsys, tmp_path):
        path = tmp_path / "isolated.txt"
        path.write_text("3 1\n0 1\n")
        code, out, err = run(capsys, ["verify", "--in", str(path)])
        assert code == 1
        assert out.splitlines()[0] == "gamma\t2"
        assert err.splitlines() == [
            "warning\tisolated vertices present: [2] (uniqueness theory assumes none)"]

    def test_edge_list_input(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["verify", "--in", write_c4(tmp_path, fmt="txt"), "--json"]
        )
        assert code == 1
        assert json.loads(out)["report"]["gamma"] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["verify", "--in", "/nonexistent.g6"])
        assert code == 2

    @pytest.mark.parametrize("command", [["verify", "--in"], ["complement", "--in"], ["iso"]])
    def test_undecodable_file_names_its_path(self, capsys, tmp_path, command):
        path = tmp_path / "binary.g6"
        path.write_bytes(b"\xff\xfe\x00graph")
        argv = command + [str(path)] + ([str(path)] if command == ["iso"] else [])
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {path}: ")
        assert "can't decode byte 0xff" in lines[0]

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

    @pytest.mark.parametrize("text, token", [
        ("1_0 0\n", "'1_0'"),
        ("3 1\n0 \u0661\n", "'\u0661'"),
    ])
    def test_edge_list_non_ascii_number_is_usage_error(self, capsys, tmp_path, text, token):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["verify", "--in", str(path)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: {path}: invalid literal for int: {token} (ASCII digits only)"]

    @pytest.mark.parametrize("n", ["10000000000000000000", "65"])
    def test_edge_list_order_over_cap_is_usage_error(self, capsys, tmp_path, n):
        # the order is checked before any row is allocated
        path = tmp_path / "huge.txt"
        path.write_text(f"{n} 0\n")
        code, out, err = run(capsys, ["verify", "--in", str(path)])
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {path}: vertex count {n} outside 0..64"]


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
        # with --witnesses the search lists every class, and the file holds
        # the document's list
        target = tmp_path / "w.g6"
        code, out, _ = run(
            capsys,
            ["search", "--n", "8", "--gamma", "2", "--json", "--witnesses", str(target)],
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["witnesses"]) == 3
        lines = target.read_text().splitlines()
        assert lines == doc["witnesses"]
        for line in lines:
            assert parse_graph6(line).size() == 12

    @pytest.mark.parametrize("target", ["", "missing/w.g6"])
    def test_unwritable_witness_file_is_usage_error(self, capsys, tmp_path, monkeypatch,
                                                    target):
        # the path is checked before the search, so a long search never starts
        def never_called(*args, **kwargs):
            raise AssertionError("the search ran before the witness path was checked")

        monkeypatch.setattr(cli, "max_umd_bipartite_size", never_called)
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            capsys, ["search", "--n", "12", "--gamma", "4", "--witnesses", target],
        )
        assert code == 2
        assert err.startswith(f"error: cannot write {target}: ")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    def test_one_witness_without_the_flag(self, capsys):
        # a maximum search stops at its first witness unless asked for classes
        code, out, _ = run(capsys, ["search", "--n", "8", "--gamma", "2", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert (doc["max_size"], doc["witnesses"]) == (12, ["G@rfF?"])


class TestFilesWrittenInPlace:
    """--witnesses and --out files are written over and cut to length, never
    opened with O_TRUNC."""

    def test_shorter_witness_list_shrinks_the_file(self, capsys, tmp_path):
        target = str(tmp_path / "w.g6")
        code, _, _ = run(capsys, ["search", "--n", "9", "--gamma", "2", "--size", "14",
                                  "--witnesses", target, "--json"])
        assert code == 0
        assert len(Path(target).read_text().splitlines()) == 18
        code, out, _ = run(capsys, ["search", "--n", "8", "--gamma", "2",
                                    "--witnesses", target, "--json"])
        assert code == 0
        witnesses = json.loads(out)["witnesses"]
        assert len(witnesses) == 3
        assert Path(target).read_text() == "".join(w + "\n" for w in witnesses)

    def test_out_over_a_longer_file(self, capsys, tmp_path):
        construct = ["construct", "--family", "fischermann", "--n", "9", "--gamma", "3"]
        code, expected, _ = run(capsys, construct)
        assert code == 0
        target = tmp_path / "g.g6"
        target.write_text("x" * 1000 + "\n" + expected * 5)
        code, out, _ = run(capsys, construct + ["--out", str(target)])
        assert (code, out) == (0, "")
        assert target.read_text() == expected

    def test_witnesses_to_dev_null(self, capsys):
        code, out, err = run(capsys, ["search", "--n", "6", "--gamma", "2", "--size", "6",
                                      "--witnesses", os.devnull, "--json"])
        assert code == 0, err
        assert json.loads(out)["count"] == 2

    def test_failed_search_keeps_the_old_bytes(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "w.g6"
        old = b"EDr?\nnot graph6 \xff\n"
        target.write_bytes(old)

        def fail(*args, **kwargs):
            assert list(tmp_path.iterdir()) == [target]
            raise ValueError("search failed")

        monkeypatch.setattr(cli, "count_extremal_witnesses", fail)
        code, out, err = run(capsys, ["search", "--n", "6", "--gamma", "2", "--size", "6",
                                      "--witnesses", str(target)])
        assert (code, out, err) == (2, "", "error: search failed\n")
        assert target.read_bytes() == old

    def test_no_write_truncates_on_open(self, capsys, tmp_path, monkeypatch):
        # every file the CLI writes is opened by os.open, without O_TRUNC, and
        # the builtin open only wraps the descriptor it returns
        opened, wrapped = [], []
        real_os_open = os.open
        monkeypatch.setattr(cli.os, "open",
                            lambda path, flag, *a: opened.append((path, flag))
                            or real_os_open(path, flag, *a))
        monkeypatch.setattr(cli, "open", lambda file, *a, **k: wrapped.append(file)
                            or open(file, *a, **k), raising=False)
        w, g = tmp_path / "w.g6", tmp_path / "g.g6"
        for path in (w, g):
            path.write_text("x" * 100)
        assert run(capsys, ["search", "--n", "6", "--gamma", "2", "--size", "6",
                            "--witnesses", str(w)])[0] == 0
        assert run(capsys, ["construct", "--family", "bipartite", "--n", "6",
                            "--gamma", "2", "--out", str(g)])[0] == 0
        flags = [f for path, f in opened if path in (str(w), str(g))]
        assert len(flags) == 2
        assert all(f & os.O_WRONLY and not f & os.O_TRUNC for f in flags)
        assert len(wrapped) == 2 and all(isinstance(f, int) for f in wrapped)
        assert w.read_text() == "ECr_\nEDr?\n"
        assert parse_graph6(g.read_text().strip()).size() == 6

    def test_failed_write_leaves_only_a_prefix(self, capsys, tmp_path, monkeypatch):
        # the file takes 10 bytes and then fails, as on a full disk; it stands
        # in for the unbuffered binary file the CLI opens
        class FullAfter10(io.FileIO):
            def write(self, data):
                room = 10 - self.tell()
                if room <= 0:
                    raise OSError(28, "No space left on device")
                return super().write(bytes(data)[:room])

        monkeypatch.setattr(cli, "open", lambda fd, mode, buffering: FullAfter10(fd, "w"),
                            raising=False)
        target = tmp_path / "w.g6"
        target.write_text("x" * 1000 + "\n")
        code, out, err = run(capsys, ["search", "--n", "8", "--gamma", "2",
                                      "--witnesses", str(target), "--json"])
        assert code == 2
        assert err == f"error: cannot write {target}: [Errno 28] No space left on device\n"
        text = "".join(w + "\n" for w in json.loads(out)["witnesses"])
        assert target.read_text() == text[:10]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_write_to_a_full_device(self, capsys):
        code, _, err = run(capsys, ["construct", "--family", "bipartite", "--n", "6",
                                    "--gamma", "2", "--out", "/dev/full"])
        assert code == 2
        assert err.startswith("error: cannot write /dev/full: [Errno 28]")

    @pytest.mark.parametrize("args, message", [
        (["--n", "13", "--gamma", "3"], "order must be between 1 and 12"),
        (["--n", "6", "--gamma", "2", "--budget", "-1"],
         "budget must be a nonnegative number of seconds, got -1.0"),
        (["--n", "6", "--gamma", "2", "--size", "-1"], "size must be nonnegative"),
        (["--n", "6", "--gamma", "1"], "search requires gamma >= 2"),
    ])
    def test_usage_error_leaves_no_file(self, capsys, tmp_path, args, message):
        code, out, err = run(capsys, ["search", *args,
                                      "--witnesses", str(tmp_path / "w.g6")])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []


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


def _reference_main(argv):
    """main as a plain argparse dispatch: a new parser parses the whole
    command line (the top-level parser, then the subcommand's parser, as the
    subparsers action does), then the command runs.  Returns (exit code,
    vars of the namespace or None)."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return (cli.EXIT_USAGE if exc.code not in (0,) else cli.EXIT_OK), None
    try:
        return args.func(args), vars(args)
    except (cli.CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_USAGE, vars(args)


_ELAPSED = re.compile(r'("elapsed": |elapsed\t)[-+.0-9e]+')

_C = ["construct", "--family", "bipartite", "--n", "6", "--gamma", "2"]

# Every line runs in order in one directory per side, so that a file written
# by one line (g.g6, w.g6) is read by a later one.
DISPATCH_CORPUS = [
    # perfbench-style lines
    ["construct", "--family", "bipartite", "--n", "13", "--gamma", "4", "--verify"],
    ["construct", "--family", "fischermann", "--n", "12", "--gamma", "3", "--verify"],
    _C + ["--verify", "--out", "g.g6"],
    _C + ["--format", "dot"],
    ["search", "--n", "6", "--gamma", "2", "--json"],
    ["search", "--n", "7", "--gamma", "2", "--size", "8", "--witnesses", "w.g6", "--json"],
    ["search", "--n", "6", "--gamma", "2", "--progress"],
    ["verify", "--in", "g.g6", "--json"],
    ["verify", "--in", "g.g6", "--expect-gamma", "2", "--expect-size", "5"],
    ["bound", "--n", "6", "--gamma", "2", "--n-to", "8", "--json"],
    ["bound", "--n", "10", "--gamma", "3"],
    ["iso", "g.g6", "g.g6", "--json"],
    ["complement", "--in", "g.g6"],
    # help and no command
    [], ["-h"], ["--help"], ["--he"],
    *([command, "-h"] for command in
      ("bound", "construct", "verify", "search", "complement", "iso")),
    ["construct", "--help"], ["construct", "--family", "star", "-h", "--n", "x"],
    # unknown commands, leading options, missing and bad values
    ["frobnicate"], ["frobnicate", "--n", "6"], ["Construct"], ["--bogus", "bound"],
    ["-h", "bound"], ["--", "bound", "--n", "6", "--gamma", "2"],
    ["construct", "--n", "6"], ["construct"], ["verify"], ["iso", "g.g6"],
    ["bound", "--n", "six", "--gamma", "2"], ["bound", "--n", "6", "--gamma"],
    ["construct", "--family", "nope", "--n", "6", "--gamma", "2"],
    ["construct", "--family", "bipartite", "--n", "6", "--gamma", "2", "--format", "png"],
    ["bound", "--n", "5", "--gamma", "2"], ["search", "--n", "6", "--gamma", "2",
                                            "--budget", "-1"],
    # abbreviations, --opt=value and --
    ["construct", "--fam", "bipartite", "--n", "6", "--gam", "2", "--ver"],
    ["construct", "--f", "bipartite", "--n", "6", "--gamma", "2"],
    ["search", "--n=6", "--gamma=2", "--js"],
    ["bound", "--n=6", "--gamma", "2", "--n-t=7"],
    ["iso", "--", "g.g6", "g.g6"], ["iso", "--json", "--", "g.g6", "g.g6"],
    ["construct", "--family", "bipartite", "--", "--n", "6", "--gamma", "2"],
    ["bound", "--n", "6", "--gamma", "2", "--", "--json"],
    # unrecognized extras before, between and after options
    ["construct", "--bogus", "--family", "bipartite", "--n", "6", "--gamma", "2"],
    ["construct", "--family", "bipartite", "--bogus", "--n", "6", "--gamma", "2"],
    _C + ["--bogus"], _C + ["--bogus", "1", "extra"],
    ["construct", "extra", "--family", "bipartite", "--n", "6", "--gamma", "2"],
    ["search", "--n", "6", "--threads", "2", "--gamma", "2", "--json"],
    ["bound", "--n", "6", "--gamma", "2", "7"], ["bound", "-x", "--n", "6", "--gamma", "2"],
    ["bound", "--n", "6", "--gamma", "2", "--json=1"],
    ["iso", "g.g6", "g.g6", "g.g6"], ["construct", "--n", "6", "--bogus"],
]


class TestDispatchMatchesArgparse:
    """main hands a named command straight to its own parser; everything it
    prints, writes and parses must be what the plain two-level parse gives."""

    def _side(self, capsys, run_one, argv, directory):
        code, namespace = run_one(argv)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        return code, _ELAPSED.sub(r"\g<1>0", captured.out), captured.err, files, namespace

    def test_corpus(self, capsys, monkeypatch, tmp_path):
        parsed = []
        real_parse = cli._parse
        monkeypatch.setattr(cli, "_parse",
                            lambda argv: parsed.append(real_parse(argv)) or parsed[-1])

        def via_main(argv):
            parsed.clear()
            code = main(list(argv))
            return code, vars(parsed[0]) if parsed else None

        dirs = {name: tmp_path / name for name in ("main", "reference")}
        for d in dirs.values():
            d.mkdir()
        codes = set()
        for argv in DISPATCH_CORPUS:
            monkeypatch.chdir(dirs["main"])
            got = self._side(capsys, via_main, argv, dirs["main"])
            monkeypatch.chdir(dirs["reference"])
            want = self._side(capsys, _reference_main, argv, dirs["reference"])
            assert got == want, argv
            codes.add(got[0])
        # the corpus reaches exit codes 0, 1 and 2 and both file writers
        assert codes == {cli.EXIT_OK, cli.EXIT_FAIL, cli.EXIT_USAGE}
        assert set(os.listdir(dirs["main"])) == {"g.g6", "w.g6"}

    def test_cache_clear_gives_a_new_command_map(self):
        first = cli._parser()
        cli._parser.cache_clear()
        second = cli._parser()
        assert second is not first and second.commands is not first.commands
        assert set(second.commands) == {"bound", "construct", "verify", "search",
                                        "complement", "iso"}


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
                          "epn": {"0": [2, 3], "1": [4, 5]}, "perfect": True,
                          "epn_condition": True},
               "warnings": [], "expectations": {}},
    "search": {"schema": "unidom/1", "kind": "search", "n": 6, "gamma": 2,
               "max_size": 6, "witnesses": ["ECr_"], "graphs_scanned": 5,
               "masks_visited": 3, "elapsed": 0.01, "complete": True},
    "witness_count": {"schema": "unidom/1", "kind": "witness_count", "n": 6,
                      "gamma": 2, "size": 6, "count": 2, "witnesses": ["ECr_", "EDr?"],
                      "graphs_scanned": 5, "masks_visited": 3, "elapsed": 0.01,
                      "complete": True},
    # every check a bipartite family member's certificate holds
    "certificate": {"schema": "unidom/1", "kind": "certificate", "passed": True,
                    "checks": {name: {"passed": True, "expected": True, "actual": True}
                               for name in ("size", "no_isolated_vertices",
                                            "intended_set_dominates", "gamma",
                                            "unique_minimum_dominating_set",
                                            "minimum_set_is_intended",
                                            "perfectly_dominated",
                                            "closed_neighborhoods_disjoint",
                                            "epn_at_least_two_per_dominator",
                                            "bipartite")}},
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


_CHECKS = _VALID["certificate"]["checks"]
_FAILED_SIZE = {**_CHECKS, "size": {"passed": False, "expected": 6, "actual": 5}}
_GAMMA_MET = {"gamma": {"expected": 2, "actual": 2, "ok": True}}
_GAMMA_MISSED = {"gamma": {"expected": 3, "actual": 2, "ok": False}}
_TWO_SETS = {"unique": False, "min_sets": [[0, 1], [0, 2]], "epn": {},
             "perfect": False, "epn_condition": False}


@pytest.mark.parametrize("kind, fields, report, message", [
    # a verdict must agree with the parts it is made of
    ("certificate", {"checks": _FAILED_SIZE}, {}, "AND of the checks"),
    ("certificate", {"passed": False}, {}, "AND of the checks"),
    ("certificate", {"passed": False, "checks": _FAILED_SIZE}, {}, None),
    ("certificate", {"checks": {"size": {"expected": 6}}}, {}, "bool 'passed'"),
    ("verify", {}, {"unique": False}, "exactly when min_sets has one set"),
    ("verify", {}, {"min_sets": [[0, 1], [0, 2]]}, "exactly when min_sets has one set"),
    ("verify", {}, {"min_sets": [[0, 1, 2]]}, "gamma vertices"),
    ("verify", {"ok": False}, _TWO_SETS, None),
    ("verify", {}, _TWO_SETS, "ok must hold exactly"),
    ("verify", {"expectations": _GAMMA_MISSED}, {}, "ok must hold exactly"),
    ("verify", {"ok": False, "expectations": _GAMMA_MISSED}, {}, None),
    ("verify", {"ok": False, "expectations": _GAMMA_MET}, {}, "ok must hold exactly"),
    ("verify", {"expectations": _GAMMA_MET}, {}, None),
    ("verify", {"expectations": {"gamma": {"ok": "yes"}}}, {}, "bool 'ok'"),
    ("verify", {"expectations": []}, {}, "bool 'ok'"),
    # both search kinds carry a nonnegative elapsed time
    ("search", {"elapsed": "0.01"}, {}, "elapsed"),
    ("search", {"elapsed": -0.5}, {}, "elapsed"),
    ("search", {"elapsed": float("nan")}, {}, "elapsed"),
    ("search", {"elapsed": True}, {}, "elapsed"),
    ("search", {"elapsed": 0}, {}, None),
    ("witness_count", {"elapsed": None}, {}, "elapsed"),
    ("witness_count", {"elapsed": float("inf")}, {}, "elapsed"),
    # a certificate names every check; bipartite is the one it may lack
    ("certificate", {"checks": {}}, {}, "name every certificate check"),
    ("certificate", {"checks": {k: v for k, v in _CHECKS.items() if k != "gamma"}}, {},
     "name every certificate check"),
    ("certificate", {"checks": {**_CHECKS, "connected": {"passed": True}}}, {},
     "name every certificate check"),
    ("certificate", {"checks": {k: v for k, v in _CHECKS.items() if k != "bipartite"}}, {},
     None),
])
def test_schema_checks_verdict_consistency(kind, fields, report, message):
    doc = json.loads(json.dumps(_VALID[kind]))
    doc.update(fields)
    if report:
        doc["report"].update(report)
    problems = validate_document(doc)
    if message is None:
        assert problems == []
    else:
        assert any(message in p for p in problems), problems


@pytest.mark.parametrize("report, message", [
    ({"epn": {"\u00b2": [2, 3], "1": [4, 5]}}, "vertex strings"),
    ({"epn": {"0": [2, 3], "\u0663": [4, 5]}}, "vertex strings"),
    ({"epn": {"0": [2, 3], "5": [4, 5]}}, "epn keys must be exactly"),
    ({"epn": {"0": [2, 3]}}, "epn keys must be exactly"),
    ({"epn": {"0": [2, 3], "01": [4, 5]}}, "epn keys must be exactly"),
    ({"epn": {"0": [2, 3], "1": [4, 5], "2": [6, 7]}}, "epn keys must be exactly"),
    ({"gamma": 1, "min_sets": [[0]], "epn": {"5": [1]}, "perfect": False,
      "epn_condition": False}, "epn keys must be exactly"),
    ({"epn": {"0": [2], "1": [4, 5]}}, "epn_condition must hold exactly"),
    ({"epn": {"0": [2], "1": [4, 5]}, "epn_condition": False}, None),
    ({"epn_condition": False}, "epn_condition must hold exactly"),
    ({"perfect": False}, None),
    (_TWO_SETS, None),
    ({**_TWO_SETS, "epn": {"0": [2, 3]}}, "without a unique minimum set"),
    ({**_TWO_SETS, "perfect": True}, "without a unique minimum set"),
    ({**_TWO_SETS, "epn_condition": True}, "without a unique minimum set"),
    # vertex lists are sets in increasing order, and a private neighbor has
    # one dominator, outside the set
    ({"min_sets": [[0, 0]], "epn": {"0": [0, 0]}}, "increasing vertex lists"),
    ({"min_sets": [[1, 0]], "epn": {"0": [3, 2], "1": [3, 2]}}, "increasing vertex lists"),
    ({"epn": {"0": [3, 2], "1": [4, 5]}}, "increasing vertex lists"),
    ({"epn": {"0": [2, 3], "1": [3, 4]}}, "pairwise disjoint"),
    ({"epn": {"0": [1, 2], "1": [4, 5]}}, "avoid the unique minimum set"),
    ({**_TWO_SETS, "min_sets": [[0, 1], [0, 1]]}, "must be distinct"),
    # the cap-2 solve lists one or two sets, and never none
    ({**_TWO_SETS, "min_sets": []}, "one or two sets"),
    ({**_TWO_SETS, "min_sets": [[0, 1], [0, 2], [1, 2]]}, "one or two sets"),
])
def test_schema_ties_the_report_to_its_minimum_sets(report, message):
    problems = validate_report({**_VALID["verify"]["report"], **report})
    if message is None:
        assert problems == []
    else:
        assert any(message in p for p in problems), problems


@pytest.mark.parametrize("g, layout", [
    construct_bipartite(12, 3),
    construct_fischermann(13, 4),
    construct_star(5),
], ids=["bipartite", "fischermann", "star"])
def test_schema_names_the_checks_verify_construction_writes(g, layout):
    # the schema imports nothing from the package, so its list is pinned here
    side = ["bipartite"] if layout.partition is not None else []
    assert list(verify_construction(g, layout, g.size()).checks) == [*CERTIFICATE_CHECKS, *side]


@given(graphs(max_n=8))
@settings(max_examples=150, deadline=None)
def test_schema_accepts_every_report_is_umd_makes(g):
    assert validate_report(is_umd(g).to_json()) == []


@pytest.mark.parametrize("doc, problem", [
    ([], "document must be an object"),
    ({"schema": "unidom/1", "kind": "nope"}, "unknown document kind: 'nope'"),
    ({"schema": "unidom/1", "kind": "bound_table", "rows": [7]}, "bound row must be an object"),
    ({"schema": "unidom/1", "kind": "verify", "report": [], "ok": False, "warnings": [],
      "expectations": {}}, "report must be an object"),
])
def test_schema_rejects_non_objects_and_unknown_kinds(doc, problem):
    assert validate_document(doc) == [problem]


def test_schema_requires_elapsed():
    doc = {**_VALID["search"]}
    del doc["elapsed"]
    assert any("elapsed" in p for p in validate_document(doc))


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

    @pytest.mark.parametrize("command", ["verify", "iso", "complement"])
    def test_graph6_padding_bits_are_usage_error(self, capsys, tmp_path, command):
        # 'A@' would read as the edgeless 'A?' if its padding bit were ignored
        path = tmp_path / "pad.g6"
        path.write_text("A@\n")
        edgeless = tmp_path / "edgeless.g6"
        edgeless.write_text("A?\n")
        argv = {"verify": ["verify", "--in", str(path), "--json"],
                "iso": ["iso", str(path), str(edgeless)],
                "complement": ["complement", "--in", str(path)]}[command]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (
            2, "", f"error: {path}: nonzero padding bits after the bit payload\n")

    def test_graph6_order_above_the_cap_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "big.g6"
        path.write_text("~?@@\n")
        code, out, err = run(capsys, ["verify", "--in", str(path)])
        assert (code, out, err) == (
            2, "", f"error: {path}: order 65 exceeds the 64-vertex cap\n")

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
