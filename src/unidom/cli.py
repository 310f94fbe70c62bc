"""Command-line front end.

Subcommands: bound, construct, verify, search, complement, iso.  JSON mode
writes exactly one document to stdout; progress and diagnostics go to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage error,
3 budget truncation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys
from contextlib import nullcontext, suppress
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bounds
from .construct import (
    ConstructionLayout,
    construct_bipartite,
    construct_fischermann,
    construct_star,
    verify_construction,
)
from .domination import is_umd
from .graph import (
    Graph,
    Graph6Error,
    are_isomorphic,
    bipartite_complement,
    bit_list,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    find_bipartition,
    parse_edge_list,
    parse_graph6,
)
from .search import check_search_args, count_extremal_witnesses, max_umd_bipartite_size

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class CliError(Exception):
    """Usage-level failure (bad flags, unreadable input)."""


def _exact_to_json(value):
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
    return value


def _open_out(path: str):
    """Open ``path`` for writing as an unbuffered binary file, creating it
    if missing but not truncating it: the file keeps its content until
    ``_write_in_place`` writes over it.

    On ext4, ``O_TRUNC`` on a file that holds data frees its blocks in the
    open and sets the replace-via-truncate heuristic (``auto_da_alloc``), so
    that the close starts writeback of the new data; an existing empty file
    still gets the heuristic.  Skipping both is where the in-place write
    saves its time.  The writeback at close was a crash guard: without it,
    and with no fsync, a crash before the kernel writes the file back may
    leave it at its new length holding old bytes, or old and new mixed,
    where the truncating write left the new text or an empty file."""
    try:
        return open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb", buffering=0)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _write_in_place(out, path: str, text: str) -> None:
    """Write ``text`` from the start of ``out`` and cut a regular file at
    its end; ``/dev/null`` and pipes cannot be truncated.

    A write that fails leaves a prefix of ``text`` and none of the old
    bytes: the file is cut after the bytes written, as far as it still can
    be."""
    data = text.encode()
    written = 0
    try:
        while written < len(data):
            written += out.write(data[written:])
        if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
            out.truncate(written)
    except OSError as exc:
        with suppress(OSError):
            out.truncate(written)
        raise CliError(f"cannot write {path}: {exc}") from exc


def load_graph(path: str) -> Graph:
    """Read a graph file, sniffing edge-list ('n m' header) vs graph6."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise CliError(f"{path} is empty")
    lines = stripped.splitlines()
    # graph6 bytes are printable and never blank or '#', so a first line
    # with whitespace or a comment mark can only start an edge list
    if lines[0].startswith("#") or len(lines[0].split()) > 1:
        try:
            return parse_edge_list(text)
        except ValueError as exc:
            raise CliError(f"{path}: {exc}") from exc
    if len(lines) > 1:
        raise CliError(
            f"{path}: a graph6 input holds one graph, this file has {len(lines)} lines"
        )
    try:
        return parse_graph6(lines[0])
    except Graph6Error as exc:
        raise CliError(f"{path}: {exc}") from exc


def _emit_graph(g: Graph, fmt: str, layout: Optional[ConstructionLayout] = None) -> str:
    # fmt is one of the --format choices, which argparse has checked
    if fmt == "graph6":
        return emit_graph6(g) + "\n"
    if fmt == "edgelist":
        return emit_edge_list(g)
    return emit_dot(g, labels=layout.labels if layout else None)


# ---------------------------------------------------------------------------
# subcommands


def _bound_rows(args) -> list[dict]:
    n_hi = args.n_to if args.n_to is not None else args.n
    if n_hi < args.n:
        raise CliError("--n-to must not be below --n")
    # n only grows along the table, so its first row is the one to check
    if args.gamma < 2 or args.n < 3 * args.gamma:
        raise CliError(
            f"bound table requires gamma >= 2 and n >= 3*gamma (n={args.n}, gamma={args.gamma})"
        )
    return [
        {
            "n": n,
            "gamma": args.gamma,
            "m_bipartite": bounds.bipartite_bound(n, args.gamma),
            "m_fischermann": bounds.fischermann_bound(n, args.gamma),
            "vizing": _exact_to_json(bounds.vizing_bound(n, args.gamma)),
            "phi": bounds.phi(n, args.gamma),
        }
        for n in range(args.n, n_hi + 1)
    ]


def cmd_bound(args) -> int:
    rows = _bound_rows(args)
    if args.json:
        if len(rows) == 1:
            doc = {"schema": "unidom/1", "kind": "bound", **rows[0]}
        else:
            doc = {"schema": "unidom/1", "kind": "bound_table", "rows": rows}
        print(json.dumps(doc))
    else:
        cols = ["n", "gamma", "m_bipartite", "m_fischermann", "vizing", "phi"]
        print("\t".join(cols))
        for row in rows:
            print("\t".join(str(row[c]) for c in cols))
    return EXIT_OK


def cmd_construct(args) -> int:
    if args.family == "star":
        if args.gamma not in (None, 1):
            raise CliError("the star family fixes gamma = 1")
        g, layout = construct_star(args.n)
        expected = bounds.star_bound(args.n)
    else:
        if args.gamma is None:
            raise CliError("--gamma is required for this family")
        if args.family == "bipartite":
            g, layout = construct_bipartite(args.n, args.gamma)
            expected = bounds.bipartite_bound(args.n, args.gamma)
        else:
            g, layout = construct_fischermann(args.n, args.gamma)
            expected = bounds.fischermann_bound(args.n, args.gamma)

    # render only where the text goes: --out, or stdout when not verifying
    if args.out is not None:
        text = _emit_graph(g, args.format, layout)
        with _open_out(args.out) as out:
            _write_in_place(out, args.out, text)
    elif not args.verify:
        sys.stdout.write(_emit_graph(g, args.format, layout))
    if args.verify:
        cert = verify_construction(g, layout, expected)
        print(json.dumps(cert.to_json()))
        return EXIT_OK if cert.passed else EXIT_FAIL
    return EXIT_OK


def verify_file(path: str, expectations: dict) -> dict:
    """Analyze a graph file; returns the verify document (not yet printed)."""
    g = load_graph(path)
    report = is_umd(g)
    warnings = []
    isolated = bit_list(g.isolated_vertices())
    if isolated:
        warnings.append(
            f"isolated vertices present: {isolated} (uniqueness theory assumes none)"
        )
    mismatches = {}
    if "gamma" in expectations:
        mismatches["gamma"] = {
            "expected": expectations["gamma"],
            "actual": report.gamma,
            "ok": report.gamma == expectations["gamma"],
        }
    if "size" in expectations:
        mismatches["size"] = {
            "expected": expectations["size"],
            "actual": g.size(),
            "ok": g.size() == expectations["size"],
        }
    ok = report.unique and all(m["ok"] for m in mismatches.values())
    return {
        "schema": "unidom/1",
        "kind": "verify",
        "ok": ok,
        "report": report.to_json(),
        "warnings": warnings,
        "expectations": mismatches,
    }


def cmd_verify(args) -> int:
    expectations = {}
    if args.expect_gamma is not None:
        expectations["gamma"] = args.expect_gamma
    if args.expect_size is not None:
        expectations["size"] = args.expect_size
    doc = verify_file(args.input, expectations)
    if args.json:
        print(json.dumps(doc))
    else:
        rep = doc["report"]
        print(f"gamma\t{rep['gamma']}")
        print(f"unique\t{rep['unique']}")
        print(f"perfect\t{rep['perfect']}")
        print(f"min_sets\t{rep['min_sets']}")
        for warning in doc["warnings"]:
            print(f"warning\t{warning}", file=sys.stderr)
        for name, m in doc["expectations"].items():
            print(f"expect_{name}\t{m['expected']}\tactual\t{m['actual']}\t"
                  f"{'ok' if m['ok'] else 'MISMATCH'}")
    return EXIT_OK if doc["ok"] else EXIT_FAIL


def cmd_search(args) -> int:
    def progress(scanned: int, best: int) -> None:
        print(f"scanned={scanned} best={best}", file=sys.stderr)

    reporter = progress if args.progress else None
    check_search_args(args.n, args.gamma, args.size, args.budget)
    # opened before the search, so that a path that cannot be written fails
    # at once instead of after the whole search, and held across it; the
    # file keeps what it holds until the witnesses are written over it
    path = args.witnesses
    with (_open_out(path) if path is not None else nullcontext()) as out:
        if args.size is None:
            result = max_umd_bipartite_size(
                args.n, args.gamma, budget=args.budget,
                collect_witnesses=path is not None, progress=reporter,
            )
        else:
            result = count_extremal_witnesses(
                args.n, args.gamma, args.size, budget=args.budget, progress=reporter,
            )
        doc = result.to_json()
        if args.json:
            print(json.dumps(doc))
        else:
            for key, value in doc.items():
                if key in ("schema", "kind", "witnesses"):
                    continue
                print(f"{key}\t{value}")
        # after the document, so that a file that cannot be written loses no result
        if out is not None:
            _write_in_place(out, path, "".join(w + "\n" for w in result.witnesses))
    return EXIT_OK if result.complete else EXIT_BUDGET


def cmd_complement(args) -> int:
    g = load_graph(args.input)
    side = find_bipartition(g)
    if side is None:
        print("error: input graph is not bipartite", file=sys.stderr)
        return EXIT_FAIL
    sys.stdout.write(_emit_graph(bipartite_complement(g, side), args.format))
    return EXIT_OK


def cmd_iso(args) -> int:
    g = load_graph(args.first)
    h = load_graph(args.second)
    same = are_isomorphic(g, h)
    if args.json:
        print(json.dumps({"schema": "unidom/1", "kind": "iso", "isomorphic": same}))
    else:
        print(f"isomorphic\t{same}")
    return EXIT_OK if same else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``unidom`` command (``main`` reuses one of its own).

    Its ``commands`` attribute maps each command name to the command's own
    parser, the choices of the subparsers action."""
    parser = argparse.ArgumentParser(
        prog="unidom",
        description="Extremal graphs with a unique minimum dominating set: "
                    "bounds, constructions, certification, exhaustive search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p = sub.add_parser("bound", help="evaluate the size bounds for (n, gamma)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--n-to", type=int, default=None, help="sweep n up to this value")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("construct", help="build an extremal family member")
    p.add_argument("--family", choices=["bipartite", "fischermann", "star"],
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=int, default=None)
    p.add_argument("--format", choices=["graph6", "dot", "edgelist"],
                   default="graph6")
    p.add_argument("--verify", action="store_true",
                   help="certify the construction and print the JSON certificate")
    p.add_argument("--out", default=None, help="write the graph to this file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="analyze a graph file for unique domination")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--expect-gamma", type=int, default=None)
    p.add_argument("--expect-size", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive search over small bipartite graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--size", type=int, default=None,
                   help="count witnesses of this exact size instead of maximizing")
    p.add_argument("--budget", type=float, default=None, help="seconds of wall clock")
    p.add_argument("--witnesses", default=None,
                   help="list every witness class and write their graph6 lines "
                        "to this file (without it, a maximum search stops at "
                        "its first witness and lists that one)")
    p.add_argument("--progress", action="store_true",
                   help="log 'scanned=N best=S' lines to stderr")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("complement", help="bipartite complement of a graph file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--format", choices=["graph6", "dot", "edgelist"],
                   default="graph6")
    p.set_defaults(func=cmd_complement)

    p = sub.add_parser("iso", help="isomorphism test between two graph files")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_iso)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call to main, not at import, and reused after that:
    # parse_args returns a fresh Namespace each call and leaves the parser as
    # it was, and help and usage errors look up sys.stdout/sys.stderr when
    # they print.
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``parse_args`` of the ``unidom`` parser, with one pass over ``argv``.

    A command line that opens with a command name goes to that command's
    parser alone: the top-level parser would classify every argument and
    then hand all of them to the subparser, which parses them again.  Its
    leftovers are reported through the top-level parser, as the subparsers
    action does.  Any other command line is the top-level parser's."""
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0,) else EXIT_OK
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
