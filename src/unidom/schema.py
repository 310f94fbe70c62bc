"""Structural validation for the JSON documents the CLI emits.

Every document carries ``"schema": "unidom/1"`` and a ``"kind"`` tag;
``validate_document`` dispatches on the kind and returns a list of problems
(empty means valid).  Kept dependency-free on purpose: downstream scripts
can vendor this file alone.
"""

from __future__ import annotations

import re

SCHEMA_ID = "unidom/1"


def _err(problems: list[str], cond: bool, msg: str) -> bool:
    if not cond:
        problems.append(msg)
    return cond


def _is_int(x) -> bool:
    # bool subclasses int, but JSON true/false is never a count or a vertex
    return isinstance(x, int) and not isinstance(x, bool)


def _is_vertex_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(v) and v >= 0 for v in x)


def _is_exact_number(x) -> bool:
    # exact values serialize as ints, or as "p/q" strings (q > 0) when non-integral
    if isinstance(x, str):
        match = re.fullmatch(r"-?[0-9]+/([0-9]+)", x)
        return match is not None and int(match.group(1)) > 0
    return _is_int(x)


def validate_report(doc) -> list[str]:
    """Check a domination report object (the nested per-graph result)."""
    problems: list[str] = []
    if not _err(problems, isinstance(doc, dict), "report must be an object"):
        return problems
    _err(problems, _is_int(doc.get("gamma")) and doc["gamma"] >= 0,
         "gamma must be a nonnegative int")
    _err(problems, isinstance(doc.get("unique"), bool), "unique must be a bool")
    sets = doc.get("min_sets")
    _err(problems, isinstance(sets, list) and all(_is_vertex_list(s) for s in sets),
         "min_sets must be a list of vertex lists")
    epn = doc.get("epn")
    _err(problems, isinstance(epn, dict) and all(
        isinstance(k, str) and k.isdigit() and _is_vertex_list(v)
        for k, v in epn.items()), "epn must map vertex strings to vertex lists")
    _err(problems, isinstance(doc.get("perfect"), bool), "perfect must be a bool")
    _err(problems, isinstance(doc.get("epn_condition"), bool),
         "epn_condition must be a bool")
    return problems


def _validate_header(doc, problems: list[str]) -> None:
    _err(problems, doc.get("schema") == SCHEMA_ID,
         f"schema must be {SCHEMA_ID!r}")
    _err(problems, isinstance(doc.get("kind"), str), "kind must be a string")


def _validate_bound_row(row, problems: list[str]) -> None:
    if not _err(problems, isinstance(row, dict), "bound row must be an object"):
        return
    for key in ("n", "gamma", "m_bipartite", "m_fischermann", "phi"):
        _err(problems, _is_int(row.get(key)), f"{key} must be an int")
    _err(problems, _is_exact_number(row.get("vizing")),
         "vizing must be an int or 'p/q' string")


def _validate_scan_counts(doc, problems: list[str]) -> None:
    scanned, visited = doc.get("graphs_scanned"), doc.get("masks_visited")
    ok = _err(problems, _is_int(scanned), "graphs_scanned must be an int")
    ok = _err(problems, _is_int(visited), "masks_visited must be an int") and ok
    if ok:
        _err(problems, 0 <= visited <= scanned,
             "masks_visited must lie between 0 and graphs_scanned")


def _validate_witnesses(doc, problems: list[str]) -> bool:
    witnesses = doc.get("witnesses")
    return _err(problems, isinstance(witnesses, list)
                and all(isinstance(w, str) for w in witnesses),
                "witnesses must be a list of graph6 strings")


def validate_document(doc) -> list[str]:
    """Validate any top-level CLI JSON document; [] means valid."""
    problems: list[str] = []
    if not _err(problems, isinstance(doc, dict), "document must be an object"):
        return problems
    _validate_header(doc, problems)
    kind = doc.get("kind")
    if kind == "bound":
        _validate_bound_row(doc, problems)
    elif kind == "bound_table":
        rows = doc.get("rows")
        if _err(problems, isinstance(rows, list), "rows must be a list"):
            for row in rows:
                _validate_bound_row(row, problems)
    elif kind == "certificate":
        _err(problems, isinstance(doc.get("passed"), bool), "passed must be a bool")
        checks = doc.get("checks")
        if _err(problems, isinstance(checks, dict), "checks must be an object"):
            for name, c in checks.items():
                _err(problems, isinstance(c, dict) and isinstance(c.get("passed"), bool),
                     f"check {name} must carry a bool 'passed'")
    elif kind == "verify":
        problems += validate_report(doc.get("report"))
        _err(problems, isinstance(doc.get("ok"), bool), "ok must be a bool")
        _err(problems, isinstance(doc.get("warnings"), list), "warnings must be a list")
        _err(problems, isinstance(doc.get("expectations"), dict),
             "expectations must be an object")
    elif kind == "search":
        _err(problems, _is_int(doc.get("n")), "n must be an int")
        _err(problems, _is_int(doc.get("gamma")), "gamma must be an int")
        ms = doc.get("max_size")
        _err(problems, ms is None or _is_int(ms), "max_size must be int or null")
        if _validate_witnesses(doc, problems):
            _err(problems, (ms is None) == (not doc["witnesses"]),
                 "max_size must be null exactly when there are no witnesses")
        _validate_scan_counts(doc, problems)
        _err(problems, isinstance(doc.get("complete"), bool), "complete must be a bool")
    elif kind == "witness_count":
        for key in ("n", "gamma", "size", "count"):
            _err(problems, _is_int(doc.get(key)), f"{key} must be an int")
        if _validate_witnesses(doc, problems):
            _err(problems, doc.get("count") == len(doc["witnesses"]),
                 "count must equal the number of witnesses")
        _validate_scan_counts(doc, problems)
        _err(problems, isinstance(doc.get("complete"), bool), "complete must be a bool")
    elif kind == "iso":
        _err(problems, isinstance(doc.get("isomorphic"), bool),
             "isomorphic must be a bool")
    else:
        problems.append(f"unknown document kind: {kind!r}")
    return problems
