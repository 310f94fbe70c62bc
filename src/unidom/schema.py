"""Structural validation for the JSON documents the CLI emits.

Every document carries ``"schema": "unidom/1"`` and a ``"kind"`` tag;
``validate_document`` dispatches on the kind and returns a list of problems
(empty means valid).  Kept dependency-free on purpose: downstream scripts
can vendor this file alone.
"""

from __future__ import annotations

import math
import re

SCHEMA_ID = "unidom/1"

# the checks every construction certificate holds, in the order they are
# written; ``bipartite`` joins them when the family has a side
CERTIFICATE_CHECKS = (
    "size", "no_isolated_vertices", "intended_set_dominates", "gamma",
    "unique_minimum_dominating_set", "minimum_set_is_intended",
    "perfectly_dominated", "closed_neighborhoods_disjoint",
    "epn_at_least_two_per_dominator",
)


def _err(problems: list[str], cond: bool, msg: str) -> bool:
    if not cond:
        problems.append(msg)
    return cond


def _is_int(x) -> bool:
    # bool subclasses int, but JSON true/false is never a count or a vertex
    return isinstance(x, int) and not isinstance(x, bool)


def _is_vertex_list(x) -> bool:
    # a vertex set, listed once per vertex in increasing order
    return (isinstance(x, list) and all(_is_int(v) and v >= 0 for v in x)
            and all(u < v for u, v in zip(x, x[1:])))


def _is_exact_number(x) -> bool:
    # exact values serialize as ints, or as "p/q" strings (q > 0) when non-integral
    if isinstance(x, str):
        match = re.fullmatch(r"-?[0-9]+/([0-9]+)", x)
        return match is not None and int(match.group(1)) > 0
    return _is_int(x)


def _conjunction(parts, name: str, key: str, problems: list[str]) -> bool | None:
    """The AND of ``key`` over the dict ``parts``, or None when malformed."""
    if _err(problems, isinstance(parts, dict) and all(
            isinstance(p, dict) and isinstance(p.get(key), bool) for p in parts.values()),
            f"{name} must map names to objects with a bool {key!r}"):
        return all(p[key] for p in parts.values())
    return None


def validate_report(doc) -> list[str]:
    """Check a domination report object (the nested per-graph result)."""
    problems: list[str] = []
    if not _err(problems, isinstance(doc, dict), "report must be an object"):
        return problems
    _err(problems, _is_int(doc.get("gamma")) and doc["gamma"] >= 0,
         "gamma must be a nonnegative int")
    _err(problems, isinstance(doc.get("unique"), bool), "unique must be a bool")
    sets = doc.get("min_sets")
    if _err(problems, isinstance(sets, list) and all(_is_vertex_list(s) for s in sets),
            "min_sets must be a list of increasing vertex lists"):
        # the cap-2 solve lists one or two, and every graph has a minimum set
        _err(problems, 1 <= len(sets) <= 2, "min_sets must hold one or two sets")
        _err(problems, len({tuple(s) for s in sets}) == len(sets),
             "min_sets entries must be distinct")
        _err(problems, doc.get("unique") == (len(sets) == 1),
             "unique must hold exactly when min_sets has one set")
        _err(problems, all(len(s) == doc.get("gamma") for s in sets),
             "every min_sets entry must have gamma vertices")
    epn = doc.get("epn")
    _err(problems, isinstance(epn, dict) and all(
        isinstance(k, str) and k.isascii() and k.isdigit() and _is_vertex_list(v)
        for k, v in epn.items()), "epn must map vertex strings to increasing vertex lists")
    _err(problems, isinstance(doc.get("perfect"), bool), "perfect must be a bool")
    _err(problems, isinstance(doc.get("epn_condition"), bool),
         "epn_condition must be a bool")
    if problems:
        return problems
    # the epn lists and both flags are read off the unique minimum set alone
    if doc["unique"]:
        _err(problems, set(epn) == {str(v) for v in sets[0]},
             "epn keys must be exactly the vertices of the unique minimum set")
        # a private neighbor lies outside the set and has exactly one dominator
        private = [v for vs in epn.values() for v in vs]
        _err(problems, len(set(private)) == len(private) and not set(private) & set(sets[0]),
             "epn lists must be pairwise disjoint and avoid the unique minimum set")
        _err(problems, doc["epn_condition"] == all(len(v) >= 2 for v in epn.values()),
             "epn_condition must hold exactly when every epn list has at least 2 vertices")
    else:
        _err(problems, epn == {} and not doc["perfect"] and not doc["epn_condition"],
             "without a unique minimum set, epn must be empty and perfect and "
             "epn_condition false")
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


def _validate_scan(doc, problems: list[str]) -> None:
    """The fields a search and a witness count share."""
    scanned, visited = doc.get("graphs_scanned"), doc.get("masks_visited")
    ok = _err(problems, _is_int(scanned), "graphs_scanned must be an int")
    ok = _err(problems, _is_int(visited), "masks_visited must be an int") and ok
    if ok:
        _err(problems, 0 <= visited <= scanned,
             "masks_visited must lie between 0 and graphs_scanned")
    elapsed = doc.get("elapsed")
    _err(problems, isinstance(elapsed, (int, float)) and not isinstance(elapsed, bool)
         and 0 <= elapsed < math.inf, "elapsed must be a nonnegative number")
    _err(problems, isinstance(doc.get("complete"), bool), "complete must be a bool")


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
        every = _conjunction(checks, "checks", "passed", problems)
        if every is not None:
            _err(problems, doc.get("passed") == every, "passed must be the AND of the checks")
            _err(problems, set(checks) - {"bipartite"} == set(CERTIFICATE_CHECKS),
                 "checks must name every certificate check, and no other but bipartite")
    elif kind == "verify":
        report_problems = validate_report(doc.get("report"))
        problems += report_problems
        _err(problems, isinstance(doc.get("ok"), bool), "ok must be a bool")
        _err(problems, isinstance(doc.get("warnings"), list), "warnings must be a list")
        met = _conjunction(doc.get("expectations"), "expectations", "ok", problems)
        if met is not None and not report_problems:
            _err(problems, doc.get("ok") == (doc["report"]["unique"] and met),
                 "ok must hold exactly when unique and every expectation is met")
    elif kind == "search":
        _err(problems, _is_int(doc.get("n")), "n must be an int")
        _err(problems, _is_int(doc.get("gamma")), "gamma must be an int")
        ms = doc.get("max_size")
        _err(problems, ms is None or _is_int(ms), "max_size must be int or null")
        if _validate_witnesses(doc, problems):
            _err(problems, (ms is None) == (not doc["witnesses"]),
                 "max_size must be null exactly when there are no witnesses")
        _validate_scan(doc, problems)
    elif kind == "witness_count":
        for key in ("n", "gamma", "size", "count"):
            _err(problems, _is_int(doc.get(key)), f"{key} must be an int")
        if _validate_witnesses(doc, problems):
            _err(problems, doc.get("count") == len(doc["witnesses"]),
                 "count must equal the number of witnesses")
        _validate_scan(doc, problems)
    elif kind == "iso":
        _err(problems, isinstance(doc.get("isomorphic"), bool),
             "isomorphic must be a bool")
    else:
        problems.append(f"unknown document kind: {kind!r}")
    return problems
