"""Boundary spans and per-layer metrics for the traced benchmark run.

The tracer wraps, from outside the package, the functions one ``unidom``
module calls in another (plus the search's own block scan and class merge),
by rebinding the module attributes the callers look up at call time.  The
untraced run never creates a ``Tracer``, so it runs the package unchanged.

Spans are aggregated in memory per (parent span, span) edge rather than kept
one by one: the (9,3) search alone crosses the search/solver boundary more
than a million times.  A span's self time is its duration minus the time of
its direct child spans.

A wrapped name that is missing, or whose result no longer has the expected
shape, makes the metrics built on it absent; the run itself is unaffected.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (span, defining module, function, modules whose binding is wrapped).
# ``None`` wraps every binding of the function in the package, including
# calls the defining module makes through its own global.  The two solver
# entry points are wrapped only where the search calls them: their
# recursion resolves through the domination module's globals, and wrapping
# those would turn every recursion node into a span.
SPANS = (
    ("cli.main", "unidom.cli", "main", ("unidom.cli",)),
    ("search.max", "unidom.search", "max_umd_bipartite_size", None),
    ("search.count", "unidom.search", "count_extremal_witnesses", None),
    ("search.scan_block", "unidom.search", "_scan_block", None),
    ("search.merge", "unidom.search", "_merge_classes", None),
    ("domination.exists", "unidom.domination", "_exists_cover", ("unidom.search",)),
    ("domination.enum", "unidom.domination", "_enumerate_covers", ("unidom.search",)),
    ("domination.gamma", "unidom.domination", "domination_number", None),
    ("domination.is_umd", "unidom.domination", "is_umd", None),
    ("domination.perfect", "unidom.domination", "is_perfectly_dominated", None),
    ("domination.dominates", "unidom.domination", "is_dominating", ("unidom.construct",)),
    ("domination.epn", "unidom.domination", "exterior_private_neighbors", ("unidom.construct",)),
    ("domination.disjoint", "unidom.domination", "closed_neighborhoods_disjoint",
     ("unidom.construct",)),
    ("graph.iso", "unidom.graph", "are_isomorphic", None),
    ("graph.g6_emit", "unidom.graph", "emit_graph6", None),
    ("graph.build", "unidom.graph", "from_edge_list", None),
    ("graph.check_bipartition", "unidom.graph", "check_bipartition", ("unidom.construct",)),
    ("construct.build", "unidom.construct", "construct_bipartite", None),
    ("construct.build", "unidom.construct", "construct_fischermann", None),
    ("construct.verify", "unidom.construct", "verify_construction", None),
)

# The recursion whose nodes the counting pass counts, through every binding.
NODE_COUNTED = ("unidom.domination", "_exists_cover")


def _count_scan(counts, args, result, _before):
    found, visited, _timed_out = result
    counts["masks"] += visited
    counts["raw_witnesses"] += len(found)


def _merge_before(args):
    return len(args[0])


def _count_merge(counts, args, result, before):
    counts["classes"] += len(args[0]) - before


def _count_enum(counts, args, result, _before):
    counts["enum_unique"] += len(result) == 1


def _count_iso(counts, args, result, _before):
    counts["iso_match"] += bool(result)


# span -> (hook run before the call, hook run on its result)
HOOKS = {
    "search.scan_block": (None, _count_scan),
    "search.merge": (_merge_before, _count_merge),
    "domination.enum": (None, _count_enum),
    "graph.iso": (None, _count_iso),
}


def _bindings(func, modules):
    """(module, attribute) pairs in the package that hold ``func``."""
    names = modules or [m for m in sys.modules if m == "unidom" or m.startswith("unidom.")]
    out = []
    for name in names:
        mod = sys.modules.get(name)
        if mod is None:
            continue
        out += [(mod, attr) for attr, value in vars(mod).items() if value is func]
    return out


class Tracer:
    """Installs the span wrappers, aggregates spans, and restores the package."""

    def __init__(self):
        self.edges = {}               # (parent, span) -> [calls, seconds, child seconds]
        self.counts = defaultdict(int)
        self.missing = set()          # spans with a wrapped name not found
        self.broken = set()           # spans whose result hook failed
        self._stack = [["run", 0.0]]
        self._patched = []            # (module, attribute, original)

    def install(self) -> None:
        for span, module, fname, modules in SPANS:
            func = getattr(sys.modules.get(module), fname, None)
            places = _bindings(func, modules) if callable(func) else []
            if not places:
                self.missing.add(span)
                continue
            wrapper = self._wrap(span, func)
            for mod, attr in places:
                self._patched.append((mod, attr, func))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, func in reversed(self._patched):
            setattr(mod, attr, func)
        self._patched.clear()

    def _wrap(self, span, func):
        stack, edges, counts = self._stack, self.edges, self.counts
        before_hook, after_hook = HOOKS.get(span, (None, None))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            before = before_hook(args) if before_hook and span not in self.broken else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                record = edges.get((parent[0], span))
                if record is None:
                    record = edges[(parent[0], span)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]
            if after_hook and span not in self.broken:
                try:
                    after_hook(counts, args, result, before)
                except (TypeError, ValueError, IndexError, AttributeError):
                    self.broken.add(span)
            return result

        return wrapper

    def totals(self) -> dict:
        """span -> [calls, seconds, self seconds], summed over parents."""
        out = {}
        for (_parent, span), (calls, secs, child) in self.edges.items():
            t = out.setdefault(span, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += secs
            t[2] += secs - child
        return out

    def edge(self, parent: str, span: str) -> list:
        return self.edges.get((parent, span), [0, 0.0, 0.0])

    def render(self) -> list[str]:
        """One line per (parent, span) edge, for the human-readable report."""
        lines = []
        for (parent, span), (calls, secs, child) in sorted(
                self.edges.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"  {parent:>20} -> {span:<26} calls={calls:<9} "
                         f"total={secs:9.4f}s self={secs - child:9.4f}s")
        return lines


def count_nodes(run) -> int | None:
    """Run ``run()`` with every binding of the counted recursion replaced by a
    plain call counter; None when the recursion no longer exists."""
    module, fname = NODE_COUNTED
    func = getattr(sys.modules.get(module), fname, None)
    places = _bindings(func, None) if callable(func) else []
    if not places:
        run()
        return None
    counter = [0]

    def counted(*args, **kwargs):
        counter[0] += 1
        return func(*args, **kwargs)

    for mod, attr in places:
        setattr(mod, attr, counted)
    try:
        run()
    finally:
        for mod, attr in places:
            setattr(mod, attr, func)
    return counter[0]


def _frac(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, nodes: int | None, overhead: float) -> dict:
    """Every per-layer metric whose spans were all present, as
    ``{name: {"value": v, "unit": u}}``; ratios with an empty base read 0."""
    tot = tracer.totals()

    def calls(span):
        return tot.get(span, [0, 0.0, 0.0])[0]

    def secs(span):
        return tot.get(span, [0, 0.0, 0.0])[1]

    def self_secs(span):
        return tot.get(span, [0, 0.0, 0.0])[2]

    c = tracer.counts
    exists_from_scan = tracer.edge("search.scan_block", "domination.exists")[0]
    # metric -> (unit, spans it is built on, value)
    table = {
        "search.masks": ("count", ("search.scan_block",), lambda: c["masks"]),
        "search.blocks": ("count", ("search.scan_block",), lambda: calls("search.scan_block")),
        "search.mask_self_s": ("s", ("search.scan_block", "domination.exists",
                                     "domination.enum", "graph.g6_emit"),
                               lambda: self_secs("search.scan_block")),
        "search.solver_pass_frac": ("ratio", ("search.scan_block", "domination.exists"),
                                    lambda: _frac(exists_from_scan, c["masks"])),
        "search.raw_witnesses": ("count", ("search.scan_block",), lambda: c["raw_witnesses"]),
        "search.classes": ("count", ("search.merge",), lambda: c["classes"]),
        "search.merge_s": ("s", ("search.merge",), lambda: secs("search.merge")),
        "domination.exists_calls": ("count", ("domination.exists",),
                                    lambda: calls("domination.exists")),
        "domination.exists_s": ("s", ("domination.exists",), lambda: secs("domination.exists")),
        "domination.enum_calls": ("count", ("domination.enum",), lambda: calls("domination.enum")),
        "domination.enum_s": ("s", ("domination.enum",), lambda: secs("domination.enum")),
        "domination.unique_frac": ("ratio", ("domination.enum",),
                                   lambda: _frac(c["enum_unique"], calls("domination.enum"))),
        "domination.exists_nodes": ("count", (), lambda: nodes),
        "domination.gamma_solves": ("count", ("domination.gamma",),
                                    lambda: calls("domination.gamma")),
        "domination.gamma_s": ("s", ("domination.gamma",), lambda: secs("domination.gamma")),
        "domination.is_umd_s": ("s", ("domination.is_umd",), lambda: secs("domination.is_umd")),
        "domination.gamma_solves_per_cert": (
            "ratio", ("domination.gamma", "construct.verify"),
            lambda: _frac(calls("domination.gamma"), calls("construct.verify"))),
        "graph.iso_calls": ("count", ("graph.iso",), lambda: calls("graph.iso")),
        "graph.iso_s": ("s", ("graph.iso",), lambda: secs("graph.iso")),
        "graph.iso_match_frac": ("ratio", ("graph.iso",),
                                 lambda: _frac(c["iso_match"], calls("graph.iso"))),
        "graph.g6_emit_calls": ("count", ("graph.g6_emit",), lambda: calls("graph.g6_emit")),
        "graph.g6_emit_s": ("s", ("graph.g6_emit",), lambda: secs("graph.g6_emit")),
        "graph.build_s": ("s", ("graph.build",), lambda: secs("graph.build")),
        "construct.build_s": ("s", ("construct.build",), lambda: secs("construct.build")),
        "construct.verify_s": ("s", ("construct.verify",), lambda: secs("construct.verify")),
        "construct.verify_self_s": (
            "s", ("construct.verify", "domination.gamma", "domination.is_umd",
                  "domination.perfect", "domination.dominates", "domination.epn",
                  "domination.disjoint", "graph.check_bipartition"),
            lambda: self_secs("construct.verify")),
        "cli.main_s": ("s", ("cli.main",), lambda: secs("cli.main")),
        "cli.self_s": ("s", ("cli.main", "search.max", "search.count", "construct.build",
                             "construct.verify", "graph.g6_emit", "domination.is_umd"),
                       lambda: self_secs("cli.main")),
        "trace_overhead_frac": ("ratio", (), lambda: overhead),
    }
    out = {}
    for name, (unit, needs, value) in table.items():
        if any(span in tracer.missing or span in tracer.broken for span in needs):
            continue
        v = value()
        if v is None:
            continue
        out[name] = {"value": v, "unit": unit}
    return out

