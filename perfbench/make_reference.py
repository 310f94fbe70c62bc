#!/usr/bin/env python3
"""Build ``reference.json``, the answers the benchmark checks outputs against.

    python3 perfbench/make_reference.py        # from the root of a checkout

Witness counts come from an oracle that shares no code with the package:
it enumerates the same side-fixed space of bipartite graphs (one side
{0..k-1}, k <= n/2; class counts do not depend on that reduction), decides
unique domination by trying every vertex subset of size at most gamma, and
merges the raw witnesses into isomorphism classes with ``networkx``.  The
script then runs the package on every task the benchmark can draw and
stops unless both agree: the counts, and a one-to-one match between the
package's class representatives and the oracle's classes.

The search maxima are the closed-form bounds (``bipartite_bound`` at
gamma = 2, ``n3g_bound`` at n = 3*gamma); the script records them only after
the package's exhaustive search returns the same values.  Takes about a
minute; ``networkx`` is needed here only, not by the benchmark run.
"""

from __future__ import annotations

import json
import sys
import warnings
from itertools import combinations
from pathlib import Path

sys.dont_write_bytecode = True

import networkx as nx  # noqa: E402

# The hashes only bucket graphs within one run, so their change across
# networkx versions does not matter here.
warnings.filterwarnings("ignore", message="The hashes produced", category=UserWarning)

from workloads import (  # noqa: E402
    REFERENCE_PATH, SEARCH_MAX_TASKS, WITNESS_DRAWS, WITNESS_FIXED, witness_key,
)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from unidom import bounds  # noqa: E402
from unidom.graph import parse_graph6  # noqa: E402
from unidom.search import count_extremal_witnesses, max_umd_bipartite_size  # noqa: E402


def _dominating_sets(closed: list[int], full: int, size: int, cap: int) -> int:
    found = 0
    for combo in combinations(closed, size):
        acc = 0
        for c in combo:
            acc |= c
        if acc == full:
            found += 1
            if found == cap:
                break
    return found


def naive_witnesses(n: int, gamma: int, size: int):
    """Edge lists of every isolate-free side-fixed bipartite graph with
    ``size`` edges whose unique minimum dominating set has ``gamma`` vertices."""
    full = (1 << n) - 1
    for k in range(n // 2 + 1):
        cells = [(i, k + j) for i in range(k) for j in range(n - k)]
        for edges in combinations(cells, size):
            closed = [1 << v for v in range(n)]
            for u, v in edges:
                closed[u] |= 1 << v
                closed[v] |= 1 << u
            if any(c == 1 << v for v, c in enumerate(closed)):
                continue
            if any(_dominating_sets(closed, full, j, 1) for j in range(1, gamma)):
                continue
            if _dominating_sets(closed, full, gamma, 2) == 1:
                yield edges


def to_nx(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def classes_of(graphs: list[nx.Graph]) -> list[nx.Graph]:
    """One representative per isomorphism class, by ``networkx`` alone."""
    buckets: dict[str, list[nx.Graph]] = {}
    for g in graphs:
        reps = buckets.setdefault(nx.weisfeiler_lehman_graph_hash(g), [])
        if not any(nx.is_isomorphic(g, r) for r in reps):
            reps.append(g)
    return [r for reps in buckets.values() for r in reps]


def witness_count(n: int, gamma: int, size: int) -> int:
    oracle = classes_of([to_nx(n, e) for e in naive_witnesses(n, gamma, size)])
    result = count_extremal_witnesses(n, gamma, size)
    package = [to_nx(n, parse_graph6(w).edges()) for w in result.witnesses]
    if not result.complete or result.count != len(oracle) or len(package) != len(oracle):
        raise SystemExit(f"({n},{gamma},{size}): package {result.count}, oracle {len(oracle)}")
    if len(classes_of(package)) != len(package):
        raise SystemExit(f"({n},{gamma},{size}): package representatives repeat a class")
    for rep in oracle:
        if sum(nx.is_isomorphic(rep, p) for p in package) != 1:
            raise SystemExit(f"({n},{gamma},{size}): an oracle class has no unique match")
    return len(oracle)


def main() -> int:
    maxima = {}
    for n, gamma in SEARCH_MAX_TASKS:
        formula = (bounds.n3g_bound(gamma) if n == 3 * gamma
                   else bounds.bipartite_bound(n, gamma))
        found = max_umd_bipartite_size(n, gamma, collect_witnesses=False).max_size
        if found != formula:
            raise SystemExit(f"search max ({n},{gamma}) = {found}, bound {formula}")
        maxima[f"{n},{gamma}"] = formula
        print(f"search_max {n},{gamma}: {formula}", flush=True)
    triples = sorted(set(WITNESS_FIXED) | {(n, g, s) for (n, g), (sizes, _) in WITNESS_DRAWS.items()
                                            for s in sizes})
    counts = {}
    for n, gamma, size in triples:
        counts[witness_key(n, gamma, size)] = witness_count(n, gamma, size)
        print(f"witness_count {n},{gamma},{size}: {counts[witness_key(n, gamma, size)]}",
              flush=True)
    REFERENCE_PATH.write_text(json.dumps(
        {"search_max": maxima, "witness_count": counts}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
