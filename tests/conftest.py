"""Shared fixtures, oracles and hypothesis strategies.

The oracles here are deliberately naive (full subset enumeration, full
permutation search) so they stay independent of the pruned implementations
they check.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

from unidom import Graph, from_edge_list, iter_bits, mask_of, min_forest_edges


# ---------------------------------------------------------------------------
# independent oracles


def naive_domination_number(g: Graph) -> int:
    """Smallest k whose subsets contain a dominating set; no pruning."""
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    full = g.full_mask
    for k in range(g.n + 1):
        for combo in combinations(range(g.n), k):
            covered = 0
            for v in combo:
                covered |= closed[v]
            if covered == full:
                return k
    raise AssertionError("unreachable")


def naive_minimum_dominating_sets(g: Graph) -> list[int]:
    """All minimum dominating sets, by full enumeration at size gamma."""
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    full = g.full_mask
    gamma = naive_domination_number(g)
    out = []
    for combo in combinations(range(g.n), gamma):
        covered = 0
        for v in combo:
            covered |= closed[v]
        if covered == full:
            out.append(mask_of(combo))
    return sorted(out)


def perfect_by_degree_sum(g: Graph, d: int) -> bool:
    """Perfect domination by the dominating set ``d`` in its degree-sum
    form: sum(deg(x) for x in d) == n - |d|."""
    return sum(g.adj[v].bit_count() for v in iter_bits(d)) == g.n - d.bit_count()


def perfect_by_structure(g: Graph, d: int) -> bool:
    """Perfect domination by the dominating set ``d`` in its structural
    form: ``d`` is independent and every vertex outside it has exactly one
    neighbor in it."""
    outside = [u for u in range(g.n) if not (d >> u) & 1]
    independent = all(not g.adj[v] & d for v in iter_bits(d))
    return independent and all((g.adj[u] & d).bit_count() == 1 for u in outside)


def brute_force_isomorphic(g: Graph, h: Graph) -> bool:
    """Try every vertex bijection; usable up to n = 7."""
    if g.n != h.n:
        return False
    for perm in permutations(range(g.n)):
        if all(
            ((g.adj[u] >> v) & 1) == ((h.adj[perm[u]] >> perm[v]) & 1)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


def random_bipartite(rng: random.Random, n: int, p: float):
    """Random bipartite graph plus the side mask it was built on."""
    side = mask_of(v for v in range(n) if rng.random() < 0.5)
    left = [v for v in range(n) if (side >> v) & 1]
    right = [v for v in range(n) if not (side >> v) & 1]
    edges = [(u, v) for u in left for v in right if rng.random() < p]
    return from_edge_list(n, edges), side


def assert_unique_domination_theory(g: Graph, gamma: int, dset: int) -> None:
    """Every isolated-free graph with a unique minimum dominating set must
    have n >= 3*gamma and two exterior private neighbors per dominator."""
    assert g.isolated_vertices() == 0, "helper applies to isolated-free graphs"
    assert g.n >= 3 * gamma, f"n={g.n} < 3*gamma={3 * gamma}"
    for v in iter_bits(dset):
        target = 1 << v
        epn = sum(
            1 for u in iter_bits(g.full_mask & ~dset) if g.adj[u] & dset == target
        )
        assert epn >= 2, f"dominator {v} has only {epn} exterior private neighbors"


# ---------------------------------------------------------------------------
# proof helpers that feed no claim of the package, checked here on their own


def tau(n: int) -> int:
    """Count of positive integers below ``n`` with the opposite parity."""
    if n < 1:
        raise ValueError("requires n >= 1")
    return n // 2


def _components_ok(n: int, edge_set: tuple[tuple[int, int], ...]) -> bool:
    # qualifies iff no isolated vertex and no two-vertex component
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    touched = 0
    for u, v in edge_set:
        touched |= (1 << u) | (1 << v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    if touched != (1 << n) - 1:
        return False
    sizes: dict[int, int] = {}
    for v in range(n):
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return all(c >= 3 for c in sizes.values())


def verify_forest_lemma(n: int) -> bool:
    """Brute-force the minimum size over all labeled order-n graphs with no
    isolated vertices and no two-vertex components; compare to
    ``min_forest_edges``."""
    if not 3 <= n <= 7:
        raise ValueError("brute force supported for 3 <= n <= 7")
    pairs = list(combinations(range(n), 2))
    for s in range(len(pairs) + 1):
        for edge_set in combinations(pairs, s):
            if _components_ok(n, edge_set):
                return s == min_forest_edges(n)
    raise AssertionError("no qualifying graph found")  # unreachable for n >= 3


# ---------------------------------------------------------------------------
# reference extremal graph on ten vertices (hand-entered edge list)

REFERENCE_10_3_NAMES = ["x1", "y1", "y2", "b11", "b12", "a11", "a12", "a21", "a22", "c1"]
REFERENCE_10_3_EDGES = [
    ("x1", "b11"), ("x1", "b12"), ("x1", "c1"),
    ("y1", "a11"), ("y1", "a12"),
    ("y2", "a21"), ("y2", "a22"),
    ("b11", "a11"), ("b11", "a12"), ("b11", "a21"), ("b11", "a22"),
    ("c1", "a11"), ("c1", "a12"), ("c1", "a21"), ("c1", "a22"),
]


@pytest.fixture(scope="session")
def reference_10_3() -> Graph:
    idx = {nm: i for i, nm in enumerate(REFERENCE_10_3_NAMES)}
    return from_edge_list(
        10, [(idx[u], idx[v]) for u, v in REFERENCE_10_3_EDGES]
    )


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 10) -> Graph:
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return from_edge_list(n, [])
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return from_edge_list(n, picks)


@st.composite
def bipartite_graphs(draw, min_n: int = 2, max_n: int = 10):
    """(graph, side mask) pairs with every edge crossing the side mask."""
    n = draw(st.integers(min_n, max_n))
    side_bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    side = mask_of(v for v in range(n) if side_bits[v])
    left = [v for v in range(n) if (side >> v) & 1]
    right = [v for v in range(n) if not (side >> v) & 1]
    pairs = [(u, v) for u in left for v in right]
    if pairs:
        picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        picks = []
    return from_edge_list(n, picks), side
