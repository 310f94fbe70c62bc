"""Shared fixtures, oracles and hypothesis strategies.

The oracles here are deliberately naive (full subset enumeration, full
permutation search) so they stay independent of the pruned implementations
they check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

try:
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
except ImportError:  # test-only oracle
    milp = None

from unidom import Graph, from_edge_list, iter_bits, mask_of


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


needs_milp = pytest.mark.skipif(milp is None, reason="scipy is not installed")


def milp_unique(g: Graph) -> tuple[int, int, bool]:
    """(gamma, a minimum dominating set, whether it is the only one), from
    two integer programs over ``g.adj`` alone.

    The first minimizes sum(x) subject to N[v] . x >= 1 for every v.  The
    second adds sum(x) <= gamma and the no-good cut sum(x_v, v in S) <=
    gamma - 1 on the set S found first; it is infeasible exactly when no
    other dominating set of gamma vertices exists.
    """
    n = g.n
    closed = np.array([[(g.adj[v] | 1 << v) >> u & 1 for u in range(n)] for v in range(n)])
    binary = {"c": np.ones(n), "integrality": np.ones(n), "bounds": Bounds(0, 1)}
    cover = LinearConstraint(closed, lb=1, ub=np.inf)
    first = milp(constraints=[cover], **binary)
    assert first.status == 0, first.message
    picks = [v for v in range(n) if first.x[v] > 0.5]
    gamma = len(picks)
    assert gamma == round(first.fun)
    cut = LinearConstraint(np.array([np.ones(n), [v in picks for v in range(n)]]),
                           lb=-np.inf, ub=[gamma, gamma - 1])
    second = milp(constraints=[cover, cut], **binary)
    # HiGHS reports 0 for a solution found and 2 for proven infeasibility
    assert second.status in (0, 2), second.message
    return gamma, mask_of(picks), second.status == 2


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
# reference cover recursion: the solver's node taken in two helpers, with a
# second pass over the undominated vertices for the memo key.  It fixes the
# covers and the node count that the one-pass node must reproduce.


def _reference_last_picks(closed: list[int], undom: int, allowed: int) -> int:
    """The ``allowed`` vertices whose closed neighborhood holds all of ``undom``."""
    m = undom
    while m:
        low = m & -m
        m ^= low
        allowed &= closed[low.bit_length() - 1]
    return allowed


def _reference_branch_step(closed: list[int], undom: int, banned: int,
                           k: int) -> tuple[int, int, int] | None:
    """None when the bit-order packing of the unbanned options owes more than
    ``k`` picks or a vertex has no option; else (branch vertex, packed, used)."""
    branch_v, branch_opts = -1, 1 << 30
    used, packed = 0, 0
    m = undom
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        opts = closed[v] & ~banned
        if not opts & used:
            packed += 1
            if packed > k:
                return None
            used |= opts
        c = opts.bit_count()
        if c < branch_opts:
            if c == 0:
                return None
            branch_v, branch_opts = v, c
    return branch_v, packed, used


@dataclass
class _ReferenceCovers:
    cap: float
    found: list[int]
    failed: set
    nodes: int = 0


def _reference_exists_cover(closed: list[int], full: int, k: int, dominated: int,
                            banned: int, chosen: int, covers: _ReferenceCovers) -> bool:
    covers.nodes += 1
    found = covers.found
    if dominated == full:
        found.append(chosen)
        return len(found) >= covers.cap
    undom = full & ~dominated
    if k == 1:
        last = _reference_last_picks(closed, undom, full & ~banned)
        while last:
            low = last & -last
            found.append(chosen | low)
            if len(found) >= covers.cap:
                return True
            last ^= low
        return False
    step = _reference_branch_step(closed, undom, banned, k)
    if step is None:
        return False
    branch_v, packed, used = step
    allowed = full & ~banned
    if packed == k:
        allowed &= used
    key = None
    if k > 2 and chosen:
        rows = []
        m = undom
        while m:
            low = m & -m
            m ^= low
            rows.append(closed[low.bit_length() - 1] & allowed)
        key = (k, frozenset(rows))
        if key in covers.failed:
            return False
    hits = len(found)
    m = closed[branch_v] & allowed
    while m:
        low = m & -m
        m ^= low
        if _reference_exists_cover(closed, full, k - 1,
                                   dominated | closed[low.bit_length() - 1],
                                   banned, chosen | low, covers):
            return True
        banned |= low
    if key is not None and len(found) == hits:
        covers.failed.add(key)
    return False


def reference_enumerate_covers(closed: list[int], full: int, size: int,
                               cap: int | None = None) -> tuple[list[int], int]:
    """(sorted covers of at most ``size`` picks stopped at ``cap``, recursion nodes)."""
    covers = _ReferenceCovers(float("inf") if cap is None else cap, [], set())
    _reference_exists_cover(closed, full, size, 0, 0, 0, covers)
    return sorted(covers.found), covers.nodes


# ---------------------------------------------------------------------------
# proof helpers and cross-check formulas that feed no command of the package,
# checked here on their own


def tau(n: int) -> int:
    """Count of positive integers below ``n`` with the opposite parity."""
    if n < 1:
        raise ValueError("requires n >= 1")
    return n // 2


def degree_sequence(g: Graph) -> list[int]:
    """Vertex degrees sorted in non-increasing order."""
    return sorted((g.degree(v) for v in range(g.n)), reverse=True)


def min_forest_edges(n: int) -> int:
    """Minimum size of an order-n graph with no isolated vertex and no
    two-vertex component: ceil(2n/3)."""
    if n < 3:
        raise ValueError("requires n >= 3")
    return -(-2 * n // 3)


def bipartite_bound_gamma2(n: int) -> int:
    """Closed form of the bipartite bound at gamma = 2, split by parity."""
    if n < 6:
        raise ValueError("closed form requires n >= 6")
    if n % 2 == 0:
        return n * (n - 2) // 4
    return (n - 1) ** 2 // 4


@dataclass(frozen=True)
class Gamma2CaseBounds:
    """The three case bounds for gamma = 2, by dominator placement:
    same side (m1), adjacent (m2), opposite sides non-adjacent (m3)."""

    m1: int
    m2: Fraction
    m3: int


def gamma2_case_bounds(n: int) -> Gamma2CaseBounds:
    """Evaluate all three gamma = 2 case bounds; m3 equals the full bound.

    m2 is the adjacent-dominators bound as transcribed, with the ceiling
    dropped from its forest term, and it is not an upper bound: see
    ``gamma2_m2_strict``.
    """
    if n < 6:
        raise ValueError("requires n >= 6")
    m1 = 2 * (n - 2) - 4
    if n % 2 == 0:
        m2 = Fraction(3 * n * n - 6 * n - (2 * n - 8), 12)
    else:
        m2 = Fraction(3 * n * n - 6 * n + 3 - (2 * n - 2), 12)
    m3 = n - 2 + ((n - 2) // 2) * ((n - 3) // 2)
    return Gamma2CaseBounds(m1=m1, m2=m2, m3=m3)


def gamma2_m2_strict(n: int) -> int:
    """Adjacent-dominators case bound with the ceiling kept on the forest
    term.

    The default ``gamma2_case_bounds(n).m2`` lies 2/3 below this value with
    the ceiling dropped, so below this one too, and it is not an upper
    bound: an exhaustive scan of n = 6..11 found adjacent-dominator
    witnesses above it at n = 6, 8, 9 and 11 (``G?ffF_``, n = 8, has 12
    edges against 34/3).  The largest adjacent-dominator witness met this
    value at every n = 6..11.
    """
    if n < 6:
        raise ValueError("requires n >= 6")
    product = ((n - 1) // 2) * ((n - 2) // 2)
    return n - 1 + product - (-(-2 * (n - 2) // 3))


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
# the extremal families as edge lists: the builders' first recipes, kept as
# the reference that the row-joining builders must reproduce


def reference_bipartite_parts(n: int, gamma: int):
    """The bipartite family's vertex numbering: x's, y's, the b pairs, the
    a pairs, then c_1.. and r_1.. in order."""
    dx = gamma // 2
    dy = gamma - dx
    c_count = min(n - 3 * gamma, 2 * dy - dx + 1)
    xs = list(range(dx))
    ys = list(range(dx, gamma))
    bs = [(gamma + 2 * i, gamma + 2 * i + 1) for i in range(dx)]
    a0 = gamma + 2 * dx
    as_ = [(a0 + 2 * j, a0 + 2 * j + 1) for j in range(dy)]
    cs = list(range(3 * gamma, 3 * gamma + c_count))
    rs = list(range(3 * gamma + c_count, n))
    return xs, ys, bs, as_, cs, rs


def reference_bipartite_edge_groups(n: int, gamma: int) -> dict[str, list[tuple[int, int]]]:
    """Edge recipe for the bipartite family, one list per stage."""
    xs, ys, bs, as_, cs, rs = reference_bipartite_parts(n, gamma)
    ally = [a for pair in as_ for a in pair]
    x1 = xs[0]
    y1 = ys[0]

    skeleton = []
    for x, (b1, b2) in zip(xs, bs):
        skeleton += [(x, b1), (x, b2)]
    for y, (a1, a2) in zip(ys, as_):
        skeleton += [(y, a1), (y, a2)]

    # one chosen neighbor of each x becomes adjacent to all of Y
    hub = [(b1, a) for (b1, _) in bs for a in ally]

    c_block = []
    for c in cs:
        c_block.append((x1, c))
        c_block += [(c, a) for a in ally]

    tail = []
    r_prime = rs[0::2]
    r_dprime = rs[1::2]
    x1_side = [b1 for (b1, _) in bs]
    for r in r_prime:
        tail += [(r, c) for c in cs]
        tail += [(r, b) for b in x1_side]
        tail.append((r, y1))
    for r in r_dprime:
        tail += [(r, a) for a in ally]
        tail.append((r, x1))
    tail += [(rp, rd) for rp in r_prime for rd in r_dprime]

    return {"skeleton": skeleton, "hub": hub, "c_block": c_block, "tail": tail}


def reference_bipartite_layout(n: int, gamma: int):
    """(labels, intended dominators, side A) of the bipartite family."""
    xs, ys, bs, as_, cs, rs = reference_bipartite_parts(n, gamma)
    labels = {}
    for i, x in enumerate(xs, start=1):
        labels[x] = f"x{i}"
    for j, y in enumerate(ys, start=1):
        labels[y] = f"y{j}"
    for i, (b1, b2) in enumerate(bs, start=1):
        labels[b1], labels[b2] = f"b{i},1", f"b{i},2"
    for j, (a1, a2) in enumerate(as_, start=1):
        labels[a1], labels[a2] = f"a{j},1", f"a{j},2"
    for k, c in enumerate(cs, start=1):
        labels[c] = f"c{k}"
    for i, r in enumerate(rs, start=1):
        labels[r] = f"r{i}"
    side_a = mask_of(xs) | mask_of(a for pair in as_ for a in pair) | mask_of(rs[0::2])
    return labels, mask_of(xs + ys), side_a


def reference_fischermann_edges(n: int, gamma: int) -> list[tuple[int, int]]:
    """Edge list of the Fischermann family: x_i, a_i, b_i, then r_1.."""
    xs = list(range(gamma))
    as_ = list(range(gamma, 2 * gamma))
    bs = list(range(2 * gamma, 3 * gamma))
    rs = list(range(3 * gamma, n))
    edges = []
    for i in range(gamma):
        edges += [(as_[i], xs[i]), (bs[i], xs[i])]
    edges += [(xs[0], r) for r in rs]
    edges += [(bs[i], as_[j]) for i in range(1, gamma) for j in range(i)]
    edges += [(bs[i], r) for i in range(1, gamma) for r in rs]
    clique = as_ + rs
    edges += [(clique[i], clique[j]) for i in range(len(clique)) for j in range(i)]
    return edges


def reference_fischermann_layout(n: int, gamma: int):
    """(labels, intended dominators) of the Fischermann family."""
    labels = {}
    for name, first in (("x", 0), ("a", gamma), ("b", 2 * gamma)):
        for i in range(gamma):
            labels[first + i] = f"{name}{i + 1}"
    for k, r in enumerate(range(3 * gamma, n), start=1):
        labels[r] = f"r{k}"
    return labels, (1 << gamma) - 1


def reference_star_edges(n: int) -> list[tuple[int, int]]:
    """Edge list of the star K_{1,n-1}: centre 0, leaves 1..n-1."""
    return [(0, v) for v in range(1, n)]


def reference_star_layout(n: int):
    """(labels, intended dominators, side A) of the star."""
    labels = {0: "x1", **{v: f"a{v}" for v in range(1, n)}}
    return labels, 1, 1


# the certificate grid: both families, 2 <= gamma <= 21, 3*gamma <= n <= min(3*gamma + 10, 64)
FAMILY_GRID = [(n, gamma) for gamma in range(2, 22)
               for n in range(3 * gamma, min(3 * gamma + 10, 64) + 1)]


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
