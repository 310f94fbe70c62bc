import math
from fractions import Fraction
from itertools import combinations

import pytest

from unidom import (
    bipartite_bound,
    bit_list,
    find_bipartition,
    fischermann_bound,
    is_umd,
    mask_of,
    n3g_bound,
    parse_graph6,
    phi,
    star_bound,
    vizing_bound,
)
from unidom.search import _scan_block

from conftest import (
    bipartite_bound_gamma2,
    gamma2_case_bounds,
    gamma2_m2_strict,
    milp_unique,
    min_forest_edges,
    needs_milp,
    tau,
)
from test_search import _graph, _unreduced_scan

try:
    import networkx as nx
except ImportError:  # test-only cross-oracle
    nx = None


def brute_dominating_sets(h, most):
    """Every dominating set of at most ``most`` vertices of the networkx
    graph ``h``, by trying each vertex subset."""
    closed = {v: {v, *h[v]} for v in h}
    return [set(picks) for size in range(most + 1) for picks in combinations(sorted(h), size)
            if set().union(*(closed[v] for v in picks)) == set(h)]


def _placements(g, d):
    """Where the two vertices of the unique dominating set ``d`` of ``g``
    sit.  Two dominators in different components have both non-adjacent
    placements, since a component's coloring can be flipped."""
    u, v = bit_list(d)
    if g.has_edge(u, v):
        return {"adjacent"}
    reach, grown = 1 << u, 0
    while reach != grown:
        grown = reach
        for w in bit_list(grown):
            reach |= g.adj[w]
    if not (reach >> v) & 1:
        return {"same side", "opposite, non-adjacent"}
    side = find_bipartition(g)
    return {"same side" if (side >> u) & 1 == (side >> v) & 1 else "opposite, non-adjacent"}


def gamma2_placement_maxima(n):
    """The most edges of a bipartite order-n witness at gamma = 2 for each
    placement of its two dominators: every block of each level, from the
    densest down, until all three placements have been seen."""
    maxima = {}
    for s in range((n // 2) * (n - n // 2), -1, -1):
        for k in range(n // 2 + 1):
            if s > k * (n - k):
                continue
            found, _, _ = _scan_block(n, k, s, 2, stop_on_first=False, deadline=None)
            for g in found:
                report = is_umd(g)
                assert report.unique and report.gamma == 2
                for placement in _placements(g, report.min_sets[0]):
                    maxima.setdefault(placement, s)
        if len(maxima) == 3:
            return maxima
    raise AssertionError(f"only {sorted(maxima)} seen at n = {n}")


def bipartite_bound_by_terms(n, gamma):
    """The paper's three-part formula for m(n, gamma), the overflow tail
    summed term by term: a base of 2*gamma + 2*ceil(g/2)*floor(g/2), a
    middle block of up to 2*ceil(g/2) - floor(g/2) + 1 vertices with
    2*ceil(g/2) + 1 edges each, and an i-th overflow vertex with
    2*ceil(g/2) + 1 + ceil(i/2) edges."""
    up, down = math.ceil(gamma / 2), math.floor(gamma / 2)
    capacity = 2 * up - down + 1
    base = 2 * gamma + 2 * up * down
    middle = min(n - 3 * gamma, capacity) * (2 * up + 1)
    overflow = max(0, n - 3 * gamma - capacity)
    tail = sum(2 * up + 1 + math.ceil(i / 2) for i in range(1, overflow + 1))
    return base + middle + tail


class TestPhi:
    def test_known_values(self):
        assert phi(10, 3) == 0
        assert phi(20, 2) == 12

    def test_zero_at_three_gamma(self):
        for gamma in range(1, 30):
            assert phi(3 * gamma, gamma) == 0

    def test_zero_through_middle_regime(self):
        # phi starts counting only past the capacity of the C stage
        for gamma in range(2, 10):
            cap = 2 * ((gamma + 1) // 2) - gamma // 2 + 1
            assert phi(3 * gamma + cap, gamma) == 0
            assert phi(3 * gamma + cap + 1, gamma) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            phi(0, 1)

    @pytest.mark.parametrize("n, gamma", [(4, 2), (1, 5), (8, 3), (2, 1)])
    def test_rejects_n_below_three_gamma(self, n, gamma):
        # below 3*gamma the first stage does not fit, so there is no tail to count
        with pytest.raises(ValueError, match=r"^requires n >= 3\*gamma$"):
            phi(n, gamma)


class TestBipartiteBound:
    def test_known_values(self):
        assert bipartite_bound(6, 2) == 6
        assert bipartite_bound(7, 2) == 9
        assert bipartite_bound(10, 3) == 15

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            bipartite_bound(5, 2)
        with pytest.raises(ValueError):
            bipartite_bound(10, 1)

    def test_gamma2_closed_form_equivalence(self):
        for n in range(6, 10001):
            assert bipartite_bound(n, 2) == bipartite_bound_gamma2(n)

    def test_folded_tail_matches_summation(self):
        for gamma in range(2, 9):
            for n in range(3 * gamma, 3 * gamma + 120):
                assert bipartite_bound(n, gamma) == bipartite_bound_by_terms(n, gamma)

    def test_n3g_specialization(self):
        for gamma in range(2, 101):
            assert n3g_bound(gamma) == bipartite_bound(3 * gamma, gamma)

    def test_below_fischermann(self):
        for gamma in range(2, 21):
            for n in range(3 * gamma, 3 * gamma + 61):
                assert bipartite_bound(n, gamma) <= fischermann_bound(n, gamma)

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    def test_exceeded_at_13_4(self):
        # the exhaustive (13,4) maximum: one class, one edge above the formula
        h = nx.from_graph6_bytes(b"L???GOooFg^?~?")
        assert h.number_of_nodes() == 13 and nx.is_connected(h)
        assert nx.is_bipartite(h)
        assert sorted(len(side) for side in nx.bipartite.sets(h)) == [6, 7]
        assert brute_dominating_sets(h, 4) == [{4, 5, 8, 9}]
        assert h.number_of_edges() == 22 == bipartite_bound(13, 4) + 1

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    def test_exceeded_at_15_4_when_perfect(self):
        # the (15,4) maximum, found with the search's cap raised: perfectly
        # dominated, and four edges above the formula
        h = nx.from_graph6_bytes(b"N????CKKE?^o~_~_^o?")
        assert h.number_of_nodes() == 15 and nx.is_connected(h)
        assert nx.is_bipartite(h)
        assert sorted(len(side) for side in nx.bipartite.sets(h)) == [7, 8]
        assert min(d for _, d in h.degree()) >= 1
        assert brute_dominating_sets(h, 4) == [{6, 8, 9, 10}]
        # pairwise disjoint closed neighborhoods: their sizes add up to n
        assert sum(len(h[v]) + 1 for v in (6, 8, 9, 10)) == 15
        assert h.number_of_edges() == 35 == bipartite_bound(15, 4) + 4

    @needs_milp
    @pytest.mark.parametrize("line, dominators", [
        ("L???GOooFg^?~?", [4, 5, 8, 9]),
        ("N????CKKE?^o~_~_^o?", [6, 8, 9, 10]),
    ], ids=["13_4", "15_4"])
    def test_counterexamples_agree_with_milp(self, line, dominators):
        g = parse_graph6(line)
        assert milp_unique(g) == (4, mask_of(dominators), True)
        assert is_umd(g).min_sets == [mask_of(dominators)]


class TestGamma2ClosedForm:
    def test_known_values(self):
        assert bipartite_bound_gamma2(8) == 12
        assert bipartite_bound_gamma2(7) == 9
        assert bipartite_bound_gamma2(100) == 2450

    def test_requires_n6(self):
        with pytest.raises(ValueError):
            bipartite_bound_gamma2(5)


class TestStarBound:
    def test_values(self):
        assert star_bound(3) == 2
        assert star_bound(5) == 4

    def test_requires_n3(self):
        with pytest.raises(ValueError):
            star_bound(2)


class TestN3gBound:
    def test_values(self):
        assert n3g_bound(2) == 6
        assert n3g_bound(3) == 10
        assert n3g_bound(4) == 16

    def test_requires_gamma2(self):
        with pytest.raises(ValueError):
            n3g_bound(1)


class TestFischermannBound:
    def test_values(self):
        assert fischermann_bound(6, 2) == 6
        assert fischermann_bound(10, 3) == 18

    def test_expansion_identity(self):
        # closed-form expansion in gamma and the excess r = n - 3*gamma
        for gamma in range(2, 51):
            for r in range(0, 51):
                expanded = Fraction(
                    2 * gamma**2 + 4 * r * gamma + 2 * gamma + r**2 - r, 2
                )
                assert fischermann_bound(3 * gamma + r, gamma) == expanded

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            fischermann_bound(5, 2)
        with pytest.raises(ValueError):
            fischermann_bound(9, 1)


class TestVizingBound:
    def test_integral(self):
        assert vizing_bound(6, 2) == 12
        assert vizing_bound(9, 3) == 24

    def test_non_integral_kept_exact(self):
        v = vizing_bound(10, 3)
        assert v == Fraction(63, 2)
        assert isinstance(v, Fraction)

    def test_requires_gamma2(self):
        with pytest.raises(ValueError):
            vizing_bound(6, 1)

    @pytest.mark.parametrize("n, gamma", [(2, 3), (3, 5), (0, 2)])
    def test_rejects_fewer_vertices_than_gamma(self, n, gamma):
        with pytest.raises(ValueError, match=r"^requires n >= gamma$"):
            vizing_bound(n, gamma)

    def test_edgeless_at_n_equal_gamma(self):
        for gamma in range(2, 10):
            assert vizing_bound(gamma, gamma) == 0


class TestTau:
    def test_examples(self):
        assert tau(9) == 4
        assert tau(4) == 2
        assert tau(1) == 0

    def test_counting_oracle(self):
        for n in range(1, 1001):
            direct = sum(1 for k in range(1, n) if k % 2 != n % 2)
            assert tau(n) == direct

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            tau(0)


class TestMinForestEdges:
    def test_values(self):
        assert min_forest_edges(3) == 2
        assert min_forest_edges(6) == 4
        assert min_forest_edges(7) == 5

    def test_identity(self):
        for n in range(3, 10001):
            assert min_forest_edges(n) == 2 * (n // 3) + n % 3

    def test_requires_n3(self):
        with pytest.raises(ValueError):
            min_forest_edges(2)


class TestGamma2CaseBounds:
    def test_n10(self):
        cb = gamma2_case_bounds(10)
        assert cb.m1 == 12
        assert cb.m2 == 19
        assert cb.m3 == 20

    def test_n8_rational(self):
        cb = gamma2_case_bounds(8)
        assert cb.m1 == 8
        assert cb.m2 == Fraction(34, 3)
        assert cb.m3 == 12

    def test_n6(self):
        assert gamma2_case_bounds(6).m3 == 6

    def test_case_bounds_below_main(self):
        for n in range(6, 10001):
            cb = gamma2_case_bounds(n)
            m = bipartite_bound_gamma2(n)
            assert cb.m1 <= cb.m3
            assert cb.m2 <= cb.m3
            assert cb.m3 == m

    def test_requires_n6(self):
        with pytest.raises(ValueError):
            gamma2_case_bounds(5)

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    def test_adjacent_dominators_above_m2(self):
        # a witness with adjacent unique dominators and more edges than m2
        h = nx.from_graph6_bytes(b"G?ffF_")
        assert h.number_of_nodes() == 8 and nx.is_bipartite(h)
        assert brute_dominating_sets(h, 2) == [{0, 7}]
        assert h.has_edge(0, 7)
        assert h.number_of_edges() == 12 == gamma2_m2_strict(8)
        assert h.number_of_edges() > gamma2_case_bounds(8).m2 == Fraction(34, 3)

    @pytest.mark.parametrize("n, same, adjacent, opposite", [
        (6, 4, 6, 6),
        (7, 6, 8, 9),
        (8, 8, 12, 12),
        (9, 10, 15, 16),
        pytest.param(10, 12, 19, 20, marks=pytest.mark.extended),
        pytest.param(11, 14, 24, 25, marks=pytest.mark.extended),
    ])
    def test_case_maxima_by_placement(self, n, same, adjacent, opposite):
        # measured from the search's own witnesses, the placement of each
        # re-derived from its unique set and a two-coloring
        measured = gamma2_placement_maxima(n)
        assert measured == {"same side": same, "adjacent": adjacent,
                            "opposite, non-adjacent": opposite}
        cb = gamma2_case_bounds(n)
        assert cb.m1 == same and cb.m3 == opposite
        assert gamma2_m2_strict(n) == adjacent

    @pytest.mark.parametrize("n, same, adjacent, opposite", [
        (6, 4, 6, 6),
        (7, 6, 8, 9),
        (8, 8, 12, 12),
    ])
    def test_case_maxima_in_the_unreduced_scan(self, n, same, adjacent, opposite):
        # the same maxima from every labeled cross-edge matrix, with no
        # symmetry breaking and no prefix cut
        maxima = {}
        for s, (_, witnesses) in sorted(_unreduced_scan(n, 2).items(), reverse=True):
            for k, rows in witnesses:
                g = _graph(n, k, rows)
                report = is_umd(g)
                assert report.unique and report.gamma == 2
                for placement in _placements(g, report.min_sets[0]):
                    maxima.setdefault(placement, s)
        assert maxima == {"same side": same, "adjacent": adjacent,
                          "opposite, non-adjacent": opposite}

    def test_strict_variant_at_most_dropped_form(self):
        for n in range(6, 200):
            dropped = (
                n - 1 + ((n - 1) // 2) * ((n - 2) // 2) - Fraction(2 * (n - 2), 3)
            )
            assert gamma2_m2_strict(n) <= dropped
