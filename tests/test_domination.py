import random

import pytest
from hypothesis import given, settings

try:
    import networkx as nx
except ImportError:  # test-only oracle input
    nx = None

from unidom import (
    bit_list,
    check_epn_condition,
    closed_neighborhoods_disjoint,
    domination_number,
    enumerate_minimum_dominating_sets,
    exterior_private_neighbors,
    from_edge_list,
    is_dominating,
    is_perfectly_dominated,
    is_umd,
    mask_of,
    parse_graph6,
)
from unidom.construct import construct_bipartite, construct_fischermann
from unidom.domination import (
    _branch_step,
    _enumerate_covers,
    _exists_cover,
    _last_picks,
    _minimum_covers,
    _packing_size,
    closed_neighborhoods,
)

from conftest import (
    assert_unique_domination_theory,
    graphs,
    naive_domination_number,
    naive_minimum_dominating_sets,
    random_graph,
)


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def star(n):
    return from_edge_list(n, [(0, v) for v in range(1, n)])


class TestIsDominating:
    def test_p3_center(self):
        assert is_dominating(path(3), mask_of([1]))

    def test_p3_leaf(self):
        assert not is_dominating(path(3), mask_of([0]))

    def test_reference_graph(self, reference_10_3):
        # x1, y1, y2 sit at indices 0, 1, 2
        assert is_dominating(reference_10_3, mask_of([0, 1, 2]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            is_dominating(path(3), 1 << 5)


class TestDominationNumber:
    def test_p3(self):
        assert domination_number(path(3)) == 1

    def test_c6(self):
        assert domination_number(cycle(6)) == 2

    def test_reference_graph(self, reference_10_3):
        assert domination_number(reference_10_3) == 3

    def test_edgeless(self):
        assert domination_number(from_edge_list(4, [])) == 4

    def test_empty_graph(self):
        assert domination_number(from_edge_list(0, [])) == 0

    def test_degree_bound_above_packing(self):
        # K_{3,3}: every two closed neighborhoods meet, so the packing is 1,
        # while ceil(n / (Delta + 1)) = 2 is the start, and gamma itself
        g = from_edge_list(6, [(a, b) for a in range(3) for b in range(3, 6)])
        assert _packing_size(closed_neighborhoods(g)) == 1
        assert domination_number(g) == 2

    @given(graphs(max_n=8))
    @settings(max_examples=120)
    def test_matches_naive_oracle(self, g):
        assert domination_number(g) == naive_domination_number(g)


class TestEnumerateMinimumSets:
    def test_p3(self):
        assert enumerate_minimum_dominating_sets(path(3)) == [mask_of([1])]

    def test_p4_all_four(self):
        # brute force over the 2-subsets of a path confirms exactly these
        expected = sorted(
            mask_of(s) for s in [(0, 2), (0, 3), (1, 2), (1, 3)]
        )
        assert enumerate_minimum_dominating_sets(path(4)) == expected

    def test_reference_graph_unique(self, reference_10_3):
        assert enumerate_minimum_dominating_sets(reference_10_3) == [mask_of([0, 1, 2])]

    def test_cap_stops_early(self):
        sets = enumerate_minimum_dominating_sets(cycle(4), cap=2)
        assert len(sets) == 2

    def test_cap_below_two_rejected(self):
        with pytest.raises(ValueError):
            enumerate_minimum_dominating_sets(path(3), cap=1)

    def test_c4_has_six(self):
        assert len(enumerate_minimum_dominating_sets(cycle(4))) == 6

    @given(graphs(max_n=8))
    @settings(max_examples=80)
    def test_full_enumeration_matches_naive(self, g):
        assert enumerate_minimum_dominating_sets(g) == naive_minimum_dominating_sets(g)


class TestExteriorPrivateNeighbors:
    def test_p3_center(self):
        assert exterior_private_neighbors(path(3), 1, mask_of([1])) == mask_of([0, 2])

    def test_reference_graph_x1(self, reference_10_3):
        # indices: b11=3, b12=4, c1=9
        d = mask_of([0, 1, 2])
        assert exterior_private_neighbors(reference_10_3, 0, d) == mask_of([3, 4, 9])

    def test_reference_graph_y1(self, reference_10_3):
        # indices: a11=5, a12=6
        d = mask_of([0, 1, 2])
        assert exterior_private_neighbors(reference_10_3, 1, d) == mask_of([5, 6])

    def test_vertex_outside_set_rejected(self):
        with pytest.raises(ValueError):
            exterior_private_neighbors(path(3), 0, mask_of([1]))

    @pytest.mark.parametrize("v, s", [(5, mask_of([1, 5])), (1, mask_of([1, 7]))])
    def test_set_outside_graph_rejected(self, v, s):
        with pytest.raises(ValueError, match="set contains vertices outside the graph"):
            exterior_private_neighbors(path(3), v, s)

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="vertex -1 is not in the set"):
            exterior_private_neighbors(path(3), -1, mask_of([1]))


class TestEpnCondition:
    def test_reference_graph(self, reference_10_3):
        assert check_epn_condition(reference_10_3, mask_of([0, 1, 2]))

    def test_p4_fails(self):
        assert not check_epn_condition(path(4), mask_of([1, 2]))

    def test_star(self):
        assert check_epn_condition(star(5), mask_of([0]))

    def test_non_dominating_rejected(self):
        with pytest.raises(ValueError):
            check_epn_condition(path(4), mask_of([0]))


class TestPerfectDomination:
    def test_p3(self):
        assert is_perfectly_dominated(path(3), mask_of([1]))

    def test_reference_graph(self, reference_10_3):
        assert is_perfectly_dominated(reference_10_3, mask_of([0, 1, 2]))

    def test_adjacent_dominators(self):
        assert not is_perfectly_dominated(cycle(4), mask_of([0, 1]))

    def test_non_minimum_rejected(self):
        with pytest.raises(ValueError):
            is_perfectly_dominated(path(3), mask_of([0, 2]))

    @given(graphs(max_n=9))
    @settings(max_examples=80)
    def test_formulations_agree(self, g):
        # is_perfectly_dominated raises internally if its two tests disagree
        for d in enumerate_minimum_dominating_sets(g):
            is_perfectly_dominated(g, d)


class TestClosedNeighborhoodsDisjoint:
    def test_two_path_centers(self):
        g = from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert closed_neighborhoods_disjoint(g, mask_of([1, 4]))

    def test_c4_antipodal(self):
        assert not closed_neighborhoods_disjoint(cycle(4), mask_of([0, 2]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="set contains vertices outside the graph"):
            closed_neighborhoods_disjoint(path(3), 1 << 5)

    @given(graphs(max_n=9))
    @settings(max_examples=80)
    def test_implies_lower_bound(self, g):
        # a set with pairwise disjoint closed neighborhoods forces gamma >= |d|
        rng = random.Random(g.size() * 31 + g.n)
        verts = list(range(g.n))
        rng.shuffle(verts)
        d = 0
        seen = 0
        for v in verts:
            nb = g.adj[v] | (1 << v)
            if not nb & seen:
                d |= 1 << v
                seen |= nb
        assert closed_neighborhoods_disjoint(g, d)
        assert domination_number(g) >= d.bit_count()


class TestIsUmd:
    def test_p3(self):
        rep = is_umd(path(3))
        assert rep.unique and rep.min_sets == [mask_of([1])]
        assert rep.perfectly_dominated

    def test_c4_not_unique(self):
        rep = is_umd(cycle(4))
        assert rep.gamma == 2 and not rep.unique
        assert rep.epn_by_dominator == {}
        assert not rep.perfectly_dominated

    def test_star(self):
        rep = is_umd(star(6))
        assert rep.unique and rep.gamma == 1

    def test_edgeless_unique_but_degenerate(self):
        # the whole vertex set is the only dominating set; the 3*gamma
        # relation fails exactly because isolated vertices are present
        g = from_edge_list(3, [])
        rep = is_umd(g)
        assert rep.unique and rep.gamma == 3
        assert g.n < 3 * rep.gamma

    def test_json_shape(self, reference_10_3):
        doc = is_umd(reference_10_3).to_json()
        assert doc["gamma"] == 3
        assert doc["unique"] is True
        assert doc["min_sets"] == [[0, 1, 2]]
        assert doc["perfect"] is True
        assert doc["epn_condition"] is True
        assert doc["epn"]["0"] == [3, 4, 9]

    @given(graphs(min_n=1, max_n=9))
    @settings(max_examples=150)
    def test_unique_implies_theory_properties(self, g):
        rep = is_umd(g)
        if rep.unique and g.isolated_vertices() == 0:
            assert rep.epn_condition_met
            assert_unique_domination_theory(g, rep.gamma, rep.min_sets[0])


class TestSolverOracleSweep:
    def test_random_graphs_across_densities(self):
        rng = random.Random(987654)
        for i in range(60):
            n = rng.randint(1, 10)
            p = 0.1 + 0.8 * (i / 59)
            g = random_graph(rng, n, p)
            assert domination_number(g) == naive_domination_number(g)

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    def test_graph_atlas(self):
        # every graph on up to seven vertices (1,253 of them): the packing
        # and coverage prunes may never lose a minimum dominating set
        for h in nx.graph_atlas_g():
            g = from_edge_list(h.number_of_nodes(), list(h.edges()))
            assert domination_number(g) == naive_domination_number(g)
            assert enumerate_minimum_dominating_sets(g) == naive_minimum_dominating_sets(g)


class TestPackingBound:
    @given(graphs(max_n=10))
    @settings(max_examples=150)
    def test_never_exceeds_gamma(self, g):
        assert _packing_size(closed_neighborhoods(g)) <= domination_number(g)

    def test_equals_gamma_on_constructions(self):
        for gamma in range(2, 9):
            for n in range(3 * gamma, 3 * gamma + 7):
                for builder in (construct_bipartite, construct_fischermann):
                    g, _ = builder(n, gamma)
                    assert _packing_size(closed_neighborhoods(g)) == gamma
                    assert domination_number(g) == gamma


class TestNodeStep:
    """The node step of the cover recursion."""

    def test_packing_cut_without_coverage_cut(self):
        # a star on 0..4 and two isolated vertices: the center covers five of
        # the seven, so two picks pass the coverage bound, but the options of
        # 0, 5 and 6 are pairwise disjoint and need three
        g = from_edge_list(7, [(0, v) for v in range(1, 5)])
        closed = closed_neighborhoods(g)
        assert max(c.bit_count() for c in closed) == 5
        assert _branch_step(closed, g.full_mask, 0, 2) is None
        # with three picks: branch on 5, the first vertex with one option
        assert _branch_step(closed, g.full_mask, 0, 3) == (5, 3, g.full_mask)

    def test_coverage_cut_without_packing_cut(self):
        # P4 6-0-2-3 and P3 1-4-5: no vertex covers more than three of the
        # seven, so two picks fall short, though the packing in bit order
        # (the options of 0, then of 1) is only 2
        g = from_edge_list(7, [(6, 0), (0, 2), (2, 3), (1, 4), (4, 5)])
        closed = closed_neighborhoods(g)
        assert _branch_step(closed, g.full_mask, 0, 2) is None
        assert _branch_step(closed, g.full_mask, 0, 3) == (1, 2, 0b1010111)

    def test_no_option_left(self):
        closed = closed_neighborhoods(path(3))
        # vertex 0 is dominated only by 0 and 1, and both are banned
        assert _branch_step(closed, 0b001, 0b011, 2) is None
        assert _branch_step(closed, 0b001, 0b010, 2) == (0, 1, 0b001)

    def test_banned_options_leave_the_packing(self):
        # P4: the options of 0 and 2 meet in 1; banning 1 separates them
        closed = closed_neighborhoods(path(4))
        assert _branch_step(closed, 0b0101, 0, 2) == (0, 1, 0b0011)
        assert _branch_step(closed, 0b0101, 0b0010, 2) == (0, 2, 0b1101)

    def test_last_picks_within_allowed(self):
        closed = closed_neighborhoods(path(3))
        assert _last_picks(closed, 0b101, 0b111) == 0b010
        assert _last_picks(closed, 0b101, 0b101) == 0
        assert _last_picks(closed, 0b010, 0b101) == 0b101
        assert _last_picks(closed, 0, 0b110) == 0b110


def disjoint_pieces(rng, n, bridges=False):
    """Disjoint union of random connected pieces of two to four vertices,
    optionally joined by one to four random edges."""
    edges = []
    start = 0
    while start < n:
        size = min(rng.randint(2, 4), n - start)
        for v in range(start + 1, start + size):
            edges.append((rng.randrange(start, v), v))  # a spanning tree
        for u in range(start, start + size):
            for v in range(u + 1, start + size):
                if (u, v) not in edges and rng.random() < 0.3:
                    edges.append((u, v))
        start += size
    for _ in range(rng.randint(1, 4) if bridges else 0):
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges.append((u, v))
    return from_edge_list(n, edges)


# cap=2 pairs reported by the solver before the failure memo, the tight
# packing cut and the last-pick intersection existed: (graph6, pair).  The
# pairs agree on the graphs listed here, not on every graph; see
# SHIFTED_PAIRS.
CAPPED_PAIRS = [
    ("H?YCE_A", [[0, 2, 6, 7], [0, 2, 7, 8]]),
    ("LS?@?@?QOG@OGG", [[0, 5, 6, 8, 9], [0, 5, 7, 8, 11]]),
    ("L??G?eG?CAAwc@", [[0, 1, 2, 4, 7, 9], [1, 2, 4, 7, 9, 12]]),
    ("JBc?CQ@BFR_", [[0, 3, 5, 6], [1, 5, 6, 10]]),
    ("J_??__ADH??", [[0, 2, 3, 4, 9], [0, 3, 4, 9, 10]]),
    ("JW_?OgEG?O_", [[2, 3, 4, 5], [2, 3, 4, 8]]),
    ("J??oCWaEMG?", [[1, 3, 7, 8], [1, 5, 7, 8]]),
    ("GDgW?_", [[0, 1, 3, 6], [1, 2, 3, 6]]),
    ("G_?b_S", [[0, 2, 3, 4], [0, 3, 4, 5]]),
    ("KE?`OSIc??CT", [[2, 3, 4, 10], [2, 3, 6, 10]]),
    ("JCoO?AJ?E??", [[1, 2, 3, 8, 9], [2, 3, 8, 9, 10]]),
    ("L??_??GDC?`_GG", [[0, 1, 2, 3, 4, 6, 7], [0, 1, 3, 5, 6, 7, 8]]),
    ("IOQG@O?C?", [[0, 3, 4, 6, 8], [2, 3, 4, 6, 8]]),
    ("LOGDC?W?kC?_xa", [[0, 1, 5, 8], [0, 1, 8, 11]]),
    ("LCD@OoK?KAE?Oo", [[0, 2, 8, 12], [0, 8, 11, 12]]),
    ("HE?pDY?", [[0, 1, 2, 4], [1, 2, 4, 8]]),
    ("KGOi@o`a??EL", [[0, 1, 2, 11], [0, 1, 4, 11]]),
    ("IIO?`QW@?", [[0, 3, 5, 7], [0, 3, 7, 9]]),
    ("J@_OG_a[OB?", [[0, 1, 3, 8], [0, 3, 8, 9]]),
    ("Ko_HouOQC?C`", [[0, 2, 3, 4], [0, 3, 4, 5]]),
]


# graphs whose cap=2 pair the tight-packing cut changes: (graph6, the pair
# reported now, the uncapped list).  Before the shortcuts the pairs were
# [[0, 1, 7], [0, 2, 7]] and [[0, 2, 7], [0, 3, 7]].
SHIFTED_PAIRS = [
    ("J?@bRqOoF??", [[0, 1, 7], [1, 7, 8]],
     [[0, 1, 7], [0, 2, 7], [1, 6, 8], [1, 7, 8]]),
    ("J??prq_kE??", [[0, 2, 7], [2, 7, 10]],
     [[0, 2, 7], [0, 3, 7], [2, 6, 10], [2, 7, 10]]),
]


# graphs on which one residual problem recurs with a different number of
# picks left
RECURRING_STATES = ["JgCOO@@C??_", "JgCO?C@?gG?", "KgCOgW??G@?A", "Kl?GG?@?O?_G"]


class TestEnumerationShortcuts:
    """The failure memo, the tight-packing cut and the last-pick
    intersection in ``_exists_cover`` must not lose a minimum set.  The
    pair a capped run reports is pinned, but it is not the plain branching's
    on every graph."""

    def test_seeded_sweep_matches_naive(self):
        # gamma >= 4 on most of these graphs, so the memo (which keys states
        # with three or more picks left) is active
        rng = random.Random(8128)
        deep = 0
        for i in range(1000):
            n = rng.randint(6, 13)
            if i % 3 == 0:
                g = random_graph(rng, n, rng.choice([0.1, 0.15, 0.2, 0.3]))
            else:
                g = disjoint_pieces(rng, n, bridges=i % 3 == 2)
            expected = naive_minimum_dominating_sets(g)
            assert enumerate_minimum_dominating_sets(g) == expected, g.adj
            deep += expected[0].bit_count() >= 4
        assert deep > 500

    @pytest.mark.parametrize("g6", RECURRING_STATES)
    def test_state_recurring_with_other_picks_left(self, g6):
        # one residual problem is met again with a different number of picks
        # left; a memo key without ``remaining`` loses every minimum set here
        g = parse_graph6(g6)
        assert enumerate_minimum_dominating_sets(g) == naive_minimum_dominating_sets(g)

    @pytest.mark.parametrize("g6, pair", CAPPED_PAIRS)
    def test_capped_pair_unchanged(self, g6, pair):
        g = parse_graph6(g6)
        assert [bit_list(s) for s in enumerate_minimum_dominating_sets(g, cap=2)] == pair
        assert len(naive_minimum_dominating_sets(g)) > 2

    @pytest.mark.parametrize("g6, pair, full", SHIFTED_PAIRS)
    def test_capped_pair_within_full_list(self, g6, pair, full):
        g = parse_graph6(g6)
        capped = [bit_list(s) for s in enumerate_minimum_dominating_sets(g, cap=2)]
        assert [bit_list(s) for s in enumerate_minimum_dominating_sets(g)] == full
        assert [bit_list(s) for s in naive_minimum_dominating_sets(g)] == full
        assert all(s in full for s in capped)
        assert capped == pair


class TestCoverRecursion:
    """``_exists_cover`` answers "a cover of at most k picks", with the
    enumeration's banning, tight-packing cut and memo, for every k, and
    ``_enumerate_covers`` collects the covers of at most ``size`` picks: the
    search's one cap-2 collection at gamma relies on the size > gamma side."""

    @staticmethod
    def assert_exists_matches_naive(g):
        closed, gamma = closed_neighborhoods(g), naive_domination_number(g)
        for k in range(g.n + 1):
            assert _exists_cover(closed, g.full_mask, k) == (gamma <= k), (g.adj, k)

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    def test_graph_atlas(self):
        for h in nx.graph_atlas_g():
            self.assert_exists_matches_naive(
                from_edge_list(h.number_of_nodes(), list(h.edges())))

    def test_seeded_sweep(self):
        # a failing search at k = gamma - 1 >= 4 keys states in its memo
        rng = random.Random(4096)
        deep = 0
        for i in range(300):
            n = rng.randint(0, 14)
            if i % 2:
                g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5]))
            else:
                g = disjoint_pieces(rng, n, bridges=i % 4 == 1) if n >= 6 else path(n)
            self.assert_exists_matches_naive(g)
            deep += naive_domination_number(g) >= 5
        assert deep > 50

    @pytest.mark.parametrize("g6", RECURRING_STATES)
    def test_state_recurring_with_other_picks_left(self, g6):
        # a memo key without the picks left answers False at k = gamma here
        self.assert_exists_matches_naive(parse_graph6(g6))

    @staticmethod
    def assert_covers_of_at_most(g, size):
        closed = closed_neighborhoods(g)
        sets = _enumerate_covers(closed, g.full_mask, size)
        assert len(set(sets)) == len(sets)
        assert all(is_dominating(g, s) and s.bit_count() <= size for s in sets)
        gamma = naive_domination_number(g)
        assert min(s.bit_count() for s in sets) == gamma
        assert [s for s in sets if s.bit_count() == gamma] == naive_minimum_dominating_sets(g)
        # a capped run is the uncapped one stopped at the cap
        capped = _enumerate_covers(closed, g.full_mask, size, cap=2)
        assert len(capped) == min(2, len(sets)) and set(capped) <= set(sets)

    @pytest.mark.parametrize("g, size", [(path(3), 2), (cycle(6), 3), (cycle(6), 5),
                                         (star(5), 4)])
    def test_size_above_gamma_raises(self, g, size):
        self.assert_covers_of_at_most(g, size)

    def test_size_above_gamma_raises_on_sweep(self):
        rng = random.Random(77)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 12), rng.choice([0.1, 0.3, 0.5]))
            size = naive_domination_number(g) + rng.randint(1, 2)
            if size <= g.n:
                self.assert_covers_of_at_most(g, size)

    @staticmethod
    def assert_witness_test_matches_naive(g):
        # the search's per-matrix test: one cap-2 collection at each gamma
        closed = closed_neighborhoods(g)
        gamma = naive_domination_number(g)
        unique = len(naive_minimum_dominating_sets(g)) == 1
        for k in range(2, g.n + 1):
            sets = _enumerate_covers(closed, g.full_mask, k, cap=2)
            witness = len(sets) == 1 and sets[0].bit_count() == k
            assert witness == (gamma == k and unique), (g.adj, k)
        return unique and gamma >= 2

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    def test_witness_test_on_graph_atlas(self):
        witnesses = sum(
            self.assert_witness_test_matches_naive(
                from_edge_list(h.number_of_nodes(), list(h.edges())))
            for h in nx.graph_atlas_g())
        assert witnesses > 50

    def test_witness_test_on_seeded_sweep(self):
        rng = random.Random(2718)
        witnesses = 0
        for i in range(240):
            n = rng.randint(2, 14)
            if i % 3 == 0:
                g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.3, 0.5]))
            elif i % 3 == 1:
                g = disjoint_pieces(rng, n, bridges=i % 2 == 0)
            else:
                # two pendant leaves on each of m vertices make those m the
                # unique minimum set; random extra edges may break that
                m = n // 3
                edges = [(v, m + 2 * v + j) for v in range(m) for j in (0, 1)]
                edges += [(u, v) for u in range(3 * m) for v in range(u + 1, 3 * m)
                          if (u, v) not in edges and rng.random() < 0.08]
                g = from_edge_list(3 * m, edges)
            witnesses += self.assert_witness_test_matches_naive(g)
        assert witnesses > 40

    def test_minimum_covers_rejects_a_set_below_its_level(self, monkeypatch):
        # the deepening starts P4 at k = 2, so a one-vertex cover there means
        # a wrong bound or a cover a lower level missed
        monkeypatch.setattr("unidom.domination._enumerate_covers", lambda *args: [0b10])
        g = path(4)
        with pytest.raises(AssertionError, match="missed a cover"):
            _minimum_covers(closed_neighborhoods(g), g.full_mask, None)
