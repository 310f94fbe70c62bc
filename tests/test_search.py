from math import comb

import pytest

from unidom import (
    are_isomorphic,
    construct_bipartite,
    count_extremal_witnesses,
    domination_number,
    find_bipartition,
    is_umd,
    max_umd_bipartite_size,
    parse_graph6,
    verify_forest_lemma,
)


def _reduced_space_size(n):
    # every k x (n-k) cross-edge mask for each small side k <= n/2
    return sum(1 << (k * (n - k)) for k in range(n // 2 + 1))


class TestMaxSearch:
    def test_n6_gamma2(self):
        result = max_umd_bipartite_size(6, 2)
        assert result.max_size == 6
        assert result.complete

    def test_n7_gamma2(self):
        result = max_umd_bipartite_size(7, 2)
        assert result.max_size == 9
        assert result.complete

    def test_n8_gamma2(self):
        result = max_umd_bipartite_size(8, 2)
        assert result.max_size == 12
        assert result.complete

    def test_witnesses_reverify(self):
        # every reported witness must independently check out end to end
        result = max_umd_bipartite_size(7, 2)
        assert result.witnesses
        for g6 in result.witnesses:
            g = parse_graph6(g6)
            assert g.n == 7
            assert g.size() == result.max_size
            assert g.isolated_vertices() == 0
            assert find_bipartition(g) is not None
            report = is_umd(g)
            assert report.unique and report.gamma == 2

    def test_witnesses_pairwise_nonisomorphic(self):
        result = max_umd_bipartite_size(8, 2)
        gs = [parse_graph6(w) for w in result.witnesses]
        for i in range(len(gs)):
            for j in range(i + 1, len(gs)):
                assert not are_isomorphic(gs[i], gs[j])

    def test_bookkeeping_matches_reduced_space(self):
        result = max_umd_bipartite_size(6, 2)
        assert result.graphs_scanned == _reduced_space_size(6) == 801

    def test_max_only_mode_agrees(self):
        fast = max_umd_bipartite_size(7, 2, collect_witnesses=False)
        assert fast.max_size == 9
        assert fast.complete
        assert fast.graphs_scanned == _reduced_space_size(7)

    def test_budget_zero_truncates(self):
        result = max_umd_bipartite_size(8, 2, budget=0.0)
        assert not result.complete

    def test_no_witness_possible(self):
        # gamma = 3 needs n >= 9 when no vertex is isolated
        result = max_umd_bipartite_size(7, 3)
        assert result.max_size is None
        assert result.witnesses == []
        assert result.complete

    def test_rejects_over_cap(self):
        with pytest.raises(ValueError):
            max_umd_bipartite_size(11, 2)
        with pytest.raises(ValueError):
            max_umd_bipartite_size(8, 1)

    def test_matching_construction_is_extremal(self):
        # the built family member realizes exactly the searched maximum
        result = max_umd_bipartite_size(7, 2)
        g, _ = construct_bipartite(7, 2)
        assert g.size() == result.max_size
        assert any(are_isomorphic(g, parse_graph6(w)) for w in result.witnesses)


class TestWitnessCount:
    def test_6_2_6_contains_construction(self):
        outcome = count_extremal_witnesses(6, 2, 6)
        assert outcome.complete
        assert outcome.count >= 1
        g, _ = construct_bipartite(6, 2)
        assert any(are_isomorphic(g, parse_graph6(w)) for w in outcome.witnesses)

    def test_6_2_7_empty(self):
        outcome = count_extremal_witnesses(6, 2, 7)
        assert outcome.complete
        assert outcome.count == 0

    def test_count_matches_witness_list(self):
        outcome = count_extremal_witnesses(7, 2, 9)
        assert outcome.count == len(outcome.witnesses)
        assert outcome.count >= 1
        # coverage: every mask of the size-9 block of each side size
        assert outcome.graphs_scanned == sum(comb(k * (7 - k), 9) for k in range(4))

    def test_budget_zero_truncates(self):
        outcome = count_extremal_witnesses(8, 2, 12, budget=0.0)
        assert not outcome.complete


class TestForestLemma:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_holds(self, n):
        assert verify_forest_lemma(n)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            verify_forest_lemma(8)


class TestSearchInternals:
    def test_every_max_witness_has_expected_gamma(self):
        result = max_umd_bipartite_size(6, 2)
        for g6 in result.witnesses:
            assert domination_number(parse_graph6(g6)) == 2

    def test_progress_called(self):
        calls = []
        max_umd_bipartite_size(6, 2, progress=lambda scanned, best: calls.append((scanned, best)))
        assert calls
        assert calls[-1][0] == _reduced_space_size(6)
