import random
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, permutations
from math import comb, factorial, gcd
from types import SimpleNamespace

import pytest

from unidom import (
    Graph,
    are_isomorphic,
    bipartite_bound,
    construct_bipartite,
    count_extremal_witnesses,
    domination_number,
    find_bipartition,
    is_umd,
    max_umd_bipartite_size,
    n3g_bound,
    parse_graph6,
)
from unidom.domination import _enumerate_covers
from unidom.graph import _match, _refine, emit_graph6, from_edge_list
from unidom import search
from unidom.search import _double_lex_matrices, _merge_classes, _scan_block

from conftest import milp_unique, needs_milp, verify_forest_lemma

try:
    import networkx as nx
except ImportError:  # test-only cross-oracle
    nx = None


def _reduced_space_size(n):
    # every k x (n-k) cross-edge mask for each small side k <= n/2
    return sum(1 << (k * (n - k)) for k in range(n // 2 + 1))


# ---------------------------------------------------------------------------
# biadjacency matrices: k rows, each a q-bit int whose bit j is column j


def _labeled_matrices(k, q, s):
    """Every k x q 0/1 matrix with exactly s ones, unreduced."""
    for cells in combinations(range(k * q), s):
        rows = [0] * k
        for cell in cells:
            rows[cell // q] |= 1 << (cell % q)
        yield tuple(rows)


def _isolate_free(rows, q):
    col_or = 0
    for r in rows:
        col_or |= r
    return 0 not in rows and col_or == (1 << q) - 1


def _transpose(rows, q):
    return tuple(sum((r >> j & 1) << i for i, r in enumerate(rows)) for j in range(q))


def _is_double_lex(rows, q):
    cols = [tuple(r >> j & 1 for r in rows) for j in range(q)]
    return (all(a >= b for a, b in zip(rows, rows[1:]))
            and all(a <= b for a, b in zip(cols, cols[1:])))


def _canonical(rows, q):
    # least sorted row tuple over every column permutation
    return min(
        tuple(sorted(sum((r >> p[j] & 1) << j for j in range(q)) for r in rows))
        for p in permutations(range(q))
    )


def _graph(n, k, rows):
    cols = _transpose(rows, n - k)
    return Graph(n, tuple(rows[v] << k if v < k else cols[v - k] for v in range(n)))


def _walk(k, q, s):
    """The walk's matrices at gamma = 2, where it cuts no prefix, each read
    back from its closed neighborhoods as a row tuple."""
    return [tuple(c >> k for c in closed[:k]) for closed in _double_lex_matrices(k, q, s, 2)]


# ---------------------------------------------------------------------------
# unreduced oracle: the search as it was before symmetry breaking


def _unreduced_scan_block(n, k, s, gamma):
    """Every k x (n-k) cross-edge mask with exactly s edges, filtered like
    the search.  Returns (witness matrices as (k, rows), masks visited)."""
    q = n - k
    full = (1 << n) - 1
    found = []
    visited = 0
    for rows in _labeled_matrices(k, q, s):
        visited += 1
        if not _isolate_free(rows, q):
            continue
        cols = _transpose(rows, q)
        closed = [(rows[i] << k) | (1 << i) for i in range(k)]
        closed += [cols[j] | (1 << (k + j)) for j in range(q)]
        if _enumerate_covers(closed, full, gamma - 1, cap=1):
            continue
        if len(_enumerate_covers(closed, full, gamma, cap=2)) != 1:
            continue
        found.append((k, rows))
    return found, visited


def _reference_double_lex(k, q, s, leftovers=None):
    """The double-lex generator as first written: one recursion level per
    row, tables rebuilt per call.  ``leftovers``, when given, collects the
    ones left for each last row the recursion reaches."""
    if k == 0 or not k <= s <= k * q:
        return
    weight = [r.bit_count() for r in range(1 << q)]
    most = list(accumulate(weight, max))
    rows = [0] * k

    def extend(i, prev, tied, left, cols):
        if i == k:
            if left == 0 and cols & 1:
                yield tuple(rows)
            return
        if leftovers is not None and i == k - 1:
            leftovers.append(left)
        rows_left = k - i
        for r in range(prev, 0, -1):
            if left > rows_left * most[r]:
                break
            if r & ~(r >> 1) & tied:
                continue
            rest = left - weight[r]
            if rest < rows_left - 1:
                continue
            rows[i] = r
            yield from extend(i + 1, r, tied & ~(r ^ (r >> 1)), rest, cols | r)

    yield from extend(0, (1 << q) - 1, (1 << (q - 1)) - 1, s, 0)


def _keeps_lex_leader_rules(rows):
    """No row is heavier than row 0, and no row below row 1 ranks above row 1,
    a row's rank being (its ones inside row 0, its ones outside) compared
    lexicographically."""
    top = rows[0]

    def rank(r):
        return (r & top).bit_count(), (r & ~top).bit_count()

    return (all(r.bit_count() <= top.bit_count() for r in rows)
            and all(rank(r) <= rank(rows[1]) for r in rows[2:]))


def _reference_walk(k, q, s, leftovers=None):
    """The reference double-lex sequence, restricted to the matrices that keep
    both lex-leader rules: what the walk yields at gamma = 2."""
    return [rows for rows in _reference_double_lex(k, q, s, leftovers)
            if _keeps_lex_leader_rules(rows)]


def _lex_max(rows, q):
    # the largest row tuple over every column permutation, rows sorted down
    return max(tuple(sorted((table[r] for r in rows), reverse=True))
               for table in _bit_permutations(q))


# ---------------------------------------------------------------------------
# orbit count: S_k x S_q orbits of k x q matrices, by Burnside's lemma


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for p in range(min(n, largest), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def _class_size(parts):
    # permutations of sum(parts) points whose cycle lengths are ``parts``
    z = 1
    for length, mult in Counter(parts).items():
        z *= length ** mult * factorial(mult)
    return factorial(sum(parts)) // z


@lru_cache(maxsize=None)
def _orbits_by_ones(k, q):
    """Entry s: the orbits of k x q 0/1 matrices with s ones under row and
    column permutations, zero rows and columns allowed.

    A row cycle of length a and a column cycle of length b split the cells
    they cross into gcd(a, b) cycles of length lcm(a, b); a fixed matrix is
    constant on each cell cycle, so the fixed matrices of one permutation
    pair are counted by the product of (1 + x^lcm)^gcd."""
    total = [0] * (k * q + 1)
    for lam in _partitions(k):
        for mu in _partitions(q):
            poly = [1]
            for a in lam:
                for b in mu:
                    length = a * b // gcd(a, b)
                    for _ in range(gcd(a, b)):
                        poly = [c + (poly[i - length] if i >= length else 0)
                                for i, c in enumerate(poly + [0] * length)]
            weight = _class_size(lam) * _class_size(mu)
            for s, c in enumerate(poly):
                total[s] += weight * c
    group = factorial(k) * factorial(q)
    assert all(t % group == 0 for t in total)
    return [t // group for t in total]


def _isolate_free_orbits(k, q, s):
    """Orbits with no zero row or column.  An orbit with i zero rows and j
    zero columns is one of a (k-i) x (q-j) isolate-free orbit, so the counts
    with zeros allowed are 2D prefix sums of these; difference them."""
    def with_zeros(a, b):
        if a < 0 or b < 0:
            return 0
        by_ones = _orbits_by_ones(a, b)
        return by_ones[s] if s < len(by_ones) else 0
    return (with_zeros(k, q) - with_zeros(k - 1, q) - with_zeros(k, q - 1)
            + with_zeros(k - 1, q - 1))


@lru_cache(maxsize=None)
def _bit_permutations(k):
    # each permutation of k bit positions, tabled over every k-bit value
    return [[sum((c >> p[j] & 1) << j for j in range(k)) for c in range(1 << k)]
            for p in permutations(range(k))]


def _row_canonical(rows, q):
    # _canonical of the transpose: every permutation of the k rows applied
    # to each column, the columns sorted
    cols = _transpose(rows, q)
    return min(tuple(sorted(table[c] for c in cols)) for table in _bit_permutations(len(rows)))


@lru_cache(maxsize=None)
def _unreduced_scan(n, gamma):
    """{size: (masks scanned, witness matrices)} over every side k <= n/2."""
    out = {}
    for s in range(n // 2 * (n - n // 2) + 1):
        scanned, witnesses = 0, []
        for k in range(n // 2 + 1):
            if s <= k * (n - k):
                found, visited = _unreduced_scan_block(n, k, s, gamma)
                scanned += visited
                witnesses += found
        out[s] = (scanned, witnesses)
    return out


def _nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _nx_isomorphic(g, h):
    return nx.is_isomorphic(_nx_graph(g), _nx_graph(h))


def _oracle_classes(n, matrices):
    """One graph per isomorphism class of the witness matrices: merged first
    by their form under row and column permutations, then with networkx
    inside buckets of a degree invariant."""
    forms = {}
    for k, rows in matrices:
        # permute the k <= n-k rows, sort the columns
        form = _canonical(_transpose(rows, n - k), k)
        forms.setdefault((k, form), (k, rows))
    buckets = {}
    classes = []
    for k, rows in forms.values():
        g = _graph(n, k, rows)
        h = _nx_graph(g)
        key = tuple(sorted((h.degree(v), tuple(sorted(h.degree(u) for u in h[v])))
                           for v in h))
        reps = buckets.setdefault(key, [])
        if not any(nx.is_isomorphic(h, rep) for rep in reps):
            reps.append(h)
            classes.append(g)
    return classes


def _assert_same_classes(ours, theirs):
    # a one-to-one match under both isomorphism tests
    assert len(ours) == len(theirs)
    for iso in (are_isomorphic, _nx_isomorphic):
        match = [[iso(a, b) for b in theirs] for a in ours]
        assert all(row.count(True) == 1 for row in match)
        assert all(col.count(True) == 1 for col in zip(*match))


ORACLE_CASES = [(n, gamma) for n in range(4, 9) for gamma in range(2, n // 2 + 1)]


@pytest.mark.skipif(nx is None, reason="networkx is not installed")
@pytest.mark.parametrize("n,gamma", ORACLE_CASES)
def test_matches_unreduced_oracle(n, gamma):
    oracle = _unreduced_scan(n, gamma)
    sizes = [s for s, (_, witnesses) in oracle.items() if witnesses]
    oracle_max = max(sizes, default=None)
    for collect in (True, False):
        result = max_umd_bipartite_size(n, gamma, collect_witnesses=collect)
        assert result.complete
        assert result.max_size == oracle_max
        assert result.graphs_scanned == sum(scanned for scanned, _ in oracle.values())
        if collect and oracle_max is not None:
            _assert_same_classes([parse_graph6(w) for w in result.witnesses],
                                 _oracle_classes(n, oracle[oracle_max][1]))
    for s, (scanned, witnesses) in oracle.items():
        outcome = count_extremal_witnesses(n, gamma, s)
        assert outcome.complete
        assert outcome.graphs_scanned == scanned
        _assert_same_classes([parse_graph6(w) for w in outcome.witnesses],
                             _oracle_classes(n, witnesses))


class TestDoubleLexGenerator:
    @pytest.mark.parametrize("k,q", [(k, q) for k in range(1, 5) for q in range(1, 5)])
    def test_yields_double_lex_isolate_free(self, k, q):
        for s in range(k * q + 1):
            mats = []
            for closed in _double_lex_matrices(k, q, s, 2):
                rows = tuple(c >> k for c in closed[:k])
                # row i is vertex i and column j is vertex k + j
                g = _graph(k + q, k, rows)
                assert closed == [g.adj[v] | 1 << v for v in range(k + q)]
                mats.append(rows)
            assert len(set(mats)) == len(mats)
            for rows in mats:
                assert len(rows) == k
                assert _isolate_free(rows, q)
                assert sum(r.bit_count() for r in rows) == s
                assert _is_double_lex(rows, q)

    @pytest.mark.parametrize("k,q", [(k, q) for k in range(1, 4) for q in range(1, 4)])
    def test_exact_and_complete_up_to_permutation(self, k, q):
        for s in range(k * q + 1):
            every = [rows for rows in _labeled_matrices(k, q, s) if _isolate_free(rows, q)]
            mats = set(_walk(k, q, s))
            # exactly the double-lex matrices that keep the lex-leader rules,
            # and one for every matrix
            assert mats == {rows for rows in every
                            if _is_double_lex(rows, q) and _keeps_lex_leader_rules(rows)}
            assert ({_canonical(rows, q) for rows in every}
                    == {_canonical(rows, q) for rows in mats})

    def test_no_side_no_matrix(self):
        assert list(_double_lex_matrices(0, 5, 0, 2)) == []

    @pytest.mark.parametrize("k", range(1, 6))
    def test_same_sequence_as_reference_small(self, k):
        for q in range(1, 7):
            for s in range(k * q + 2):
                assert _walk(k, q, s) == _reference_walk(k, q, s)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_same_sequence_as_reference_by_order(self, n):
        for k in range(n // 2 + 1):
            for s in range(k * (n - k) + 1):
                assert _walk(k, n - k, s) == _reference_walk(k, n - k, s)

    @pytest.mark.parametrize("k,q,s", [(2, 4, 6), (2, 6, 10), (3, 5, 11), (3, 6, 13),
                                       (4, 4, 11), (5, 6, 20)])
    def test_last_row_with_more_ones_left_than_columns(self, k, q, s):
        leftovers = []
        expected = _reference_walk(k, q, s, leftovers)
        assert any(left > q for left in leftovers)
        assert _walk(k, q, s) == expected

    @pytest.mark.parametrize("k,q", [(k, q) for k in range(1, 5) for q in range(1, 5)])
    def test_yields_lex_max_of_every_orbit(self, k, q):
        # the walk meets each orbit at its lex-max matrix first, so neither
        # rule may cut it
        for s in range(k * q + 1):
            mats = set(_walk(k, q, s))
            every = [rows for rows in _labeled_matrices(k, q, s) if _isolate_free(rows, q)]
            assert {_lex_max(rows, q) for rows in every} <= mats, s


class TestOrbitCount:
    @pytest.mark.parametrize("k,q", [(k, q) for k in range(1, 4) for q in range(1, 4)])
    def test_count_matches_brute_force(self, k, q):
        for s in range(k * q + 1):
            every = [rows for rows in _labeled_matrices(k, q, s) if _isolate_free(rows, q)]
            assert _isolate_free_orbits(k, q, s) == len({_canonical(r, q) for r in every})

    @pytest.mark.parametrize("n", [*range(2, 10), *(pytest.param(n, marks=pytest.mark.extended)
                                                   for n in (10, 11))])
    def test_generator_reaches_every_orbit(self, n):
        # every side split k <= n/2 and every edge count of it
        for k in range(1, n // 2 + 1):
            q = n - k
            for s in range(k, k * q + 1):
                forms = {_row_canonical(rows, q) for rows in _walk(k, q, s)}
                assert len(forms) == _isolate_free_orbits(k, q, s), (k, q, s)


def _cap2_filter(n, k, s, gamma):
    """graph6 of each reference walk matrix that the witness test keeps, in
    order: the block as scanned without the prefix cut."""
    full = (1 << n) - 1
    out = []
    for rows in _reference_walk(k, n - k, s):
        g = _graph(n, k, rows)
        sets = _enumerate_covers([g.adj[v] | 1 << v for v in range(n)], full, gamma, cap=2)
        if len(sets) == 1 and sets[0].bit_count() == gamma:
            out.append(emit_graph6(g))
    return out


def _dominating_sets(closed, vertices, most, stop=None):
    """Dominating sets of at most ``most`` of ``vertices``, by trying every
    subset; stops once ``stop`` are found."""
    full = sum(1 << v for v in vertices)
    out = []
    for size in range(most + 1):
        for picks in combinations(vertices, size):
            covered = 0
            for v in picks:
                covered |= closed[v]
            if covered & full == full:
                out.append(picks)
                if len(out) == stop:
                    return out
    return out


class TestPrefixCut:
    """The walk skips a prefix whose graph has a dominating set of at most
    gamma - t vertices, t being its free rows; no completion is a witness."""

    @pytest.mark.parametrize("gamma", [3, 4])
    @pytest.mark.parametrize("n", [*range(2, 10), *(pytest.param(n, marks=pytest.mark.extended)
                                                   for n in (10, 11))])
    def test_same_witnesses_as_uncut_walk(self, n, gamma):
        for k in range(1, n // 2 + 1):
            for s in range(k, k * (n - k) + 1):
                found, _, timed_out = _scan_block(n, k, s, gamma, stop_on_first=False,
                                                  deadline=None)
                assert not timed_out
                assert [emit_graph6(g) for g in found] == _cap2_filter(n, k, s, gamma), (k, s)

    def test_deadline_checked_at_prefix_test(self, monkeypatch):
        # the clock passes the deadline right after the walk's start check;
        # at gamma = 4 the two-row prefixes of a 4-row matrix are tested
        # before any matrix is reached
        ticks = iter([0.0])
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks, 10.0)))
        solves = []
        monkeypatch.setattr(search, "_enumerate_covers", lambda *args, **kw: solves.append(args))
        with pytest.raises(TimeoutError):
            next(_double_lex_matrices(4, 4, 12, 4, deadline=5.0))
        assert solves == []

    def test_deadline_checked_at_last_row(self, monkeypatch):
        # at gamma = 2 no prefix is tested, so after the walk's start check
        # only the last-row check stands before the first matrix
        ticks = iter([0.0])
        monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks, 10.0)))
        with pytest.raises(TimeoutError):
            next(_double_lex_matrices(2, 2, 3, 2, deadline=5.0))

    @pytest.mark.parametrize("k,q,gamma", [(3, 3, 3), (3, 4, 3), (4, 3, 3), (4, 4, 3),
                                           (3, 4, 4), (4, 3, 4), (4, 4, 4)])
    def test_cut_prefixes_complete_to_no_witness(self, monkeypatch, k, q, gamma):
        cuts = set()

        def recording(closed, full, size, cap=None):
            sets = _enumerate_covers(closed, full, size, cap)
            if sets:
                cuts.add((tuple(c >> k for c, v in zip(closed, range(k)) if full >> v & 1), size))
            return sets

        monkeypatch.setattr(search, "_enumerate_covers", recording)
        for s in range(k, k * q + 1):
            for _ in _double_lex_matrices(k, q, s, gamma):
                pass
        monkeypatch.undo()
        assert cuts
        n = k + q
        for fixed, size in cuts:
            free = k - len(fixed)
            assert free >= 1 and size == gamma - free >= 2
            # the prefix graph: its fixed rows and every column
            prefix = _graph(len(fixed) + q, len(fixed), fixed)
            closed = [prefix.adj[v] | 1 << v for v in range(prefix.n)]
            assert _dominating_sets(closed, range(prefix.n), size, stop=1)
            # any nonzero free rows, in any order, leave two small dominating sets
            for rest in combinations_with_replacement(range(1, 1 << q), free):
                g = _graph(n, k, fixed + rest)
                closed = [g.adj[v] | 1 << v for v in range(n)]
                assert len(_dominating_sets(closed, range(n), gamma, stop=2)) == 2, rest


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
            max_umd_bipartite_size(13, 2)
        with pytest.raises(ValueError):
            max_umd_bipartite_size(8, 1)

    def test_matching_construction_is_extremal(self):
        # the built family member realizes exactly the searched maximum
        result = max_umd_bipartite_size(7, 2)
        g, _ = construct_bipartite(7, 2)
        assert g.size() == result.max_size
        assert any(are_isomorphic(g, parse_graph6(w)) for w in result.witnesses)


class TestBeyondOrderTen:
    # the reach that symmetry breaking, the lex-leader rules and the prefix cut
    # buy: orders 11 and 12
    def _check(self, result, n, gamma, size, count):
        assert result.complete
        assert result.max_size == size
        assert result.count == count
        for g6 in result.witnesses:
            g = parse_graph6(g6)
            assert g.n == n and g.size() == size
            report = is_umd(g)
            assert report.unique and report.gamma == gamma

    def test_11_3_meets_bipartite_bound(self):
        result = max_umd_bipartite_size(11, 3)
        self._check(result, 11, 3, bipartite_bound(11, 3), 1)
        assert result.max_size == 20

    def test_12_3_meets_bipartite_bound(self):
        result = max_umd_bipartite_size(12, 3)
        self._check(result, 12, 3, bipartite_bound(12, 3), 1)
        assert result.max_size == 25
        g, _ = construct_bipartite(12, 3)
        assert are_isomorphic(g, parse_graph6(result.witnesses[0]))

    def test_12_4_meets_n3g_bound(self):
        result = max_umd_bipartite_size(12, 4)
        self._check(result, 12, 4, n3g_bound(4), 11)
        assert result.max_size == 16


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


class TestWitnessAssertion:
    """Every witness the search finds must have n >= 3*gamma and two
    exterior private neighbors per dominator; a violation raises."""

    def test_order_below_three_gamma_raises(self):
        g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(AssertionError, match=r"n=4 < 3\*gamma=6"):
            search._assert_unique_domination_properties(g, 2, 0b0110)

    def test_single_exterior_private_neighbor_raises(self):
        # dominator 1 keeps only vertex 4 to itself: vertex 5 sees both dominators
        g = from_edge_list(6, [(0, 2), (0, 3), (0, 5), (1, 4), (1, 5)])
        with pytest.raises(AssertionError, match="exterior private neighbors"):
            search._assert_unique_domination_properties(g, 2, 0b11)

    def test_search_witness_passes(self):
        result = max_umd_bipartite_size(9, 3, collect_witnesses=False)
        g = parse_graph6(result.witnesses[0])
        report = is_umd(g)
        assert report.unique and report.gamma == 3
        search._assert_unique_domination_properties(g, 3, report.min_sets[0])


class TestLevelOrder:
    """The maximum search scans edge-count levels densest first, so the
    first level with a witness is the maximum."""

    @pytest.mark.parametrize("n,gamma,size", [(6, 2, 6), (8, 2, 12), (9, 3, 10)])
    @pytest.mark.parametrize("collect", [True, False])
    def test_progress_best_is_unknown_then_maximum(self, n, gamma, size, collect):
        bests = []
        max_umd_bipartite_size(n, gamma, collect_witnesses=collect,
                               progress=lambda scanned, best: bests.append(best))
        assert [b for i, b in enumerate(bests) if i == 0 or b != bests[i - 1]] == [-1, size]

    @pytest.mark.parametrize("n,gamma", [(8, 2), (9, 3)])
    @pytest.mark.parametrize("collect", [True, False])
    def test_only_final_size_is_merged(self, monkeypatch, n, gamma, collect):
        merged = []

        def recording(classes, found, index):
            merged.extend(g.size() for g in found)
            _merge_classes(classes, found, index)

        monkeypatch.setattr(search, "_merge_classes", recording)
        result = max_umd_bipartite_size(n, gamma, collect_witnesses=collect)
        assert merged and set(merged) == {result.max_size}
        if not collect:
            assert merged == [result.max_size]

    # matrices reached: one skipped by a lex-leader rule or under a cut prefix is
    # accounted for, not visited
    @pytest.mark.parametrize("collect, visited", [(False, 325), (True, 459)])
    def test_9_3_masks_visited(self, collect, visited):
        result = max_umd_bipartite_size(9, 3, collect_witnesses=collect)
        assert (result.max_size, result.masks_visited) == (10, visited)


# Sorted witness lists as recorded with the earlier pairwise merge (every
# witness tested against every class).  The first-found member of a class is
# its representative, so a change to the merge must not move a single line.
GOLDEN_COUNTS = {
    (9, 2, 14): ["H?JVFBo", "H?NVFB_", "H?QuFbo", "H?QufBo", "H?UuFBo", "H?UufB_",
                 "H?YefBo", "H?aufBo", "H?bVFBo", "H?bfFBo", "H?eVFBo", "H?eefBo",
                 "H?fFFBo", "H?jEfBo", "H?jFFBo", "H?jVFB_", "H?nEfB_", "HAjFFB_"],
    (9, 2, 16): ["H?Fffbo"],
    (9, 3, 10): ["H?CeEb_", "H?GsEBo", "H?HDEBo", "H?ISeB_", "H?KsEB_", "H?KtEB?",
                 "H?QSeB_", "H?edEB?"],
    (10, 3, 15): ["I?BMeb_w?"],
    (11, 3, 20): ["J??HeBw}Fo?"],
}


class TestMergeClasses:
    @pytest.mark.parametrize("n,gamma,size", sorted(GOLDEN_COUNTS))
    def test_golden_witness_lists(self, n, gamma, size):
        assert count_extremal_witnesses(n, gamma, size).witnesses == GOLDEN_COUNTS[(n, gamma, size)]

    @needs_milp
    @pytest.mark.parametrize("n,gamma,size", sorted(GOLDEN_COUNTS))
    def test_golden_witnesses_agree_with_milp(self, n, gamma, size):
        for line in GOLDEN_COUNTS[(n, gamma, size)]:
            g = parse_graph6(line)
            found_gamma, found, unique = milp_unique(g)
            assert (g.n, g.size(), found_gamma, unique) == (n, size, gamma, True), line
            assert is_umd(g).min_sets == [found], line

    def test_golden_9_3_maximum(self):
        result = max_umd_bipartite_size(9, 3)
        assert (result.max_size, result.witnesses) == (10, GOLDEN_COUNTS[(9, 3, 10)])

    def test_graph6_written_once_per_class(self, monkeypatch):
        # (9,2,14) meets 39 raw witnesses in 18 classes; only the classes
        # are written
        written = []
        monkeypatch.setattr(search, "emit_graph6", lambda g: written.append(g) or emit_graph6(g))
        result = count_extremal_witnesses(9, 2, 14)
        assert result.witnesses == GOLDEN_COUNTS[(9, 2, 14)]
        assert len(written) == 18

    def test_shared_key_stays_two_classes(self):
        # C8 and two disjoint C4s land in one key bucket; the match splits them
        c8 = from_edge_list(8, [(i, (i + 1) % 8) for i in range(8)])
        two_c4 = from_edge_list(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                                    (4, 5), (5, 6), (6, 7), (7, 4)])
        c8_again = from_edge_list(8, [(3 * i % 8, (3 * i + 3) % 8) for i in range(8)])
        classes, index = [], {}
        _merge_classes(classes, [c8, two_c4, c8_again], index)
        assert len(classes) == 2 and classes[0] is c8 and classes[1] is two_c4
        assert len(index) == 1
        assert [rep for rep, _ in index[_refine(c8)[0]]] == [c8, two_c4]

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    def test_atlas_with_relabelings(self):
        rng = random.Random(1253)
        originals, copies = [], []
        for a in nx.graph_atlas_g():
            g = from_edge_list(a.number_of_nodes(), list(a.edges()))
            perm = rng.sample(range(g.n), g.n)
            originals.append(g)
            copies.append(from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
        classes, index = [], {}
        _merge_classes(classes, originals + copies, index)
        assert len(classes) == 1253 and all(c is g for c, g in zip(classes, originals))
        # each copy's bucket holds its original, and no other class there matches
        for g, h in zip(originals, copies):
            key, colors = _refine(h)
            matches = [rep for rep, rep_colors in index[key] if _match(h, colors, rep, rep_colors)]
            assert len(matches) == 1 and matches[0] is g
