"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 6, the
exhaustive confirmation at orders 9 and 10, stays opt-in with the other
extended searches: ``pytest -m extended``.
All value checks are exact; the stated wall-clock budgets are asserted too.
"""

import random
import time
from contextlib import contextmanager

import pytest

from unidom import (
    are_isomorphic,
    bipartite_bound,
    construct_bipartite,
    construct_fischermann,
    count_extremal_witnesses,
    domination_number,
    fischermann_bound,
    is_umd,
    max_umd_bipartite_size,
    n3g_bound,
    parse_graph6,
    verify_construction,
)

from conftest import (
    assert_unique_domination_theory,
    bipartite_bound_gamma2,
    degree_sequence,
    gamma2_case_bounds,
    min_forest_edges,
    naive_domination_number,
    random_graph,
    tau,
    verify_forest_lemma,
)


@contextmanager
def criterion(num: int, label: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:>2} [FAIL] {label}")
        raise
    print(f"ACCEPTANCE {num:>2} [PASS] {label} ({time.monotonic() - start:.2f}s)")


def test_criterion_1_bound_values():
    with criterion(1, "pinned bound values and gamma=2 closed-form equivalence"):
        start = time.monotonic()
        assert bipartite_bound(6, 2) == 6
        assert bipartite_bound(7, 2) == 9
        assert bipartite_bound(10, 3) == 15
        for n in range(6, 10001):
            assert bipartite_bound_gamma2(n) == bipartite_bound(n, 2)
        assert time.monotonic() - start < 1.0


def test_criterion_2_bipartite_construction_sweep():
    with criterion(2, "bipartite family certifies for gamma 2..6, n up to 3g+12"):
        start = time.monotonic()
        for gamma in range(2, 7):
            for n in range(3 * gamma, 3 * gamma + 13):
                g, layout = construct_bipartite(n, gamma)
                cert = verify_construction(g, layout, bipartite_bound(n, gamma))
                assert cert.passed, (n, gamma, cert.failures())
                assert "bipartite" in cert.checks
        assert time.monotonic() - start <= 60.0


def test_criterion_3_fischermann_construction_sweep():
    with criterion(3, "general family certifies for gamma 2..6, n up to 3g+12"):
        start = time.monotonic()
        for gamma in range(2, 7):
            for n in range(3 * gamma, 3 * gamma + 13):
                g, layout = construct_fischermann(n, gamma)
                cert = verify_construction(g, layout, fischermann_bound(n, gamma))
                assert cert.passed, (n, gamma, cert.failures())
        assert time.monotonic() - start <= 120.0


def test_criterion_4_ten_vertex_reproduction(reference_10_3):
    with criterion(4, "order-10 extremal graph: size, degrees, isomorphism"):
        start = time.monotonic()
        g, _ = construct_bipartite(10, 3)
        assert g.size() == 15
        assert degree_sequence(g) == [5, 5, 3, 3, 3, 3, 3, 2, 2, 1]
        assert are_isomorphic(g, reference_10_3)
        assert time.monotonic() - start < 1.0


def test_criterion_5_exhaustive_gamma2_tightness():
    with criterion(5, "exhaustive maxima at gamma=2 equal the bound for n=6,7,8"):
        start = time.monotonic()
        for n, expected in [(6, 6), (7, 9), (8, 12)]:
            result = max_umd_bipartite_size(n, 2)
            assert result.complete
            assert result.max_size == expected == bipartite_bound(n, 2)
        assert time.monotonic() - start <= 600.0


@pytest.mark.extended
def test_criterion_6_extended_searches():
    with criterion(6, "extended: (9,3) exhaustive max and the unique (10,3,15) witness"):
        result = max_umd_bipartite_size(9, 3, budget=3600.0, collect_witnesses=False)
        if not result.complete:
            pytest.skip(f"(9,3) search budget-truncated at best={result.max_size}")
        assert result.max_size == n3g_bound(3) == 10

        outcome = count_extremal_witnesses(10, 3, 15, budget=3600.0)
        if not outcome.complete:
            pytest.skip(f"(10,3,15) count budget-truncated at count={outcome.count}")
        assert outcome.count == 1
        witness = parse_graph6(outcome.witnesses[0])
        g, _ = construct_bipartite(10, 3)
        assert are_isomorphic(witness, g)


def test_criterion_7_forest_lemma():
    with criterion(7, "brute-force forest minimum matches ceil(2n/3) for n=3..7"):
        start = time.monotonic()
        for n in range(3, 8):
            assert verify_forest_lemma(n)
        assert time.monotonic() - start <= 300.0


def test_criterion_8_solver_oracle_equivalence():
    with criterion(8, "solver equals unpruned subset oracle on 200 random graphs"):
        start = time.monotonic()
        rng = random.Random(20260807)
        for i in range(200):
            n = rng.randint(1, 12)
            density = 0.1 + 0.8 * (i / 199)
            g = random_graph(rng, n, density)
            assert domination_number(g) == naive_domination_number(g)
        assert time.monotonic() - start <= 120.0


def test_criterion_9_formula_identities():
    with criterion(9, "expansion identity, case-bound ordering, opposite-parity count"):
        start = time.monotonic()
        for gamma in range(2, 51):
            for r in range(0, 51):
                lhs = fischermann_bound(3 * gamma + r, gamma)
                rhs_num = 2 * gamma**2 + 4 * r * gamma + 2 * gamma + r**2 - r
                assert rhs_num % 2 == 0 and lhs == rhs_num // 2
        for n in range(6, 10001):
            cb = gamma2_case_bounds(n)
            m = bipartite_bound_gamma2(n)
            assert cb.m1 <= cb.m3 and cb.m2 <= cb.m3 and cb.m3 == m
        for n in range(1, 1001):
            assert tau(n) == sum(1 for k in range(1, n) if k % 2 != n % 2)
        for n in range(3, 10001):
            assert min_forest_edges(n) == 2 * (n // 3) + n % 3
        assert time.monotonic() - start < 5.0


def test_criterion_10_unique_domination_theory_everywhere():
    with criterion(10, "n >= 3*gamma and epn >= 2 on every unique-set graph seen"):
        instances = []
        for gamma in range(2, 7):
            for n in range(3 * gamma, 3 * gamma + 13):
                instances.append(construct_bipartite(n, gamma)[0])
                instances.append(construct_fischermann(n, gamma)[0])
        for n in (6, 7):
            for g6 in max_umd_bipartite_size(n, 2).witnesses:
                instances.append(parse_graph6(g6))
        checked = 0
        for g in instances:
            report = is_umd(g)
            if report.unique and g.isolated_vertices() == 0:
                assert_unique_domination_theory(g, report.gamma, report.min_sets[0])
                checked += 1
        assert checked == len(instances)  # all of these are unique by design
