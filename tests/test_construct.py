import time
from collections import Counter
from itertools import combinations

import pytest

from unidom import (
    are_isomorphic,
    bipartite_bound,
    check_epn_condition,
    closed_neighborhoods_disjoint,
    construct_bipartite,
    construct_fischermann,
    construct_star,
    fischermann_bound,
    from_edge_list,
    is_umd,
    iter_bits,
    mask_of,
    phi,
    star_bound,
    verify_construction,
)
from unidom.construct import ConstructionLayout
from unidom.schema import validate_document

from conftest import (
    FAMILY_GRID,
    assert_unique_domination_theory,
    degree_sequence,
    milp_unique,
    needs_milp,
    perfect_by_degree_sum,
    perfect_by_structure,
    reference_bipartite_edge_groups,
    reference_bipartite_layout,
    reference_fischermann_edges,
    reference_fischermann_layout,
    reference_star_edges,
    reference_star_layout,
)


def label_letters(layout):
    """How many vertices the layout's labels give each letter."""
    return Counter(label[0] for label in layout.labels.values())


class TestBipartiteFamily:
    def test_6_2_exact_edges(self):
        g, layout = construct_bipartite(6, 2)
        by_label = {frozenset((layout.labels[u], layout.labels[v])) for u, v in g.edges()}
        assert by_label == {
            frozenset(p) for p in [
                ("x1", "b1,1"), ("x1", "b1,2"),
                ("y1", "a1,1"), ("y1", "a1,2"),
                ("b1,1", "a1,1"), ("b1,1", "a1,2"),
            ]
        }

    def test_10_3_matches_reference(self, reference_10_3):
        g, _ = construct_bipartite(10, 3)
        assert g.size() == 15
        assert degree_sequence(g) == [5, 5, 3, 3, 3, 3, 3, 2, 2, 1]
        assert are_isomorphic(g, reference_10_3)

    def test_14_2_case3_shape(self):
        g, layout = construct_bipartite(14, 2)
        assert g.size() == bipartite_bound(14, 2) == 42
        letters = label_letters(layout)
        assert letters["c"] == 2
        assert letters["r"] == 6
        report = is_umd(g)
        assert report.unique and report.gamma == 2

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            construct_bipartite(5, 2)
        with pytest.raises(ValueError):
            construct_bipartite(9, 1)

    def test_sizes_match_bound_wide(self):
        for gamma in range(2, 7):
            for n in range(3 * gamma, 3 * gamma + 16):
                g, _ = construct_bipartite(n, gamma)
                assert g.size() == bipartite_bound(n, gamma)

    def test_skeleton_is_p3_forest(self):
        # the first edge stage alone must form gamma disjoint 3-vertex paths
        for gamma in range(2, 7):
            n = 3 * gamma
            groups = reference_bipartite_edge_groups(n, gamma)
            skel = from_edge_list(n, groups["skeleton"])
            assert skel.size() == 2 * gamma
            degs = degree_sequence(skel)
            assert degs.count(2) == gamma and degs.count(1) == 2 * gamma

    def test_size_increments_in_tail_regime(self):
        for gamma in range(2, 7):
            ch = (gamma + 1) // 2
            for n in range(3 * gamma, 3 * gamma + 14):
                if phi(n + 1, gamma) == 0:
                    continue
                s0, _ = construct_bipartite(n, gamma)
                s1, _ = construct_bipartite(n + 1, gamma)
                i = phi(n + 1, gamma)
                assert s1.size() - s0.size() == (2 * ch + 1) + (i + 1) // 2

    def test_deterministic(self):
        a, la = construct_bipartite(13, 3)
        b, lb = construct_bipartite(13, 3)
        assert a == b and la == lb

    def test_layout_counts(self):
        # the builder sizes C and R on its own; phi is the count the bound uses
        for n, gamma in FAMILY_GRID:
            _, layout = construct_bipartite(n, gamma)
            letters = label_letters(layout)
            assert letters["x"] == gamma // 2
            assert letters["y"] == (gamma + 1) // 2
            assert letters["b"] == 2 * (gamma // 2)
            assert letters["a"] == 2 * ((gamma + 1) // 2)
            assert letters["r"] == phi(n, gamma)
            assert letters["c"] == n - 3 * gamma - phi(n, gamma)
            assert layout.intended_dominators.bit_count() == gamma


@pytest.mark.parametrize("n, gamma", FAMILY_GRID)
def test_rows_match_the_edge_list_recipes(n, gamma):
    # the builders join vertex-set masks; the reference lists every edge
    g, layout = construct_bipartite(n, gamma)
    groups = reference_bipartite_edge_groups(n, gamma)
    assert g == from_edge_list(n, [e for group in groups.values() for e in group])
    labels, intended, side_a = reference_bipartite_layout(n, gamma)
    assert layout.labels == labels
    assert layout.intended_dominators == intended
    assert layout.partition == side_a

    g, layout = construct_fischermann(n, gamma)
    assert g == from_edge_list(n, reference_fischermann_edges(n, gamma))
    labels, intended = reference_fischermann_layout(n, gamma)
    assert layout.labels == labels
    assert layout.intended_dominators == intended
    assert layout.partition is None


@pytest.mark.parametrize("n", range(3, 65))
def test_star_rows_match_the_edge_list_recipe(n):
    g, layout = construct_star(n)
    assert g == from_edge_list(n, reference_star_edges(n))
    labels, intended, side_a = reference_star_layout(n)
    assert layout.labels == labels
    assert layout.intended_dominators == intended
    assert layout.partition == side_a


class TestFischermannFamily:
    def test_6_2_exact_edges(self):
        g, layout = construct_fischermann(6, 2)
        by_label = {frozenset((layout.labels[u], layout.labels[v])) for u, v in g.edges()}
        assert by_label == {
            frozenset(p) for p in [
                ("x1", "a1"), ("x1", "b1"),
                ("x2", "a2"), ("x2", "b2"),
                ("b2", "a1"), ("a1", "a2"),
            ]
        }

    def test_sizes(self):
        g, _ = construct_fischermann(9, 3)
        assert g.size() == 12
        g, layout = construct_fischermann(10, 3)
        assert g.size() == 18
        assert len(dict(layout.groups)["r"]) == 1

    def test_not_bipartite_when_clique_grows(self):
        from unidom import find_bipartition

        g, _ = construct_fischermann(9, 3)
        assert find_bipartition(g) is None

    def test_unique_and_perfect(self):
        for n, gamma in [(6, 2), (9, 3), (10, 3), (13, 4)]:
            g, layout = construct_fischermann(n, gamma)
            report = is_umd(g)
            assert report.unique
            assert report.min_sets == [layout.intended_dominators]
            assert report.perfectly_dominated

    def test_sizes_match_bound_wide(self):
        for gamma in range(2, 7):
            for n in range(3 * gamma, 3 * gamma + 16):
                g, _ = construct_fischermann(n, gamma)
                assert g.size() == fischermann_bound(n, gamma)

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            construct_fischermann(8, 3)
        with pytest.raises(ValueError):
            construct_fischermann(6, 1)


class TestStar:
    def test_p3(self):
        g, layout = construct_star(3)
        assert g.edges() == [(0, 1), (0, 2)]
        assert layout.intended_dominators == 1

    def test_k14_unique(self):
        g, layout = construct_star(5)
        assert g.size() == star_bound(5) == 4
        report = is_umd(g)
        assert report.unique and report.min_sets == [mask_of([0])]

    def test_two_vertices_rejected(self):
        with pytest.raises(ValueError, match=r"^a two-vertex star has two minimum dominating sets$"):
            construct_star(2)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_rejected(self, n):
        with pytest.raises(ValueError,
                           match=rf"^a star with a unique dominator needs n >= 3, got n = {n}$"):
            construct_star(n)


@pytest.mark.parametrize("build", [
    lambda n: construct_bipartite(n, 2),
    lambda n: construct_fischermann(n, 2),
    construct_star,
], ids=["bipartite", "fischermann", "star"])
def test_huge_order_fails_before_building(build):
    # the vertex cap is checked before any edge list is built
    with pytest.raises(ValueError, match=r"^vertex count 1000000000000 outside 0\.\.64$"):
        build(10**12)


class TestVerifyConstruction:
    def test_bipartite_all_pass(self):
        g, layout = construct_bipartite(6, 2)
        cert = verify_construction(g, layout, 6)
        assert cert.passed
        assert "bipartite" in cert.checks

    @pytest.mark.parametrize("flip, message", [
        # x1 (0) joins its neighbor 2 on the given side
        (2, "edge inside partition side at vertex 0"),
        # y1 (1) and its neighbor 4 end up together in the rest
        (4, "edge inside partition side at vertex 1"),
        (6, "partition side has bits beyond the vertex range"),
    ])
    def test_side_that_is_not_a_2_coloring_fails(self, flip, message):
        g, layout = construct_bipartite(6, 2)
        bogus = ConstructionLayout(layout.intended_dominators, layout.partition ^ 1 << flip,
                                   layout.groups)
        cert = verify_construction(g, bogus, 6)
        assert cert.failures() == ["bipartite"]
        assert cert.to_json()["checks"]["bipartite"] == {
            "passed": False, "expected": True, "actual": message}

    def test_fischermann_no_bipartite_check(self):
        g, layout = construct_fischermann(9, 3)
        cert = verify_construction(g, layout, 12)
        assert cert.passed
        assert "bipartite" not in cert.checks

    def test_wrong_size_fails(self):
        g, layout = construct_bipartite(10, 3)
        cert = verify_construction(g, layout, 14)
        assert not cert.passed
        assert cert.failures() == ["size"]

    def test_wrong_dominators_fail(self):
        g, layout = construct_bipartite(6, 2)
        bogus = ConstructionLayout(
            intended_dominators=mask_of([2, 4]),
            partition=layout.partition,
            groups=layout.groups,
        )
        cert = verify_construction(g, bogus, 6)
        assert not cert.passed
        assert "minimum_set_is_intended" in cert.failures()

    def test_one_gamma_solve_per_certificate(self, monkeypatch):
        # every gamma solve is one iterative deepening, which settles gamma
        # and the capped list of minimum sets together
        import unidom.domination

        solve = unidom.domination._minimum_covers
        calls = []

        def counted(closed, full, cap):
            calls.append(len(closed))
            return solve(closed, full, cap)

        monkeypatch.setattr(unidom.domination, "_minimum_covers", counted)
        g, layout = construct_bipartite(12, 3)
        assert verify_construction(g, layout, bipartite_bound(12, 3)).passed
        assert calls == [12]

    @pytest.mark.parametrize("g, layout", [
        construct_bipartite(12, 3),
        construct_fischermann(13, 4),
        construct_star(5),
    ], ids=["bipartite", "fischermann", "star"])
    def test_set_checks_run_on_the_intended_set(self, monkeypatch, g, layout):
        # a passing certificate computes the private neighbours of each
        # intended dominator and the disjointness of their closed
        # neighborhoods itself, through the bindings in unidom.construct
        import unidom.construct

        calls = Counter()
        for name in ("exterior_private_neighbors", "closed_neighborhoods_disjoint"):
            real = getattr(unidom.construct, name)

            def counted(g, *args, _name=name, _real=real):
                calls[_name, args[-1]] += 1
                return _real(g, *args)

            monkeypatch.setattr(unidom.construct, name, counted)
        d = layout.intended_dominators
        assert verify_construction(g, layout, g.size()).passed
        assert calls == {("exterior_private_neighbors", d): d.bit_count(),
                         ("closed_neighborhoods_disjoint", d): 1}

    def test_bipartite_reach(self):
        """Certify the bipartite family at large n and gamma.

        The root 2-packing bound equals gamma on this family and the residue
        packing cuts the uniqueness proof short, so the four certificates
        take about 0.02 s on a 2-vCPU Xeon; the budget is generous.  The
        Fischermann family at the same reach is ``test_fischermann_reach``.
        """
        start = time.monotonic()
        for n, gamma in [(48, 16), (60, 15), (63, 21), (64, 21)]:
            g, layout = construct_bipartite(n, gamma)
            cert = verify_construction(g, layout, bipartite_bound(n, gamma))
            assert cert.passed, (n, gamma, cert.failures())
        assert time.monotonic() - start <= 30

    def test_fischermann_reach(self):
        """Certify the Fischermann family at large n and gamma.

        Its root packing equals gamma too, and the failure memo keeps the
        cap-2 uniqueness enumeration from visiting 1.5 * 2^gamma nodes: the
        four certificates take about 0.02 s on a 2-vCPU Xeon, where (60,20)
        took 10.7 s and (64,21) 23 s without the memo.
        """
        start = time.monotonic()
        for n, gamma in [(54, 18), (60, 20), (63, 21), (64, 21)]:
            g, layout = construct_fischermann(n, gamma)
            cert = verify_construction(g, layout, fischermann_bound(n, gamma))
            assert cert.passed, (n, gamma, cert.failures())
        assert time.monotonic() - start <= 30

    def test_both_families_to_gamma_21(self):
        # every 2 <= gamma <= 21 and 3*gamma <= n <= 64: 1,220 certificates
        count = 0
        for gamma in range(2, 22):
            for n in range(3 * gamma, 65):
                for builder, bound in ((construct_bipartite, bipartite_bound),
                                       (construct_fischermann, fischermann_bound)):
                    g, layout = builder(n, gamma)
                    cert = verify_construction(g, layout, bound(n, gamma))
                    assert cert.passed, (builder.__name__, n, gamma, cert.failures())
                    d = layout.intended_dominators
                    perfect = cert.checks["perfectly_dominated"].passed
                    assert perfect == perfect_by_degree_sum(g, d) == perfect_by_structure(g, d)
                    count += 1
        assert count == 1220

    def test_certificate_json_shape(self):
        g, layout = construct_bipartite(6, 2)
        doc = verify_construction(g, layout, 6).to_json()
        assert doc["schema"] == "unidom/1"
        assert doc["kind"] == "certificate"
        assert doc["passed"] is True
        assert doc["checks"]["size"]["passed"] is True


def _agrees_with_milp(g, layout):
    gamma, found, unique = milp_unique(g)
    report = is_umd(g)
    assert (gamma, unique) == (report.gamma, report.unique)
    assert [found] == report.min_sets == [layout.intended_dominators]


@needs_milp
@pytest.mark.parametrize("builder", [construct_bipartite, construct_fischermann],
                         ids=["bipartite", "fischermann"])
class TestMilpOracle:
    """An integer program over the adjacency rows alone, with no unidom
    solver, settles gamma and uniqueness; it must agree with ``is_umd`` and
    find the intended set."""

    def test_families_every_gamma(self, builder):
        # 116 members: every gamma 2..21 at its smallest order, five and ten above
        for gamma in range(2, 22):
            for n in sorted({3 * gamma, min(3 * gamma + 5, 64), min(3 * gamma + 10, 64)}):
                _agrees_with_milp(*builder(n, gamma))

    @pytest.mark.extended
    def test_families_to_64(self, builder):
        for gamma in range(2, 22):
            for n in range(3 * gamma, 65):
                _agrees_with_milp(*builder(n, gamma))


def recomputed_set_checks(g, s, gamma):
    """The certificate's entries that depend on the intended set ``s``,
    recomputed from the definitions: domination, perfection, pairwise
    disjoint closed neighborhoods and the exterior private neighbor counts."""
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    members = list(iter_bits(s))
    dominates = all(any((closed[v] >> u) & 1 for v in members) for u in range(g.n))
    disjoint = all(not closed[u] & closed[v] for u, v in combinations(members, 2))
    epn = {}
    if dominates:
        epn = {str(v): sum(1 for u in range(g.n) if not (s >> u) & 1 and g.adj[u] & s == 1 << v)
               for v in members}
    epn_ok = dominates and all(c >= 2 for c in epn.values())
    perfect = dominates and gamma == len(members) and disjoint

    def entry(passed, expected, actual):
        return {"passed": passed, "expected": expected, "actual": actual}

    return {
        "intended_set_dominates": entry(dominates, True, dominates),
        "perfectly_dominated": entry(perfect, True, perfect),
        "closed_neighborhoods_disjoint": entry(disjoint, True, disjoint),
        "epn_at_least_two_per_dominator": entry(epn_ok, ">=2 each", epn),
    }


def _wrong_sets(g, d):
    """The set ``d`` with its last dominator dropped, with its first one
    swapped for that one's lowest neighbor, and with the lowest outside
    vertex added: none is the unique minimum set, the last one dominates."""
    first, last = min(iter_bits(d)), max(iter_bits(d))
    neighbor = g.adj[first] & -g.adj[first]
    outside = g.full_mask & ~d
    return {
        "dropped": d & ~(1 << last),
        "swapped": (d & ~(1 << first)) | neighbor,
        "added": d | (outside & -outside),
    }


@pytest.mark.parametrize("builder, bound", [
    (construct_bipartite, bipartite_bound),
    (construct_fischermann, fischermann_bound),
], ids=["bipartite", "fischermann"])
def test_set_checks_match_recomputation(builder, bound):
    # the intended set and the wrong ones go through the same set checks,
    # which must agree with the definitions
    for n, gamma in FAMILY_GRID:
        g, layout = builder(n, gamma)
        d = layout.intended_dominators
        doc = verify_construction(g, layout, bound(n, gamma)).to_json()
        assert doc["passed"] and validate_document(doc) == [], (n, gamma)
        checks = doc["checks"]
        assert {k: checks[k] for k in recomputed_set_checks(g, d, gamma)} == \
            recomputed_set_checks(g, d, gamma)
        for kind, s in _wrong_sets(g, d).items():
            bogus = ConstructionLayout(s, layout.partition, layout.groups)
            wrong = verify_construction(g, bogus, bound(n, gamma)).to_json()["checks"]
            want = recomputed_set_checks(g, s, gamma)
            assert {k: wrong[k] for k in want} == want, (n, gamma, kind)
            assert wrong["minimum_set_is_intended"]["passed"] is False
            assert wrong["intended_set_dominates"]["passed"] is (kind == "added")
            # the entries that do not depend on the intended set are unchanged
            for name in ("size", "no_isolated_vertices",
                         "unique_minimum_dominating_set", "bipartite"):
                assert wrong.get(name) == checks.get(name), (n, gamma, kind, name)
            assert wrong["gamma"]["actual"] == gamma


def test_set_checks_when_the_unique_set_is_not_perfect():
    # both families are perfectly dominated, so their intended sets never
    # show the set checks on a unique minimum set whose closed
    # neighborhoods meet: a double star, centers 0 and 1 adjacent, each
    # with two leaves
    g = from_edge_list(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    layout = ConstructionLayout(mask_of([0, 1]))
    cert = verify_construction(g, layout, 5)
    assert cert.checks["minimum_set_is_intended"].passed
    checks = cert.to_json()["checks"]
    want = recomputed_set_checks(g, mask_of([0, 1]), 2)
    assert {k: checks[k] for k in want} == want
    assert want["closed_neighborhoods_disjoint"]["actual"] is False
    assert want["epn_at_least_two_per_dominator"]["actual"] == {"0": 2, "1": 2}
    assert cert.failures() == ["perfectly_dominated", "closed_neighborhoods_disjoint"]


class TestTheoryPropertiesOnFamilies:
    def test_every_construction_obeys_unique_domination_theory(self):
        for gamma in range(2, 6):
            for n in range(3 * gamma, 3 * gamma + 8):
                for builder in (construct_bipartite, construct_fischermann):
                    g, layout = builder(n, gamma)
                    d = layout.intended_dominators
                    assert_unique_domination_theory(g, gamma, d)
                    assert closed_neighborhoods_disjoint(g, d)
                    assert check_epn_condition(g, d)
