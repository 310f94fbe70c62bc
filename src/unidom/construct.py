"""Deterministic builders for extremal uniquely-dominated graphs.

Two families are produced, each with its intended dominating set and its
vertex groups: the bipartite family meeting the bipartite bound and the
perfectly dominated general family meeting Fischermann's bound, plus the
star that settles gamma = 1.  The verifier re-derives every claimed
property through the domination module, trusting nothing the builder says
about its own output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .domination import (
    closed_neighborhoods_disjoint,
    enumerate_minimum_dominating_sets,
    exterior_private_neighbors,
    is_dominating,
)
from .graph import (
    Graph,
    _check_vertex_count,
    bit_list,
    check_bipartition,
    mask_of,
)


@dataclass(frozen=True)
class ConstructionLayout:
    """What a builder says about its graph: the intended dominating set, the
    vertex mask of one side of the bipartition when the family is bipartite
    (the other side is the rest), and the vertex groups.

    ``groups`` holds ``(letter, vertices)`` pairs in numbering order, where
    each entry of ``vertices`` is a vertex or a pair of vertices:
    x, y, b, a, c, r for the bipartite family (b and a hold pairs), x, a,
    b, r for Fischermann's and x, a for the star.
    """

    intended_dominators: int
    partition: Optional[int] = None
    groups: tuple = ()

    @property
    def labels(self) -> dict[int, str]:
        """Per-vertex display names for DOT output: ``x1``, ``b1,2``, ..."""
        labels = {}
        for letter, members in self.groups:
            for i, m in enumerate(members, start=1):
                if isinstance(m, tuple):
                    for k, v in enumerate(m, start=1):
                        labels[v] = f"{letter}{i},{k}"
                else:
                    labels[m] = f"{letter}{i}"
        return labels


def _join(rows: list[int], left, right) -> None:
    """Add every edge between the disjoint vertex sequences ``left`` and
    ``right``: each row on one side gains the other side's mask."""
    left_mask = mask_of(left)
    right_mask = mask_of(right)
    for v in left:
        rows[v] |= right_mask
    for v in right:
        rows[v] |= left_mask


def construct_bipartite(n: int, gamma: int) -> tuple[Graph, ConstructionLayout]:
    """Extremal bipartite graph with unique minimum dominating set of size
    ``gamma`` on ``n`` vertices, together with its layout.

    Vertices are numbered dominators x_1..x_dx first, then y_1..y_dy, then
    the pair-blocks b_{i,1}, b_{i,2}, then a_{j,1}, a_{j,2}, then c_1..,
    then r_1.. in order; the rows are joined stage by stage.
    """
    _check_vertex_count(n)
    if gamma < 2:
        raise ValueError("family requires gamma >= 2 (see construct_star)")
    if n < 3 * gamma:
        raise ValueError("family requires n >= 3*gamma")
    dx = gamma // 2
    dy = gamma - dx
    xs = list(range(dx))
    ys = list(range(dx, gamma))
    bs = [(gamma + 2 * i, gamma + 2 * i + 1) for i in range(dx)]
    a0 = gamma + 2 * dx
    as_ = [(a0 + 2 * j, a0 + 2 * j + 1) for j in range(dy)]
    # C takes what it can of the vertices past the skeleton, R the rest
    r0 = 3 * gamma + min(n - 3 * gamma, 2 * dy - dx + 1)
    cs = list(range(3 * gamma, r0))
    rs = list(range(r0, n))
    ally = [a for pair in as_ for a in pair]
    x1_side = [b1 for (b1, _) in bs]
    r_prime = rs[0::2]
    r_dprime = rs[1::2]

    rows = [0] * n
    # skeleton: each dominator with its two private neighbors
    for d, pair in zip(xs + ys, bs + as_):
        _join(rows, (d,), pair)
    # hub: one chosen neighbor of each x becomes adjacent to all of Y
    _join(rows, x1_side, ally)
    # C-block: each c meets x_1 and all of Y
    _join(rows, cs, [xs[0], *ally])
    # tail: R' meets C, the hub vertices and y_1; R'' meets Y and x_1; and
    # every R' meets every R''
    _join(rows, r_prime, [*cs, *x1_side, ys[0]])
    _join(rows, r_dprime, [*ally, xs[0]])
    _join(rows, r_prime, r_dprime)
    g = Graph(n, tuple(rows))
    layout = ConstructionLayout(
        intended_dominators=mask_of(xs + ys),
        partition=mask_of(xs + ally + r_prime),
        groups=tuple(zip("xybacr", (xs, ys, bs, as_, cs, rs))),
    )
    return g, layout


def construct_fischermann(n: int, gamma: int) -> tuple[Graph, ConstructionLayout]:
    """Perfectly dominated graph meeting Fischermann's bound, generally not
    bipartite (one block is a clique)."""
    _check_vertex_count(n)
    if gamma < 2:
        raise ValueError("family requires gamma >= 2")
    if n < 3 * gamma:
        raise ValueError("family requires n >= 3*gamma")
    xs = list(range(gamma))
    as_ = list(range(gamma, 2 * gamma))
    bs = list(range(2 * gamma, 3 * gamma))
    rs = list(range(3 * gamma, n))

    rows = [0] * n
    for x, a, b in zip(xs, as_, bs):
        _join(rows, (x,), (a, b))
    _join(rows, xs[:1], rs)
    # b_i meets a_j for every j < i: a staircase below the diagonal, whose
    # rows are runs of the contiguous blocks A and B
    for i in range(1, gamma):
        rows[bs[i]] |= (1 << as_[i]) - (1 << as_[0])
        rows[as_[i - 1]] |= (1 << (bs[-1] + 1)) - (1 << bs[i])
    _join(rows, bs[1:], rs)
    clique = as_ + rs
    clique_mask = mask_of(clique)
    for v in clique:
        rows[v] |= clique_mask ^ (1 << v)
    g = Graph(n, tuple(rows))
    layout = ConstructionLayout(
        intended_dominators=mask_of(xs),
        groups=(("x", xs), ("a", as_), ("b", bs), ("r", rs)),
    )
    return g, layout


def construct_star(n: int) -> tuple[Graph, ConstructionLayout]:
    """K_{1,n-1}: the unique-dominator graph for gamma = 1, needs n >= 3."""
    _check_vertex_count(n)
    if n < 2:
        raise ValueError(f"a star with a unique dominator needs n >= 3, got n = {n}")
    if n == 2:
        raise ValueError("a two-vertex star has two minimum dominating sets")
    # the centre 0 sees every leaf 1..n-1; each leaf sees only the centre
    leaves = (1 << n) - 2
    g = Graph(n, (leaves,) + (1,) * (n - 1))
    layout = ConstructionLayout(
        intended_dominators=1,
        partition=1,
        groups=(("x", (0,)), ("a", range(1, n))),
    )
    return g, layout


@dataclass
class CheckResult:
    passed: bool
    expected: object = None
    actual: object = None


@dataclass
class VerificationCertificate:
    """Per-check outcomes from re-deriving a construction's claimed properties."""

    checks: dict[str, CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, c in self.checks.items() if not c.passed]

    def to_json(self) -> dict:
        return {
            "schema": "unidom/1",
            "kind": "certificate",
            "passed": self.passed,
            "checks": {
                name: {"passed": c.passed, "expected": c.expected, "actual": c.actual}
                for name, c in self.checks.items()
            },
        }


def verify_construction(g: Graph, layout: ConstructionLayout,
                        expected_size: int) -> VerificationCertificate:
    """Independently certify size, domination number, uniqueness, perfect
    domination and the neighborhood conditions of a constructed graph."""
    checks: dict[str, CheckResult] = {}
    intended = layout.intended_dominators
    want_gamma = intended.bit_count()

    size = g.size()
    checks["size"] = CheckResult(size == expected_size, expected_size, size)

    isolated = g.isolated_vertices()
    checks["no_isolated_vertices"] = CheckResult(isolated == 0, [], bit_list(isolated))

    dominates = is_dominating(g, intended)
    checks["intended_set_dominates"] = CheckResult(dominates, True, dominates)

    # one solve settles gamma and uniqueness; the intended set is then
    # minimum exactly when it dominates and has gamma vertices
    min_sets = enumerate_minimum_dominating_sets(g, cap=2)
    gamma = min_sets[0].bit_count()
    checks["gamma"] = CheckResult(gamma == want_gamma, want_gamma, gamma)

    unique = len(min_sets) == 1
    checks["unique_minimum_dominating_set"] = CheckResult(unique, True, unique)

    match = min_sets == [intended]
    checks["minimum_set_is_intended"] = CheckResult(
        match, bit_list(intended), [bit_list(s) for s in min_sets]
    )

    # the set checks run on the intended set, whichever set the solver found;
    # private neighbours are counted only against a dominating set
    disjoint = closed_neighborhoods_disjoint(g, intended)
    epn_counts = {
        str(v): exterior_private_neighbors(g, v, intended).bit_count()
        for v in bit_list(intended)
    } if dominates else {}
    epn_ok = dominates and all(c >= 2 for c in epn_counts.values())
    # a minimum dominating set is perfect exactly when its closed
    # neighborhoods are pairwise disjoint
    perfect = dominates and gamma == want_gamma and disjoint
    checks["perfectly_dominated"] = CheckResult(perfect, True, perfect)
    checks["closed_neighborhoods_disjoint"] = CheckResult(disjoint, True, disjoint)
    checks["epn_at_least_two_per_dominator"] = CheckResult(
        epn_ok, ">=2 each", epn_counts
    )

    if layout.partition is not None:
        try:
            check_bipartition(g, layout.partition)
            checks["bipartite"] = CheckResult(True, True, True)
        except ValueError as exc:
            checks["bipartite"] = CheckResult(False, True, str(exc))

    return VerificationCertificate(checks=checks)
