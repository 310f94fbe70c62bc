"""Exact domination analysis on bitmask graphs.

The solver settles the domination number by iterative deepening over the
target size with branch-and-bound pruning, then certifies uniqueness by
enumerating minimum dominating sets with a small cap (two suffice to decide).
Private-neighborhood and perfect-domination predicates round out the module.

Two lower bounds prune the search.  The coverage bound: ``u`` undominated
vertices need at least ``u / c`` more dominators when no candidate covers
more than ``c`` of them.  The 2-packing bound: undominated vertices whose
remaining dominator options are pairwise disjoint each need a dominator of
their own, so a greedy packing of them counts dominators still owed.  At the
root the packing (taken over every vertex, fewest options first) starts the
iterative deepening; for both extremal constructions it already equals
gamma.  Inside the branch-and-bound it is taken on the undominated residue.
Both bounds are only ever below the true cost, so no dominating set is lost.

The uniqueness enumeration adds three exact shortcuts (detailed on
``_enumerate_covers``).  When the residue's packing owes exactly the picks
left, every pick lies in the union of the packed option sets, so only those
candidates are branched on.  A failure memo records, below the root and with
more than two picks left, each residual hitting-set problem
``(remaining, {options of each undominated vertex})`` whose subtree found no
set, and prunes it when it recurs.  On the Fischermann family the cap-2
proof took 1.5 * 2^gamma nodes and now takes 6 * gamma - 3.  With one pick
left, the candidates are the intersection of the undominated vertices'
closed neighborhoods, which ``_exists_cover`` uses at ``k == 1`` as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import Graph, bit_list, iter_bits


def closed_neighborhoods(g: Graph) -> list[int]:
    """closed[v] = N(v) together with v itself, as a bitmask."""
    return [g.adj[v] | (1 << v) for v in range(g.n)]


def is_dominating(g: Graph, s: int) -> bool:
    """True iff the closed neighborhoods of ``s`` cover every vertex."""
    if s & ~g.full_mask:
        raise ValueError("set contains vertices outside the graph")
    covered = 0
    for v in iter_bits(s):
        covered |= g.adj[v] | (1 << v)
    return covered == g.full_mask


# ---------------------------------------------------------------------------
# core search over closed-neighborhood arrays (no Graph objects in the loop)


def _greedy_cover_size(closed: list[int], full: int) -> int:
    dominated = 0
    count = 0
    while dominated != full:
        undom = full & ~dominated
        best_u, best_gain = -1, -1
        for u in range(len(closed)):
            gain = (closed[u] & undom).bit_count()
            if gain > best_gain:
                best_u, best_gain = u, gain
        dominated |= closed[best_u]
        count += 1
    return count


def _packing_size(closed: list[int]) -> int:
    """Size of a greedy 2-packing: vertices with pairwise disjoint closed
    neighborhoods, taken fewest options first.  A lower bound on gamma."""
    used = 0
    packed = 0
    for v in sorted(range(len(closed)), key=lambda v: closed[v].bit_count()):
        if not closed[v] & used:
            used |= closed[v]
            packed += 1
    return packed


def _exists_cover(closed: list[int], full: int, k: int, dominated: int = 0) -> bool:
    """Does some set of at most ``k`` vertices dominate the rest?"""
    if dominated == full:
        return True
    if k == 0:
        return False
    undom = full & ~dominated
    if k == 1:
        # one pick must dominate every undominated vertex at once
        last = full
        m = undom
        while m:
            low = m & -m
            m ^= low
            last &= closed[low.bit_length() - 1]
        return last != 0
    max_cov = 0
    for u in range(len(closed)):
        c = (closed[u] & undom).bit_count()
        if c > max_cov:
            max_cov = c
    if undom.bit_count() > k * max_cov:
        return False
    # branch on the vertex with the fewest ways to become dominated, and pack
    # undominated vertices whose dominator options are pairwise disjoint
    branch_v, branch_opts = -1, 1 << 30
    used, packed = 0, 0
    m = undom
    while m:
        low = m & -m
        m ^= low
        v = low.bit_length() - 1
        opts = closed[v]
        if not opts & used:
            packed += 1
            if packed > k:
                return False
            used |= opts
        c = opts.bit_count()
        if c < branch_opts:
            branch_v, branch_opts = v, c
    m = closed[branch_v]
    while m:
        low = m & -m
        m ^= low
        if _exists_cover(closed, full, k - 1, dominated | closed[low.bit_length() - 1]):
            return True
    return False


def _enumerate_covers(closed: list[int], full: int, size: int,
                      cap: int | None = None) -> list[int]:
    """All dominating sets of exactly ``size`` vertices, each found once.

    Branching fixes the lowest-numbered candidate that dominates the chosen
    undominated vertex and bans the alternatives already tried, so every
    qualifying set is produced by exactly one branch.  Results come back
    sorted by bitmask; with ``cap`` the search stops after that many hits.

    Three shortcuts leave the branch order, and so the sets found and the
    order they are found in, unchanged:

    * Tight packing.  When the packing of the residue owes exactly the
      ``remaining`` picks, each pick must fall in a different packed option
      set, so only candidates inside their union ``used`` are tried.  The
      children recompute their own packing; the cut is not inherited.
    * Failure memo.  Below the root, a state is the residual hitting-set
      problem ``(remaining, {closed[v] & allowed : v undominated})``, with
      ``allowed`` the unbanned candidates (cut to ``used`` when the packing
      is tight).  Whether it has a solution depends on that key alone, so a
      key whose subtree found no set is recorded and pruned when it recurs.
      The root never recurs, and a state with at most two picks left costs
      no more to solve again than to key, so neither is recorded.
    * Last pick.  With one pick left, the candidates that dominate every
      undominated vertex are the intersection of their closed
      neighborhoods; they are emitted in bit order.
    """
    n = len(closed)
    found: list[int] = []
    failed: set[tuple[int, frozenset[int]]] = set()

    def rec(chosen: int, dominated: int, banned: int, remaining: int) -> bool:
        if dominated == full:
            assert remaining == 0, "size exceeds the domination number"
            found.append(chosen)
            return cap is not None and len(found) >= cap
        if remaining == 0:
            return False
        undom = full & ~dominated
        if remaining == 1:
            last = full & ~banned
            m = undom
            while m:
                low = m & -m
                m ^= low
                last &= closed[low.bit_length() - 1]
            while last:
                low = last & -last
                found.append(chosen | low)
                if cap is not None and len(found) >= cap:
                    return True
                last ^= low
            return False
        max_cov = 0
        for u in range(n):
            if (banned >> u) & 1:
                continue
            c = (closed[u] & undom).bit_count()
            if c > max_cov:
                max_cov = c
        if undom.bit_count() > remaining * max_cov:
            return False
        # as in _exists_cover, but over the options that are not banned
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
                if packed > remaining:
                    return False
                used |= opts
            c = opts.bit_count()
            if c < branch_opts:
                if c == 0:
                    return False
                branch_v, branch_opts = v, c
        allowed = full & ~banned
        if packed == remaining:
            allowed &= used
        key = None
        if 2 < remaining < size:
            key = (remaining, frozenset(closed[v] & allowed for v in iter_bits(undom)))
            if key in failed:
                return False
        hits = len(found)
        local_ban = banned
        m = closed[branch_v] & allowed
        while m:
            low = m & -m
            m ^= low
            if rec(chosen | low, dominated | closed[low.bit_length() - 1], local_ban,
                   remaining - 1):
                return True
            local_ban |= low
        if key is not None and len(found) == hits:
            failed.add(key)
        return False

    rec(0, 0, 0, size)
    return sorted(found)


# ---------------------------------------------------------------------------
# public operations


def domination_number(g: Graph) -> int:
    """Exact minimum size of a dominating set (isolated vertices count)."""
    if g.n == 0:
        return 0
    closed = closed_neighborhoods(g)
    full = g.full_mask
    ub = _greedy_cover_size(closed, full)
    biggest = max(c.bit_count() for c in closed)
    lb = max(-(-g.n // biggest), _packing_size(closed))
    for k in range(lb, ub):
        if _exists_cover(closed, full, k):
            return k
    return ub


def enumerate_minimum_dominating_sets(g: Graph, cap: int | None = None) -> list[int]:
    """Every minimum dominating set as a bitmask, sorted, optionally capped."""
    if cap is not None and cap < 2:
        raise ValueError("cap must be at least 2")
    if g.n == 0:
        return [0]
    gamma = domination_number(g)
    return _enumerate_covers(closed_neighborhoods(g), g.full_mask, gamma, cap)


def exterior_private_neighbors(g: Graph, v: int, s: int) -> int:
    """Vertices outside ``s`` whose only neighbor inside ``s`` is ``v``."""
    if not (s >> v) & 1:
        raise ValueError(f"vertex {v} is not in the set")
    target = 1 << v
    out = 0
    for u in iter_bits(g.full_mask & ~s):
        if g.adj[u] & s == target:
            out |= 1 << u
    return out


def check_epn_condition(g: Graph, d: int) -> bool:
    """True iff every vertex of ``d`` keeps at least two exterior private neighbors."""
    if not is_dominating(g, d):
        raise ValueError("set does not dominate the graph")
    return all(
        exterior_private_neighbors(g, v, d).bit_count() >= 2 for v in iter_bits(d)
    )


def _perfect_domination(g: Graph, d: int) -> bool:
    """Perfect-domination test for ``d``, already known to be a minimum
    dominating set.

    Checks sum(deg(x) for x in d) == n - |d| and cross-checks the equivalent
    formulation (d independent, every outside vertex adjacent to exactly one
    member of d); the two must agree.
    """
    degree_form = sum(g.degree(v) for v in iter_bits(d)) == g.n - d.bit_count()
    independent = all(not g.adj[v] & d for v in iter_bits(d))
    one_dominator = all(
        (g.adj[u] & d).bit_count() == 1 for u in iter_bits(g.full_mask & ~d)
    )
    structural_form = independent and one_dominator
    if degree_form != structural_form:
        raise AssertionError("perfect-domination formulations disagree")
    return degree_form


def is_perfectly_dominated(g: Graph, d: int) -> bool:
    """Degree-sum test for perfect domination by a minimum dominating set ``d``.

    Raises ValueError unless ``d`` dominates ``g`` and has domination-number
    size; see ``_perfect_domination`` for the test itself.
    """
    if not is_dominating(g, d):
        raise ValueError("set does not dominate the graph")
    if d.bit_count() != domination_number(g):
        raise ValueError("set is not a minimum dominating set")
    return _perfect_domination(g, d)


def closed_neighborhoods_disjoint(g: Graph, d: int) -> bool:
    """True iff the closed neighborhoods of the vertices in ``d`` are pairwise disjoint."""
    seen = 0
    for v in iter_bits(d):
        nb = g.adj[v] | (1 << v)
        if nb & seen:
            return False
        seen |= nb
    return True


@dataclass
class DominationReport:
    """Outcome of the uniqueness analysis for one graph.

    ``epn_by_dominator``, ``perfectly_dominated`` and ``epn_condition_met``
    are filled from the unique minimum set and stay empty / False otherwise.
    """

    gamma: int
    min_sets: list[int]
    unique: bool
    epn_by_dominator: dict[int, int] = field(default_factory=dict)
    perfectly_dominated: bool = False
    epn_condition_met: bool = False

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma,
            "unique": self.unique,
            "min_sets": [bit_list(s) for s in self.min_sets],
            "epn": {str(v): bit_list(m) for v, m in sorted(self.epn_by_dominator.items())},
            "perfect": self.perfectly_dominated,
            "epn_condition": self.epn_condition_met,
        }


def is_umd(g: Graph) -> DominationReport:
    """Decide whether ``g`` has a unique minimum dominating set.

    Uniqueness is settled with a cap of two enumerated sets: either a second
    minimum set exists or the first one is provably alone.
    """
    sets = enumerate_minimum_dominating_sets(g, cap=2)
    gamma = sets[0].bit_count() if sets else 0
    report = DominationReport(gamma=gamma, min_sets=sets, unique=len(sets) == 1)
    if report.unique:
        d = sets[0]
        report.epn_by_dominator = {
            v: exterior_private_neighbors(g, v, d) for v in iter_bits(d)
        }
        report.epn_condition_met = all(
            m.bit_count() >= 2 for m in report.epn_by_dominator.values()
        )
        report.perfectly_dominated = _perfect_domination(g, d)
    return report
