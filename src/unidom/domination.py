"""Exact domination analysis on bitmask graphs.

One branch-and-bound recursion, ``_exists_cover``, collects the covers of at
most ``k`` picks up to a cap (one for an existence test); ``_enumerate_covers``
runs it with the caller's cap.  Every dominating set of at most ``k`` vertices
holds a collected cover, so a cap-2 run at ``k`` finds a single ``k``-vertex set
exactly when gamma is ``k`` with a unique minimum set: the search's one solve
per matrix.  One deepening, ``_minimum_covers``, runs it at ``k``, ``k + 1``, ...
from the larger of ``ceil(n / (Delta + 1))`` and a greedy 2-packing (gamma on
both extremal constructions) up to the first ``k`` that finds a set: gamma.

Every node takes one step: ``_last_picks`` with one pick left, else
``_branch_step``.  The coverage bound: ``u`` undominated vertices need at
least ``u / c`` more dominators when no vertex (banned ones included) covers
more than ``c`` of them.  The 2-packing bound: undominated vertices whose
remaining options are pairwise disjoint each need a dominator of their own.
Neither exceeds the true cost, so no dominating set is lost.  Banning, a
tight-packing cut and a failure memo (see ``_exists_cover``) cut the cap-2
proof on the Fischermann family from 1.5 * 2^gamma nodes to 6 * gamma - 3.
Private-neighborhood and perfect-domination predicates round out the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from .graph import Graph, bit_list, iter_bits


def closed_neighborhoods(g: Graph) -> list[int]:
    """closed[v] = N(v) together with v itself, as a bitmask."""
    return [g.adj[v] | (1 << v) for v in range(g.n)]


def _check_within(g: Graph, s: int) -> None:
    if s & ~g.full_mask:
        raise ValueError("set contains vertices outside the graph")


def is_dominating(g: Graph, s: int) -> bool:
    """True iff the closed neighborhoods of ``s`` cover every vertex."""
    _check_within(g, s)
    covered = 0
    for v in iter_bits(s):
        covered |= g.adj[v] | (1 << v)
    return covered == g.full_mask


# ---------------------------------------------------------------------------
# core search over closed-neighborhood arrays (no Graph objects in the loop)


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


def _last_picks(closed: list[int], undom: int, allowed: int) -> int:
    """The ``allowed`` vertices whose closed neighborhood holds all of ``undom``:
    the candidates that finish the cover with one pick."""
    m = undom
    while m:
        low = m & -m
        m ^= low
        allowed &= closed[low.bit_length() - 1]
    return allowed


def _branch_step(closed: list[int], undom: int, banned: int,
                 k: int) -> tuple[int, int, int] | None:
    """Bound one search node, and choose its branch vertex.

    ``undom`` is what is left to dominate with at most ``k`` more picks, none
    of them from ``banned``.  Returns None when the coverage or the packing
    bound shows that ``k`` picks cannot do it, or when some undominated vertex
    has no unbanned option left.  Otherwise returns ``(branch_v, packed,
    used)``: the undominated vertex with the fewest unbanned options (the
    lowest-numbered one on ties), and the size and union of a greedy packing
    of pairwise disjoint option sets taken in bit order.
    """
    max_cov = 0
    for nb in closed:
        cov = (nb & undom).bit_count()
        if cov > max_cov:
            max_cov = cov
    if undom.bit_count() > k * max_cov:
        return None
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


@dataclass(slots=True)
class _Covers:
    """One cover search's cap, covers found and failure memo."""

    cap: float
    found: list[int] = field(default_factory=list)
    failed: set[tuple[int, frozenset[int]]] = field(default_factory=set)


def _exists_cover(closed: list[int], full: int, k: int, dominated: int = 0,
                  banned: int = 0, chosen: int = 0, covers: _Covers | None = None) -> bool:
    """Does some set of at most ``k`` vertices dominate the rest?

    The one cover recursion: it collects covers extending ``chosen`` by at most
    ``k`` picks outside ``banned``, one inside each, and returns True at the cap.

    Branching fixes the lowest-numbered candidate that dominates the chosen
    undominated vertex and bans the alternatives already tried, so every
    cover is found once.  Two exact shortcuts keep the uncapped collection
    but not the branch order: the tight-packing cut never tries, and so
    never bans, a candidate outside ``used``, so a capped run may collect
    other sets than the plain branching.

    * Tight packing.  When the packing of the residue owes exactly the ``k``
      picks left, each pick must fall in a different packed option set, so
      only candidates inside their union ``used`` are tried.  The children
      recompute their own packing; the cut is not inherited.
    * Failure memo.  Below the root (``chosen`` is not empty), a state is the
      residual hitting-set problem ``(k, {closed[v] & allowed : v undominated})``,
      with ``allowed`` the unbanned candidates (cut to ``used`` when the packing
      is tight).  Whether it has a solution depends on that key alone, so a
      key whose subtree found no set is recorded and pruned when it recurs.
      The root never recurs, and a state with at most two picks left costs
      no more to solve again than to key, so neither is recorded.
    """
    if covers is None:
        covers = _Covers(1)
    found = covers.found
    if dominated == full:
        found.append(chosen)
        return len(found) >= covers.cap
    undom = full & ~dominated
    if k == 1:
        last = _last_picks(closed, undom, full & ~banned)
        while last:
            low = last & -last
            found.append(chosen | low)
            if len(found) >= covers.cap:
                return True
            last ^= low
        return False
    step = _branch_step(closed, undom, banned, k)
    if step is None:
        return False
    branch_v, packed, used = step
    allowed = full & ~banned
    if packed == k:
        allowed &= used
    key = None
    if k > 2 and chosen:
        key = (k, frozenset(closed[v] & allowed for v in iter_bits(undom)))
        if key in covers.failed:
            return False
    hits = len(found)
    m = closed[branch_v] & allowed
    while m:
        low = m & -m
        m ^= low
        if _exists_cover(closed, full, k - 1, dominated | closed[low.bit_length() - 1],
                         banned, chosen | low, covers):
            return True
        banned |= low
    if key is not None and len(found) == hits:
        covers.failed.add(key)
    return False


def _enumerate_covers(closed: list[int], full: int, size: int,
                      cap: int | None = None) -> list[int]:
    """Covers of at most ``size`` picks, each found once, sorted, stopping at
    ``cap``; a shorter result is the uncapped one, whose gamma-vertex sets are minimum."""
    covers = _Covers(inf if cap is None else cap)
    _exists_cover(closed, full, size, 0, 0, 0, covers)
    return sorted(covers.found)


def _minimum_covers(closed: list[int], full: int, cap: int | None) -> list[int]:
    """The minimum dominating sets, sorted and capped: the enumeration run at
    k, k + 1, ... from the lower bound, up to the first k (gamma) that finds any."""
    biggest = max((c.bit_count() for c in closed), default=1)
    k = max(-(-len(closed) // biggest), _packing_size(closed))
    while not (sets := _enumerate_covers(closed, full, k, cap)):
        k += 1
    assert all(s.bit_count() == k for s in sets), "a bound or a lower level missed a cover"
    return sets


# ---------------------------------------------------------------------------
# public operations


def domination_number(g: Graph) -> int:
    """Exact minimum size of a dominating set (isolated vertices count)."""
    return _minimum_covers(closed_neighborhoods(g), g.full_mask, 1)[0].bit_count()


def enumerate_minimum_dominating_sets(g: Graph, cap: int | None = None) -> list[int]:
    """Every minimum dominating set as a bitmask, sorted, optionally capped."""
    if cap is not None and cap < 2:
        raise ValueError("cap must be at least 2")
    return _minimum_covers(closed_neighborhoods(g), g.full_mask, cap)


def exterior_private_neighbors(g: Graph, v: int, s: int) -> int:
    """Vertices outside ``s`` whose only neighbor inside ``s`` is ``v``."""
    _check_within(g, s)
    if v < 0 or not (s >> v) & 1:
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
    _check_within(g, d)
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
    gamma = sets[0].bit_count()
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
