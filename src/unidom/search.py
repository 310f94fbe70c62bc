"""Exhaustive enumeration oracles over small bipartite graphs.

The searches here are independent of the closed-form bounds: they iterate
raw cross-edge masks, filter with the exact solver, and report what they
find.  Side assignments are deduplicated up to relabeling: every bipartite
graph on n vertices can be relabeled so one side is {0..k-1} with
k <= n/2, and both quantities computed here (maximum size, set of
isomorphism classes) are invariant under relabeling.  The coverage
bookkeeping below is asserted against that reduced space.

Work is split into (side size, edge count) blocks.  One sequential driver
serves both searches: the maximum search lists every block from dense to
sparse so the best size found so far prunes whole blocks, and the witness
count lists the blocks of one edge count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional

from .bounds import min_forest_edges
from .domination import _enumerate_covers, _exists_cover
from .graph import Graph, are_isomorphic, emit_graph6, iter_bits

HARD_CAP = 10
_CHECK_EVERY = 4096


@dataclass
class SearchResult:
    """Outcome of a maximum search, or of a witness count when ``size`` is set.

    ``max_size`` is the largest size with a witness (None when there is
    none); ``witnesses`` holds one graph6 line per isomorphism class at it.
    """

    n: int
    gamma: int
    max_size: Optional[int]
    witnesses: list[str]
    graphs_scanned: int
    elapsed: float
    complete: bool
    size: Optional[int] = None

    @property
    def count(self) -> int:
        return len(self.witnesses)

    def to_json(self) -> dict:
        if self.size is None:
            head = {"kind": "search", "n": self.n, "gamma": self.gamma,
                    "max_size": self.max_size}
        else:
            head = {"kind": "witness_count", "n": self.n, "gamma": self.gamma,
                    "size": self.size, "count": self.count}
        return {
            "schema": "unidom/1",
            **head,
            "witnesses": self.witnesses,
            "graphs_scanned": self.graphs_scanned,
            "elapsed": self.elapsed,
            "complete": self.complete,
        }


def _assert_unique_domination_properties(g: Graph, gamma: int, dset: int) -> None:
    # any isolated-free graph with a unique minimum dominating set must
    # satisfy these; a violation found here would refute the theory
    if g.n < 3 * gamma:
        raise AssertionError(
            f"unique minimum dominating set on n={g.n} < 3*gamma={3 * gamma}"
        )
    for v in iter_bits(dset):
        target = 1 << v
        count = 0
        for u in iter_bits(g.full_mask & ~dset):
            if g.adj[u] & dset == target:
                count += 1
        if count < 2:
            raise AssertionError(
                f"dominator {v} has {count} exterior private neighbors"
            )


def _scan_block(n: int, k: int, s: int, gamma: int, *, stop_on_first: bool,
                deadline: Optional[float]) -> tuple[list[tuple[str, Graph]], int, bool]:
    """Enumerate all k x (n-k) cross-edge masks with exactly s edges.

    Returns (witnesses found, masks visited, timed out).  A witness is an
    isolated-vertex-free graph whose domination number is exactly ``gamma``
    realized by a unique minimum set.
    """
    q = n - k
    cells = k * q
    full = (1 << n) - 1
    col_full = (1 << q) - 1
    found: list[tuple[str, Graph]] = []
    visited = 0
    if deadline is not None and time.monotonic() >= deadline:
        return found, visited, True
    for combo in combinations(range(cells), s):
        visited += 1
        if deadline is not None and visited % _CHECK_EVERY == 0:
            if time.monotonic() >= deadline:
                return found, visited, True
        rows = [0] * k
        for cell in combo:
            rows[cell // q] |= 1 << (cell % q)
        col_or = 0
        ok = True
        for r in rows:
            if r == 0:
                ok = False
                break
            col_or |= r
        if not ok or col_or != col_full:
            continue
        cols = [0] * q
        for i, r in enumerate(rows):
            for j in iter_bits(r):
                cols[j] |= 1 << i
        closed = [0] * n
        for i in range(k):
            closed[i] = (rows[i] << k) | (1 << i)
        for j in range(q):
            closed[k + j] = cols[j] | (1 << (k + j))
        # domination number must be exactly gamma, with a unique witness
        if gamma > 1 and _exists_cover(closed, full, gamma - 1):
            continue
        sets = _enumerate_covers(closed, full, gamma, cap=2)
        if len(sets) != 1:
            continue
        adj = tuple(
            (rows[v] << k) if v < k else cols[v - k] for v in range(n)
        )
        g = Graph(n, adj)
        _assert_unique_domination_properties(g, gamma, sets[0])
        found.append((emit_graph6(g), g))
        if stop_on_first:
            return found, visited, False
    return found, visited, False


def _merge_classes(classes: list[tuple[str, Graph]],
                   found: list[tuple[str, Graph]]) -> None:
    for g6, g in found:
        if not any(are_isomorphic(g, rep) for _, rep in classes):
            classes.append((g6, g))


def _search(n: int, gamma: int, blocks: list[tuple[int, int]],
            budget: Optional[float], *, stop_on_first: bool,
            progress: Optional[Callable[[int, int], None]],
            size: Optional[int] = None) -> SearchResult:
    """Scan ``blocks`` in order, keeping the witness classes of the largest
    size seen.  Blocks below that size are skipped, and with
    ``stop_on_first`` so are blocks at it."""
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    best = -1
    scanned = 0
    classes: list[tuple[str, Graph]] = []
    complete = True
    for k, s in blocks:
        block_size = comb(k * (n - k), s)
        if s < best or (stop_on_first and s == best):
            scanned += block_size
        else:
            found, visited, timed_out = _scan_block(
                n, k, s, gamma, stop_on_first=stop_on_first, deadline=deadline,
            )
            if timed_out:
                scanned += visited
                complete = False
            else:
                # a block aborted after its first find still counts in full:
                # its remaining masks share the same size and cannot move the max
                scanned += block_size
            if found:
                if s > best:
                    best = s
                    classes = []
                _merge_classes(classes, found)
        if progress:
            progress(scanned, best)
        if not complete:
            break

    space = sum(comb(k * (n - k), s) for k, s in blocks)
    if complete and scanned != space:
        raise AssertionError(
            f"coverage bookkeeping off: scanned {scanned}, space {space}"
        )
    return SearchResult(
        n=n,
        gamma=gamma,
        max_size=best if best >= 0 else None,
        witnesses=sorted(g6 for g6, _ in classes),
        graphs_scanned=scanned,
        elapsed=time.monotonic() - start,
        complete=complete,
        size=size,
    )


def _check_order(n: int, gamma: int) -> None:
    if not 1 <= n <= HARD_CAP:
        raise ValueError(f"order must be between 1 and {HARD_CAP}")
    if gamma < 2:
        raise ValueError("search requires gamma >= 2")


def max_umd_bipartite_size(n: int, gamma: int, budget: Optional[float] = None, *,
                           collect_witnesses: bool = True,
                           progress: Optional[Callable[[int, int], None]] = None,
                           ) -> SearchResult:
    """Exact maximum size over all isolated-vertex-free bipartite graphs of
    order ``n`` whose domination number ``gamma`` is realized by a unique
    minimum dominating set.

    ``budget`` is a wall-clock limit in seconds; when it runs out the result
    comes back with ``complete=False`` and the best value seen so far.
    ``progress`` is called after every block with the masks scanned so far
    and the best size (-1 while no witness is known).
    """
    _check_order(n, gamma)
    blocks = [(k, s) for k in range(n // 2 + 1) for s in range(k * (n - k), -1, -1)]
    return _search(n, gamma, blocks, budget,
                   stop_on_first=not collect_witnesses, progress=progress)


def count_extremal_witnesses(n: int, gamma: int, size: int,
                             budget: Optional[float] = None, *,
                             progress: Optional[Callable[[int, int], None]] = None,
                             ) -> SearchResult:
    """Count isomorphism classes of bipartite graphs with the given order,
    domination number, unique minimum dominating set, and exact size."""
    _check_order(n, gamma)
    if size < 0:
        raise ValueError("size must be nonnegative")
    blocks = [(k, size) for k in range(n // 2 + 1) if size <= k * (n - k)]
    return _search(n, gamma, blocks, budget,
                   stop_on_first=False, progress=progress, size=size)


# ---------------------------------------------------------------------------
# forest minimum check


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
    isolated vertices and no two-vertex components; compare to the formula."""
    if not 3 <= n <= 7:
        raise ValueError("brute force supported for 3 <= n <= 7")
    pairs = list(combinations(range(n), 2))
    for s in range(len(pairs) + 1):
        for edge_set in combinations(pairs, s):
            if _components_ok(n, edge_set):
                return s == min_forest_edges(n)
    raise AssertionError("no qualifying graph found")  # unreachable for n >= 3
