"""Exhaustive enumeration oracles over small bipartite graphs.

The searches here are independent of the closed-form bounds: they generate
bipartite graphs, filter them with the exact solver, and report what they
find.  Every bipartite graph on n vertices can be relabeled so one side is
{0..k-1} with k <= n/2, and the other side's vertices can be permuted
freely too.  Both quantities computed here (maximum size, set of
isomorphism classes) are invariant under relabeling, so each side split
enumerates only the k x (n-k) biadjacency matrices in double-lex form: rows
nonincreasing, columns ordered lexicographically.  Every 0/1 matrix has a
row and column permutation of that form (Lubiw, "Doubly lexical orderings
of matrices", 1987), so no graph is missed; witnesses are still merged into
classes by isomorphism, since several double-lex matrices can describe the
same graph.  The tests check this enumeration against the unreduced scan
of every labeled mask for all small orders, and against a Burnside count of
the matrices up to row and column permutations for larger ones.

The per-matrix path is kept lean: the row tables the generator consults
are built once per column count, the last row is read from the rows of the
weight still needed instead of recursing once more, and ``closed`` is
filled in one pass over the set bits of each row.

Work is split into (side size, edge count) blocks.  One sequential driver
serves both searches: the maximum search lists every block from dense to
sparse so the best size found so far prunes whole blocks, and the witness
count lists the blocks of one edge count.  ``graphs_scanned`` reports the
labeled masks of the side-fixed space that a run accounts for, and
``masks_visited`` the double-lex matrices it actually visited.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from math import comb
from typing import Callable, Iterator, Optional

from .bounds import min_forest_edges
from .domination import _enumerate_covers, _exists_cover
from .graph import Graph, are_isomorphic, emit_graph6, iter_bits

HARD_CAP = 12


@dataclass
class SearchResult:
    """Outcome of a maximum search, or of a witness count when ``size`` is set.

    ``max_size`` is the largest size with a witness (None when there is
    none); ``witnesses`` holds one graph6 line per isomorphism class at it.
    ``graphs_scanned`` counts the labeled masks of the side-fixed space the
    run accounts for, and ``masks_visited`` the double-lex matrices visited
    to account for them; a block cut short by the budget adds to neither.
    """

    n: int
    gamma: int
    max_size: Optional[int]
    witnesses: list[str]
    graphs_scanned: int
    masks_visited: int
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
            "masks_visited": self.masks_visited,
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


@cache
def _row_tables(q: int) -> tuple[list[int], list[int], list[list[int]]]:
    """Tables over the q-bit rows, built on first use for each q.

    ``weight[r]`` is the number of ones in row r, ``most[r]`` the largest
    weight of any row r' <= r, and ``by_weight[w]`` the nonzero rows of
    weight w in decreasing order.
    """
    weight = [r.bit_count() for r in range(1 << q)]
    most = list(accumulate(weight, max))
    by_weight: list[list[int]] = [[] for _ in range(q + 1)]
    for r in range((1 << q) - 1, 0, -1):
        by_weight[weight[r]].append(r)
    return weight, most, by_weight


def _double_lex_matrices(k: int, q: int, s: int) -> Iterator[tuple[int, ...]]:
    """Yield every k x q 0/1 matrix in double-lex form with exactly ``s``
    ones and no zero row or column.

    Row i is the q-bit integer whose bit j is entry (i, j).  Double-lex form
    means the rows are nonincreasing as integers and each column j, read top
    to bottom, is lexicographically at most column j+1.  Rows are chosen top
    to bottom; ``tied`` keeps bit j set while columns j and j+1 are still
    equal, which is when a row may not put a one in column j without one in
    column j+1.  The last row must hold exactly the ones left, so it is
    taken from the rows of that weight without another level of recursion.
    """
    if k == 0 or not k <= s <= k * q:
        return
    weight, most, by_weight = _row_tables(q)
    rows = [0] * k
    last = k - 1

    def extend(i: int, prev: int, tied: int, left: int, cols: int):
        if i == last:
            # the rows above can leave more ones than one row holds
            if left > q:
                return
            for r in by_weight[left]:
                # column 0 is the least column: no column is empty iff it is not
                if r > prev or r & ~(r >> 1) & tied or not (cols | r) & 1:
                    continue
                rows[i] = r
                yield tuple(rows)
            return
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


def _scan_block(n: int, k: int, s: int, gamma: int, *, stop_on_first: bool,
                deadline: Optional[float]) -> tuple[list[tuple[str, Graph]], int, bool]:
    """Scan the double-lex k x (n-k) biadjacency matrices with exactly s edges.

    Returns (witnesses found, matrices visited, timed out).  A witness is an
    isolated-vertex-free graph whose domination number is exactly ``gamma``
    realized by a unique minimum set.
    """
    q = n - k
    full = (1 << n) - 1
    found: list[tuple[str, Graph]] = []
    visited = 0
    col_loops = [1 << v for v in range(k, n)]
    if deadline is not None and time.monotonic() >= deadline:
        return found, visited, True
    for rows in _double_lex_matrices(k, q, s):
        visited += 1
        if deadline is not None and time.monotonic() >= deadline:
            return found, visited, True
        # row i's vertex is i and column j's is k + j
        closed = [0] * k + col_loops
        for i, r in enumerate(rows):
            bit = 1 << i
            r <<= k
            closed[i] = r | bit
            while r:
                low = r & -r
                closed[low.bit_length() - 1] |= bit
                r ^= low
        # domination number must be exactly gamma, with a unique witness
        if gamma > 1 and _exists_cover(closed, full, gamma - 1):
            continue
        sets = _enumerate_covers(closed, full, gamma, cap=2)
        if len(sets) != 1:
            continue
        g = Graph(n, tuple(c ^ (1 << v) for v, c in enumerate(closed)))
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
    if budget is not None and not budget >= 0:
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget}")
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    best = -1
    scanned = 0
    masks_visited = 0
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
                complete = False
            else:
                # a finished block accounts for every labeled mask in it, each
                # a relabeling of a double-lex one; a block aborted after its
                # first find holds no other size that could move the max
                scanned += block_size
                masks_visited += visited
            if found:
                if s > best:
                    best = s
                    classes = []
                _merge_classes(classes, found)
        if progress:
            progress(scanned, best)
        if not complete:
            break

    return SearchResult(
        n=n,
        gamma=gamma,
        max_size=best if best >= 0 else None,
        witnesses=sorted(g6 for g6, _ in classes),
        graphs_scanned=scanned,
        masks_visited=masks_visited,
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
