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
same graph.  Each witness is color-refined once into an isomorphism-invariant
key, and the exact match runs only against the class representatives that
share its key.  The tests check this enumeration against the unreduced scan
of every labeled mask for all small orders, and against a Burnside count of
the matrices up to row and column permutations for larger ones.

The per-matrix path is kept lean: the generator's row tables are built once
per column count, the last row is read from the rows of the weight still
needed, ``closed`` is filled in one pass over each row's set bits, and the
witness test is one solve, the cap-2 cover collection at gamma.

Work is split into (side size, edge count) blocks.  One sequential driver
serves both searches: it takes edge-count levels in nonincreasing order and
scans each over every side split.  The maximum search passes every edge
count, densest first, so the first level with a witness is the maximum and
every sparser block is skipped; the witness count passes its one edge
count.  ``graphs_scanned`` reports the labeled masks of the side-fixed
space that a run accounts for, and ``masks_visited`` the double-lex
matrices it actually visited.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import comb
from typing import Callable, Iterable, Iterator, Optional

# _exists_cover stays bound here because perfbench/spans.py wraps it in this module
from .domination import _enumerate_covers, _exists_cover, exterior_private_neighbors
from .graph import Graph, _match, _refine, emit_graph6, iter_bits

HARD_CAP = 12


@dataclass
class SearchResult:
    """Outcome of a maximum search, or of a witness count when ``size`` is set.

    ``max_size`` is the largest size with a witness (None when there is
    none).  ``witnesses`` holds one graph6 line per isomorphism class at
    it, except in a maximum search without ``collect_witnesses``, which stops
    at its first witness and lists that one graph.
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
        count = exterior_private_neighbors(g, v, dset).bit_count()
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
        # a smaller domination number or a second minimum set shows a second cover
        sets = _enumerate_covers(closed, full, gamma, cap=2)
        if len(sets) != 1 or sets[0].bit_count() != gamma:
            continue
        g = Graph(n, tuple(c ^ (1 << v) for v, c in enumerate(closed)))
        _assert_unique_domination_properties(g, gamma, sets[0])
        found.append((emit_graph6(g), g))
        if stop_on_first:
            return found, visited, False
    return found, visited, False


def _merge_classes(classes: list[tuple[str, Graph]],
                   found: list[tuple[str, Graph]],
                   index: dict[tuple[int, ...], list[tuple[Graph, list[int]]]]) -> None:
    """Append to ``classes`` each found witness isomorphic to no class yet.

    ``index`` maps a refinement key to the representatives (with their
    colorings) of the classes that share it, so each witness is refined once
    and matched only against those.  The first-found member of a class stays
    its representative.
    """
    for g6, g in found:
        key, colors = _refine(g)
        reps = index.setdefault(key, [])
        if not any(_match(g, colors, rep, rep_colors) for rep, rep_colors in reps):
            reps.append((g, colors))
            classes.append((g6, g))


def _search(n: int, gamma: int, sizes: Iterable[int],
            budget: Optional[float], *, stop_on_first: bool,
            progress: Optional[Callable[[int, int], None]],
            size: Optional[int] = None) -> SearchResult:
    """Scan the edge counts in ``sizes``, which must not increase, each over
    every side split k <= n/2 that can hold it, k ascending.

    The first size with a witness is the largest one, since every denser
    level has finished without one, so ``best`` is set once and the classes
    found at it are final.  Blocks below ``best`` are skipped, and with
    ``stop_on_first`` so are the rest of its level."""
    if budget is not None and not budget >= 0:
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget}")
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    best = -1
    scanned = 0
    masks_visited = 0
    classes: list[tuple[str, Graph]] = []
    index: dict[tuple[int, ...], list[tuple[Graph, list[int]]]] = {}
    complete = True
    blocks = ((k, s) for s in sizes for k in range(n // 2 + 1) if s <= k * (n - k))
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
                best = s
                _merge_classes(classes, found, index)
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
    comes back with ``complete=False``.  The levels run densest first, so a
    size is reported only once every denser level has finished: any size a
    cut-short run reports is the maximum, though its witness list may be
    partial.  ``progress`` is called after every block with the masks
    scanned so far and the best size, which is -1 until the first witness
    and the maximum from then on.
    """
    _check_order(n, gamma)
    return _search(n, gamma, range((n // 2) * (n - n // 2), -1, -1), budget,
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
    return _search(n, gamma, (size,), budget,
                   stop_on_first=False, progress=progress, size=size)
