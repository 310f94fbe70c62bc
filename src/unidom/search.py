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
share its key.  A witness stays a ``Graph`` until its class is final: graph6
is written once per class, for the result.  The tests check this
enumeration against the unreduced scan of every labeled mask for all small
orders, and against a Burnside count of the matrices up to row and column
permutations for larger ones.

The walk also skips double-lex matrices that cannot be the lex-max member
of their orbit under row and column permutations, the matrix read as its
tuple of rows.  Two lex-leader rules (orderly generation, after Read's
"Every one a winner", 1978) are checked as each row is placed: no row is
heavier than row 0, and no row below row 1 ranks above row 1, a row's rank
being its ones inside row 0, then its ones outside it (the swap that proves
them is in ``_double_lex_matrices``).  The walk meets the matrices in
decreasing lex order, so the first member of an orbit it meets is the
lex-max one, which both rules keep; the witnesses it finds first, and so
every class representative, are the same as without the rules.

The per-matrix path is kept lean: the row tables are built once per column
count, one candidate loop places every row, the last from the rows of the
weight still needed, and ``closed``, which shows whether column 0 is filled,
is carried down the walk, each accepted row adding its vertex to its
columns.  The witness test is one solve, the cap-2 cover collection at
gamma.  The walk also skips every prefix whose completions that test would
all reject (see ``_double_lex_matrices``), so the witnesses come in the same
order as over the full double-lex sequence.

Work is split into (side size, edge count) blocks.  One sequential driver
serves both searches and scans each edge-count level over every side
split.  The witness count passes its one edge count.  The maximum search
passes none, and the driver takes every edge count, densest first, so the
first level with a witness is the maximum and every sparser block is
skipped.  ``graphs_scanned`` reports the labeled masks of the side-fixed
space that a run accounts for, and ``masks_visited`` the matrices the walk
reached; one under a cut prefix, or skipped by a lex-leader rule, is
accounted for, not reached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import comb
from typing import Callable, Iterator, Optional

# _exists_cover stays bound here because perfbench/spans.py wraps it in this module
from .domination import _enumerate_covers, _exists_cover, check_epn_condition
from .graph import Graph, _match, _refine, emit_graph6

HARD_CAP = 12


@dataclass
class SearchResult:
    """Outcome of a maximum search, or of a witness count when ``size`` is set.

    ``max_size`` is the largest size with a witness (None when there is
    none).  ``witnesses`` holds one graph6 line per isomorphism class at
    it, except in a maximum search without ``collect_witnesses``, which stops
    at its first witness and lists that one graph.
    ``graphs_scanned`` counts the labeled masks of the side-fixed space the
    run accounts for, and ``masks_visited`` the matrices the walk reached to
    account for them: the double-lex matrices that keep both lex-leader
    rules and lie under no cut prefix.  A block cut short by the budget adds
    to neither.
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
    if not check_epn_condition(g, dset):
        raise AssertionError(
            "unique minimum dominating set with a dominator that has fewer "
            "than two exterior private neighbors"
        )


@cache
def _row_tables(q: int) -> tuple[list[int], list[int], list[list[int]], list[tuple[int, ...]]]:
    """Tables over the q-bit rows, built on first use for each q.

    ``weight[r]`` is the number of ones in row r, ``most[r]`` the largest
    weight of any row r' <= r, ``by_weight[w]`` the nonzero rows of weight w
    in decreasing order, and ``ones[r]`` the columns where row r has a one.
    """
    weight = [r.bit_count() for r in range(1 << q)]
    most = list(accumulate(weight, max))
    by_weight: list[list[int]] = [[] for _ in range(q + 1)]
    for r in range((1 << q) - 1, 0, -1):
        by_weight[weight[r]].append(r)
    ones = [tuple(j for j in range(q) if r >> j & 1) for r in range(1 << q)]
    return weight, most, by_weight, ones


def _double_lex_matrices(k: int, q: int, s: int, gamma: int,
                         deadline: Optional[float] = None) -> Iterator[list[int]]:
    """Walk the k x q 0/1 matrices in double-lex form with exactly ``s``
    ones and no zero row or column, and yield the closed neighborhoods of
    each one's bipartite graph, except for those that break a lex-leader
    rule or lie under a prefix that rules out a witness at ``gamma``.

    Row i is the q-bit integer whose bit j is entry (i, j).  Double-lex form
    means the rows are nonincreasing as integers and each column j, read top
    to bottom, is lexicographically at most column j+1.  One loop places the
    rows top to bottom; ``tied`` keeps bit j set while columns j and j+1 are
    still equal, which is when a row may not put a one in column j without
    one in column j+1.  The last row must hold exactly the ones left, so it
    is taken from the rows of that weight, at most the row above, as a leaf.

    Two lex-leader rules skip every matrix that is not the lex-max member
    of its orbit under row and column permutations, the matrix read as its
    tuple of rows.  That member is in double-lex form itself, since
    swapping two rows or two columns out of order gives a larger matrix.
    Row 0 holds its ones in the top columns, so:

    1. No row is heavier than row 0.  Moving a heavier row to the top and
       its ones to the top columns gives a larger row 0.
    2. No row below row 1 ranks above row 1, the rank of a row being
       (its ones inside row 0, its ones outside row 0), compared
       lexicographically.  Moving such a row to position 1, then permuting
       the columns inside row 0 and those outside it, which leaves row 0
       as it is, gives a larger row 1 under the same row 0.

    Rule 1 also caps the ones the free rows can take at row 0's weight
    each.  Both rules read only the rows already placed, so they cut a
    prefix before its prefix test.  The walk runs in decreasing lex order,
    so the first member of each orbit it reaches is the lex-max one, and
    the rules never move a first find.

    Row i is vertex i and column j is vertex k + j.  Each accepted row adds
    its vertex to its columns' closed neighborhoods in a copy made after
    every filter, so each yielded list is the caller's to keep.  Column 0 is
    the least column: none is empty iff vertex k's list is not k alone.

    A prefix is cut when the graph H on its fixed rows and all q columns has
    a dominating set D of at most gamma - t vertices, t >= 1 being the rows
    still free.  The walk fills those with nonzero rows, so D and the free
    row vertices dominate every completion with at most gamma vertices.  A
    free row vertex x has a neighbor c: if c is in D, dropping x leaves a
    smaller dominating set, and otherwise swapping x for c gives a second
    one.  Either way the completion has two dominating sets of at most
    gamma vertices, and the witness test rejects it.  The test runs only
    when gamma - t >= 2: one vertex dominates a prefix only when the prefix
    has a single row, adjacent to every column, or a single column, so a
    one-pick test would seldom cut.  At gamma = 2 nothing is cut.

    Raises TimeoutError once ``deadline`` has passed, checked at the start
    and at each accepted row that ends a matrix or faces a prefix test.
    """
    if deadline is not None and time.monotonic() >= deadline:
        raise TimeoutError
    if k == 0 or not k <= s <= k * q:
        return
    weight, most, by_weight, ones = _row_tables(q)
    span = q + 1
    columns = ((1 << q) - 1) << k

    def extend(i: int, prev: int, tied: int, left: int, closed: list[int],
               top: int, ceiling: int):
        # top is row 0 and ceiling the rank of row 1; until they are placed,
        # all ones and a rank no row exceeds.  A rank is kept as one number,
        # ones inside row 0 then ones in all, which orders rows as
        # (inside, outside) does
        rows_left = k - i
        free = rows_left - 1
        test = free and gamma - free >= 2
        timed = deadline is not None and (test or not free)
        prefix_full = (2 << i) - 1 | columns
        heaviest = weight[top]
        bit = 1 << i
        for r in range(prev, 0, -1) if free else by_weight[left]:
            if not free and (r > prev or not r & 1 and closed[k] == 1 << k):
                continue
            if left > rows_left * most[r]:
                break
            if r & ~(r >> 1) & tied:
                continue
            w = weight[r]
            rank = weight[r & top] * span + w
            if w > heaviest or rank > ceiling:
                continue
            # each free row holds at least one one, and no more than row 0
            # (q while row 0 itself is being placed)
            rest = left - w
            if not free <= rest <= free * heaviest:
                continue
            if timed and time.monotonic() >= deadline:
                raise TimeoutError
            prefix = closed.copy()
            prefix[i] = r << k | bit
            for j in ones[r]:
                prefix[k + j] |= bit
            if not free:
                yield prefix
            elif not (test and _enumerate_covers(prefix, prefix_full, gamma - free, cap=1)):
                yield from extend(i + 1, r, tied & ~(r ^ (r >> 1)), rest, prefix,
                                  r if i == 0 else top, rank if i == 1 else ceiling)

    yield from extend(0, (1 << q) - 1, (1 << (q - 1)) - 1, s,
                      [0] * k + [1 << v for v in range(k, k + q)],
                      (1 << q) - 1, q * span + q)


def _scan_block(n: int, k: int, s: int, gamma: int, *, stop_on_first: bool,
                deadline: Optional[float]) -> tuple[list[Graph], int, bool]:
    """Scan the double-lex k x (n-k) biadjacency matrices with exactly s
    edges that the walk reaches.

    Returns (witness graphs found, matrices reached, timed out).  A witness is an
    isolated-vertex-free graph whose domination number is exactly ``gamma``
    realized by a unique minimum set.
    """
    full = (1 << n) - 1
    found: list[Graph] = []
    visited = 0
    try:
        for closed in _double_lex_matrices(k, n - k, s, gamma, deadline):
            visited += 1
            # a smaller domination number or a second minimum set shows a second cover
            sets = _enumerate_covers(closed, full, gamma, cap=2)
            if len(sets) != 1 or sets[0].bit_count() != gamma:
                continue
            g = Graph(n, tuple(c ^ (1 << v) for v, c in enumerate(closed)))
            _assert_unique_domination_properties(g, gamma, sets[0])
            found.append(g)
            if stop_on_first:
                return found, visited, False
    except TimeoutError:
        return found, visited, True
    return found, visited, False


def _merge_classes(classes: list[Graph], found: list[Graph],
                   index: dict[tuple[int, ...], list[tuple[Graph, list[int]]]]) -> None:
    """Append to ``classes`` each found witness isomorphic to no class yet.

    ``index`` maps a refinement key to the representatives (with their
    colorings) of the classes that share it, so each witness is refined once
    and matched only against those.  The first-found member of a class stays
    its representative.
    """
    for g in found:
        key, colors = _refine(g)
        reps = index.setdefault(key, [])
        if not any(_match(g, colors, rep, rep_colors) for rep, rep_colors in reps):
            reps.append((g, colors))
            classes.append(g)


def _search(n: int, gamma: int, size: Optional[int],
            budget: Optional[float], *, stop_on_first: bool,
            progress: Optional[Callable[[int, int], None]]) -> SearchResult:
    """Scan the edge count ``size``, or every edge count densest first when
    ``size`` is None, each over every side split k <= n/2 that can hold it,
    k ascending.

    The first size with a witness is the largest one, since every denser
    level has finished without one, so ``best`` is set once and the classes
    found at it are final.  Blocks below ``best`` are skipped, and with
    ``stop_on_first`` so are the rest of its level."""
    start = time.monotonic()
    deadline = start + budget if budget is not None else None
    best = -1
    scanned = 0
    masks_visited = 0
    classes: list[Graph] = []
    index: dict[tuple[int, ...], list[tuple[Graph, list[int]]]] = {}
    complete = True
    # no split k <= n/2 holds more than floor(n^2 / 4) edges
    levels = range(n * n // 4, -1, -1) if size is None else (size,)
    blocks = ((k, s) for s in levels for k in range(n // 2 + 1) if s <= k * (n - k))
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
        witnesses=sorted(emit_graph6(g) for g in classes),
        graphs_scanned=scanned,
        masks_visited=masks_visited,
        elapsed=time.monotonic() - start,
        complete=complete,
        size=size,
    )


def check_search_args(n: int, gamma: int, size: Optional[int] = None,
                      budget: Optional[float] = None) -> None:
    """Raise ``ValueError`` for arguments that no search accepts.

    Both searches call it first; the CLI calls it before it opens a
    witness file, so a usage error leaves no file behind."""
    if not 1 <= n <= HARD_CAP:
        raise ValueError(f"order must be between 1 and {HARD_CAP}")
    if gamma < 2:
        raise ValueError("search requires gamma >= 2")
    if size is not None and size < 0:
        raise ValueError("size must be nonnegative")
    if budget is not None and not budget >= 0:
        raise ValueError(f"budget must be a nonnegative number of seconds, got {budget}")


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
    check_search_args(n, gamma, budget=budget)
    return _search(n, gamma, None, budget, stop_on_first=not collect_witnesses,
                   progress=progress)


def count_extremal_witnesses(n: int, gamma: int, size: int,
                             budget: Optional[float] = None, *,
                             progress: Optional[Callable[[int, int], None]] = None,
                             ) -> SearchResult:
    """Count isomorphism classes of bipartite graphs with the given order,
    domination number, unique minimum dominating set, and exact size."""
    check_search_args(n, gamma, size, budget)
    return _search(n, gamma, size, budget, stop_on_first=False, progress=progress)
