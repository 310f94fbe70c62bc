"""Simple undirected graphs on up to one machine word of vertices.

Each graph stores one adjacency bitmask per vertex, so neighborhood unions,
domination tests and complement arithmetic are single integer operations.
This module also carries the structural toolbox the rest of the package is
built on: two-coloring (a bipartition is the vertex mask of one side),
bipartite complement, graph6 / edge-list / DOT serialization, and a
small-order isomorphism test.  The test color-refines each graph once on its
own, into an invariant key and a vertex coloring, and then backtracks only
over maps between vertices of equal color; the search reuses the two steps
to merge witnesses by key.

A graph checks its own adjacency rows when it is built.  Symmetry is one
comparison: the rows packed into a single integer against its transpose,
taken with log2 W block swaps for a row width W (Warren, *Hacker's
Delight*, section 7-3), so the check costs O(n) row conversions and a few
big-integer operations rather than one Python step per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Mapping, Optional

# One adjacency row per machine word; nothing in this package needs more.
MAX_VERTICES = 64


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    """Set bit positions of ``mask`` as a sorted list."""
    return list(iter_bits(mask))


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with exactly the given vertex positions set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@cache
def _transpose_steps(w: int) -> tuple[tuple[int, int], ...]:
    """Block-swap steps that transpose a ``w`` x ``w`` bit matrix packed row
    by row (bit j of row i at position i * w + j), ``w`` a power of two.

    Step s, for s = w/2, ..., 1, swaps each entry (i, j) with bit s clear in
    i and set in j with the entry (i + s, j - s), s * (w - 1) positions up;
    it returns ``(s * (w - 1), mask)``, the mask marking the first entries.
    """
    steps = []
    s = w // 2
    while s:
        cols = sum(((1 << s) - 1) << (c + s) for c in range(0, w, 2 * s))
        rows = sum(1 << (i * w) for i in range(w) if not i & s)
        steps.append((s * (w - 1), cols * rows))
        s //= 2
    return tuple(steps)


def _asymmetric_pair(adj: tuple[int, ...]) -> Optional[tuple[int, int]]:
    """The first pair (i, j), by row i and then column j, with j in row i
    but i not in row j, or None: the lowest bit of the packed rows (bit j of
    row i at i * w + j), each within range, that their transpose lacks."""
    w = 8
    while w < len(adj):
        w *= 2
    nbytes = w // 8
    # byteorder is passed explicitly: Python 3.10 has no default for it
    m = int.from_bytes(b"".join([row.to_bytes(nbytes, "little") for row in adj]), "little")
    t = m
    for shift, mask in _transpose_steps(w):
        x = (t ^ (t >> shift)) & mask
        t ^= x ^ (x << shift)
    diff = m & ~t
    if not diff:
        return None
    return divmod((diff & -diff).bit_length() - 1, w)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: ``adj[i]`` is the neighbor bitmask of vertex i.

    Construction checks every row for bits beyond the vertex range and for
    a self-loop, then checks symmetry with one packed transpose, which also
    names the first asymmetric pair when there is one.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        _check_vertex_count(self.n)
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for i, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {i} has bits beyond vertex range")
            if (row >> i) & 1:
                raise ValueError(f"self-loop at vertex {i}")
        pair = _asymmetric_pair(self.adj)
        if pair is not None:
            raise ValueError("asymmetric adjacency between %d and %d" % pair)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def size(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for off in iter_bits(row):
                out.append((u, u + 1 + off))
        return out

    def isolated_vertices(self) -> int:
        """Bitmask of degree-zero vertices."""
        m = 0
        for v in range(self.n):
            if not self.adj[v]:
                m |= 1 << v
        return m


def _check_vertex_count(n: int) -> None:
    # callers check before they allocate anything of size n, so a huge order
    # fails at once
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    _check_vertex_count(n)
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def _conflict(g: Graph, side: int) -> int:
    """The first vertex with a neighbor on its own side of the split into
    ``side`` and the rest, scanning ``side`` first; -1 when there is none."""
    for part in (side, g.full_mask & ~side):
        for v in iter_bits(part):
            if g.adj[v] & part:
                return v
    return -1


def check_bipartition(g: Graph, side: int) -> None:
    """Raise ValueError unless the vertex mask ``side`` and the rest of the
    vertices are both independent sets of ``g``."""
    if side & ~g.full_mask:
        raise ValueError("partition side has bits beyond the vertex range")
    v = _conflict(g, side)
    if v >= 0:
        raise ValueError(f"edge inside partition side at vertex {v}")


def find_bipartition(g: Graph) -> Optional[int]:
    """Two-color ``g``: the mask of one side, or None if ``g`` has an odd cycle.

    Each component's lowest vertex is on the returned side, with every
    vertex an even number of BFS layers from it; the other side is the rest.
    """
    side = 0
    rest = g.full_mask
    while rest:
        layer = rest & -rest
        even = True
        while layer:
            rest &= ~layer
            if even:
                side |= layer
            reach = 0
            for v in iter_bits(layer):
                reach |= g.adj[v]
            layer = reach & rest
            even = not even
    return None if _conflict(g, side) >= 0 else side


def bipartite_complement(g: Graph, side: int) -> Graph:
    """Swap present and absent cross edges of the split into ``side`` and
    the rest; both sides stay independent."""
    check_bipartition(g, side)
    other = g.full_mask & ~side
    rows = [(other if (side >> v) & 1 else side) & ~g.adj[v] for v in range(g.n)]
    return Graph(g.n, tuple(rows))


# ---------------------------------------------------------------------------
# graph6


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _g6_encode_order(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    # 18-bit long form covers everything this package can represent
    return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))


def emit_graph6(g: Graph) -> str:
    """Encode as one graph6 line (no trailing newline)."""
    parts = [_g6_encode_order(g.n)]
    buf = 0
    nbits = 0
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            buf = (buf << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                parts.append(chr(63 + buf))
                buf = 0
                nbits = 0
    if nbits:
        parts.append(chr(63 + (buf << (6 - nbits))))
    return "".join(parts)


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (an optional ``>>graph6<<`` header is stripped)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 input")
    vals = []
    for ch in s:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise Graph6Error(f"byte {o} outside graph6 range")
        vals.append(o - 63)
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    else:
        if len(vals) < 4:
            raise Graph6Error("truncated order field")
        if vals[1] == 63:
            raise Graph6Error("graph6 orders beyond 18 bits are not supported")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"order {n} exceeds the {MAX_VERTICES}-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) < need:
        raise Graph6Error("truncated bit payload")
    if len(body) > need:
        raise Graph6Error("trailing bytes after bit payload")
    # the last byte pads the payload to a multiple of six bits with zeros
    if need and body[-1] & ((1 << (6 * need - nbits)) - 1):
        raise Graph6Error("nonzero padding bits after the bit payload")
    rows = [0] * n
    idx = 0
    for j in range(1, n):
        for i in range(j):
            bit = (body[idx // 6] >> (5 - idx % 6)) & 1
            if bit:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            idx += 1
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# edge-list text format: "n m" header, then one "u v" line per edge


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.size()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _edge_list_int(token: str) -> int:
    # int() alone would also take '+3', '1_0' and digits of other scripts;
    # a minus sign stays, so a negative number fails the range checks instead
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int: {token!r} (ASCII digits only)")
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse an ``n m`` header followed by exactly m distinct ``u v`` lines.

    Every number is written in ASCII digits, with an optional minus sign.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("edge-list header must be 'n m'")
    n, m = _edge_list_int(head[0]), _edge_list_int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header declares {m} edges, found {len(lines) - 1} edge lines")
    edges = []
    seen = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = _edge_list_int(parts[0]), _edge_list_int(parts[1])
        if frozenset((u, v)) in seen:
            raise ValueError(f"edge {u} {v} is listed twice")
        seen.add(frozenset((u, v)))
        edges.append((u, v))
    return from_edge_list(n, edges)


def emit_dot(g: Graph, labels: Optional[Mapping[int, str]] = None) -> str:
    """DOT output (undirected); ``labels`` override the numeric node names."""
    lines = ["graph G {"]
    for v in range(g.n):
        if labels and v in labels:
            lines.append(f'  {v} [label="{labels[v]}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# isomorphism


def _refine(g: Graph) -> tuple[tuple[int, ...], list[int]]:
    """Color refinement (1-dimensional Weisfeiler-Leman) of ``g`` on its own.

    Colors start as degrees; each round recolors every vertex by a hash of
    its own color and the sorted colors of its neighbors, until a round adds
    no color class.  A color depends only on that signature, never on vertex
    numbers, so ``key`` (the sorted colors) is an isomorphism invariant that
    can be compared across graphs refined at different times.  A hash
    collision only coarsens the coloring, which the exact match tolerates.
    Returns ``(key, colors)`` with ``colors[v]`` the color of vertex v.
    """
    adj = g.adj
    colors = [row.bit_count() for row in adj]
    classes = len(set(colors))
    while True:
        nxt = []
        for v, row in enumerate(adj):
            nbr = []
            while row:
                low = row & -row
                nbr.append(colors[low.bit_length() - 1])
                row ^= low
            nbr.sort()
            nxt.append(hash((colors[v], tuple(nbr))))
        grown = len(set(nxt))
        if grown <= classes:
            break
        colors, classes = nxt, grown
    return tuple(sorted(colors)), colors


def _match(g: Graph, cg: list[int], h: Graph, ch: list[int]) -> bool:
    """Backtracking search for an isomorphism from ``g`` to ``h`` that maps
    each vertex to one of the same color.  ``cg`` and ``ch`` come from
    ``_refine``, and the two refinement keys must be equal."""
    by_color: dict[int, list[int]] = {}
    for w, c in enumerate(ch):
        by_color.setdefault(c, []).append(w)
    # map the most constrained vertices first
    order = sorted(range(g.n), key=lambda v: (len(by_color[cg[v]]), cg[v], v))
    image = [-1] * g.n

    def extend(pos: int, placed: int, used: int) -> bool:
        if pos == g.n:
            return True
        v = order[pos]
        # the images of v's already placed neighbors are exactly the placed
        # vertices an image of v must be adjacent to
        want = 0
        for u in iter_bits(g.adj[v] & placed):
            want |= 1 << image[u]
        for w in by_color[cg[v]]:
            if (used >> w) & 1 or h.adj[w] & used != want:
                continue
            image[v] = w
            if extend(pos + 1, placed | (1 << v), used | (1 << w)):
                return True
        return False

    return extend(0, 0, 0)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test, intended for small orders (n <= 12 or so).

    Each graph is color-refined once on its own (``_refine``); graphs whose
    refinement keys differ are not isomorphic, and otherwise a backtracking
    match restricted to equal colors decides (``_match``).
    """
    if g.n != h.n or g.size() != h.size():
        return False
    key_g, cg = _refine(g)
    key_h, ch = _refine(h)
    return key_g == key_h and _match(g, cg, h, ch)
