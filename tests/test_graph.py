import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unidom import (
    MAX_VERTICES,
    Graph,
    Graph6Error,
    are_isomorphic,
    bipartite_complement,
    bit_list,
    emit_dot,
    emit_edge_list,
    emit_graph6,
    find_bipartition,
    from_edge_list,
    mask_of,
    parse_edge_list,
    parse_graph6,
)

from unidom.graph import _match, _refine, check_bipartition

from conftest import (
    bipartite_graphs,
    brute_force_isomorphic,
    degree_sequence,
    graphs,
    random_bipartite,
)

try:
    import networkx as nx
except ImportError:  # test-only cross-oracle
    nx = None


def path(n):
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


class TestFromEdgeList:
    def test_p3(self):
        g = from_edge_list(3, [(0, 1), (1, 2)])
        assert g.size() == 2
        assert g.degree(1) == 2

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        assert g.n == 1 and g.size() == 0

    def test_duplicates_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.size() == 1

    def test_reference_graph_size(self, reference_10_3):
        assert reference_10_3.size() == 15

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            Graph(65, tuple([0] * 65))

    @pytest.mark.parametrize("n", [-1, MAX_VERTICES + 1, 10**19])
    def test_order_checked_before_allocation(self, n):
        # 10**19 does not fit an index: allocating its rows would overflow
        with pytest.raises(ValueError, match=f"vertex count {n} outside"):
            from_edge_list(n, [])

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="^asymmetric adjacency between 0 and 1$"):
            Graph(2, (0b10, 0b00))

    def test_row_count_must_match_order(self):
        with pytest.raises(ValueError,
                           match="^adjacency row count does not match vertex count$"):
            Graph(3, (0, 0))


# orders at and around the packed row widths of the symmetry check (8, 16,
# 32 and 64 bits), the empty graph and the 64-vertex cap
_ROW_WIDTH_ORDERS = [0, 1, 7, 8, 9, 16, 17, 63, 64]


@st.composite
def symmetric_rows(draw):
    """Adjacency rows of a random simple graph at one of ``_ROW_WIDTH_ORDERS``."""
    n = draw(st.sampled_from(_ROW_WIDTH_ORDERS))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def first_asymmetric_pair(rows):
    """The pair an edge-by-edge scan in row order names first: the smallest
    row i, then the smallest j in it, with i missing from row j; None when
    the rows are symmetric."""
    for i, row in enumerate(rows):
        for j in bit_list(row):
            if not (rows[j] >> i) & 1:
                return i, j
    return None


class TestRowChecks:
    """``Graph`` checks its rows on construction: range, self-loops, and
    symmetry by one packed transpose, which also names the first asymmetric
    pair, the one a row-order edge scan would find first."""

    @given(symmetric_rows())
    @settings(max_examples=120, deadline=None)
    def test_symmetric_rows_accepted(self, rows):
        assert Graph(len(rows), tuple(rows)).adj == tuple(rows)

    @given(symmetric_rows().filter(lambda rows: len(rows) >= 2), st.data())
    @settings(max_examples=120, deadline=None)
    def test_one_flipped_bit_names_an_asymmetric_pair(self, rows, data):
        n = len(rows)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1).filter(lambda j: j != i))
        rows[i] ^= 1 << j
        with pytest.raises(ValueError, match="asymmetric adjacency") as info:
            Graph(n, tuple(rows))
        a, b = map(int, re.fullmatch(r"asymmetric adjacency between (\d+) and (\d+)",
                                     str(info.value)).groups())
        assert {a, b} == {i, j}
        assert (rows[a] >> b) & 1 != (rows[b] >> a) & 1

    @given(symmetric_rows().filter(lambda rows: len(rows) >= 2), st.data())
    @settings(max_examples=120, deadline=None)
    def test_named_pair_is_the_first_a_row_order_scan_finds(self, rows, data):
        n = len(rows)
        cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda c: c[0] != c[1])
        for i, j in data.draw(st.lists(cell, min_size=1, max_size=4, unique=True)):
            rows[i] ^= 1 << j
        pair = first_asymmetric_pair(rows)
        if pair is None:
            # flipping both (i, j) and (j, i) leaves the rows symmetric
            assert Graph(n, tuple(rows)).adj == tuple(rows)
        else:
            with pytest.raises(ValueError,
                               match="^asymmetric adjacency between %d and %d$" % pair):
                Graph(n, tuple(rows))

    @given(symmetric_rows().filter(lambda rows: len(rows) >= 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bit_beyond_range_named(self, rows, data):
        n = len(rows)
        i = data.draw(st.integers(0, n - 1))
        rows[i] |= 1 << data.draw(st.integers(n, 2 * n + 8))
        with pytest.raises(ValueError, match=f"^row {i} has bits beyond vertex range$"):
            Graph(n, tuple(rows))

    @given(symmetric_rows().filter(lambda rows: len(rows) >= 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_self_loop_named(self, rows, data):
        n = len(rows)
        v = data.draw(st.integers(0, n - 1))
        rows[v] |= 1 << v
        with pytest.raises(ValueError, match=f"^self-loop at vertex {v}$"):
            Graph(n, tuple(rows))


class TestDegreeSequence:
    def test_triangle(self):
        assert degree_sequence(cycle(3)) == [2, 2, 2]

    def test_edgeless(self):
        assert degree_sequence(from_edge_list(4, [])) == [0, 0, 0, 0]

    def test_reference_graph(self, reference_10_3):
        # hand count from the entered edge list
        assert degree_sequence(reference_10_3) == [5, 5, 3, 3, 3, 3, 3, 2, 2, 1]


class TestBipartition:
    def test_even_cycle(self):
        assert find_bipartition(cycle(4)) == mask_of([0, 2])

    def test_odd_cycle(self):
        assert find_bipartition(cycle(3)) is None

    def test_reference_graph_sides(self, reference_10_3):
        # a11, a12, a21, a22, x1 must land on one common side
        side = find_bipartition(reference_10_3)
        assert side is not None
        one_side = mask_of([0, 5, 6, 7, 8])
        assert side & one_side in (0, one_side)

    def test_disconnected_roots_on_a(self):
        g = from_edge_list(6, [(0, 1), (2, 3), (4, 5)])
        assert find_bipartition(g) == mask_of([0, 2, 4])

    @given(graphs(max_n=9))
    def test_partition_valid_when_found(self, g):
        side = find_bipartition(g)
        if side is not None:
            assert side & ~g.full_mask == 0
            for u, v in g.edges():
                assert ((side >> u) & 1) != ((side >> v) & 1)

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    def test_graph_atlas_against_networkx_and_bfs_parity(self):
        for h in nx.graph_atlas_g():
            g = from_edge_list(h.number_of_nodes(), list(h.edges()))
            side = find_bipartition(g)
            assert (side is not None) == nx.is_bipartite(h), g.edges()
            if side is not None:
                assert side == _bfs_parity_side(g), g.edges()


def _bfs_parity_side(g):
    """The vertices at an even BFS distance from their component's lowest
    vertex, found by a queue over vertex lists."""
    dist = {}
    for root in range(g.n):
        if root in dist:
            continue
        dist[root] = 0
        queue = [root]
        for u in queue:
            for w in range(g.n):
                if g.has_edge(u, w) and w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    return mask_of(v for v, d in dist.items() if d % 2 == 0)


class TestCheckBipartition:
    @pytest.mark.parametrize("side", [1 << 4, 1 << 70, mask_of([0, 2, 5]), -1])
    def test_side_beyond_the_graph_rejected(self, side):
        with pytest.raises(ValueError,
                           match="^partition side has bits beyond the vertex range$"):
            check_bipartition(cycle(4), side)

    @pytest.mark.parametrize("side, vertex", [
        (mask_of([0, 1]), 0),      # the edge 0-1 lies in the side
        (mask_of([0]), 1),         # the edge 1-2 lies in the rest
        (mask_of([0, 1, 2, 3]), 0),
        (0, 0),
    ])
    def test_conflict_named_side_first(self, side, vertex):
        with pytest.raises(ValueError, match=f"^edge inside partition side at vertex {vertex}$"):
            check_bipartition(cycle(4), side)

    def test_valid_split_passes(self):
        check_bipartition(cycle(4), mask_of([1, 3]))
        check_bipartition(from_edge_list(0, []), 0)


class TestBipartiteComplement:
    def test_complete_to_edgeless(self):
        g = from_edge_list(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
        assert bipartite_complement(g, mask_of([0, 1])).size() == 0

    def test_edgeless_to_complete(self):
        g = from_edge_list(4, [])
        assert bipartite_complement(g, mask_of([0, 1])).size() == 4

    def test_invalid_partition_rejected(self):
        g = from_edge_list(3, [(0, 1)])
        with pytest.raises(ValueError):
            bipartite_complement(g, mask_of([0, 1]))

    def test_involution_on_random_sample(self):
        rng = random.Random(20260808)
        for _ in range(100):
            n = rng.randint(2, 12)
            g, side = random_bipartite(rng, n, rng.uniform(0.1, 0.9))
            assert bipartite_complement(bipartite_complement(g, side), side) == g

    @given(bipartite_graphs(max_n=10))
    def test_sizes_sum_to_grid(self, pair):
        g, side = pair
        bc = bipartite_complement(g, side)
        assert g.size() + bc.size() == side.bit_count() * (g.n - side.bit_count())


def _reference_graph6(g: Graph) -> str:
    """Second, independent encoder: string-of-bits construction."""
    if g.n <= 62:
        head = chr(63 + g.n)
    else:
        head = "~" + "".join(
            chr(63 + int(f"{g.n:018b}"[i : i + 6], 2)) for i in (0, 6, 12)
        )
    bits = ""
    for j in range(1, g.n):
        for i in range(j):
            bits += "1" if g.has_edge(i, j) else "0"
    while len(bits) % 6:
        bits += "0"
    body = "".join(chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))
    return head + body


class TestGraph6:
    def test_edgeless_n3(self):
        # hand-encoded: order byte 'B', empty payload packs to '?'
        assert emit_graph6(from_edge_list(3, [])) == "B?"

    def test_known_one_edge(self):
        g = parse_graph6("B_")
        assert g.n == 3 and g.edges() == [(0, 1)]
        assert emit_graph6(g) == "B_"

    def test_matches_reference_encoder_exhaustive_n5(self):
        for n in range(6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for picks in range(1 << len(pairs)):
                g = from_edge_list(n, [pairs[i] for i in bit_list(picks)])
                s = emit_graph6(g)
                assert s == _reference_graph6(g)
                assert parse_graph6(s) == g

    def test_roundtrip_exhaustive_n6(self):
        self._roundtrip_all(6)

    @pytest.mark.slow
    def test_roundtrip_exhaustive_n7(self):
        self._roundtrip_all(7)

    @staticmethod
    def _roundtrip_all(n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for picks in range(1 << len(pairs)):
            rows = [0] * n
            for i in bit_list(picks):
                u, v = pairs[i]
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            g = Graph(n, tuple(rows))
            assert parse_graph6(emit_graph6(g)) == g

    def test_roundtrip_random_n12(self):
        rng = random.Random(1234)
        for _ in range(1000):
            n = rng.randint(0, 12)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            g = from_edge_list(n, edges)
            assert parse_graph6(emit_graph6(g)) == g

    def test_long_form_order(self):
        g = from_edge_list(63, [(0, 62)])
        s = emit_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g

    def test_header_prefix_accepted(self):
        assert parse_graph6(">>graph6<<B?").n == 3

    def test_truncated_payload(self):
        with pytest.raises(Graph6Error):
            parse_graph6("D")  # n=5 needs payload bytes

    def test_bad_byte(self):
        with pytest.raises(Graph6Error):
            parse_graph6("B\x1f")

    def test_trailing_garbage(self):
        with pytest.raises(Graph6Error):
            parse_graph6("B??")

    def test_nonzero_padding_bits_rejected(self):
        # order 2 has one payload bit; '@' is 000001, so its last padding bit
        # is set, and ignoring it would read the edgeless 'A?'
        with pytest.raises(Graph6Error,
                           match="^nonzero padding bits after the bit payload$"):
            parse_graph6("A@")

    @pytest.mark.parametrize("payload", ["", "?" * 347])
    def test_order_above_the_cap_rejected(self, payload):
        # '~?@@' is order 65 in the long form; 347 bytes hold its 2080 bits
        with pytest.raises(Graph6Error, match="^order 65 exceeds the 64-vertex cap$"):
            parse_graph6("~?@@" + payload)

    def test_36_bit_order_form_rejected(self):
        # "~~" opens the six-byte order field of orders beyond 258047
        with pytest.raises(Graph6Error,
                           match="^graph6 orders beyond 18 bits are not supported$"):
            parse_graph6("~~??????")


class TestEdgeListFormat:
    def test_roundtrip(self, reference_10_3):
        assert parse_edge_list(emit_edge_list(reference_10_3)) == reference_10_3

    def test_header_mismatch(self):
        with pytest.raises(ValueError):
            parse_edge_list("3 2\n0 1\n")

    def test_more_edge_lines_than_header(self):
        with pytest.raises(ValueError, match="header declares 1 edges, found 3"):
            parse_edge_list("3 1\n0 1\n1 2\n0 2\n")

    def test_edge_line_with_three_numbers(self):
        with pytest.raises(ValueError, match=r"^bad edge line: '0 1 2'$"):
            parse_edge_list("3 1\n0 1 2\n")

    @pytest.mark.parametrize("second", ["0 1", "1 0"])
    def test_repeated_edge(self, second):
        with pytest.raises(ValueError, match="listed twice"):
            parse_edge_list(f"3 2\n0 1\n{second}\n")


@st.composite
def any_order_graphs(draw, min_n: int = 0):
    """Graphs of every order up to the cap, biased towards the 4-byte
    graph6 order form (n >= 63), at a drawn edge density."""
    n = draw(st.integers(min_n, MAX_VERTICES) | st.integers(62, MAX_VERTICES))
    density = draw(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                              if rng.random() < density])


def _with_header(g, extra_lines, extra_edges):
    """``g``'s edge list with ``extra_lines`` appended and the header's edge
    count raised by ``extra_edges``."""
    lines = emit_edge_list(g).splitlines()
    lines[0] = f"{g.n} {g.size() + extra_edges}"
    return "\n".join(lines + extra_lines) + "\n"


# whitespace is left out: parse_graph6 strips it from both ends of the line
_NOT_G6 = st.characters().filter(lambda c: not 63 <= ord(c) <= 126 and not c.isspace())


class TestParserProperties:
    """Each parser on its own: exact round trips, and malformed input
    raising the parser's ValueError and nothing else."""

    @given(any_order_graphs())
    @settings(max_examples=80, deadline=None)
    def test_graph6_round_trip(self, g):
        s = emit_graph6(g)
        assert s.startswith("~") == (g.n >= 63)
        assert len(s) == (4 if g.n >= 63 else 1) + (g.n * (g.n - 1) // 2 + 5) // 6
        assert parse_graph6(s) == g

    @given(any_order_graphs())
    @settings(max_examples=80, deadline=None)
    def test_edge_list_round_trip(self, g):
        assert parse_edge_list(emit_edge_list(g)) == g

    @given(st.text() | st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=130)))
    @settings(max_examples=300)
    def test_graph6_rejects_with_graph6_error_only(self, text):
        try:
            g = parse_graph6(text)
        except Graph6Error:
            return
        assert parse_graph6(emit_graph6(g)) == g

    @given(any_order_graphs(min_n=2))
    @settings(max_examples=40, deadline=None)
    def test_graph6_truncated_payload(self, g):
        with pytest.raises(Graph6Error, match="truncated"):
            parse_graph6(emit_graph6(g)[:-1])

    @given(any_order_graphs(), st.integers(63, 126))
    @settings(max_examples=40, deadline=None)
    def test_graph6_trailing_payload(self, g, extra):
        with pytest.raises(Graph6Error, match="trailing"):
            parse_graph6(emit_graph6(g) + chr(extra))

    @given(any_order_graphs().filter(lambda g: g.n * (g.n - 1) // 2 % 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_graph6_padding_bits_must_be_zero(self, g, data):
        s = emit_graph6(g)
        pad = -(g.n * (g.n - 1) // 2) % 6
        bit = data.draw(st.integers(0, pad - 1))
        with pytest.raises(Graph6Error, match="padding"):
            parse_graph6(s[:-1] + chr(63 + ((ord(s[-1]) - 63) | 1 << bit)))

    @given(any_order_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_graph6_byte_out_of_range(self, g, data):
        s = emit_graph6(g)
        i = data.draw(st.integers(0, len(s) - 1))
        bad = s[:i] + data.draw(_NOT_G6) + s[i + 1:]
        with pytest.raises(Graph6Error, match="outside graph6 range"):
            parse_graph6(bad)

    @given(st.text() | st.text(alphabet="0123456789 -#\n"))
    @settings(max_examples=300)
    def test_edge_list_rejects_with_value_error_only(self, text):
        try:
            g = parse_edge_list(text)
        except ValueError:
            return
        assert parse_edge_list(emit_edge_list(g)) == g

    @given(any_order_graphs(), st.integers(-3, 3).filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_edge_list_header_count_mismatch(self, g, delta):
        with pytest.raises(ValueError, match="header declares"):
            parse_edge_list(_with_header(g, [], delta))

    @given(any_order_graphs(min_n=2).filter(lambda g: g.size() > 0), st.data())
    @settings(max_examples=40, deadline=None)
    def test_edge_list_repeated_edge(self, g, data):
        u, v = data.draw(st.sampled_from(g.edges()))
        line = data.draw(st.sampled_from([f"{u} {v}", f"{v} {u}"]))
        with pytest.raises(ValueError, match="listed twice"):
            parse_edge_list(_with_header(g, [line], 1))

    @given(any_order_graphs(min_n=1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_edge_list_self_loop(self, g, data):
        v = data.draw(st.integers(0, g.n - 1))
        with pytest.raises(ValueError, match="self-loop"):
            parse_edge_list(_with_header(g, [f"{v} {v}"], 1))

    @given(any_order_graphs(min_n=1), st.data())
    @settings(max_examples=40, deadline=None)
    def test_edge_list_endpoint_out_of_range(self, g, data):
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.integers(g.n, 10**20) | st.integers(-10**20, -1))
        line = data.draw(st.sampled_from([f"{u} {v}", f"{v} {u}"]))
        with pytest.raises(ValueError, match="outside"):
            parse_edge_list(_with_header(g, [line], 1))

    @pytest.mark.parametrize("text", [
        "1_0 0\n",            # int() reads 10
        "\u0663 0\n",         # ARABIC-INDIC DIGIT THREE
        "+3 0\n",
        "3 1\n0 \u0661\n",    # ARABIC-INDIC DIGIT ONE in an edge line
        "3 1\n0 +1\n",
        "3 1_0\n",
        "3 \uff10\n",          # FULLWIDTH DIGIT ZERO
    ])
    def test_edge_list_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="ASCII digits only"):
            parse_edge_list(text)

    @given(any_order_graphs(), st.sampled_from(["x", "3.0", "1e3", "0x10", "n"]),
           st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_edge_list_non_integer_header(self, g, token, in_order_field):
        lines = emit_edge_list(g).splitlines()
        lines[0] = f"{token} {g.size()}" if in_order_field else f"{g.n} {token}"
        with pytest.raises(ValueError, match="invalid literal for int"):
            parse_edge_list("\n".join(lines) + "\n")


class TestDot:
    def test_labels_present(self):
        g = from_edge_list(2, [(0, 1)])
        out = emit_dot(g, labels={0: "x1", 1: "b1,1"})
        assert 'label="x1"' in out and "0 -- 1;" in out

    def test_numeric_names_without_labels(self):
        g = from_edge_list(3, [(0, 2)])
        assert emit_dot(g) == "graph G {\n  0;\n  1;\n  2;\n  0 -- 2;\n}\n"


def _relabel(g, perm):
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _swap_edges(g, side, rng, swaps):
    """Apply up to ``swaps`` degree-preserving swaps that keep every edge
    across ``side``: edges ab and cd with a, c on one side become ad, cb."""
    edges = {(u, v) if (side >> u) & 1 else (v, u) for u, v in g.edges()}
    for _ in range(swaps * 10):
        if swaps == 0 or len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if a != c and b != d and (a, d) not in edges and (c, b) not in edges:
            edges -= {(a, b), (c, d)}
            edges |= {(a, d), (c, b)}
            swaps -= 1
    return from_edge_list(g.n, edges)


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestIsomorphism:
    def test_relabelled_path(self):
        g = path(3)
        h = from_edge_list(3, [(2, 1), (1, 0)])
        assert are_isomorphic(g, h)

    def test_different_sizes(self):
        assert not are_isomorphic(path(3), cycle(3))

    def test_same_degseq_not_isomorphic(self):
        # C6 vs two triangles: both 2-regular on six vertices
        g = cycle(6)
        h = from_edge_list(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not are_isomorphic(g, h)

    @given(graphs(max_n=7), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_invariant_under_permutation(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert are_isomorphic(g, h)

    @given(graphs(max_n=7), graphs(max_n=7))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force(self, g, h):
        assert are_isomorphic(g, h) == brute_force_isomorphic(g, h)

    def test_shared_refinement_key_not_isomorphic(self):
        # both 2-regular and bipartite: refinement cannot split them
        g = cycle(8)
        h = from_edge_list(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)])
        assert _refine(g)[0] == _refine(h)[0]
        assert not are_isomorphic(g, h)
        assert are_isomorphic(g, _relabel(g, [3, 5, 0, 7, 2, 6, 1, 4]))

    @given(graphs(max_n=10), st.randoms(use_true_random=False))
    @settings(max_examples=100)
    def test_refinement_invariant_under_relabeling(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        key, colors = _refine(g)
        key_h, colors_h = _refine(_relabel(g, perm))
        assert key_h == key
        assert [colors_h[perm[v]] for v in range(g.n)] == colors
        assert _match(g, colors, _relabel(g, perm), colors_h)

    @pytest.mark.skipif(nx is None, reason="networkx is not installed")
    def test_agrees_with_networkx_on_equal_degree_sequences(self):
        rng = random.Random(2024)
        outcomes = []
        for _ in range(400):
            g, side = random_bipartite(rng, rng.randint(4, 10), rng.choice([0.3, 0.5, 0.7]))
            h = _relabel(_swap_edges(g, side, rng, rng.randint(1, 4)),
                         rng.sample(range(g.n), g.n))
            assert degree_sequence(h) == degree_sequence(g)
            expected = nx.is_isomorphic(_nx(g), _nx(h))
            assert are_isomorphic(g, h) == expected
            outcomes.append(expected)
        # both answers must be exercised, not only the easy one
        assert outcomes.count(True) >= 40 and outcomes.count(False) >= 40

    def test_reflexive_symmetric_sample(self):
        rng = random.Random(7)
        gs = []
        for _ in range(10):
            n = rng.randint(1, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            gs.append(from_edge_list(n, edges))
        for g in gs:
            assert are_isomorphic(g, g)
        for g in gs:
            for h in gs:
                assert are_isomorphic(g, h) == are_isomorphic(h, g)
