import random
from itertools import combinations

import networkx as nx
import pytest

from domchrom.enumeration import enumerate_connected
from domchrom.graph6 import HEADER, Graph6Error, iter_graph6_lines, parse_graph6, to_graph6
from domchrom.graphs import from_edge_list


def test_hand_decoded_examples():
    # 'B' encodes n=3; bits 111 padded to 111000 -> 'w'
    k3 = parse_graph6("Bw")
    assert k3.n == 3 and k3.edge_count() == 3
    # 'A' encodes n=2; single zero bit
    g = parse_graph6("A?")
    assert g.n == 2 and g.edge_count() == 0
    # single vertex is chr(63+1)
    g = parse_graph6("@")
    assert g.n == 1
    assert to_graph6(from_edge_list(1, [])) == "@"
    assert to_graph6(from_edge_list(3, [(0, 1), (1, 2), (0, 2)])) == "Bw"


def test_header_tolerated():
    assert parse_graph6(">>graph6<<Bw").n == 3


def test_round_trip_over_enumeration():
    for n in range(1, 7):
        for g in enumerate_connected(n):
            assert parse_graph6(to_graph6(g)) == g


def test_round_trip_random_graphs():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(0, 40)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.3
        ]
        g = from_edge_list(n, edges)
        assert parse_graph6(to_graph6(g)) == g


def test_long_size_prefix_round_trip():
    n = 63
    g = from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    s = to_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    G = nx.path_graph(n)
    assert s == nx.to_graph6_bytes(G, header=False).decode().strip()


def test_cross_check_networkx():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 20)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = from_edge_list(n, edges)
        G = nx.Graph()
        G.add_nodes_from(range(n))
        G.add_edges_from(edges)
        theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert to_graph6(g) == theirs
        back = nx.from_graph6_bytes(to_graph6(g).encode())
        assert set(back.edges()) == {(min(u, v), max(u, v)) for u, v in g.edges()} or sorted(
            map(sorted, back.edges())
        ) == sorted(map(sorted, g.edges()))


def test_malformed_inputs_report_offsets():
    with pytest.raises(Graph6Error, match="offset 0"):
        parse_graph6("")
    with pytest.raises(Graph6Error, match="outside graph6 range"):
        parse_graph6("B!")
    with pytest.raises(Graph6Error, match="body has"):
        parse_graph6("B")  # missing adjacency byte
    with pytest.raises(Graph6Error, match="body has"):
        parse_graph6("Bww")  # extra byte
    err = None
    try:
        parse_graph6("B")
    except Graph6Error as exc:
        err = exc
    assert err is not None and err.offset is not None


def test_nonzero_padding_rejected():
    # n=3 needs 3 bits; 'w' = 111000 ok, 'z' = 111011 has nonzero padding
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("Bz")


def test_size_prefix_limits():
    # "~??D" spells n = 5 in the 4-byte prefix, which is reserved for n >= 63
    with pytest.raises(Graph6Error, match="non-canonical long size prefix"):
        parse_graph6("~??DGo")
    # "~~" opens the 8-byte prefix of orders above 258,047
    with pytest.raises(Graph6Error, match="orders above 258047"):
        parse_graph6("~~?????@??")
    with pytest.raises(Graph6Error, match="orders above 258047"):
        to_graph6(from_edge_list(258048, []))


def test_iter_graph6_lines():
    lines = [">>graph6<<Bw", "", "A?", "   ", "@"]
    parsed = list(iter_graph6_lines(lines))
    assert [payload for _ln, payload in parsed] == ["Bw", "A?", "@"]
    assert [ln for ln, _ in parsed] == [1, 3, 5]


def _fuzz(strategy, max_examples):
    """Run a property over `strategy` with fixed settings, or skip without
    hypothesis (the rest of this module does not need it)."""
    hypothesis = pytest.importorskip("hypothesis")
    settings = hypothesis.settings(
        max_examples=max_examples, deadline=None, derandomize=True
    )
    return lambda prop: settings(hypothesis.given(strategy(hypothesis.strategies))(prop))


def test_fuzzed_round_trip_crosses_the_long_size_prefix():
    # 0 <= n <= 70 with any edge set; n >= 63 takes the 4-byte size prefix
    def graphs(st):
        return st.integers(0, 70).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * (n - 1) // 2) - 1))
        )

    @_fuzz(graphs, max_examples=300)
    def round_trip(case):
        n, bits = case
        pairs = combinations(range(n), 2)
        g = from_edge_list(n, [p for i, p in enumerate(pairs) if bits >> i & 1])
        assert parse_graph6(to_graph6(g)) == g

    round_trip()


def test_fuzzed_strings_parse_back_or_fail_at_an_offset():
    # characters 58..130 straddle the legal 63..126; no whitespace, so the
    # payload is exactly what follows the optional header
    def strings(st):
        body = st.text(st.characters(min_codepoint=58, max_codepoint=130))
        return st.tuples(st.booleans(), body)

    @_fuzz(strings, max_examples=1000)
    def parse(case):
        header, body = case
        try:
            g = parse_graph6(HEADER + body if header else body)
        except Graph6Error as exc:
            assert exc.offset is not None and 0 <= exc.offset <= len(body), exc
        else:
            assert to_graph6(g) == body

    parse()
