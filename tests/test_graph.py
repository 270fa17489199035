"""Word networks: construction, intersection, ranking, routing, formats."""

import heapq
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import driftbench as db
from driftbench import graph
from driftbench import kernel as kernel_module

from conftest import random_streams, to_scipy


@pytest.fixture
def rose_graph(rose_matrix):
    return db.from_counts(rose_matrix)


def graph_from_text(text, radius=10):
    stream = db.tokenize(text)
    vocab = db.build_vocabulary([stream])
    m = db.count_cooccurrences([stream], vocab, db.WindowConfig(radius=radius))
    return db.from_counts(m), m


class TestFromCounts:
    def test_rose_graph_oracle(self, rose_graph):
        assert set(rose_graph.nodes) == {"rose", "is", "a"}
        assert rose_graph.edge_weight("rose", "is") == 12
        assert rose_graph.edge_weight("rose", "a") == 12
        assert rose_graph.edge_weight("is", "a") == 9
        assert rose_graph.nodes == {"rose": 12, "is": 6, "a": 6}

    def test_empty_matrix_empty_graph(self):
        vocab = db.Vocabulary(["a"], [1])
        from scipy import sparse

        m = db.CooccurrenceMatrix(
            vocab, sparse.csr_matrix((1, 1), dtype=np.int64), db.WindowConfig()
        )
        g = db.from_counts(m)
        assert g.edges == {}
        assert set(g.nodes) == {"a"}

    def test_min_weight_above_max_gives_edgeless_graph(self, rose_matrix):
        g = db.from_counts(rose_matrix, min_weight=100)
        assert g.edges == {}
        assert set(g.nodes) == {"rose", "is", "a"}

    def test_min_weight_filters_edges_not_nodes(self, rose_matrix):
        g = db.from_counts(rose_matrix, min_weight=10)
        assert set(g.edges) == {("is", "rose"), ("a", "rose")}
        assert len(g.nodes) == 3


class TestLossless:
    def test_rose_round_trip(self, rose_matrix, rose_graph):
        rebuilt = db.to_counts(rose_graph, rose_matrix.vocab, rose_matrix.window)
        assert rebuilt.same_counts(rose_matrix)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_corpora_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        streams = random_streams(rng, 2, max_tokens=80, vocab_size=10)
        try:
            vocab = db.build_vocabulary(streams)
        except db.EmptyVocabularyError:
            return
        m = db.count_cooccurrences(streams, vocab, db.WindowConfig(radius=4))
        rebuilt = db.to_counts(db.from_counts(m), vocab, m.window)
        assert rebuilt.same_counts(m)


class TestIntersection:
    def test_idempotent(self, rose_graph):
        assert db.intersection(rose_graph, rose_graph) == rose_graph

    def test_with_empty_graph(self, rose_graph):
        empty = db.SemanticGraph({}, {})
        assert db.intersection(rose_graph, empty) == empty

    def test_commutative_and_weights_min(self):
        ga, _ = graph_from_text("sun and rain and wind")
        gb, _ = graph_from_text("sun and rain or snow or sun")
        ab = db.intersection(ga, gb)
        ba = db.intersection(gb, ga)
        assert ab == ba
        for key, w in ab.edges.items():
            assert w == min(ga.edges[key], gb.edges[key])

    def test_shared_utterance_fully_contained(self):
        shared = "the coffee is warm tonight"
        ga, _ = graph_from_text(shared + " and the rain falls outside")
        gb, _ = graph_from_text("she said that " + shared)
        inter = db.intersection(ga, gb)
        shared_tokens = db.tokenize(shared).tokens
        for token in shared_tokens:
            assert token in inter.nodes
        for i, a in enumerate(shared_tokens):
            for b in shared_tokens[i + 1 :]:
                if a != b:
                    assert inter.edge_weight(a, b) is not None

    @pytest.mark.parametrize("a, b", [
        (({"a": 1, "b": 0, "c": 2}, {("a", "b"): 2, ("b", "c"): 3}),
         ({"a": 4, "b": 1, "d": 0}, {})),
        (({"a": 0, "b": 0, "c": 1, "d": 0}, {("a", "b"): 1, ("c", "d"): 5}),
         ({"a": 2, "b": 0, "c": 0, "d": 3}, {("a", "c"): 2, ("b", "d"): 7})),
        # the missing edges' cells fall before and past the one cell of b
        (({"a": 0, "b": 1, "c": 0, "z": 2}, {("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 1,
                                             ("c", "z"): 4}),
         ({"a": 1, "b": 0, "c": 5, "y": 0}, {("a", "y"): 6})),
    ], ids=["b-has-no-edges", "no-shared-edge", "b-lacks-every-shared-node-edge"])
    def test_against_reference(self, a, b):
        ga, gb = db.SemanticGraph(*a), db.SemanticGraph(*b)
        assert same_as_reference(db.intersection(ga, gb), ref_intersection(a, b))
        assert same_as_reference(db.intersection(gb, ga), ref_intersection(b, a))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16))
    def test_associative_and_subset(self, seed):
        rng = np.random.default_rng(seed)
        graphs = []
        for _ in range(3):
            streams = random_streams(rng, 1, max_tokens=60, vocab_size=8)
            if not any(s.tokens for s in streams):
                return
            vocab = db.build_vocabulary(streams)
            m = db.count_cooccurrences(streams, vocab, db.WindowConfig(radius=3))
            graphs.append(db.from_counts(m))
        ga, gb, gc = graphs
        left = db.intersection(db.intersection(ga, gb), gc)
        right = db.intersection(ga, db.intersection(gb, gc))
        assert left == right
        inter = db.intersection(ga, gb)
        assert set(inter.nodes) <= set(ga.nodes)
        assert set(inter.edges) <= set(gb.edges)


class TestDegreeRanking:
    def test_rose_first_with_weight_24(self, rose_graph):
        ranked = db.degree_ranking(rose_graph)
        assert ranked[0] == ("rose", 24)
        assert ranked[1:] == [("a", 21), ("is", 21)]  # tie broken lexicographically

    def test_single_node_weight_zero(self):
        g = db.SemanticGraph({"only": 5}, {})
        assert db.degree_ranking(g) == [("only", 0)]

    def test_top_truncation(self, rose_graph):
        assert len(db.degree_ranking(rose_graph, top=1)) == 1
        assert db.degree_ranking(rose_graph, top=0) == []

    def test_negative_top_rejected(self, rose_graph):
        with pytest.raises(ValueError):
            db.degree_ranking(rose_graph, top=-1)

    def test_degrees_past_int64_stay_exact(self):
        g = db.SemanticGraph({"a": 0, "b": 0, "c": 0}, {("a", "b"): 2**62, ("a", "c"): 2**62})
        assert db.degree_ranking(g) == [("a", 2**63), ("b", 2**62), ("c", 2**62)]


class TestShortestPath:
    def test_self_path(self, rose_graph):
        path = db.shortest_path(rose_graph, "is", "is")
        assert path.tokens == ("is",) and path.cost == 0.0

    def test_rose_route_is_to_a(self, rose_graph):
        # direct edge cost 1/9 beats the 1/12 + 1/12 detour through rose
        path = db.shortest_path(rose_graph, "is", "a")
        assert path.tokens == ("is", "a")
        assert path.cost == pytest.approx(1 / 9)

    def test_exact_cost_tie_broken_lexicographically(self):
        # direct x-y edge weight 6 against a two-hop route of weight-12 edges:
        # 1/6 == 1/12 + 1/12 exactly in binary floating point
        assert 1.0 / 6.0 == 1.0 / 12.0 + 1.0 / 12.0
        g = db.SemanticGraph(
            {"x": 0, "y": 0, "m": 0},
            {("x", "y"): 6, ("m", "x"): 12, ("m", "y"): 12},
        )
        path = db.shortest_path(g, "x", "y")
        assert path.cost == pytest.approx(1 / 6)
        assert path.tokens == ("x", "m", "y")  # lexicographically before (x, y)

    def test_strong_associations_are_shortcuts(self):
        g = db.SemanticGraph(
            {"a": 0, "b": 0, "c": 0},
            {("a", "b"): 1, ("a", "c"): 100, ("b", "c"): 100},
        )
        path = db.shortest_path(g, "a", "b")
        assert path.tokens == ("a", "c", "b")
        assert path.cost == pytest.approx(0.02)

    def test_disconnected_components_give_no_path(self):
        g = db.SemanticGraph({"a": 0, "b": 0, "c": 0, "d": 0}, {("a", "b"): 1, ("c", "d"): 1})
        assert db.shortest_path(g, "a", "c") is None

    def test_unknown_token(self, rose_graph):
        with pytest.raises(db.UnknownWordError):
            db.shortest_path(rose_graph, "rose", "valve")

    def test_cost_symmetry(self, rose_graph):
        for a in rose_graph.nodes:
            for b in rose_graph.nodes:
                pa = db.shortest_path(rose_graph, a, b)
                pb = db.shortest_path(rose_graph, b, a)
                assert pa.cost == pb.cost


class TestEdgeListFormat:
    def test_empty_graph_header_only(self):
        text = db.export_edge_list(db.SemanticGraph({}, {}))
        assert text == "# nodes: 0\n"

    def test_rose_graph_three_data_lines(self, rose_graph):
        lines = db.export_edge_list(rose_graph).splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert len(data) == 3
        assert data[0] == "a\tis\t9"  # sorted, tokenA < tokenB

    def test_round_trip(self, rose_graph):
        assert db.import_edge_list(db.export_edge_list(rose_graph)) == rose_graph

    def test_round_trip_keeps_isolated_nodes(self, rose_matrix):
        g = db.from_counts(rose_matrix, min_weight=100)
        assert db.import_edge_list(db.export_edge_list(g)) == g

    def test_header_mismatch_rejected(self):
        with pytest.raises(db.errors.FormatError):
            db.import_edge_list("# nodes: 5\n")

    def test_graphml_export_parses(self, rose_graph):
        root = ET.fromstring(db.export_graphml(rose_graph))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        nodes = root.findall(f".//{ns}node")
        edges = root.findall(f".//{ns}edge")
        assert len(nodes) == 3 and len(edges) == 3

    @pytest.mark.parametrize("token", ["#x", "a\tb", "a\nb", "a\rb", "a\x1cb", "a\x85b", "a\u2028b"])
    def test_edge_list_refuses_a_token_it_cannot_carry(self, token):
        g = db.SemanticGraph({token: 0, "~z": 1}, {(token, "~z"): 2})
        with pytest.raises(db.errors.FormatError, match=re.escape(repr(token))):
            db.export_edge_list(g)

    @pytest.mark.parametrize("with_kernel", [True, False], ids=["kernel", "fallback"])
    @pytest.mark.parametrize("token", ["b\ud800", "\udfff"])
    def test_edge_list_refuses_a_lone_surrogate(self, monkeypatch, with_kernel, token):
        # UTF-8 cannot encode it, so the list could not be written
        if not with_kernel:
            monkeypatch.setattr(kernel_module, "get", lambda: None)
        elif kernel_module.get() is None:
            pytest.skip("the C kernel does not build here")
        g = db.SemanticGraph({token: 0, "a": 1}, {("a", token): 2})
        with pytest.raises(db.errors.FormatError, match=re.escape(repr(token))):
            db.export_edge_list(g)

    @pytest.mark.parametrize("token", ["a\x01", "a\x00", "\ufffe", "\uffff", "\ud800"])
    def test_graphml_refuses_a_character_xml_cannot_carry(self, token):
        g = db.SemanticGraph({token: 0, "z": 1}, {tuple(sorted((token, "z"))): 2})
        with pytest.raises(db.errors.FormatError, match=re.escape(repr(token))):
            db.export_graphml(g)

    def test_graphml_ids_read_back(self):
        tokens = ['a"b', "x<y&z", "t\tab", "new\nline", "cr\rx", "caf\u00e9"]
        g = db.SemanticGraph(dict.fromkeys(tokens, 0), {})
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        root = ET.fromstring(db.export_graphml(g))
        assert [n.get("id") for n in root.iter(f"{ns}node")] == sorted(tokens)

    @pytest.mark.parametrize("char", list('&<>"\t\n\r'))
    def test_graphml_escapes_each_special_character(self, char):
        tokens = [char, f"a{char}b", f"{char}&amp;{char}", f"<{char}>"]
        g = db.SemanticGraph(dict.fromkeys(tokens, 1), {tuple(sorted(tokens[:2])): 3})
        assert db.export_graphml(g) == ref_export_graphml(g.nodes, dict(g.edges.items()))

    def test_node_lines_out_of_order_take_the_per_line_path(self, kernel):
        # valid, but the bulk reader takes only the writer's order
        text = (
            "# nodes: 4\n# node\tz\u00fc\t0\n# node\tb\t2\n# node\t\u00e9t\u00e9\t5\n# node\ta\t0\n"
            "b\tz\u00fc\t3\na\tb\t1\na\t\u00e9t\u00e9\t7\n"
        )
        assert graph._import_edge_list_bulk(text) is None
        g = db.import_edge_list(text)
        assert g == graph._import_edge_list_lines(text)
        assert graph._import_edge_list_bulk(db.export_edge_list(g)) == g
        assert list(g.nodes.items()) == [("a", 0), ("b", 2), ("z\u00fc", 0), ("\u00e9t\u00e9", 5)]
        assert list(g.edges.items()) == [(("a", "b"), 1), (("a", "\u00e9t\u00e9"), 7), (("b", "z\u00fc"), 3)]


class TestSemanticGraph:
    @pytest.mark.parametrize(
        "edges, message",
        [
            ({("b", "a"): 1}, "must be ordered a < b"),
            ({("a", "b"): 0}, "non-positive weight 0"),
            ({("a", "c"): 1}, "references a missing node"),
            ({("a", "b"): 1 << 63}, "below 2\\*\\*63"),
        ],
    )
    def test_invalid_edges_rejected(self, edges, message):
        with pytest.raises(ValueError, match=message):
            db.SemanticGraph({"a": 0, "b": 0}, edges)

    def test_negative_same_type_count_rejected(self):
        # the edge-list reader refuses a negative count, so the graph must too
        with pytest.raises(ValueError, match="negative same-type count -1"):
            db.SemanticGraph({"a": -1, "b": 0}, {})

    def test_views(self, rose_graph):
        assert len(rose_graph.edges) == 3
        assert ("a", "is") in rose_graph.edges and ("is", "a") not in rose_graph.edges
        assert ("a",) not in rose_graph.edges
        assert rose_graph.edge_weight("is", "a") == 9 and rose_graph.edge_weight("a", "x") is None
        with pytest.raises(TypeError):
            rose_graph.nodes["rose"] = 1


# ---------------------------------------------------------------------------
# oracle: the dict-based functions the array-backed graph replaced, on
# (nodes, edges) pairs of dicts


def ref_from_counts(m, min_weight=1):
    vocab = m.vocab
    nodes = {t: 0 for t in vocab.tokens}
    upper = sparse.triu(to_scipy(m.counts), format="coo")
    edges = {}
    for r, c, v in zip(upper.row.tolist(), upper.col.tolist(), upper.data.tolist()):
        if r == c:
            nodes[vocab.token_at(r)] = v
        elif v >= min_weight:
            ta, tb = vocab.token_at(r), vocab.token_at(c)
            key = (ta, tb) if ta < tb else (tb, ta)
            edges[key] = v
    return nodes, edges


def ref_to_counts(nodes, edges, vocab, window):
    rows, cols, vals = [], [], []
    for token, self_weight in nodes.items():
        if self_weight > 0:
            i = vocab.index_of(token)
            rows.append(i)
            cols.append(i)
            vals.append(self_weight)
    for (a, b), w in edges.items():
        ia, ib = vocab.index_of(a), vocab.index_of(b)
        rows.extend((ia, ib))
        cols.extend((ib, ia))
        vals.extend((w, w))
    counts = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(len(vocab), len(vocab)), dtype=np.int64
    )
    return db.CooccurrenceMatrix(vocab, counts.tocsr(), window)


def ref_intersection(ga, gb):
    (na, ea), (nb, eb) = ga, gb
    nodes = {t: min(wa, nb[t]) for t, wa in na.items() if t in nb}
    edges = {key: min(wa, eb[key]) for key, wa in ea.items() if key in eb}
    return nodes, edges


def ref_degree_ranking(nodes, edges, top=None):
    totals = {t: 0 for t in nodes}
    for (a, b), w in edges.items():
        totals[a] += w
        totals[b] += w
    ranked = sorted(totals.items(), key=lambda tw: (-tw[1], tw[0]))
    return ranked[:top] if top is not None else ranked


def ref_shortest_path(nodes, edges, a, b):
    if a == b:
        return (a,), 0.0
    adjacency = {t: [] for t in nodes}
    for (x, y), w in edges.items():
        adjacency[x].append((y, w))
        adjacency[y].append((x, w))
    heap = [(0.0, (a,))]
    settled = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == b:
            return path, cost
        for neighbor, weight in adjacency[node]:
            if neighbor not in settled:
                heapq.heappush(heap, (cost + 1.0 / weight, path + (neighbor,)))
    return None


def ref_export_edge_list(nodes, edges):
    lines = [f"# nodes: {len(nodes)}"]
    for token in sorted(nodes):
        lines.append(f"# node\t{token}\t{nodes[token]}")
    for (a, b), w in sorted(edges.items()):
        lines.append(f"{a}\t{b}\t{w}")
    return "\n".join(lines) + "\n"


# the attribute entities of export_graphml beyond escape()'s & < >
GRAPHML_ENTITIES = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def ref_export_graphml(nodes, edges):
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="w" for="edge" attr.name="weight" attr.type="long"/>',
        '  <key id="sw" for="node" attr.name="self_weight" attr.type="long"/>',
        '  <graph edgedefault="undirected">',
    ]
    for token in sorted(nodes):
        et = escape(token, GRAPHML_ENTITIES)
        out.append(f'    <node id="{et}"><data key="sw">{nodes[token]}</data></node>')
    for (a, b), w in sorted(edges.items()):
        ea = escape(a, GRAPHML_ENTITIES)
        eb = escape(b, GRAPHML_ENTITIES)
        out.append(f'    <edge source="{ea}" target="{eb}"><data key="w">{w}</data></edge>')
    out.extend(["  </graph>", "</graphml>"])
    return "\n".join(out) + "\n"


# code point, UTF-16 and numpy "U" order disagree on some of these pairs:
# "\uffff" < "\U0001f600" by code point but not in UTF-16, and numpy drops
# the trailing NUL of "a\x00"
TOKENS = ["a", "a\x00", "B", "b", "\uffff", "\U0001f600", "caf\u00e9", "\u00df", "\u03a9", "z9",
          "\u65e5\u672c", "a-b"]
XML_UNSAFE = ("a\x00", "\uffff")


@st.composite
def count_matrices(draw):
    """A symmetric count matrix over 1-8 tokens in random vocabulary order, with
    edge weights drawn so that isolated nodes, degree ties and exactly tied
    route costs (1/6 == 1/12 + 1/12) are common."""
    tokens = draw(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=8, unique=True))
    n = len(tokens)
    dense = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        dense[i, i] = draw(st.sampled_from([0, 0, 1, 4]))
        for j in range(i + 1, n):
            dense[i, j] = dense[j, i] = draw(st.sampled_from([0, 0, 0, 1, 3, 6, 12]))
    vocab = db.Vocabulary(tokens, [1] * n)
    return db.CooccurrenceMatrix(vocab, sparse.csr_matrix(dense), db.WindowConfig(radius=2))


def same_as_reference(g, ref):
    nodes, edges = ref
    return g.nodes == nodes and dict(g.edges.items()) == edges and len(g.edges) == len(edges)


class TestOracle:
    @settings(max_examples=150, deadline=None)
    @given(m=count_matrices(), other=count_matrices(), min_weight=st.sampled_from([1, 1, 2, 4, 7]),
           data=st.data())
    def test_against_dict_reference(self, m, other, min_weight, data):
        g, ref = db.from_counts(m, min_weight), ref_from_counts(m, min_weight)
        assert same_as_reference(g, ref)
        nodes, edges = ref

        text = db.export_edge_list(g)
        assert text == ref_export_edge_list(nodes, edges)
        assert db.import_edge_list(text) == g
        if any(t in nodes for t in XML_UNSAFE):
            with pytest.raises(db.errors.FormatError):
                db.export_graphml(g)
        else:
            assert db.export_graphml(g) == ref_export_graphml(nodes, edges)

        for top in (None, 0, 1, 3):
            ranked = db.degree_ranking(g, top)
            assert ranked == ref_degree_ranking(nodes, edges, top)
            assert all(type(t) is str and type(d) is int for t, d in ranked)

        for a in nodes:
            for b in nodes:
                got, want = db.shortest_path(g, a, b), ref_shortest_path(nodes, edges, a, b)
                if want is None:
                    assert got is None
                else:
                    assert got.tokens == want[0]
                    assert got.cost.hex() == want[1].hex()

        if min_weight == 1:
            rebuilt = db.to_counts(g, m.vocab, m.window)
            assert rebuilt.same_counts(ref_to_counts(nodes, edges, m.vocab, m.window))
            assert rebuilt.same_counts(m)

        go, ref_o = db.from_counts(other, min_weight), ref_from_counts(other, min_weight)
        inter = db.intersection(g, go)
        assert same_as_reference(inter, ref_intersection(ref, ref_o))
        assert db.export_edge_list(inter) == ref_export_edge_list(*ref_intersection(ref, ref_o))

        # the same graph written by hand: node and edge lines shuffled
        node_lines = [f"# node\t{t}\t{w}\n" for t, w in nodes.items()]
        edge_lines = [f"{a}\t{b}\t{w}\n" for (a, b), w in edges.items()]
        node_lines = data.draw(st.permutations(node_lines))
        edge_lines = data.draw(st.permutations(edge_lines))
        shuffled = f"# nodes: {len(nodes)}\n" + "".join(node_lines + edge_lines)
        if kernel_module.get() is not None:  # the bulk reader takes only the writer's order
            sorted_lines = shuffled == db.export_edge_list(g)
            assert graph._import_edge_list_bulk(shuffled) == (g if sorted_lines else None)
        assert graph._import_edge_list_lines(shuffled) == g
        assert db.import_edge_list(shuffled) == g
