"""Co-occurrence counts as a weighted undirected word network.

Nodes are word types; an edge weight is the co-occurrence count of the
pair. Same-type co-occurrence is kept as a node attribute instead of a
self-loop so path costs stay clean. Together the edges and node
attributes carry exactly the information of the count matrix.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np
from scipy import sparse

from .corpus import Vocabulary, _lf_lines_only
from .count_model import CooccurrenceMatrix, WindowConfig
from .errors import FormatError, UnknownWordError


class SemanticGraph:
    """Immutable weighted word graph.

    `nodes` maps token -> same-type co-occurrence count (0 if none);
    `edges` maps (a, b) with a < b -> positive weight.
    """

    def __init__(
        self,
        nodes: dict[str, int],
        edges: dict[tuple[str, str], int],
    ):
        for (a, b), w in edges.items():
            if a >= b:
                raise ValueError(f"edge key ({a!r}, {b!r}) must be ordered a < b")
            if w <= 0:
                raise ValueError(f"edge ({a!r}, {b!r}) has non-positive weight {w}")
            if a not in nodes or b not in nodes:
                raise ValueError(f"edge ({a!r}, {b!r}) references a missing node")
        self.nodes = dict(nodes)
        self.edges = dict(edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SemanticGraph)
            and self.nodes == other.nodes
            and self.edges == other.edges
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def edge_weight(self, a: str, b: str) -> int | None:
        key = (a, b) if a < b else (b, a)
        return self.edges.get(key)


def from_counts(m: CooccurrenceMatrix, min_weight: int = 1) -> SemanticGraph:
    """Build the co-occurrence graph, keeping edges with weight >= min_weight."""
    if min_weight < 1:
        raise ValueError("min_weight must be >= 1")
    vocab = m.vocab
    nodes = {t: 0 for t in vocab.tokens}
    upper = sparse.triu(m.counts, format="coo")
    edges: dict[tuple[str, str], int] = {}
    for r, c, v in zip(upper.row.tolist(), upper.col.tolist(), upper.data.tolist()):
        if r == c:
            nodes[vocab.token_at(r)] = v
        elif v >= min_weight:
            ta, tb = vocab.token_at(r), vocab.token_at(c)
            key = (ta, tb) if ta < tb else (tb, ta)
            edges[key] = v
    return SemanticGraph(nodes, edges)


def to_counts(
    g: SemanticGraph, vocab: Vocabulary, window: WindowConfig
) -> CooccurrenceMatrix:
    """Rebuild the count matrix from a graph built at min_weight 1.

    Inverse of from_counts given the original vocabulary and window; with
    min_weight 1 the round trip is exact.
    """
    rows: list[int] = []
    cols: list[int] = []
    vals: list[int] = []
    for token, self_weight in g.nodes.items():
        if self_weight > 0:
            i = vocab.index_of(token)
            rows.append(i)
            cols.append(i)
            vals.append(self_weight)
    for (a, b), w in g.edges.items():
        ia, ib = vocab.index_of(a), vocab.index_of(b)
        rows.extend((ia, ib))
        cols.extend((ib, ia))
        vals.extend((w, w))
    counts = sparse.coo_matrix(
        (vals, (rows, cols)), shape=(len(vocab), len(vocab)), dtype=np.int64
    )
    return CooccurrenceMatrix(vocab, counts.tocsr(), window)


def intersection(ga: SemanticGraph, gb: SemanticGraph) -> SemanticGraph:
    """Common ground of two graphs: shared nodes, shared edges, min weights."""
    nodes = {
        t: min(wa, gb.nodes[t]) for t, wa in ga.nodes.items() if t in gb.nodes
    }
    edges = {
        key: min(wa, gb.edges[key])
        for key, wa in ga.edges.items()
        if key in gb.edges
    }
    return SemanticGraph(nodes, edges)


def degree_ranking(g: SemanticGraph, top: int | None = None) -> list[tuple[str, int]]:
    """Nodes by total incident edge weight, descending; ties lexicographic.

    Same-type counts are node attributes, not edges, so they do not
    contribute to the degree.
    """
    totals = {t: 0 for t in g.nodes}
    for (a, b), w in g.edges.items():
        totals[a] += w
        totals[b] += w
    ranked = sorted(totals.items(), key=lambda tw: (-tw[1], tw[0]))
    return ranked[:top] if top is not None else ranked


@dataclass(frozen=True)
class SemanticPath:
    tokens: tuple[str, ...]
    cost: float


def shortest_path(g: SemanticGraph, a: str, b: str) -> SemanticPath | None:
    """Cheapest route between two words under edge cost 1/weight.

    Stronger association means a shorter step. Among equal-cost routes the
    lexicographically smallest token sequence wins. Returns None when the
    words are in different components.
    """
    for token in (a, b):
        if token not in g.nodes:
            raise UnknownWordError(token, "the graph")
    if a == b:
        return SemanticPath(tokens=(a,), cost=0.0)
    adjacency: dict[str, list[tuple[str, int]]] = {t: [] for t in g.nodes}
    for (x, y), w in g.edges.items():
        adjacency[x].append((y, w))
        adjacency[y].append((x, w))
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (a,))]
    settled: set[str] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == b:
            return SemanticPath(tokens=path, cost=cost)
        for neighbor, weight in adjacency[node]:
            if neighbor not in settled:
                heapq.heappush(heap, (cost + 1.0 / weight, path + (neighbor,)))
    return None


EDGE_LIST_NODE_PREFIX = "# node\t"


def export_edge_list(g: SemanticGraph) -> str:
    """TSV edge list: `tokenA<TAB>tokenB<TAB>weight` with tokenA < tokenB.

    The comment header carries the node count and one `# node` line per
    node with its same-type count, so isolated nodes survive a round
    trip. Data lines are sorted; an empty graph exports the count header
    only.
    """
    lines = [f"# nodes: {len(g.nodes)}"]
    for token in sorted(g.nodes):
        lines.append(f"{EDGE_LIST_NODE_PREFIX}{token}\t{g.nodes[token]}")
    for (a, b), w in sorted(g.edges.items()):
        lines.append(f"{a}\t{b}\t{w}")
    return "\n".join(lines) + "\n"


def import_edge_list(text: str) -> SemanticGraph:
    """Parse an edge list. Node lines come before the edges that use them; a
    malformed line, or a node or edge given twice, raises FormatError naming it.

    A list as export_edge_list writes it is parsed in bulk. Any other list,
    and any list that fails a bulk check, goes through the per-line reader,
    which words every error.
    """
    g = _import_edge_list_bulk(text)
    return g if g is not None else _import_edge_list_lines(text)


def _import_edge_list_bulk(text: str) -> SemanticGraph | None:
    """The graph of a canonical edge list, or None for the per-line reader.

    Canonical means the `# nodes: N` header, then exactly N node lines, then
    edge lines, each line three TAB-separated fields ended by LF.
    """
    header, _, body = text.partition("\n")
    match = re.fullmatch("# nodes: ([0-9]+)", header)
    if match is None or not body.endswith("\n") or not _lf_lines_only(body):
        return None
    declared = int(match[1])
    if declared > len(body):
        return None
    data = np.frombuffer(body.encode(), dtype=np.uint8)
    separators = data[(data == 9) | (data == 10)]
    if separators.size % 3 or (separators.reshape(-1, 3) != (9, 9, 10)).any():
        return None  # a line without exactly two TABs
    edge_lines = body.split("\n", declared)[-1]
    if edge_lines.startswith("#") or "\n#" in edge_lines:
        return None  # a node line or comment among the edges
    fields = body.replace("\n", "\t").split("\t")
    firsts, seconds = fields[0:-1:3], fields[1::3]
    if firsts[:declared] != [EDGE_LIST_NODE_PREFIX[:-1]] * declared:
        return None
    try:
        weights = list(map(int, fields[2::3]))
    except ValueError:
        return None
    nodes = dict(zip(seconds[:declared], weights[:declared]))
    edges = dict(zip(zip(firsts[declared:], seconds[declared:]), weights[declared:]))
    if len(nodes) != declared or len(edges) != len(weights) - declared:
        return None  # a repeated node or edge
    if min(weights[:declared], default=0) < 0:
        return None
    try:
        return SemanticGraph(nodes, edges)  # checks edge order, weights and nodes
    except ValueError:
        return None


def _import_edge_list_lines(text: str) -> SemanticGraph:
    """The per-line edge-list reader: accepts every valid list and names the
    first bad line of an invalid one."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# nodes:"):
        raise FormatError("line 1: edge list must start with a '# nodes:' header")
    nodes: dict[str, int] = {}
    edges: dict[tuple[str, str], int] = {}
    number = 1
    try:
        declared = int(lines[0][len("# nodes:") :])
        for number, line in enumerate(lines[1:], start=2):
            if line.startswith(EDGE_LIST_NODE_PREFIX):
                token, weight = line[len(EDGE_LIST_NODE_PREFIX) :].split("\t")
                if token in nodes:
                    raise ValueError(f"node {token!r} repeated")
                nodes[token] = int(weight)
                if nodes[token] < 0:
                    raise ValueError("same-type count must be >= 0")
            elif line and not line.startswith("#"):
                a, b, w = line.split("\t")
                if a >= b:
                    raise ValueError("edge violates tokenA < tokenB")
                if a not in nodes or b not in nodes:
                    raise ValueError("edge to an undeclared node")
                if (a, b) in edges:
                    raise ValueError(f"edge ({a!r}, {b!r}) repeated")
                edges[(a, b)] = int(w)
                if edges[(a, b)] < 1:
                    raise ValueError("edge weight must be >= 1")
    except ValueError as exc:
        raise FormatError(f"line {number}: {exc}") from None
    if declared != len(nodes):
        raise FormatError(
            f"line 1: header declares {declared} nodes but {len(nodes)} node lines found"
        )
    return SemanticGraph(nodes, edges)


def export_graphml(g: SemanticGraph) -> str:
    """GraphML rendering with edge weights and same-type counts."""
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="w" for="edge" attr.name="weight" attr.type="long"/>',
        '  <key id="sw" for="node" attr.name="self_weight" attr.type="long"/>',
        '  <graph edgedefault="undirected">',
    ]
    for token in sorted(g.nodes):
        et = escape(token, {'"': "&quot;"})
        out.append(
            f'    <node id="{et}"><data key="sw">{g.nodes[token]}</data></node>'
        )
    for (a, b), w in sorted(g.edges.items()):
        ea = escape(a, {'"': "&quot;"})
        eb = escape(b, {'"': "&quot;"})
        out.append(
            f'    <edge source="{ea}" target="{eb}"><data key="w">{w}</data></edge>'
        )
    out.extend(["  </graph>", "</graphml>"])
    return "\n".join(out) + "\n"
