"""Co-occurrence counts as a weighted undirected word network.

Nodes are word types; an edge weight is the co-occurrence count of the
pair. Same-type co-occurrence is kept as a node attribute instead of a
self-loop so path costs stay clean. Together the edges and node
attributes carry exactly the information of the count matrix.

A graph is stored as arrays over node ids. The tokens are sorted in
Python's code-point order and a node's id is its position there, so id
order is token order: walking the upper-triangular weight matrix row by
row visits the edges in sorted (a, b) order, and a tuple of ids sorts like
the tuple of its tokens.
"""

from __future__ import annotations

import heapq
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from types import MappingProxyType
from xml.sax.saxutils import escape

import numpy as np

from . import kernel
from ._csr import CSR
from .corpus import _OTHER_LINE_BREAKS, Vocabulary, _lf_lines_only
from .count_model import _INT64_MAX, CooccurrenceMatrix, WindowConfig
from .errors import FormatError, UnknownWordError


class SemanticGraph:
    """Immutable weighted word graph.

    `tokens` holds the nodes in sorted order; a node's id is its index
    there. `self_weights[i]` is node i's same-type co-occurrence count (0 if
    none). `weights` is an upper-triangular int64 `CSR` matrix holding the
    weight of edge (tokens[i], tokens[j]), i < j, at [i, j]. Both are
    read-only.

    `nodes` (token -> same-type count) and `edges` ((a, b) with a < b ->
    positive weight) are read-only mapping views of the same arrays.
    """

    def __init__(
        self,
        nodes: Mapping[str, int],
        edges: Mapping[tuple[str, str], int],
    ):
        firsts, seconds = zip(*edges) if edges else ((), ())
        try:
            tokens, self_weights, rows, cols = _arrays(nodes, firsts, seconds)
            weights = np.fromiter(edges.values(), np.int64, len(edges))
        except OverflowError:
            raise ValueError("weights must be below 2**63") from None
        if (self_weights < 0).any():
            token = tokens[int((self_weights < 0).argmax())]
            raise ValueError(f"node {token!r} has negative same-type count {nodes[token]}")
        bad = (rows < 0) | (cols < 0) | (rows >= cols) | (weights <= 0)
        if bad.any():
            k = int(bad.argmax())
            a, b, w = firsts[k], seconds[k], int(weights[k])
            if a >= b:
                raise ValueError(f"edge key ({a!r}, {b!r}) must be ordered a < b")
            if w <= 0:
                raise ValueError(f"edge ({a!r}, {b!r}) has non-positive weight {w}")
            raise ValueError(f"edge ({a!r}, {b!r}) references a missing node")
        self._set(tokens, self_weights, _upper(len(tokens), rows, cols, weights))

    @classmethod
    def _of(cls, tokens, self_weights: np.ndarray, weights: CSR):
        """A graph of arrays that already hold its invariants."""
        g = cls.__new__(cls)
        g._set(tokens, self_weights, weights)
        return g

    def _set(self, tokens, self_weights, weights) -> None:
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.self_weights: np.ndarray = self_weights
        self.weights: CSR = weights
        self_weights.flags.writeable = False

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.tokens, range(len(self.tokens))))

    @cached_property
    def nodes(self) -> Mapping[str, int]:
        return MappingProxyType(dict(zip(self.tokens, self.self_weights.tolist())))

    @property
    def edges(self) -> Mapping[tuple[str, str], int]:
        return _EdgeView(self)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SemanticGraph)
            and self.tokens == other.tokens
            and np.array_equal(self.self_weights, other.self_weights)
            and self.weights == other.weights
        )

    def __len__(self) -> int:
        return len(self.tokens)

    def edge_weight(self, a: str, b: str) -> int | None:
        i, j = sorted((self._index.get(a, -1), self._index.get(b, -1)))
        if i < 0:
            return None
        return int(self.weights.get(i, j)) or None  # a missing edge reads 0

    def _triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row ids, column ids and weights of the edges in sorted order."""
        w = self.weights
        return w.row_ids(), w.indices, w.data

    @cached_property
    def _adjacency(self) -> tuple[list[int], list[int], list[float]]:
        """Both directions of every edge as CSR lists, with step cost 1/weight."""
        rows, cols, weights = self._triples()  # no cell on the diagonal
        n = len(self.tokens)
        both = CSR.from_triples(np.concatenate((rows, cols)), np.concatenate((cols, rows)),
                                np.concatenate((weights, weights)), (n, n))
        return both.indptr.tolist(), both.indices.tolist(), (1.0 / both.data).tolist()


class _EdgeView(Mapping):
    """(a, b) -> weight over a graph's CSR, in sorted key order."""

    def __init__(self, g: SemanticGraph):
        self._g = g

    def __len__(self) -> int:
        return self._g.weights.nnz

    def __iter__(self):
        rows, cols, _ = self._g._triples()
        tokens = self._g.tokens
        return zip(map(tokens.__getitem__, rows.tolist()), map(tokens.__getitem__, cols.tolist()))

    def __getitem__(self, key: tuple[str, str]) -> int:
        try:
            a, b = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        w = self._g.edge_weight(a, b) if a < b else None
        if w is None:
            raise KeyError(key)
        return w


def _arrays(nodes: Mapping[str, int], firsts, seconds):
    """The sorted tokens of `nodes`, their same-type counts, and the ids of the
    edge ends named in `firsts` and `seconds` (-1 for a token not in `nodes`)."""
    tokens = sorted(nodes)
    index = dict(zip(tokens, range(len(tokens))))
    return (
        tokens,
        np.fromiter(map(nodes.__getitem__, tokens), np.int64, len(tokens)),
        np.fromiter(map(index.get, firsts, repeat(-1)), np.int64, len(firsts)),
        np.fromiter(map(index.get, seconds, repeat(-1)), np.int64, len(seconds)),
    )


def _upper(n: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray) -> CSR:
    """The n x n matrix of distinct edges (rows[k], cols[k]), in any order."""
    return CSR.from_triples(rows, cols, weights, (n, n), np.int64)


def from_counts(m: CooccurrenceMatrix, min_weight: int = 1) -> SemanticGraph:
    """Build the co-occurrence graph, keeping edges with weight >= min_weight."""
    if min_weight < 1:
        raise ValueError("min_weight must be >= 1")
    vocab_tokens = m.vocab.tokens
    n = len(vocab_tokens)
    order = sorted(range(n), key=vocab_tokens.__getitem__)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    counts = m.counts
    rows, cols, data = rank[counts.row_ids()], rank[counts.indices], counts.data
    self_weights = np.zeros(n, dtype=np.int64)
    diagonal = rows == cols
    self_weights[rows[diagonal]] = data[diagonal]
    keep = (rows < cols) & (data >= min_weight)
    weights = _upper(n, rows[keep], cols[keep], data[keep])
    return SemanticGraph._of(map(vocab_tokens.__getitem__, order), self_weights, weights)


def to_counts(
    g: SemanticGraph, vocab: Vocabulary, window: WindowConfig
) -> CooccurrenceMatrix:
    """Rebuild the count matrix from a graph built at min_weight 1.

    Inverse of from_counts given the original vocabulary and window; with
    min_weight 1 the round trip is exact. Every node must be in `vocab`.
    """
    ids = np.fromiter(map(vocab.index_of, g.tokens), np.int64, len(g))
    rows, cols, data = g._triples()
    rows, cols = ids[rows], ids[cols]
    diagonal = np.flatnonzero(g.self_weights)
    same = ids[diagonal]
    counts = CSR.from_triples(
        np.concatenate((same, rows, cols)),
        np.concatenate((same, cols, rows)),
        np.concatenate((g.self_weights[diagonal], data, data)),
        (len(vocab), len(vocab)),
        np.int64,
    )
    return CooccurrenceMatrix(vocab, counts, window)


def intersection(ga: SemanticGraph, gb: SemanticGraph) -> SemanticGraph:
    """Common ground of two graphs: shared nodes, shared edges, min weights."""
    in_b = np.fromiter(map(gb._index.get, ga.tokens, repeat(-1)), np.int64, len(ga))
    known = in_b >= 0
    ids_a = np.flatnonzero(known)
    ids_b = in_b[ids_a]  # increasing too: both token lists are sorted
    new = np.cumsum(known) - 1  # a shared node's id in the result
    rows, cols, weights = ga._triples()
    shared = known[rows] & known[cols]
    rows, cols, weights = rows[shared], cols[shared], weights[shared]
    # each such edge's cell number in gb, looked up among gb's increasing
    # cell numbers and one past them all, so that every lookup lands on one
    cells = in_b[rows] * len(gb) + in_b[cols]
    wb = gb.weights
    cells_b = np.append(wb.row_ids() * len(gb) + wb.indices, len(gb) ** 2)
    at = np.searchsorted(cells_b, cells)
    found = cells_b[at] == cells
    return SemanticGraph._of(
        map(ga.tokens.__getitem__, ids_a.tolist()),
        np.minimum(ga.self_weights[ids_a], gb.self_weights[ids_b]),
        _upper(len(ids_a), new[rows[found]], new[cols[found]],
               np.minimum(weights[found], wb.data[at[found]])),
    )


def degree_ranking(g: SemanticGraph, top: int | None = None) -> list[tuple[str, int]]:
    """Nodes by total incident edge weight, descending; ties lexicographic.

    Same-type counts are node attributes, not edges, so they do not
    contribute to the degree. `top` keeps the first `top` nodes.
    """
    if top is not None and top < 0:
        raise ValueError("top must be >= 0")
    rows, cols, data = g._triples()
    if data.size and int(data.max()) > _INT64_MAX // data.size:
        data = data.astype(object)  # a degree could pass 2**63: sum exact ints
    degree = np.zeros(len(g), dtype=data.dtype)
    np.add.at(degree, rows, data)
    np.add.at(degree, cols, data)
    ranked = np.argsort(-degree, kind="stable")[:top]  # stable: ties in id order
    return list(zip(map(g.tokens.__getitem__, ranked.tolist()), degree[ranked].tolist()))


_UNREACHED = (math.inf, ())


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
        if token not in g._index:
            raise UnknownWordError(token, "the graph")
    if a == b:
        return SemanticPath(tokens=(a,), cost=0.0)
    indptr, neighbors, steps = g._adjacency
    source, target = g._index[a], g._index[b]
    start: tuple[float, tuple[int, ...]] = (0.0, (source,))
    heap = [start]
    queued = {source: start}  # the best (cost, path) pushed per node
    settled: set[int] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return SemanticPath(tokens=tuple(map(g.tokens.__getitem__, path)), cost=cost)
        first, end = indptr[node], indptr[node + 1]
        for neighbor, step in zip(neighbors[first:end], steps[first:end]):
            if neighbor not in settled:
                best = queued.get(neighbor, _UNREACHED)
                if cost + step <= best[0]:  # a dearer route cannot win
                    entry = (cost + step, path + (neighbor,))
                    if entry < best:
                        queued[neighbor] = entry
                        heapq.heappush(heap, entry)
    return None


EDGE_LIST_NODE_PREFIX = "# node\t"

# a token the edge-list reader would take for a comment, or split, or a
# lone surrogate, which UTF-8 cannot encode
_EDGE_LIST_UNSAFE = re.compile(f"\\A#|[\t\n{_OTHER_LINE_BREAKS}\ud800-\udfff]")
# the characters that XML 1.0's Char production leaves out
_XML_UNSAFE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _refuse(tokens, unsafe: re.Pattern, why: str) -> None:
    token = next(filter(unsafe.search, tokens), None)
    if token is not None:
        raise FormatError(f"token {token!r} {why}")


def export_edge_list(g: SemanticGraph) -> str:
    """TSV edge list: `tokenA<TAB>tokenB<TAB>weight` with tokenA < tokenB.

    The comment header carries the node count and one `# node` line per
    node with its same-type count, so isolated nodes survive a round
    trip. Node and data lines are sorted; an empty graph exports the count
    header only. The compiled kernel writes the lines where it is built,
    and a % format otherwise, with the same text. A token that starts with
    '#' or holds a TAB, a line break or a lone surrogate cannot be read
    back, so it raises FormatError.
    """
    _refuse(
        g.tokens, _EDGE_LIST_UNSAFE,
        "cannot be written to an edge list: it starts with '#' or holds a TAB, "
        "a line break or a lone surrogate",
    )
    header = f"# nodes: {len(g)}\n"
    rows, cols, data = g._triples()
    built = kernel.get()
    if built is None:
        names = np.array(g.tokens, dtype=object)
        return (
            header
            + _format_rows(EDGE_LIST_NODE_PREFIX + "%s\t%d\n", g.tokens, g.self_weights.tolist())
            + _format_rows("%s\t%s\t%d\n", names[rows].tolist(), names[cols].tolist(),
                           data.tolist())
        )
    blob = "\n".join([*g.tokens, ""]).encode()
    return b"".join([
        header.encode(),
        built.format_lines(blob, EDGE_LIST_NODE_PREFIX.encode(), "ti", None, g.self_weights),
        built.format_lines(blob, b"", "tti", rows, cols.astype(np.int64), data),
    ]).decode()


def import_edge_list(text: str) -> SemanticGraph:
    """Parse an edge list. Node lines come before the edges that use them; a
    malformed line, or a node or edge given twice, raises FormatError naming it.

    Where the compiled kernel is built, a list as export_edge_list writes
    it is read in bulk. Any other list, any list that fails a bulk check,
    and every list without the kernel goes through the per-line reader,
    which words every error.
    """
    g = _import_edge_list_bulk(text)
    return g if g is not None else _import_edge_list_lines(text)


def _import_edge_list_bulk(text: str) -> SemanticGraph | None:
    """The graph of a list as export_edge_list writes it, or None for the
    per-line reader.

    That is the `# nodes: N` header, then the layout
    `kernel.Kernel.read_edge_list` reads: N node lines in strictly
    increasing token order, then edge lines in strictly increasing
    (tokenA, tokenB) order, with LF line breaks only. A valid list in
    another order goes to the per-line reader. Read where the compiled
    kernel is built; without it, every list goes to the per-line reader.
    """
    built = kernel.get()
    if built is None:
        return None
    try:
        data = text.encode()
    except UnicodeEncodeError:  # a lone surrogate, which only the per-line reader takes
        return None
    match = re.match(rb"# nodes: ([0-9]+)\n", data)
    if match is None or not int(match[1]) < min(len(data), 2**31):  # the kernel's int32 columns
        return None
    bad, blob, self_weights, arrays = built.read_edge_list(memoryview(data)[match.end():],
                                                           int(match[1]))
    if bad >= 0:
        return None
    joined = blob.decode()  # the tokens are whole UTF-8 sequences of the text
    if not _lf_lines_only(joined):
        return None
    n = len(self_weights)
    return SemanticGraph._of(joined.split("\n")[:-1], self_weights, CSR(*arrays, (n, n)))


def _import_edge_list_lines(text: str) -> SemanticGraph:
    """The per-line edge-list reader: accepts every valid list and names the
    first bad line of an invalid one."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# nodes:"):
        raise FormatError("line 1: edge list must start with a '# nodes:' header")
    nodes: dict[str, int] = {}
    firsts: list[str] = []
    seconds: list[str] = []
    weights: list[int] = []
    seen: set[tuple[str, str]] = set()
    number = 1
    try:
        declared = int(lines[0][len("# nodes:") :])
        for number, line in enumerate(lines[1:], start=2):
            if line.startswith(EDGE_LIST_NODE_PREFIX):
                token, weight = line[len(EDGE_LIST_NODE_PREFIX) :].split("\t")
                if token in nodes:
                    raise ValueError(f"node {token!r} repeated")
                nodes[token] = int(weight)
                if not 0 <= nodes[token] <= _INT64_MAX:
                    raise ValueError("same-type count must be in [0, 2**63)")
            elif line and not line.startswith("#"):
                a, b, w = line.split("\t")
                if a >= b:
                    raise ValueError("edge violates tokenA < tokenB")
                if a not in nodes or b not in nodes:
                    raise ValueError("edge to an undeclared node")
                if (a, b) in seen:
                    raise ValueError(f"edge ({a!r}, {b!r}) repeated")
                seen.add((a, b))
                weights.append(int(w))
                if not 1 <= weights[-1] <= _INT64_MAX:
                    raise ValueError("edge weight must be in [1, 2**63)")
                firsts.append(a)
                seconds.append(b)
    except ValueError as exc:
        raise FormatError(f"line {number}: {exc}") from None
    if declared != len(nodes):
        raise FormatError(
            f"line 1: header declares {declared} nodes but {len(nodes)} node lines found"
        )
    tokens, self_weights, rows, cols = _arrays(nodes, firsts, seconds)
    weights = np.array(weights, dtype=np.int64)
    return SemanticGraph._of(tokens, self_weights, _upper(len(tokens), rows, cols, weights))


_ATTRIBUTE_ENTITIES = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def export_graphml(g: SemanticGraph) -> str:
    """GraphML rendering with edge weights and same-type counts.

    A token holding a character that XML 1.0 cannot carry raises
    FormatError.
    """
    _refuse(g.tokens, _XML_UNSAFE, "cannot be written to GraphML: XML 1.0 cannot carry it")
    names = np.array([escape(token, _ATTRIBUTE_ENTITIES) for token in g.tokens], dtype=object)
    rows, cols, data = g._triples()
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '  <key id="w" for="edge" attr.name="weight" attr.type="long"/>\n'
        '  <key id="sw" for="node" attr.name="self_weight" attr.type="long"/>\n'
        '  <graph edgedefault="undirected">\n'
        + _format_rows(
            '    <node id="%s"><data key="sw">%d</data></node>\n',
            names.tolist(),
            g.self_weights.tolist(),
        )
        + _format_rows(
            '    <edge source="%s" target="%s"><data key="w">%d</data></edge>\n',
            names[rows].tolist(),
            names[cols].tolist(),
            data.tolist(),
        )
        + "  </graph>\n</graphml>\n"
    )


def _format_rows(template: str, *columns: list) -> str:
    """`template` once per row, filled from equal-length columns in one % call."""
    cells = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        cells[k :: len(columns)] = column
    return template * len(columns[0]) % tuple(cells)
