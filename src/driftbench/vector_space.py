"""Similarity metrics, nearest-neighbor queries, and analogy arithmetic.

Every operation here works on a VectorSpace regardless of how its rows were
produced: raw co-occurrence counts, PPMI-weighted rows, or trained
embeddings. Count-derived spaces keep sparse rows; trained spaces are dense.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from ._csr import CSR
from .corpus import Vocabulary
from .errors import DimensionMismatchError, ZeroVectorError

METRICS = ("cosine", "euclidean", "cityblock")


@dataclass(frozen=True)
class WordVector:
    word: str
    components: np.ndarray

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=np.float64)
        object.__setattr__(self, "components", comps)
        if not np.all(np.isfinite(comps)):
            raise ValueError(f"non-finite component in vector for {self.word!r}")

    @property
    def dim(self) -> int:
        return self.components.shape[0]


class VectorSpace:
    """A vocabulary plus one row vector per word.

    `vectors` is either a dense (V, d) float64 array or a read-only `CSR`
    matrix, which the constructor also makes of a scipy sparse matrix,
    reading it without modifying it. The constructor keeps the array or
    `CSR` it is given, not a copy, when that is already float64. Spaces
    are immutable after construction; queries are read-only.
    """

    def __init__(self, vocab: Vocabulary, vectors):
        if isinstance(vectors, CSR) or hasattr(vectors, "tocsr"):
            vectors = CSR.of(vectors).astype(np.float64)
            finite = np.all(np.isfinite(vectors.data))
        else:
            vectors = np.asarray(vectors, dtype=np.float64)
            finite = np.all(np.isfinite(vectors))
        if vectors.shape[0] != len(vocab):
            raise ValueError(
                f"{vectors.shape[0]} rows for {len(vocab)} vocabulary entries"
            )
        if not finite:
            raise ValueError("non-finite entries in vector space")
        self.vocab = vocab
        self.vectors = vectors
        self._unit: tuple | None = None
        self._lex_rank: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def is_sparse(self) -> bool:
        return isinstance(self.vectors, CSR)

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def dense_rows(self, indices) -> np.ndarray:
        """Dense copies of the rows at `indices`, one per row of the result."""
        if self.is_sparse:
            return self.vectors.dense_rows(indices)
        return self.vectors[indices]

    def dense_row(self, index: int) -> np.ndarray:
        return self.dense_rows([index])[0]

    def vector(self, word: str) -> WordVector:
        return WordVector(word, self.dense_row(self.vocab.index_of(word)))

    def _unit_rows(self):
        """The rows cosine ranking scores against, and their norms.

        Rows are used as stored, except that a row whose squared norm
        under- or overflows is divided by its largest magnitude first.
        Cosine does not depend on a row's scale, so this changes no score;
        it keeps a row of tiny components from getting norm 0.
        """
        if self._unit is None:
            if self.is_sparse:
                # the products that underflow to 0 are dropped before the sums
                v = self.vectors
                norms = np.sqrt(v.with_data(v.data * v.data).row_sums())
            else:
                norms = np.linalg.norm(self.vectors, axis=1)
            self._unit = _rescale(self.vectors, norms)
        return self._unit

    def lex_rank(self) -> np.ndarray:
        """Position of each index's token in lexicographic token order."""
        if self._lex_rank is None:
            tokens = self.vocab.tokens
            order = sorted(range(len(tokens)), key=tokens.__getitem__)
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order))
            self._lex_rank = rank
        return self._lex_rank


@dataclass(frozen=True)
class NeighborList:
    """Ranked (token, score) pairs for one query, highest score first.

    For distance metrics the stored score is the negated distance, so the
    descending-score ordering contract holds for every metric. Ties are
    broken by token, ascending.
    """

    query: str
    entries: tuple[tuple[str, float], ...]
    metric: str = "cosine"

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((t, float(s)) for t, s in self.entries)
        )
        for (t1, s1), (t2, s2) in zip(self.entries, self.entries[1:]):
            if s1 < s2 or (s1 == s2 and t1 >= t2):
                raise ValueError(
                    f"entries not strictly ordered at ({t1!r}, {t2!r})"
                )

    def tokens(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_tsv(self) -> str:
        lines = [
            f"{rank}\t{token}\t{score:.10f}"
            for rank, (token, score) in enumerate(self.entries, start=1)
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> str:
        return json.dumps(
            {
                "query": self.query,
                "metric": self.metric,
                "entries": [
                    {"rank": i, "token": t, "score": s}
                    for i, (t, s) in enumerate(self.entries, start=1)
                ],
            },
            ensure_ascii=False,
        )


def _as_components(v) -> np.ndarray:
    return v.components if isinstance(v, WordVector) else np.asarray(v, np.float64)


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"vector dimensions differ: {a.shape[0]} vs {b.shape[0]}"
        )


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, in [-1, 1].

    Zero vectors have no direction, so similarity against one is an error
    rather than a silent 0. Each vector is first divided by its largest
    magnitude, so tiny components cannot square into subnormals.
    """
    av, bv = _as_components(a), _as_components(b)
    _check_dims(av, bv)
    sa, sb = np.abs(av).max(initial=0.0), np.abs(bv).max(initial=0.0)
    if sa == 0.0:
        raise ZeroVectorError(a.word if isinstance(a, WordVector) else None)
    if sb == 0.0:
        raise ZeroVectorError(b.word if isinstance(b, WordVector) else None)
    av, bv = av / sa, bv / sb
    return float(np.dot(av, bv) / (np.linalg.norm(av) * np.linalg.norm(bv)))


def vector_distance(a, b, metric: str = "euclidean") -> float:
    av, bv = _as_components(a), _as_components(b)
    _check_dims(av, bv)
    diff = av - bv
    if metric == "euclidean":
        return float(np.linalg.norm(diff))
    if metric == "cityblock":
        return float(np.abs(diff).sum())
    raise ValueError(f"unknown distance metric {metric!r}")


# Queries are scored a block at a time; a block's score matrix holds at most
# this many float64 entries (1 MiB), whatever the vocabulary size.
_BLOCK_ENTRIES = 1 << 17
# A norm below this had squared components that lost precision to underflow.
_MIN_NORM = np.sqrt(np.finfo(np.float64).tiny)


def _rescale(rows, norms: np.ndarray):
    """Rows and norms, with each row whose squared norm under- or overflowed
    divided by its largest magnitude and its norm recomputed.

    `rows` (dense or CSR) is copied only when some row changes; zero rows
    keep norm 0.
    """
    bad = np.flatnonzero((norms < _MIN_NORM) | np.isinf(norms))
    if bad.size == 0:
        return rows, norms
    is_csr = isinstance(rows, CSR)
    values, norms = (rows.data if is_csr else rows).copy(), norms.copy()
    for i in bad:
        x = values[rows.indptr[i] : rows.indptr[i + 1]] if is_csr else values[i]
        if x.any():
            x /= np.abs(x).max()
            norms[i] = np.linalg.norm(x)
    return (rows.with_data(values) if is_csr else values), norms


def _distance_scores(m, query: np.ndarray, metric: str) -> np.ndarray:
    """Negated distance from the query to every row of m."""
    if isinstance(m, CSR):
        qs = query[m.indices]
        if metric == "euclidean":
            per_nz, base = (m.data - qs) ** 2 - qs**2, float(query @ query)
        else:
            per_nz, base = np.abs(m.data - qs) - np.abs(qs), float(np.abs(query).sum())
        # the product sums each row's terms on their own, in index order
        d = np.maximum(m.with_data(per_nz).dot(np.ones(m.shape[1])) + base, 0.0)
        return -np.sqrt(d) if metric == "euclidean" else -d
    diff = m - query
    if metric == "euclidean":
        return -np.sqrt((diff**2).sum(axis=1))
    return -np.abs(diff).sum(axis=1)


def _cosine_terms(space: VectorSpace, queries: np.ndarray):
    """Dot product of every unit row with each dense query, the rows' norms
    and the queries' norms."""
    rows, norms = space._unit_rows()
    queries, qnorms = _rescale(queries, np.sqrt([q @ q for q in queries]))
    if space.is_sparse:
        # the product sums each row's entries in index order, whatever the block
        dots = rows.dot(queries.T).T
    else:
        # a matrix product sums in another order than a matrix-vector product,
        # and a query's scores must not depend on the block it is scored in
        dots = np.array([rows @ q for q in queries])
    return dots, norms, qnorms


def _select(scores: np.ndarray, exclude: np.ndarray, k: int, lex_rank: np.ndarray,
            norms: np.ndarray | None = None, qnorms: np.ndarray | None = None):
    """Ids and scores of the k best candidates of each row: score
    descending, then token ascending. Row i of the 2-d `exclude` lists
    distinct ids left out of row i. With `norms` and `qnorms`, the scores
    are first divided by `norms * qnorms[:, None]`.

    Partitioning finds each row's k-th best score; only the candidates
    that reach it, ties included, are sorted. This is the selection where
    the compiled kernel is not built, and the reference its `select`, which
    takes the same arguments, is tested against.
    """
    if norms is not None:
        scores = scores / (norms * qnorms[:, None])
    candidate = np.ones(scores.shape, dtype=bool)
    candidate[np.arange(len(scores))[:, None], exclude] = False
    key = -scores
    bounded = np.where(candidate & ~np.isnan(key), key, np.inf)
    kth = np.partition(bounded, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(candidate & (bounded <= kth))
    order = np.lexsort((lex_rank[cols], key[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    keep = np.arange(len(rows)) - np.searchsorted(rows, rows) < k
    rows, cols = rows[keep], cols[keep]
    return cols.reshape(-1, k), scores[rows, cols].reshape(-1, k)


def _top_k(space: VectorSpace, queries, k: int, metric: str, exclude):
    """Top-k ids and scores of every query, best first; the one ranking function.

    `queries` is a 1-d array of row indices of the space or a 2-d array of
    non-zero query vectors. Row i of the 2-d `exclude` lists distinct ids
    left out of query i's ranking (it may have no columns). Scores are
    similarities, or negated distances; ties are broken by token. k is
    clamped to the candidates left after exclusion. Returns two
    (queries, k) arrays. The compiled kernel's `select` ranks where it is
    built, else `_select`; both give the same bits. Rows that overflow
    score inf or NaN and rank last, without a warning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    queries = np.asarray(queries)
    by_row = queries.ndim == 1
    exclude = np.asarray(exclude, dtype=np.intp)
    v = len(space)
    with np.errstate(over="ignore", invalid="ignore"):
        if metric == "cosine":
            norms = space._unit_rows()[1]
            zero = np.flatnonzero(norms == 0.0)
            if zero.size:
                # a zero query is named before any other zero row
                if by_row:
                    zero = np.concatenate([queries[norms[queries] == 0.0], zero])
                raise ZeroVectorError(space.vocab.token_at(int(zero[0])))
        k = min(k, v - exclude.shape[1])
        ids = np.empty((len(queries), k), dtype=np.intp)
        scores = np.empty(ids.shape)
        if k == 0:
            return ids, scores
        step = max(1, _BLOCK_ENTRIES // v)
        source = space._unit_rows()[0] if metric == "cosine" else space.vectors
        built = kernel.get()
        select = _select if built is None else built.select
        for lo in range(0, len(queries), step):
            block, drop = queries[lo : lo + step], exclude[lo : lo + step]
            if by_row:
                block = source.dense_rows(block) if space.is_sparse else source[block]
            if metric == "cosine":
                values, norms, qnorms = _cosine_terms(space, block)
            else:
                values = np.array([_distance_scores(space.vectors, q, metric) for q in block])
                norms = qnorms = None
            ids[lo : lo + step], scores[lo : lo + step] = select(
                values, drop, k, space.lex_rank(), norms, qnorms
            )
            del values  # one block's scores in memory at a time, not two
    return ids, scores


def _neighbor_lists(space: VectorSpace, queries, ids, scores, metric: str) -> list[NeighborList]:
    token = space.vocab.token_at
    return [
        NeighborList(query, tuple(zip(map(token, row.tolist()), s.tolist())), metric)
        for query, row, s in zip(queries, ids, scores)
    ]


def nearest_neighbors(
    space: VectorSpace,
    word: str,
    k: int,
    metric: str = "cosine",
    include_self: bool = False,
) -> NeighborList:
    """Top-k nearest words to `word`, the query itself excluded.

    Pass include_self=True to keep the query in its own ranking (it then
    heads the list under cosine). k larger than the remaining vocabulary
    returns the full ranking. Ordering is deterministic: score
    descending, then token ascending.
    """
    idx = space.vocab.index_of(word)
    ids, scores = _top_k(space, [idx], k, metric, [[] if include_self else [idx]])
    return _neighbor_lists(space, [word], ids, scores, metric)[0]


def neighbor_table(
    space: VectorSpace, k: int, metric: str = "cosine", words: Sequence[str] | None = None
) -> dict[str, NeighborList]:
    """nearest_neighbors for many words at once (all of them by default)."""
    targets = space.vocab.tokens if words is None else list(words)
    rows = np.array([space.vocab.index_of(w) for w in targets], dtype=np.intp)
    ids, scores = _top_k(space, rows, k, metric, rows[:, None])
    return dict(zip(targets, _neighbor_lists(space, targets, ids, scores, metric)))


def analogy(
    space: VectorSpace,
    a: str,
    b: str,
    c: str,
    k: int = 10,
    exclude_inputs: bool = True,
) -> NeighborList:
    """Nearest words to vector(b) - vector(a) + vector(c) under cosine.

    The three input words are excluded from the results unless
    exclude_inputs is False (useful for checking the degenerate identity
    b - a + a = b).
    """
    ia, ib, ic = (space.vocab.index_of(w) for w in (a, b, c))
    target = space.dense_row(ib) - space.dense_row(ia) + space.dense_row(ic)
    query = f"{b} - {a} + {c}"
    if not target.any():
        raise ZeroVectorError(query)
    exclude = sorted({ia, ib, ic}) if exclude_inputs else []
    ids, scores = _top_k(space, target[None, :], k, "cosine", [exclude])
    return _neighbor_lists(space, [query], ids, scores, "cosine")[0]
