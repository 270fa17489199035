"""Similarity metrics, nearest-neighbor queries, and analogy arithmetic.

Every operation here works on a VectorSpace regardless of how its rows were
produced: raw co-occurrence counts, PPMI-weighted rows, or trained
embeddings. Count-derived spaces keep sparse rows; trained spaces are dense.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

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

    `vectors` is either a dense (V, d) float64 array or a scipy CSR matrix.
    Spaces are immutable after construction; queries are read-only.
    """

    def __init__(self, vocab: Vocabulary, vectors, kind: str = "vectors"):
        if sparse.issparse(vectors):
            vectors = vectors.tocsr().astype(np.float64)
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
        self.kind = kind
        self._row_norms: np.ndarray | None = None
        self._lex_rank: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def is_sparse(self) -> bool:
        return sparse.issparse(self.vectors)

    def __contains__(self, word: str) -> bool:
        return word in self.vocab

    def __len__(self) -> int:
        return len(self.vocab)

    def dense_row(self, index: int) -> np.ndarray:
        if self.is_sparse:
            return np.asarray(self.vectors[index].todense()).ravel()
        return np.array(self.vectors[index])

    def vector(self, word: str) -> WordVector:
        return WordVector(word, self.dense_row(self.vocab.index_of(word)))

    def row_norms(self) -> np.ndarray:
        if self._row_norms is None:
            if self.is_sparse:
                sq = self.vectors.multiply(self.vectors).sum(axis=1)
                self._row_norms = np.sqrt(np.asarray(sq).ravel())
            else:
                self._row_norms = np.linalg.norm(self.vectors, axis=1)
        return self._row_norms

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


def _segment_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return csum[indptr[1:]] - csum[indptr[:-1]]


def _rank_scores(space: VectorSpace, query: np.ndarray, metric: str) -> np.ndarray:
    """Score of every row against the query: similarity, or negated distance."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if metric == "cosine":
        qnorm = np.linalg.norm(query)
        if qnorm == 0.0:
            raise ZeroVectorError()
        norms = space.row_norms()
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroVectorError(space.vocab.token_at(int(zero[0])))
        dots = np.asarray(space.vectors @ query).ravel()
        return dots / (norms * qnorm)
    if space.is_sparse:
        m = space.vectors
        qs = query[m.indices]
        if metric == "euclidean":
            per_nz = (m.data - qs) ** 2 - qs**2
            d2 = _segment_sums(per_nz, m.indptr) + float(query @ query)
            return -np.sqrt(np.maximum(d2, 0.0))
        per_nz = np.abs(m.data - qs) - np.abs(qs)
        d1 = _segment_sums(per_nz, m.indptr) + float(np.abs(query).sum())
        return -np.maximum(d1, 0.0)
    diff = space.vectors - query
    if metric == "euclidean":
        return -np.sqrt((diff**2).sum(axis=1))
    return -np.abs(diff).sum(axis=1)


def _top_k(
    space: VectorSpace, scores: np.ndarray, k: int, exclude_idx: Iterable[int]
) -> list[tuple[str, float]]:
    mask = np.ones(len(scores), dtype=bool)
    for i in exclude_idx:
        mask[i] = False
    candidates = np.flatnonzero(mask)
    order = np.lexsort((space.lex_rank()[candidates], -scores[candidates]))
    chosen = candidates[order[:k]]
    vocab = space.vocab
    return [(vocab.token_at(int(i)), float(scores[i])) for i in chosen]


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
    if k < 1:
        raise ValueError("k must be >= 1")
    idx = space.vocab.index_of(word)
    query = space.dense_row(idx)
    if metric == "cosine" and not query.any():
        raise ZeroVectorError(word)
    scores = _rank_scores(space, query, metric)
    entries = _top_k(space, scores, k, () if include_self else (idx,))
    return NeighborList(query=word, entries=tuple(entries), metric=metric)


def neighbor_table(
    space: VectorSpace, k: int, metric: str = "cosine", words: Sequence[str] | None = None
) -> dict[str, NeighborList]:
    """nearest_neighbors for many words at once (all of them by default)."""
    targets = space.vocab.tokens if words is None else list(words)
    return {w: nearest_neighbors(space, w, k, metric) for w in targets}


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
    if k < 1:
        raise ValueError("k must be >= 1")
    ia, ib, ic = (space.vocab.index_of(w) for w in (a, b, c))
    target = space.dense_row(ib) - space.dense_row(ia) + space.dense_row(ic)
    if not target.any():
        raise ZeroVectorError(f"{b} - {a} + {c}")
    scores = _rank_scores(space, target, "cosine")
    exclude = (ia, ib, ic) if exclude_inputs else ()
    entries = _top_k(space, scores, k, exclude)
    return NeighborList(query=f"{b} - {a} + {c}", entries=tuple(entries), metric="cosine")
