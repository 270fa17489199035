"""Differential vs absolute instability between two vector-space models.

Differential comparison works on neighbor lists and never needs the two
spaces to share a basis or even a dimensionality. Absolute comparison
(displacement) only makes sense between equal-dimension spaces and, unless
they are aligned first, is basis-dependent.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .corpus import TokenStream
from .errors import (
    DataError,
    DimensionMismatchError,
    NumericalError,
    UnknownWordError,
    ZeroVectorError,
)
from .trainer import EmbeddingSpace, TrainingConfig, train_cbow, train_skipgram
from . import vector_space
from .vector_space import NeighborList, VectorSpace, _top_k, cosine_similarity


# ---------------------------------------------------------------------------
# rotations and alignment


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix from the QR factorization of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_signed_permutation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix that permutes coordinate axes with random signs.

    Axis relabelings are the rigid motions under which every supported
    measure (cosine, Euclidean, and city-block) is exactly preserved;
    a generic rotation preserves only the first two.
    """
    perm = rng.permutation(dim)
    signs = rng.integers(0, 2, size=dim) * 2 - 1
    q = np.zeros((dim, dim))
    q[np.arange(dim), perm] = signs
    return q


ROTATION_STYLES = ("signed_permutation", "haar")


def random_rotation(space: VectorSpace, seed: int, style: str = ROTATION_STYLES[0]) -> VectorSpace:
    """Apply one seeded rigid rotation about the origin to every vector.

    Sparse (count-derived) spaces are refused because rotation densifies
    them.
    """
    if space.is_sparse:
        raise DataError("cannot rotate a sparse count space; use a dense embedding")
    rng = np.random.default_rng(seed)
    if style == "haar":
        q = random_orthogonal(space.dim, rng)
    elif style == "signed_permutation":
        q = random_signed_permutation(space.dim, rng)
    else:
        raise ValueError(f"unknown rotation style {style!r}")
    return VectorSpace(space.vocab, space.vectors @ q)


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    rotation: np.ndarray
    residual: float
    shared_vocab: tuple[str, ...]
    underdetermined: bool = False

    def __post_init__(self):
        r = self.rotation
        if not np.allclose(r.T @ r, np.eye(r.shape[0]), atol=1e-8):
            raise NumericalError("alignment produced a non-orthogonal rotation")


def _join(a: VectorSpace, b: VectorSpace) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The tokens both models know, in the first model's order, and their
    rows in each: one lookup per token of the first model."""
    tokens = a.vocab.tokens
    rows_b = np.fromiter(map(b.vocab._index.get, tokens, itertools.repeat(-1)), np.intp, len(a))
    shared = rows_b >= 0
    return list(itertools.compress(tokens, shared)), np.flatnonzero(shared), rows_b[shared]


def _refine_rotation(xc: np.ndarray, yc: np.ndarray,
                     rotation: np.ndarray) -> tuple[np.ndarray, float]:
    """The rotation corrected by up to three steps, and its residual.

    The SVD of Xc.T @ Yc is accurate only to eps * ||Xc||**2, so a direction
    of the rows with singular value s can be turned by up to eps / s**2, or
    mirrored when s**2 is below eps, leaving up to eps / s or 2 s of
    residual: 1e-11 at s = 2.5e-5. Each step works from the residual rows E
    themselves, in the basis of Xc R = U diag(s) V.T, with T = U.T @ E @ V.
    It mirrors every direction i that the rotation sends to the wrong side
    (T_ii > s_i), or else takes the Newton step I + A for the skew A that
    minimizes ||Xc R (I + A) - Yc||, a 2 x 2 system per pair of directions:
    A_ij = -(s_i T_ij - s_j T_ji) / (s_i**2 + s_j**2). A step is kept only
    while it lowers the residual.
    """
    best = float(np.linalg.norm(xc @ rotation - yc))
    d = rotation.shape[0]
    for _ in range(3):
        x1 = xc @ rotation
        # every row direction, V d x d, even with fewer rows than dimensions
        u, s, vt = np.linalg.svd(x1, full_matrices=len(x1) < d)
        k = len(s)
        t = u[:, :k].T @ (x1 - yc) @ vt.T
        mirror = s < t.diagonal()[:k]
        if mirror.any():
            step = np.eye(d)
            step[np.flatnonzero(mirror), np.flatnonzero(mirror)] = -1.0
        else:
            sigma = np.zeros(d)
            sigma[:k] = s
            g = np.zeros((d, d))
            g[:k] = s[:, None] * t
            denom = np.add.outer(sigma**2, sigma**2)
            skew = np.divide(g.T - g, denom, out=np.zeros((d, d)), where=denom > 0)
            pu, _, pvt = np.linalg.svd(np.eye(d) + skew)
            step = pu @ pvt
        candidate = rotation @ (vt.T @ step @ vt)
        residual = float(np.linalg.norm(xc @ candidate - yc))
        if not residual < best:
            break
        rotation, best = candidate, residual
    return rotation, best


def procrustes_align(x: VectorSpace, y: VectorSpace) -> AlignmentResult:
    """Least-squares rotation of x onto y over their shared vocabulary.

    Shared rows are mean-centered, and the rotation is u @ vt from
    LAPACK's SVD of Xc.T @ Yc, refined against the residual rows (see
    _refine_rotation); no scaling or translation is applied to the model
    itself. The residual is the Frobenius norm of Xc @ R - Yc. Fewer
    shared words than dimensions leaves the rotation underdetermined,
    which is flagged rather than refused. Raises NumericalError when the
    SVD does not converge or the centered rows do not stay finite.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError(
            f"cannot align a {x.dim}-d space with a {y.dim}-d space"
        )
    shared, rows_x, rows_y = _join(x, y)
    if not shared:
        raise DataError("no shared vocabulary to align on")
    xm, ym = x.dense_rows(rows_x), y.dense_rows(rows_y)
    # rows whose centring overflows fail the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        xc = xm - xm.mean(axis=0)
        yc = ym - ym.mean(axis=0)
        # one power of two, exact, keeps Xc.T @ Yc and the residual from under-
        # or overflowing: the residual of the scaled rows is scaled back exactly
        largest = max(np.abs(xc).max(initial=0.0), np.abs(yc).max(initial=0.0))
        exponent = int(np.frexp(largest)[1])
        xc, yc = np.ldexp(xc, -exponent), np.ldexp(yc, -exponent)
        covariance = xc.T @ yc
    if not np.isfinite(covariance).all():
        raise NumericalError("the centered rows to align are not finite")
    try:
        u, _, vt = np.linalg.svd(covariance)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"the SVD of the alignment failed: {exc}") from exc
    rotation, residual = _refine_rotation(xc, yc, u @ vt)
    residual = float(np.ldexp(residual, exponent))
    if not math.isfinite(residual):
        raise NumericalError("the alignment residual overflows")
    return AlignmentResult(
        rotation=rotation,
        residual=residual,
        shared_vocab=tuple(shared),
        underdetermined=len(shared) < x.dim,
    )


def apply_alignment(space: VectorSpace, result: AlignmentResult) -> VectorSpace:
    """Rotate every vector of `space` by the alignment rotation."""
    if space.is_sparse:
        raise DataError("cannot rotate a sparse count space; use a dense embedding")
    return VectorSpace(space.vocab, space.vectors @ result.rotation)


# ---------------------------------------------------------------------------
# neighbor-list comparison


@dataclass(frozen=True)
class NeighborDiff:
    word: str
    overlap_at_k: float
    jaccard_at_k: float
    exact_order: bool
    rank_agreement: float | None
    k_used: int


_DIFF_FIELDS = NeighborDiff.__match_args__[1:]


def _clamp(queries: Sequence[str], a: np.ndarray, b: np.ndarray,
           k: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Both rankings cut to k, or to the shorter list with one warning at
    the caller outside this module, and the k used."""
    if k < 1:
        raise ValueError("k must be >= 1")
    k_used = min(k, a.shape[1], b.shape[1])
    if k_used == 0:
        raise DataError(f"empty neighbor list for {queries[0]!r}")
    if k_used < k:
        frame, level = sys._getframe(), 1
        while frame.f_globals.get("__name__") == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"k={k} clamped to {k_used} (shortest list) for {len(queries)} "
                      f"word(s), the first {queries[0]!r}", stacklevel=level)
    return a[:, :k_used], b[:, :k_used], k_used


def _compare(queries: Sequence[str], a: np.ndarray, b: np.ndarray, k: int) -> dict:
    """Compare each query's two rankings: rows of `a` and `b` are ids from
    one numbering, best first, with the query itself already left out.

    Both rows are cut by `_clamp`. Returns one column per NeighborDiff field.
    """
    a, b, k_used = _clamp(queries, a, b, k)
    shared, position = _match(a, b)
    common = shared.sum(axis=1)
    return dict(zip(_DIFF_FIELDS, (
        common / k_used,
        common / (2 * k_used - common),
        (a == b).all(axis=1),
        _rank_agreement(shared, position),
        np.full(len(queries), k_used),
    )))


def _rows(words: Sequence[str], columns: dict, names: Sequence[str]):
    """Each word with its values of the named columns as Python scalars,
    None where a value is undefined (NaN) or the table lacks the column."""
    listed = (columns.get(name, np.full(len(words), np.nan)) for name in names)
    return zip(words, *(np.where(np.isnan(c), None, c).tolist() for c in listed))


def _neighbor_diffs(words: Sequence[str], columns: dict) -> dict[str, NeighborDiff]:
    """Each word's NeighborDiff from its row of a column table: the only builder."""
    return {row[0]: NeighborDiff(*row) for row in _rows(words, columns, _DIFF_FIELDS)}


def _match(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every entry of `a`, whether its row of `b` holds it too, and where."""
    n, k = a.shape
    # offset each row's ids so that one sorted search serves all rows
    offset = np.arange(n)[:, None] * (max(a.max(), b.max()) + 1)
    flat_a, flat_b = (a + offset).ravel(), (b + offset).ravel()
    order = np.argsort(flat_b)
    at = order[np.searchsorted(flat_b, flat_a, sorter=order).clip(max=flat_b.size - 1)]
    return (flat_b[at] == flat_a).reshape(n, k), (at % k).reshape(n, k)


def _rank_agreement(shared: np.ndarray, position: np.ndarray) -> np.ndarray:
    """Kendall tau-b of each ranking pair over the words both share; NaN
    (undefined, never 0) below two shared words.

    `position` is where the second ranking holds each shared word of the
    first. Positions cannot tie, so tau-b is (pairs - 2 * discordant) /
    sqrt(pairs) / sqrt(pairs): the float operations of scipy's kendalltau.
    """
    n, k = shared.shape
    width = 1 << (k - 1).bit_length()
    # shared words' positions in first-ranking order, then increasing pads
    # above every position, which add no discordant pair
    order = np.argsort(~shared, axis=1, kind="stable")
    seq = np.broadcast_to(k + np.arange(width), (n, width)).copy()
    found = np.take_along_axis(shared, order, axis=1)
    seq[:, :k][found] = np.take_along_axis(position, order, axis=1)[found]
    m = shared.sum(axis=1)
    pairs = m * (m - 1) // 2
    root = np.sqrt(np.maximum(pairs, 1))
    tau = np.clip((pairs - 2 * _discordant(seq)) / root / root, -1.0, 1.0)
    return np.where(m >= 2, tau, np.nan)


def _discordant(seq: np.ndarray) -> np.ndarray:
    """Out-of-order pairs in each row of distinct values (power-of-two
    width), by merge sort: a right-run value's place in the merged run,
    less its place in its own run, counts the left-run values below it."""
    n, width = seq.shape
    count = np.zeros(n, dtype=np.int64)
    run = 1
    while run < width:
        pairs = seq.reshape(n, -1, 2 * run)
        order = np.argsort(pairs, axis=2)
        place = np.argsort(order, axis=2)[:, :, run:] - np.arange(run)
        count += (run - place).sum(axis=(1, 2))
        seq = np.take_along_axis(pairs, order, axis=2).reshape(n, width)
        run *= 2
    return count


def overlap_at_k(a: NeighborList, b: NeighborList, k: int) -> float:
    """Fraction of shared words between the two top-k lists."""
    return diff_neighbor_lists(a, b, k).overlap_at_k


def jaccard_at_k(a: NeighborList, b: NeighborList, k: int) -> float:
    return diff_neighbor_lists(a, b, k).jaccard_at_k


def diff_neighbor_lists(a: NeighborList, b: NeighborList, k: int) -> NeighborDiff:
    """All comparison metrics between two ranked lists for the same query."""
    if a.query != b.query:
        raise DataError(
            f"neighbor lists answer different queries: {a.query!r} vs {b.query!r}"
        )
    ta, tb = ([t for t in nl.tokens() if t != nl.query] for nl in (a, b))
    ids = {t: i for i, t in enumerate(dict.fromkeys(ta + tb))}
    rows = [np.array([[ids[t] for t in tokens]], dtype=np.intp) for tokens in (ta, tb)]
    return _neighbor_diffs([a.query], _compare([a.query], *rows, k))[a.query]


def _rankings(model: VectorSpace, rows: np.ndarray, k: int, metric: str) -> np.ndarray:
    """The top-k ids of each of the model's `rows`, best first, its own row left out."""
    return _top_k(model, rows, k, metric, rows[:, None])[0]


def neighbor_diff(
    space_a: VectorSpace,
    space_b: VectorSpace,
    word: str,
    k: int = 10,
    metric: str = "cosine",
) -> NeighborDiff:
    """Differential comparison of one word between two models.

    The spaces may have different dimensionalities; only the ranked
    neighbor lists are compared.
    """
    if word not in space_a.vocab:
        raise UnknownWordError(word, "the first model")
    if word not in space_b.vocab:
        raise UnknownWordError(word, "the second model")
    return stability_report(space_a, space_b, k, metric, [word]).diffs[word]


@dataclass(frozen=True)
class Displacement:
    word: str
    euclidean: float
    cosine: float | None
    aligned: bool


def displacement(
    space_a: VectorSpace,
    space_b: VectorSpace,
    word: str,
    aligned: bool = False,
) -> Displacement:
    """Absolute movement of a word between two equal-dimension spaces.

    Reported as the Euclidean norm of the difference, alongside the cosine
    between the two versions (None when either vector is all-zero). With
    aligned=False the value is basis-dependent; rotate one space onto the
    other with procrustes_align first for a meaningful number.
    """
    if space_a.dim != space_b.dim:
        raise DimensionMismatchError(
            f"spaces have dimensions {space_a.dim} and {space_b.dim}; "
            "displacement needs a common basis - align with procrustes_align first"
        )
    ia, ib = space_a.vocab.index_of(word), space_b.vocab.index_of(word)
    try:
        cos = cosine_similarity(space_a.dense_row(ia), space_b.dense_row(ib))
    except ZeroVectorError:
        cos = None
    euclidean = float(_euclidean_displacements(space_a, space_b, [ia], [ib])[0])
    return Displacement(word, euclidean, cos, aligned)


def _euclidean_displacements(a: VectorSpace, b: VectorSpace, ia, ib) -> np.ndarray:
    """The Euclidean distance between rows ia[i] of a and ib[i] of b, from one
    subtraction of the rows per block and sqrt(d @ d) per difference d, so a
    word's value does not depend on the words around it."""
    # sparse rows densify a block at a time
    step = max(1, vector_space._BLOCK_ENTRIES // max(a.dim, 1))
    return np.concatenate([
        np.sqrt([d @ d for d in a.dense_rows(ia[lo : lo + step]) - b.dense_rows(ib[lo : lo + step])])
        for lo in range(0, len(ia), step)
    ])


# ---------------------------------------------------------------------------
# whole-model reports


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Per-word measures as one table: the words in the first model's token
    order, and a column per measure, NaN where a value is undefined.
    `diffs` and `displacements` are read-only views of it."""

    _words: tuple[str, ...]
    _columns: dict[str, np.ndarray]
    aggregates: dict
    frequency_correlation: float | None
    metadata: dict

    @property
    def diffs(self) -> Mapping[str, NeighborDiff]:
        return MappingProxyType(_neighbor_diffs(self._words, self._columns))

    @property
    def displacements(self) -> Mapping[str, float] | None:
        if "displacement" not in self._columns:
            return None
        return MappingProxyType(dict(zip(self._words, self._columns["displacement"].tolist())))

    def to_json_dict(self) -> dict:
        # every column in table order, but the frequencies, which the metadata holds
        names = [name for name in self._columns if name != "frequency"]
        return {
            "metadata": self.metadata,
            "aggregates": self.aggregates,
            "frequency_correlation": self.frequency_correlation,
            "words": {w: dict(zip(names, row))
                      for w, *row in _rows(self._words, self._columns, names)},
        }

    def to_csv(self) -> str:
        lines = ["word,frequency,overlap,jaccard,exact_order,rank_agreement,displacement"]
        names = ("frequency", "overlap_at_k", "jaccard_at_k", "exact_order", "rank_agreement",
                 "displacement")
        for word, *row in _rows(self._words, self._columns, names):
            # floats to ten places, ints as printed, booleans in lower case, undefined empty
            lines.append(",".join([word, *("" if v is None else f"{v:.10f}" if type(v) is float
                                           else str(v).lower() for v in row)]))
        return "\n".join(lines) + "\n"


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks from 1, tied values sharing the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ties = np.diff(np.append(starts, len(values)))
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(starts + (ties + 1) / 2, ties)
    return ranks


def _spearman(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Spearman's rho: the Pearson correlation of the average ranks, with the
    operations and bits of scipy's `spearmanr`; None below two pairs or
    where either side is constant."""
    pairs = np.column_stack((x, y))
    if len(pairs) < 2 or (pairs == pairs[0]).all(axis=0).any():
        return None
    ranks = np.column_stack([_average_ranks(side) for side in pairs.T])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def stability_report(
    model_a: VectorSpace,
    model_b: VectorSpace,
    k: int = 10,
    metric: str = "cosine",
    words: Sequence[str] | None = None,
) -> StabilityReport:
    """Word-by-word differential comparison of two models.

    Covers exactly the shared vocabulary (or the given subset of it).
    Displacements are included only when the dimensionalities match, and
    are computed in the raw bases (not aligned). The frequency
    correlation is the Spearman rank correlation between word frequency
    in the first model and overlap; it is None when either side is
    constant.
    """
    tokens, rows_a, rows_b = _join(model_a, model_b)
    keep = np.arange(len(tokens))
    if words is not None:
        requested = set(words)
        if not requested:
            raise DataError("no words given to compare")
        keep = np.flatnonzero([t in requested for t in tokens])
        if keep.size < len(requested):
            raise UnknownWordError(sorted(requested.difference(tokens))[0], "both models")
    if not keep.size:
        raise DataError("models share no vocabulary")
    words = [tokens[i] for i in keep]
    comparable = model_a.dim == model_b.dim
    # the second model's ids as the first's rows where shared, past them elsewhere
    numbering = np.arange(len(model_a), len(model_a) + len(model_b))
    numbering[rows_b] = rows_a
    qa, qb = rows_a[keep], rows_b[keep]
    ranked = _rankings(model_a, qa, k, metric), numbering[_rankings(model_b, qb, k, metric)]
    columns = _compare(words, *ranked, k)
    columns["frequency"] = np.array(model_a.vocab.frequencies)[qa]
    if comparable:
        columns["displacement"] = _euclidean_displacements(model_a, model_b, qa, qb)
    overlaps, agreements = columns["overlap_at_k"], columns["rank_agreement"]
    agreements = agreements[~np.isnan(agreements)]
    quant = np.quantile(overlaps, [0.0, 0.25, 0.5, 0.75, 1.0])
    aggregates = {
        "words": len(words),
        "mean_overlap": float(overlaps.mean()),
        "mean_jaccard": float(columns["jaccard_at_k"].mean()),
        "exact_order_fraction": float(np.mean(columns["exact_order"])),
        "overlap_quantiles": dict(zip(("min", "q25", "median", "q75", "max"), quant.tolist())),
        "mean_rank_agreement": float(np.mean(agreements)) if agreements.size else None,
        "rank_agreement_undefined": len(words) - agreements.size,
    }
    if comparable:
        aggregates["mean_displacement"] = float(np.mean(columns["displacement"]))
    metadata = {
        "k": k,
        "metric": metric,
        "dims": [model_a.dim, model_b.dim],
        "comparable_dims": comparable,
        "aligned": False,
        "frequencies": dict(zip(words, columns["frequency"].tolist())),
    }
    return StabilityReport(
        _words=tuple(words),
        _columns=columns,
        aggregates=aggregates,
        frequency_correlation=_spearman(columns["frequency"], overlaps),
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# cross-seed experiments


@dataclass(frozen=True, eq=False)
class CrossSeedReport:
    seeds: tuple[int, ...]
    k: int
    metric: str
    per_word_mean_overlap: dict[str, float]
    per_pair_mean_overlap: dict[str, float]
    mean_overlap: float

    def to_json_dict(self) -> dict:
        return {
            "seeds": list(self.seeds),
            "k": self.k,
            "metric": self.metric,
            "mean_overlap": self.mean_overlap,
            "per_pair_mean_overlap": self.per_pair_mean_overlap,
            "per_word_mean_overlap": self.per_word_mean_overlap,
        }


def cross_seed_stability(
    streams: Sequence[TokenStream],
    config: TrainingConfig,
    seeds: Sequence[int],
    k: int = 10,
    metric: str = "cosine",
    architecture: str = "cbow",
) -> CrossSeedReport:
    """Train one embedding per seed and measure cross-seed neighbor overlap.

    Every pair of positions in `seeds` contributes an overlap_at_k per
    word (a seed listed twice meets itself); per-word values are averaged
    over pairs and then over words. Each unique seed is trained once, in
    ascending order.
    """
    if len(seeds) < 2:
        raise ValueError("cross-seed stability needs at least 2 seeds")
    streams = list(streams)
    train = train_cbow if architecture == "cbow" else train_skipgram
    spaces: dict[int, EmbeddingSpace] = {}
    for seed in sorted(set(seeds)):
        try:
            spaces[seed] = train(streams, replace(config, seed=seed))
        except Exception as exc:
            exc.args = (f"[seed {seed}] {exc}",)
            raise
    # one row numbering: the same streams give every seed's space one vocabulary
    words = spaces[seeds[0]].vocab.tokens
    rows = np.arange(len(words))
    ids = {seed: _rankings(space, rows, k, metric) for seed, space in spaces.items()}
    per_word_sums = np.zeros(len(words))
    per_pair: dict[str, float] = {}
    pairs = list(itertools.combinations(seeds, 2))
    for sa, sb in pairs:
        a, b, k_used = _clamp(words, ids[sa], ids[sb], k)
        values = _match(a, b)[0].sum(axis=1) / k_used  # overlap_at_k alone
        per_word_sums += values
        # a running total in word order: the bits of a float sum depend on its order
        per_pair[f"{sa}-{sb}"] = float(np.cumsum(values)[-1]) / len(words)
    per_word = per_word_sums / len(pairs)
    return CrossSeedReport(
        seeds=tuple(seeds),
        k=k,
        metric=metric,
        per_word_mean_overlap=dict(zip(words, per_word.tolist())),
        per_pair_mean_overlap=per_pair,
        mean_overlap=float(per_word.mean()),
    )
