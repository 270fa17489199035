"""Differential vs absolute instability between two vector-space models.

Differential comparison works on neighbor lists and never needs the two
spaces to share a basis or even a dimensionality. Absolute comparison
(displacement) only makes sense between equal-dimension spaces and, unless
they are aligned first, is basis-dependent.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

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


def _shared_tokens(a: VectorSpace, b: VectorSpace) -> list[str]:
    return [t for t in a.vocab.tokens if t in b.vocab]


def procrustes_align(x: VectorSpace, y: VectorSpace) -> AlignmentResult:
    """Least-squares rotation of x onto y over their shared vocabulary.

    Shared rows are mean-centered, and the rotation is u @ vt from
    LAPACK's SVD of Xc.T @ Yc; no scaling or translation is applied to the
    model itself. The residual is the Frobenius norm of Xc @ R - Yc. Fewer
    shared words than dimensions leaves the rotation underdetermined,
    which is flagged rather than refused. Raises NumericalError when the
    SVD does not converge or the centered rows do not stay finite.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError(
            f"cannot align a {x.dim}-d space with a {y.dim}-d space"
        )
    shared = _shared_tokens(x, y)
    if not shared:
        raise DataError("no shared vocabulary to align on")
    xm, ym = (s.dense_rows([s.vocab.index_of(t) for t in shared]) for s in (x, y))
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
    rotation = u @ vt
    residual = float(np.ldexp(np.linalg.norm(xc @ rotation - yc), exponent))
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


def _compare(queries: Sequence[str], a: np.ndarray, b: np.ndarray, k: int) -> list[NeighborDiff]:
    """Compare each query's two rankings: rows of `a` and `b` are ids from
    one numbering, best first, with the query itself already left out.

    Both rows are cut to k, or to the shorter list with one warning.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    k_used = min(k, a.shape[1], b.shape[1])
    if k_used == 0:
        raise DataError(f"empty neighbor list for {queries[0]!r}")
    if k_used < k:
        warnings.warn(f"k={k} clamped to {k_used} (shortest list) for {len(queries)} "
                      f"word(s), the first {queries[0]!r}", stacklevel=3)
    a, b = a[:, :k_used], b[:, :k_used]
    shared, position = _match(a, b)
    common = shared.sum(axis=1)
    overlap = (common / k_used).tolist()
    jaccard = (common / (2 * k_used - common)).tolist()
    exact = (a == b).all(axis=1).tolist()
    tau = _rank_agreement(shared, position).tolist()
    return [
        NeighborDiff(q, overlap[i], jaccard[i], exact[i],
                     None if math.isnan(tau[i]) else tau[i], k_used)
        for i, q in enumerate(queries)
    ]


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
    return _compare([a.query], *rows, k)[0]


def _rankings(models: Sequence[VectorSpace], words: Sequence[str], k: int, metric: str):
    """Rank `words` once in each model, each word's own row left out.

    Returns each model's ids in one token numbering, the first model's with
    the tokens only later models know numbered past it, a row per word.
    """
    numbering: dict[str, int] = {}
    renumbered = []
    for model in models:
        rows = np.array([model.vocab.index_of(w) for w in words], dtype=np.intp)
        ids = _top_k(model, rows, k, metric, rows[:, None])[0]
        shared = [numbering.setdefault(t, len(numbering)) for t in model.vocab.tokens]
        renumbered.append(np.array(shared, dtype=np.intp)[ids])
    return renumbered


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
    return _compare([word], *_rankings([space_a, space_b], [word], k, metric), k)[0]


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
    va = space_a.dense_row(space_a.vocab.index_of(word))
    vb = space_b.dense_row(space_b.vocab.index_of(word))
    try:
        cos = cosine_similarity(va, vb)
    except ZeroVectorError:
        cos = None
    return Displacement(word, _euclidean_displacements(space_a, space_b, [word])[0], cos, aligned)


def _euclidean_displacements(a: VectorSpace, b: VectorSpace, words: list[str]) -> list[float]:
    """Each word's Euclidean distance between its rows in a and b, from one
    subtraction of the words' rows per block and sqrt(d @ d) per difference
    d, so a word's value does not depend on the words around it."""
    ia, ib = (np.array([s.vocab.index_of(w) for w in words], dtype=np.intp) for s in (a, b))
    # sparse rows densify a block at a time
    step = max(1, vector_space._BLOCK_ENTRIES // max(a.dim, 1))
    values: list[float] = []
    for lo in range(0, len(words), step):
        diff = a.dense_rows(ia[lo : lo + step]) - b.dense_rows(ib[lo : lo + step])
        values.extend(np.sqrt([d @ d for d in diff]).tolist())
    return values


# ---------------------------------------------------------------------------
# whole-model reports


@dataclass(frozen=True, eq=False)
class StabilityReport:
    diffs: dict[str, NeighborDiff]
    displacements: dict[str, float] | None  # Euclidean, per word
    aggregates: dict
    frequency_correlation: float | None
    metadata: dict

    def to_json_dict(self) -> dict:
        per_word = {}
        for word, d in self.diffs.items():
            record = {
                "overlap_at_k": d.overlap_at_k,
                "jaccard_at_k": d.jaccard_at_k,
                "exact_order": d.exact_order,
                "rank_agreement": d.rank_agreement,
                "k_used": d.k_used,
            }
            if self.displacements is not None:
                record["displacement"] = self.displacements[word]
            per_word[word] = record
        return {
            "metadata": self.metadata,
            "aggregates": self.aggregates,
            "frequency_correlation": self.frequency_correlation,
            "words": per_word,
        }

    def to_csv(self) -> str:
        lines = ["word,frequency,overlap,jaccard,exact_order,rank_agreement,displacement"]
        freqs = self.metadata.get("frequencies", {})
        for word, d in self.diffs.items():
            rank = "" if d.rank_agreement is None else f"{d.rank_agreement:.10f}"
            disp = ""
            if self.displacements is not None:
                disp = f"{self.displacements[word]:.10f}"
            lines.append(
                f"{word},{freqs.get(word, '')},{d.overlap_at_k:.10f},"
                f"{d.jaccard_at_k:.10f},{str(d.exact_order).lower()},{rank},{disp}"
            )
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
    shared = _shared_tokens(model_a, model_b)
    if words is not None:
        requested = set(words)
        if not requested:
            raise DataError("no words given to compare")
        missing = requested - set(shared)
        if missing:
            raise UnknownWordError(sorted(missing)[0], "both models")
        shared = [t for t in shared if t in requested]
    if not shared:
        raise DataError("models share no vocabulary")
    comparable = model_a.dim == model_b.dim
    ids_a, ids_b = _rankings([model_a, model_b], shared, k, metric)
    diffs = dict(zip(shared, _compare(shared, ids_a, ids_b, k)))
    disps: dict[str, float] | None = None
    if comparable:
        disps = dict(zip(shared, _euclidean_displacements(model_a, model_b, shared)))
    overlaps = np.array([d.overlap_at_k for d in diffs.values()])
    jaccards = np.array([d.jaccard_at_k for d in diffs.values()])
    agreements = [d.rank_agreement for d in diffs.values() if d.rank_agreement is not None]
    quant = np.quantile(overlaps, [0.0, 0.25, 0.5, 0.75, 1.0])
    aggregates = {
        "words": len(shared),
        "mean_overlap": float(overlaps.mean()),
        "mean_jaccard": float(jaccards.mean()),
        "exact_order_fraction": float(
            np.mean([d.exact_order for d in diffs.values()])
        ),
        "overlap_quantiles": {
            "min": float(quant[0]),
            "q25": float(quant[1]),
            "median": float(quant[2]),
            "q75": float(quant[3]),
            "max": float(quant[4]),
        },
        "mean_rank_agreement": float(np.mean(agreements)) if agreements else None,
        "rank_agreement_undefined": len(diffs) - len(agreements),
    }
    if disps is not None:
        aggregates["mean_displacement"] = float(np.mean(list(disps.values())))
    freqs = {w: model_a.vocab.frequency(w) for w in shared}
    corr = _spearman([freqs[w] for w in shared], [diffs[w].overlap_at_k for w in shared])
    metadata = {
        "k": k,
        "metric": metric,
        "dims": [model_a.dim, model_b.dim],
        "comparable_dims": comparable,
        "aligned": False,
        "frequencies": freqs,
    }
    return StabilityReport(
        diffs=diffs,
        displacements=disps,
        aggregates=aggregates,
        frequency_correlation=corr,
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

    Every listed seed pair (self-pairs excluded) contributes an
    overlap_at_k per word; per-word values are averaged over pairs and
    then over words. Each unique seed is trained once, in ascending order.
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
    return _cross_seed_report(spaces, seeds, k, metric)


def _cross_seed_report(
    spaces: dict[int, VectorSpace], seeds: Sequence[int], k: int, metric: str
) -> CrossSeedReport:
    """Neighbour overlap of the given spaces, one per seed, for every pair of
    positions in `seeds` (a seed listed twice meets itself), over the first
    space's vocabulary."""
    words = next(iter(spaces.values())).vocab.tokens
    ids = dict(zip(spaces, _rankings(list(spaces.values()), words, k, metric)))
    per_word_sums = np.zeros(len(words))
    per_pair: dict[str, float] = {}
    pairs = list(itertools.combinations(seeds, 2))
    for sa, sb in pairs:
        values = np.array([d.overlap_at_k for d in _compare(words, ids[sa], ids[sb], k)])
        per_word_sums += values
        # a running total in word order: the bits of a float sum depend on its order
        per_pair[f"{sa}-{sb}"] = float(np.cumsum(values)[-1]) / len(words)
    per_word = dict(zip(words, (per_word_sums / len(pairs)).tolist()))
    return CrossSeedReport(
        seeds=tuple(seeds),
        k=k,
        metric=metric,
        per_word_mean_overlap=per_word,
        per_pair_mean_overlap=per_pair,
        mean_overlap=float(np.mean(list(per_word.values()))),
    )
