"""Three-layer CBOW and skip-gram embedding training.

The network has one input neuron and one output neuron per vocabulary word
and a hidden layer of `dimension` units. The input-layer weight rows are
the embedding. Training is plain stochastic gradient descent over
(context, target) pairs scanned in document order, fully deterministic for
a fixed seed: weight initialization, sample order, and noise draws all
flow from one seeded generator, and the loop is single-threaded.
"""

from __future__ import annotations

import hashlib
import json
import warnings
import zipfile
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import TokenStream, Vocabulary, build_vocabulary
from .errors import FormatError, NumericalError
from .vector_space import VectorSpace

SOFTMAX_VOCAB_LIMIT = 20_000
LR_FLOOR_FRACTION = 1e-4
NOISE_POWER = 0.75


@dataclass(frozen=True)
class TrainingConfig:
    seed: int
    dimension: int = 300
    window_radius: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    min_count: int = 1
    objective: str = "auto"

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.window_radius < 1:
            raise ValueError("window_radius must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        parse_objective(self.objective)  # validates the string


def parse_objective(spec: str) -> tuple[str, int]:
    """Parse an objective string: 'auto', 'softmax', or 'neg:<k>'."""
    if spec in ("auto", "softmax"):
        return (spec, 0)
    if spec.startswith("neg:"):
        k = int(spec.split(":", 1)[1])
        if k < 1:
            raise ValueError("negative-sampling k must be >= 1")
        return ("neg", k)
    raise ValueError(f"unknown objective {spec!r}; expected softmax or neg:<k>")


def _resolve_objective(spec: str, vocab_size: int) -> tuple[str, int]:
    kind, k = parse_objective(spec)
    if kind == "auto":
        return ("softmax", 0) if vocab_size <= SOFTMAX_VOCAB_LIMIT else ("neg", 5)
    return (kind, k)


class EmbeddingSpace(VectorSpace):
    """Dense word vectors plus the provenance needed to reproduce them."""

    def __init__(
        self,
        vocab: Vocabulary,
        vectors: np.ndarray,
        provenance: dict | None = None,
        output_weights: np.ndarray | None = None,
    ):
        super().__init__(vocab, np.asarray(vectors, dtype=np.float64), kind="embedding")
        self.provenance = dict(provenance or {})
        self.output_weights = output_weights


def corpus_digest(streams: Iterable[TokenStream]) -> str:
    h = hashlib.sha256()
    for stream in streams:
        h.update(stream.doc_id.encode("utf-8"))
        h.update(b"\x1f")
        h.update(" ".join(stream.tokens).encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()


@dataclass
class ModelState:
    """Mutable network weights during or after training."""

    vocab: Vocabulary
    w_in: np.ndarray
    w_out: np.ndarray
    architecture: str
    objective: tuple[str, int]
    noise_cdf: np.ndarray | None = None


def _noise_cdf(vocab: Vocabulary) -> np.ndarray:
    weights = np.asarray(vocab.frequencies, dtype=np.float64) ** NOISE_POWER
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def init_state(
    streams: Sequence[TokenStream], config: TrainingConfig, architecture: str = "cbow"
) -> ModelState:
    """Seeded uniform initialization of both weight layers."""
    if architecture not in ("cbow", "skipgram"):
        raise ValueError(f"unknown architecture {architecture!r}")
    vocab = build_vocabulary(streams, min_count=config.min_count)
    v, d = len(vocab), config.dimension
    rng = np.random.default_rng(config.seed)
    w_in = (rng.random((v, d)) - 0.5) / d
    w_out = (rng.random((v, d)) - 0.5) / d
    objective = _resolve_objective(config.objective, v)
    cdf = _noise_cdf(vocab) if objective[0] == "neg" else None
    return ModelState(vocab, w_in, w_out, architecture, objective, cdf)


def _cbow_samples(ids: np.ndarray, radius: int) -> Iterator[tuple[np.ndarray, int]]:
    """(context indices, target index) pairs in surface order.

    Out-of-vocabulary tokens occupy window positions, matching the count
    model: the window is positional, and unknown tokens inside it simply
    contribute nothing.
    """
    n = len(ids)
    for i in range(n):
        target = ids[i]
        if target < 0:
            continue
        lo, hi = max(0, i - radius), min(n, i + radius + 1)
        ctx = [int(ids[j]) for j in range(lo, hi) if j != i and ids[j] >= 0]
        if ctx:
            yield np.asarray(ctx, dtype=np.int64), int(target)


def _skipgram_samples(ids: np.ndarray, radius: int) -> Iterator[tuple[np.ndarray, int]]:
    """(input word, one context word) pairs; the input predicts each context word."""
    n = len(ids)
    for i in range(n):
        center = ids[i]
        if center < 0:
            continue
        lo, hi = max(0, i - radius), min(n, i + radius + 1)
        for j in range(lo, hi):
            if j != i and ids[j] >= 0:
                yield np.asarray([int(center)], dtype=np.int64), int(ids[j])


def iter_samples(
    state: ModelState, streams: Sequence[TokenStream], radius: int
) -> Iterator[tuple[np.ndarray, int]]:
    gen = _cbow_samples if state.architecture == "cbow" else _skipgram_samples
    for stream in streams:
        ids = np.asarray(state.vocab.index_sequence(stream.tokens), dtype=np.int64)
        yield from gen(ids, radius)


def _softplus(x: np.ndarray | float) -> np.ndarray | float:
    return np.logaddexp(0.0, x)


def _draw_negatives(
    state: ModelState, k: int, target: int, rng: np.random.Generator
) -> np.ndarray:
    draws = np.searchsorted(state.noise_cdf, rng.random(k))
    return draws[draws != target]


def _sample_loss_grads(
    state: ModelState,
    ctx: np.ndarray,
    target: int,
    negatives: np.ndarray | None,
    want_grads: bool = True,
):
    """Loss and (optionally) gradients for one training sample.

    Returns (loss, grad_h, dscores, out_rows, h) where the output-layer
    gradient is dscores[:, None] * h over rows out_rows (all rows when
    out_rows is None), and the input-layer gradient is grad_h / len(ctx)
    over rows ctx.
    """
    h = state.w_in[ctx].mean(axis=0)
    if state.objective[0] == "softmax":
        scores = state.w_out @ h
        scores -= scores.max()
        exps = np.exp(scores)
        z = exps.sum()
        loss = float(np.log(z) - scores[target])
        if not want_grads:
            return loss, None, None, None, h
        dscores = exps / z
        dscores[target] -= 1.0
        grad_h = state.w_out.T @ dscores
        return loss, grad_h, dscores, None, h
    rows = np.concatenate(([target], negatives)).astype(np.int64)
    u = state.w_out[rows] @ h
    loss = float(_softplus(-u[0]) + _softplus(u[1:]).sum())
    if not want_grads:
        return loss, None, None, None, h
    p = 1.0 / (1.0 + np.exp(-u))
    dscores = p.copy()
    dscores[0] -= 1.0
    grad_h = dscores @ state.w_out[rows]
    return loss, grad_h, dscores, rows, h


def _apply_step(
    state: ModelState,
    ctx: np.ndarray,
    lr: float,
    grad_h: np.ndarray,
    dscores: np.ndarray,
    out_rows: np.ndarray | None,
    h: np.ndarray,
) -> None:
    if out_rows is None:
        state.w_out -= lr * dscores[:, None] * h[None, :]
    else:
        np.subtract.at(state.w_out, out_rows, lr * dscores[:, None] * h[None, :])
    np.subtract.at(state.w_in, ctx, (lr / len(ctx)) * grad_h)


def _run_training(
    streams: Sequence[TokenStream], config: TrainingConfig, architecture: str
) -> EmbeddingSpace:
    streams = list(streams)
    state = init_state(streams, config, architecture)
    rng = np.random.default_rng(config.seed + 1)  # noise draws, separate from init
    per_epoch = sum(1 for _ in iter_samples(state, streams, config.window_radius))
    total = max(per_epoch * config.epochs, 1)
    kind, neg_k = state.objective
    lr0 = config.learning_rate
    seen = 0
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        loss_sum, n = 0.0, 0
        for ctx, target in iter_samples(state, streams, config.window_radius):
            lr = lr0 * max(LR_FLOOR_FRACTION, 1.0 - seen / total)
            negatives = (
                _draw_negatives(state, neg_k, target, rng) if kind == "neg" else None
            )
            loss, grad_h, dscores, out_rows, h = _sample_loss_grads(
                state, ctx, target, negatives
            )
            _apply_step(state, ctx, lr, grad_h, dscores, out_rows, h)
            loss_sum += loss
            n += 1
            seen += 1
        epoch_loss = loss_sum / max(n, 1)
        if not np.isfinite(epoch_loss):
            raise NumericalError(
                f"training diverged: non-finite loss in epoch {epoch + 1} "
                f"(seed {config.seed}, lr {config.learning_rate})"
            )
        epoch_losses.append(epoch_loss)
    provenance = {
        "architecture": architecture,
        "config": asdict(config),
        "objective_resolved": f"{kind}" + (f":{neg_k}" if kind == "neg" else ""),
        "corpus_digest": corpus_digest(streams),
        "epoch_losses": epoch_losses,
        "samples_per_epoch": per_epoch,
    }
    return EmbeddingSpace(
        state.vocab, state.w_in, provenance=provenance, output_weights=state.w_out
    )


def train_cbow(streams: Sequence[TokenStream], config: TrainingConfig) -> EmbeddingSpace:
    """Train continuous-bag-of-words vectors: context mean predicts the target."""
    return _run_training(streams, config, "cbow")


def train_skipgram(streams: Sequence[TokenStream], config: TrainingConfig) -> EmbeddingSpace:
    """Train skip-gram vectors: each word predicts each of its context words."""
    return _run_training(streams, config, "skipgram")


def training_loss(
    state: ModelState,
    batch: Sequence[tuple[np.ndarray, int]],
    noise_seed: int = 0,
) -> float:
    """Mean per-sample loss over a batch, without updating any weights.

    An empty batch has no defined loss; it is reported as 0.0 with a
    warning. Negative-sampling losses draw their noise words from
    `noise_seed`, so repeated calls agree.
    """
    if not batch:
        warnings.warn("training_loss over an empty batch; reporting 0.0", stacklevel=2)
        return 0.0
    rng = np.random.default_rng(noise_seed)
    kind, neg_k = state.objective
    total = 0.0
    for ctx, target in batch:
        negatives = _draw_negatives(state, neg_k, target, rng) if kind == "neg" else None
        loss, _, _, _, _ = _sample_loss_grads(
            state, np.asarray(ctx, dtype=np.int64), target, negatives, want_grads=False
        )
        total += loss
    return total / len(batch)


def gradient_check(
    config: TrainingConfig,
    streams: Sequence[TokenStream],
    weight_samples: int = 24,
    architecture: str = "cbow",
    batch_size: int = 4,
    step: float = 1e-5,
    corruption: float = 0.0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Restricted to tiny models (dimension <= 16, vocabulary <= 50) so the
    finite-difference sweep stays cheap. `corruption` scales the analytic
    gradients and exists so tests can prove the check catches a broken
    backward pass.
    """
    if config.dimension > 16:
        raise ValueError("gradient_check requires dimension <= 16")
    streams = list(streams)
    state = init_state(streams, config, architecture)
    if len(state.vocab) > 50:
        raise ValueError("gradient_check requires vocabulary <= 50")
    samples = list(iter_samples(state, streams, config.window_radius))[:batch_size]
    if not samples:
        raise ValueError("corpus yields no training samples")
    rng = np.random.default_rng(config.seed + 2)
    kind, neg_k = state.objective
    frozen = [
        (ctx, t, _draw_negatives(state, neg_k, t, rng) if kind == "neg" else None)
        for ctx, t in samples
    ]

    def batch_loss() -> float:
        total = 0.0
        for ctx, t, negs in frozen:
            loss, _, _, _, _ = _sample_loss_grads(state, ctx, t, negs, want_grads=False)
            total += loss
        return total / len(frozen)

    grad_in = np.zeros_like(state.w_in)
    grad_out = np.zeros_like(state.w_out)
    for ctx, t, negs in frozen:
        _, grad_h, dscores, out_rows, h = _sample_loss_grads(state, ctx, t, negs)
        if out_rows is None:
            grad_out += dscores[:, None] * h[None, :]
        else:
            np.add.at(grad_out, out_rows, dscores[:, None] * h[None, :])
        np.add.at(grad_in, ctx, grad_h / len(ctx))
    grad_in /= len(frozen)
    grad_out /= len(frozen)
    if corruption:
        grad_in = grad_in * (1.0 + corruption)
        grad_out = grad_out * (1.0 + corruption)

    max_rel = 0.0
    for matrix, grads in ((state.w_in, grad_in), (state.w_out, grad_out)):
        flat_n = matrix.size
        picks = rng.choice(flat_n, size=min(weight_samples, flat_n), replace=False)
        for flat in picks:
            i, j = divmod(int(flat), matrix.shape[1])
            saved = matrix[i, j]
            matrix[i, j] = saved + step
            up = batch_loss()
            matrix[i, j] = saved - step
            down = batch_loss()
            matrix[i, j] = saved
            numeric = (up - down) / (2.0 * step)
            analytic = grads[i, j]
            denom = max(abs(analytic) + abs(numeric), 1e-8)
            max_rel = max(max_rel, abs(analytic - numeric) / denom)
    return max_rel


def save_embedding_text(space: EmbeddingSpace | VectorSpace, path: str | Path) -> None:
    """Plain-text vectors: `<vocab> <dim>` header, then one word per line.

    Components are written with shortest round-trip precision, so saving
    and reloading is exact and identical runs produce identical bytes.
    """
    rows = np.asarray(space.vectors, dtype=np.float64)
    lines = [f"{len(space.vocab)} {space.dim}"]
    for token, index, _ in space.vocab.items():
        comps = " ".join(repr(float(x)) for x in rows[index])
        lines.append(f"{token} {comps}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def load_embedding_text(path: str | Path) -> EmbeddingSpace:
    """Load the text format. Frequencies are not part of this format, so
    the vocabulary carries placeholder frequencies of 1."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise FormatError(f"{path}: empty embedding file")
    try:
        vsize, dim = (int(x) for x in lines[0].split())
    except ValueError as exc:
        raise FormatError(f"{path}: malformed header {lines[0]!r}") from exc
    if len(lines) < 1 + vsize:
        raise FormatError(f"{path}: expected {vsize} vector lines")
    tokens: list[str] = []
    matrix = np.empty((vsize, dim), dtype=np.float64)
    for r, line in enumerate(lines[1 : 1 + vsize]):
        parts = line.split(" ")
        if len(parts) != dim + 1:
            raise FormatError(f"{path}: line {r + 2} has {len(parts) - 1} components")
        tokens.append(parts[0])
        matrix[r] = [float(x) for x in parts[1:]]
    vocab = Vocabulary(tokens, [1] * vsize)
    return EmbeddingSpace(vocab, matrix, provenance={"source": str(path)})


CHECKPOINT_FORMAT = "driftbench-checkpoint-v1"


def save_checkpoint(space: EmbeddingSpace, path: str | Path) -> None:
    """Binary checkpoint with both weight layers, vocabulary, and provenance."""
    np.savez(
        path,
        format=np.array(CHECKPOINT_FORMAT),
        vectors=np.asarray(space.vectors, dtype=np.float64),
        output_weights=(
            space.output_weights
            if space.output_weights is not None
            else np.empty((0, 0))
        ),
        tokens=np.array(space.vocab.tokens, dtype=str),
        frequencies=np.array(space.vocab.frequencies, dtype=np.int64),
        provenance=np.array(json.dumps(space.provenance)),
    )


def load_checkpoint(path: str | Path) -> EmbeddingSpace:
    """Load a checkpoint. Pickled objects are never read, so a crafted file
    cannot run code: an object array, like any malformed content, raises
    FormatError."""
    try:
        with np.load(path, allow_pickle=False) as data:
            if str(data["format"]) != CHECKPOINT_FORMAT:
                raise FormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
            vocab = Vocabulary(
                [str(t) for t in data["tokens"]], [int(f) for f in data["frequencies"]]
            )
            out = data["output_weights"]
            return EmbeddingSpace(
                vocab,
                data["vectors"],
                provenance=json.loads(str(data["provenance"])),
                output_weights=None if out.size == 0 else out,
            )
    except (KeyError, TypeError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: malformed {CHECKPOINT_FORMAT} file: {exc}") from None
