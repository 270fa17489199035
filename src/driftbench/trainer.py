"""Three-layer CBOW and skip-gram embedding training.

The network has one input neuron and one output neuron per vocabulary word
and a hidden layer of `dimension` units. The input-layer weight rows are
the embedding. Training is plain stochastic gradient descent over
(context, target) pairs scanned in document order, fully deterministic for
a fixed seed: weight initialization, sample order, and noise draws all
flow from one seeded generator, and the loop is single-threaded.

`_plan` cuts the window walk into chunks once per training, and `_epoch`
hands each chunk to a step: the SGD loop of the compiled kernel
(`kernel.get()`), or, where that cannot be built or loaded, the numpy step,
which is also the reference the kernel is tested against. Their weights
differ only in the last few bits, so the provenance names the kernel.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import warnings
from dataclasses import dataclass, asdict, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import kernel
from .corpus import (
    _BOUNDARY,
    _OTHER_LINE_BREAKS,
    TokenStream,
    Vocabulary,
    _lf_lines_only,
    _window_ids,
    build_vocabulary,
    decode_utf8,
)
from .errors import FormatError, NumericalError
from .vector_space import VectorSpace

SOFTMAX_VOCAB_LIMIT = 20_000
LR_FLOOR_FRACTION = 1e-4
NOISE_POWER = 0.75
# samples whose noise words are drawn at once; bounds the noise buffer to
# this many times k ids, plus one position's samples
NOISE_CHUNK = 1 << 14


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
        super().__init__(vocab, vectors)
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


def iter_samples(
    state: ModelState, streams: Sequence[TokenStream], radius: int
) -> Iterator[tuple[np.ndarray, int]]:
    """Training samples in surface order; windows never cross documents.

    Out-of-vocabulary tokens occupy window positions, matching the count
    model, but are dropped from the samples. CBOW yields (context, target)
    per target with a non-empty context; skip-gram yields ([target], c) per
    context word c.
    """
    ids, radius = _window_ids(streams, state.vocab, radius)
    return _samples(ids, radius, state.architecture, 0, len(ids))


def _samples(ids: np.ndarray, radius: int, architecture: str, start: int, stop: int):
    """The samples of `iter_samples` at positions start..stop-1 of `_window_ids`.
    Each window walks as `driftbench_sgd`'s does: up to `radius` positions
    each side of its token, or to a `_BOUNDARY`."""
    base = max(start - radius, 0)
    # a boundary past the slice's end stands for whatever follows it
    ids = [*ids[base : stop + radius].tolist(), _BOUNDARY]
    cbow = architecture == "cbow"
    first = end = 0  # the current document's first position, and its boundary after
    for at in range(stop - base):
        target = ids[at]
        if target < 0:
            if target == _BOUNDARY:
                first = at + 1
            continue
        if at < start - base:
            continue
        if end < at:
            end = ids.index(_BOUNDARY, at)
        lo = at - radius if at - radius > first else first
        hi = at + radius + 1 if at + radius < end else end
        ctx = [c for c in ids[lo:at] + ids[at + 1 : hi] if c >= 0]
        if not cbow:
            for c in ctx:
                yield np.asarray([target], dtype=np.int64), c
        elif ctx:
            yield np.asarray(ctx, dtype=np.int64), target


def _draw_negatives(
    state: ModelState, target: int, rng: np.random.Generator
) -> np.ndarray | None:
    """Noise words for one sample; None under softmax, which draws none."""
    kind, k = state.objective
    if kind != "neg":
        return None
    draws = np.searchsorted(state.noise_cdf, rng.random(k))
    return draws[draws != target]


def _sample_loss_grads(
    state: ModelState, ctx: np.ndarray, target: int, negatives: np.ndarray | None
):
    """Loss and gradients for one training sample.

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
        dscores = exps / z
        dscores[target] -= 1.0
        grad_h = state.w_out.T @ dscores
        return loss, grad_h, dscores, None, h
    rows = np.concatenate(([target], negatives)).astype(np.int64)
    u = state.w_out[rows] @ h
    loss = float(np.logaddexp(0.0, -u[0]) + np.logaddexp(0.0, u[1:]).sum())
    dscores = 1.0 / (1.0 + np.exp(-u))
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


def _plan(ids: np.ndarray, radius: int, architecture: str, k: int) -> list[tuple[int, int, int]]:
    """The chunks of an epoch over `_window_ids`, as (start, stop, samples):
    `_samples` yields `samples` samples at positions start..stop-1. Under
    negative sampling (k > 0) a chunk ends at the position that passes a
    multiple of NOISE_CHUNK samples; under softmax one chunk holds them all.
    No chunk is empty."""
    known = ids >= 0
    before = np.concatenate(([0], np.cumsum(known)))  # known positions before each index
    wall = ids == _BOUNDARY
    # the known positions before each position's document, and before its end
    first = np.maximum.accumulate(np.where(wall, before[:-1], 0))
    last = np.minimum.accumulate(np.where(wall, before[:-1], before[-1])[::-1])[::-1]
    p = np.arange(len(ids))
    context = (np.minimum(before[np.minimum(p + radius + 1, len(ids))], last)
               - np.maximum(before[np.maximum(p - radius, 0)], first) - known)
    # a CBOW sample per known token with a known context word, a skip-gram
    # sample per known context word of a known token
    counts = known & (context > 0) if architecture == "cbow" else np.where(known, context, 0)
    seen = np.concatenate(([0], np.cumsum(counts)))  # samples before each position
    cuts = np.arange(NOISE_CHUNK, seen[-1], NOISE_CHUNK) if k else []
    bounds = [0, *np.searchsorted(seen, cuts, side="right").tolist(), len(ids)]
    return [(start, stop, int(seen[stop] - seen[start]))
            for start, stop in zip(bounds[:-1], bounds[1:]) if seen[stop] > seen[start]]


def _numpy_sgd(state: ModelState, ids: np.ndarray, radius: int, config: TrainingConfig,
               total: int):
    """The numpy SGD step over `_window_ids` for `_epoch`: the fallback where
    the C kernel is not built, and the reference it is tested against."""
    k = state.objective[1]

    def step(start: int, stop: int, noise: np.ndarray, seen: int, loss_sum: float) -> float:
        for i, (ctx, target) in enumerate(_samples(ids, radius, state.architecture, start, stop)):
            lr = config.learning_rate * max(LR_FLOOR_FRACTION, 1.0 - (seen + i) / total)
            negatives = noise[i * k : (i + 1) * k]  # none under softmax
            loss, *grads = _sample_loss_grads(state, ctx, target, negatives[negatives != target])
            _apply_step(state, ctx, lr, *grads)
            loss_sum += loss
        return loss_sum

    return step


def _epoch(step, state: ModelState, plan: list[tuple[int, int, int]],
           rng: np.random.Generator, seen: int) -> float:
    """One epoch over the chunks of `_plan`; returns the sum of the sample
    losses. Each chunk draws its noise words with one `rng.random` call,
    which gives `_draw_negatives`' per-sample draws in order. step(start,
    stop, noise, seen, loss_sum) trains positions start..stop-1 and returns
    loss_sum plus their losses, so the loss is one sequential sum."""
    k = state.objective[1]
    loss_sum = 0.0
    noise = np.zeros(0, dtype=np.int64)
    for start, stop, samples in plan:
        if k:
            draws = rng.random(samples * k)
            noise = np.searchsorted(state.noise_cdf, draws).astype(np.int64, copy=False)
        loss_sum = step(start, stop, noise, seen, loss_sum)
        seen += samples
    return loss_sum


def _run_training(
    streams: Sequence[TokenStream], config: TrainingConfig, architecture: str
) -> EmbeddingSpace:
    streams = list(streams)
    state = init_state(streams, config, architecture)
    rng = np.random.default_rng(config.seed + 1)  # noise draws, separate from init
    ids, radius = _window_ids(streams, state.vocab, config.window_radius)
    plan = _plan(ids, radius, architecture, state.objective[1])
    per_epoch = sum(samples for _, _, samples in plan)
    total = max(per_epoch * config.epochs, 1)
    built = kernel.get()
    if built is None:
        step = _numpy_sgd(state, ids, radius, config, total)
    else:
        step = built.sgd(state.w_in, state.w_out, ids, radius,
                         architecture == "skipgram", state.objective[1],
                         config.learning_rate, LR_FLOOR_FRACTION, total)
    kind, neg_k = state.objective
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        loss_sum = _epoch(step, state, plan, rng, epoch * per_epoch)
        epoch_loss = loss_sum / max(per_epoch, 1)
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
        "kernel": training_kernel(),
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


def training_loss(state: ModelState, batch: Sequence[tuple[np.ndarray, int]]) -> float:
    """Mean per-sample loss over a batch, without updating any weights.

    An empty batch has no defined loss; it is reported as 0.0 with a
    warning. Negative-sampling losses draw their noise words from a
    generator seeded with 0, so repeated calls agree.
    """
    if not batch:
        warnings.warn("training_loss over an empty batch; reporting 0.0", stacklevel=2)
        return 0.0
    rng = np.random.default_rng(0)
    frozen = [
        (np.asarray(ctx, dtype=np.int64), t, _draw_negatives(state, t, rng))
        for ctx, t in batch
    ]
    return _batch_loss(state, frozen)


def _batch_loss(
    state: ModelState, frozen: Sequence[tuple[np.ndarray, int, np.ndarray | None]]
) -> float:
    """Mean loss over (context, target, negatives) samples with fixed noise."""
    total = 0.0
    for ctx, t, negs in frozen:
        total += _sample_loss_grads(state, ctx, t, negs)[0]
    return total / len(frozen)


def gradient_check(
    config: TrainingConfig,
    streams: Sequence[TokenStream],
    weight_samples: int = 24,
    architecture: str = "cbow",
    corruption: float = 0.0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The batch is the corpus's first four samples and the difference step
    is 1e-5. Restricted to tiny models (dimension <= 16, vocabulary <= 50)
    so the finite-difference sweep stays cheap. `corruption` scales the analytic
    gradients and exists so tests can prove the check catches a broken
    backward pass.
    """
    if config.dimension > 16:
        raise ValueError("gradient_check requires dimension <= 16")
    streams = list(streams)
    state = init_state(streams, config, architecture)
    if len(state.vocab) > 50:
        raise ValueError("gradient_check requires vocabulary <= 50")
    rng = np.random.default_rng(config.seed + 2)
    samples = islice(iter_samples(state, streams, config.window_radius), 4)
    frozen = [(ctx, t, _draw_negatives(state, t, rng)) for ctx, t in samples]
    if not frozen:
        raise ValueError("corpus yields no training samples")
    # one SGD step at learning rate -1/batch from zero weights is the mean gradient
    grads = replace(state, w_in=np.zeros_like(state.w_in), w_out=np.zeros_like(state.w_out))
    lr = -(1.0 + corruption) / len(frozen)
    for ctx, t, negs in frozen:
        _apply_step(grads, ctx, lr, *_sample_loss_grads(state, ctx, t, negs)[1:])

    step = 1e-5
    max_rel = 0.0
    for matrix, grad in ((state.w_in, grads.w_in), (state.w_out, grads.w_out)):
        flat_n = matrix.size
        picks = rng.choice(flat_n, size=min(weight_samples, flat_n), replace=False)
        for flat in picks:
            i, j = divmod(int(flat), matrix.shape[1])
            saved = matrix[i, j]
            matrix[i, j] = saved + step
            up = _batch_loss(state, frozen)
            matrix[i, j] = saved - step
            down = _batch_loss(state, frozen)
            matrix[i, j] = saved
            numeric = (up - down) / (2.0 * step)
            analytic = grad[i, j]
            denom = max(abs(analytic) + abs(numeric), 1e-8)
            max_rel = max(max_rel, abs(analytic - numeric) / denom)
    return max_rel


def training_kernel() -> str:
    """What trains in this process: the compiled kernel, 'c:<source hash>',
    or 'numpy:<version>' where it is not built."""
    built = kernel.get()
    return f"numpy:{np.__version__}" if built is None else built.name


# a token that the embedding reader would not read back: empty, or holding
# its field separator or a line break
_EMBEDDING_UNSAFE = re.compile(f"\\A\\Z|[ \n{_OTHER_LINE_BREAKS}]")


def save_embedding_text(space: EmbeddingSpace | VectorSpace, path: str | Path) -> None:
    """Plain-text vectors: `<vocab> <dim>` header, then one word per line.

    Components are written with shortest round-trip precision, the bytes of
    repr(), so saving and reloading is exact and identical runs produce
    identical bytes. The compiled kernel writes them where it is built. A
    sparse space, a space of dimension 0, or a token that the reader could
    not read back (empty, or holding a space or a line break), raises
    ValueError before any byte is written.
    """
    if space.is_sparse:
        raise ValueError("a sparse count space cannot be written as embedding text")
    if space.dim == 0:
        raise ValueError("a space of dimension 0 cannot be written as embedding text")
    tokens = space.vocab.tokens
    unsafe = next(filter(_EMBEDDING_UNSAFE.search, tokens), None)
    if unsafe is not None:
        raise ValueError(f"token {unsafe!r} cannot be written as embedding text: "
                         "it is empty or holds a space or a line break")
    rows = np.ascontiguousarray(space.vectors, dtype=np.float64)
    built = kernel.get()
    if built is None:
        body = "".join(f"{token} {' '.join(map(repr, row.tolist()))}\n"
                       for token, row in zip(tokens, rows)).encode()
    else:
        body = built.format_rows("\n".join([*tokens, ""]).encode(), rows)
    with open(path, "wb") as out:
        out.write(f"{len(space.vocab)} {space.dim}\n".encode())
        out.write(body)


def load_embedding_text(path: str | Path) -> EmbeddingSpace:
    """Load the text format. Frequencies are not part of this format, so
    the vocabulary carries placeholder frequencies of 1. A malformed line,
    or a non-empty line after the header's count of rows, raises
    FormatError naming it.

    Where the compiled kernel is built, a file as save_embedding_text
    writes it is parsed in bulk. Any other file, any file that fails a bulk
    check, and every file without the kernel goes through the per-line
    reader, which words every error.
    """
    data = Path(path).read_bytes()
    space = _parse_embedding_bulk(data, path)
    return space if space is not None else _parse_embedding_lines(decode_utf8(data, str(path)),
                                                                  path)


def _parse_embedding_bulk(data: bytes, path: str | Path) -> EmbeddingSpace | None:
    """The space of a canonical embedding file, or None for the per-line reader.

    Canonical means a `<vocab> <dim>` header with both sizes above 0, LF line
    breaks, exactly one row per word, non-empty UTF-8 tokens and finite
    components. The kernel reads the file's bytes in one pass where it is
    built; without it, every file goes to the per-line reader.
    """
    built = kernel.get()
    if built is None:
        return None
    match = re.match(b"([0-9]+) ([0-9]+)\n", data)
    if match is None:
        return None
    vsize, dim = int(match[1]), int(match[2])
    if not 0 < vsize * dim <= len(data):
        return None
    matrix, bad, blob = built.parse_rows(memoryview(data)[match.end():], vsize, dim)
    if bad >= 0:
        return None
    # the fields are ASCII and hold no line break, so the tokens alone can
    # hold bytes that are not UTF-8 or a line break other than LF
    try:
        joined = blob.decode()
    except UnicodeDecodeError:
        return None
    if not _lf_lines_only(joined):
        return None
    tokens = joined.split("\n")[:-1]
    if len(set(tokens)) != vsize:
        return None
    vocab = Vocabulary(tokens, [1] * vsize)
    return EmbeddingSpace(vocab, matrix, provenance={"source": str(path)})


def _parse_embedding_lines(text: str, path: str | Path) -> EmbeddingSpace:
    """The per-line embedding reader: accepts every valid file and names the
    first bad line of an invalid one."""
    lines = text.splitlines()
    if not lines:
        raise FormatError(f"{path}: empty embedding file")
    number = 1
    try:
        vsize, dim = (int(x) for x in lines[0].split())
        # a component takes two characters or more, so the file's size bounds the matrix
        if not (0 <= vsize < len(lines) and dim >= 0 and vsize * dim <= len(text)):
            raise ValueError(f"{vsize} vectors of {dim} components do not fit the file")
        tokens: list[str] = []
        seen: set[str] = set()
        matrix = np.empty((vsize, dim), dtype=np.float64)
        for number, line in enumerate(lines[1 : 1 + vsize], start=2):
            token, *comps = line.split(" ")
            if len(comps) != dim:
                raise ValueError(f"{len(comps)} components, header says {dim}")
            if not token:
                raise ValueError("empty token")
            if token in seen:
                raise ValueError(f"token {token!r} repeated")
            matrix[number - 2] = [float(x) for x in comps]
            if not np.isfinite(matrix[number - 2]).all():
                raise ValueError("non-finite component")
            tokens.append(token)
            seen.add(token)
    except ValueError as exc:
        raise FormatError(f"{path}: line {number}: {exc}") from None
    for number, line in enumerate(lines[1 + vsize :], start=2 + vsize):
        if line:
            raise FormatError(f"{path}: line {number}: more rows than the header's {vsize}")
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
    FormatError. A file that cannot be read raises OSError."""
    data = Path(path).read_bytes()
    try:
        with np.load(io.BytesIO(data), allow_pickle=False) as arrays:
            fmt = str(arrays["format"])
            vocab = Vocabulary(
                [str(t) for t in arrays["tokens"]], [int(f) for f in arrays["frequencies"]]
            )
            out = arrays["output_weights"]
            space = EmbeddingSpace(
                vocab,
                arrays["vectors"],
                provenance=json.loads(str(arrays["provenance"])),
                output_weights=None if out.size == 0 else out,
            )
    except Exception as exc:  # zip, npy and json parsers raise many kinds on corrupt bytes
        raise FormatError(f"{path}: malformed {CHECKPOINT_FORMAT} file: {exc}") from None
    if fmt != CHECKPOINT_FORMAT:
        raise FormatError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    return space
