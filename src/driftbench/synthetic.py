"""Seeded synthetic corpora for reproducible corpus-growth experiments.

A fixed artificial language over a 500-word vocabulary: unigram
probabilities follow a Zipf curve, and each word strongly prefers a small
fixed set of successor words. Sampling more tokens from the same language
gives growing corpora with stable underlying co-occurrence structure, so
scale effects can be studied without shipping any licensed text.

Sampling is a chain of binary searches over cached CDFs. Where the
compiled kernel is built, `driftbench_chain` walks it; otherwise the
per-token numpy loop `_chain` does, which is its reference. Both read the
same uniform draws, so both give the same tokens.
"""

from __future__ import annotations

import functools

import numpy as np

from . import kernel
from .corpus import TokenStream

DEFAULT_VOCAB_SIZE = 500
STRUCTURE_SEED = 774_001
ZIPF_EXPONENT = 1.05
PREFERRED_SUCCESSORS = 4
PREFERENCE_BOOST = 60.0


@functools.lru_cache(maxsize=1)
def _language(vocab_size: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Word list, unigram CDF, and per-word transition CDF matrix.

    Cached for the last vocabulary size, so the arrays are read-only.
    """
    words = tuple(f"w{i:03d}" for i in range(vocab_size))
    rng = np.random.default_rng(STRUCTURE_SEED)
    unigram = 1.0 / np.arange(1, vocab_size + 1) ** ZIPF_EXPONENT
    unigram /= unigram.sum()
    transition = np.tile(unigram, (vocab_size, 1))
    for i in range(vocab_size):
        preferred = rng.choice(vocab_size, size=PREFERRED_SUCCESSORS, replace=False, p=unigram)
        transition[i, preferred] *= PREFERENCE_BOOST
    transition /= transition.sum(axis=1, keepdims=True)
    unigram_cdf, transition_cdf = np.cumsum(unigram), np.cumsum(transition, axis=1)
    unigram_cdf.flags.writeable = transition_cdf.flags.writeable = False
    return words, unigram_cdf, transition_cdf


def synthetic_corpus(
    n_tokens: int, seed: int, vocab_size: int = DEFAULT_VOCAB_SIZE
) -> TokenStream:
    """Sample one document of n_tokens from the fixed bigram language.

    The language is determined by STRUCTURE_SEED and the vocabulary size
    alone; `seed` only drives the sampling, so corpora of different sizes
    drawn from the same structure are realizations of one underlying
    distribution.
    """
    if n_tokens < 0:
        raise ValueError("n_tokens must be >= 0")
    if vocab_size < PREFERRED_SUCCESSORS:
        raise ValueError(f"vocab_size must be >= {PREFERRED_SUCCESSORS}")
    words, unigram_cdf, transition_cdf = _language(vocab_size)
    rng = np.random.default_rng(seed)
    ids = np.zeros(0, dtype=np.int32)
    if n_tokens:
        draws = np.concatenate(([rng.random()], rng.random(n_tokens - 1)))
        built = kernel.get()
        if built is None:
            ids = np.array(_chain(unigram_cdf, transition_cdf, draws), dtype=np.int32)
        else:
            ids = built.chain(unigram_cdf, transition_cdf, draws).astype(np.int32)
    return TokenStream._from_ids(f"synthetic-s{seed}-n{n_tokens}", words, ids)


def _chain(unigram_cdf: np.ndarray, transition_cdf: np.ndarray, draws: np.ndarray) -> list[int]:
    """The word ids the draws pick, one searchsorted per token: the first
    from the unigram CDF, each next from the transition row of the one
    before. A CDF row may end just below 1.0 by rounding; a draw above its
    last entry picks the last word."""
    last = len(unigram_cdf) - 1
    current = min(int(np.searchsorted(unigram_cdf, draws[0])), last)
    ids = [current]
    for r in draws[1:]:
        current = min(int(np.searchsorted(transition_cdf[current], r)), last)
        ids.append(current)
    return ids
