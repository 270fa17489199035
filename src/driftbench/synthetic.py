"""Seeded synthetic corpora for reproducible corpus-growth experiments.

A fixed artificial language over a 500-word vocabulary: unigram
probabilities follow a Zipf curve, and each word strongly prefers a small
fixed set of successor words. Sampling more tokens from the same language
gives growing corpora with stable underlying co-occurrence structure, so
scale effects can be studied without shipping any licensed text.

The language is held in O(V) arrays: the unigram and its CDF, each word's
preferred successors and the sum of its boosted row. A word's successor
distribution is the unigram with its preferred entries boosted, divided by
that sum; no V x V matrix is built. Where the compiled kernel is built,
`driftbench_chain` sums each row's CDF entries only as far as the draw it
serves; otherwise the per-token numpy loop `_chain` searches the whole row
CDF that `_row_cdf` builds, which is its reference. Both do the same float
operations on the same uniform draws, so both give the same tokens.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from . import kernel
from .corpus import TokenStream

DEFAULT_VOCAB_SIZE = 500
STRUCTURE_SEED = 774_001
ZIPF_EXPONENT = 1.05
PREFERRED_SUCCESSORS = 4
PREFERENCE_BOOST = 60.0
# the most float64 entries of one block of boosted rows that `_language` sums
_BLOCK_ENTRIES = 1 << 16


class _Language(NamedTuple):
    """The bigram language of one vocabulary size. Word r's successor
    probabilities are the unigram with the entries at preferred[r] (V x 4
    ids, ascending) multiplied by PREFERENCE_BOOST, divided by sums[r], that
    boosted row's sum."""

    words: tuple[str, ...]
    unigram: np.ndarray
    unigram_cdf: np.ndarray
    preferred: np.ndarray
    sums: np.ndarray


@functools.lru_cache(maxsize=1)
def _language(vocab_size: int) -> _Language:
    """The language of `vocab_size` words, in O(V) arrays.

    Cached for the last vocabulary size, so the arrays are read-only.
    """
    words = tuple(f"w{i:03d}" for i in range(vocab_size))
    unigram = 1.0 / np.arange(1, vocab_size + 1) ** ZIPF_EXPONENT
    unigram /= unigram.sum()
    preferred = _preferred(np.random.default_rng(STRUCTURE_SEED), unigram)
    # row sums of blocks of boosted rows: a row's pairwise sum is that of the row alone
    sums = np.empty(vocab_size)
    rows = max(1, _BLOCK_ENTRIES // vocab_size)
    for start in range(0, vocab_size, rows):
        boosted = preferred[start:start + rows]
        block = np.broadcast_to(unigram, (len(boosted), vocab_size)).copy()
        block[np.arange(len(boosted))[:, None], boosted] *= PREFERENCE_BOOST
        sums[start:start + len(boosted)] = block.sum(axis=1)
    language = _Language(words, unigram, np.cumsum(unigram), preferred, sums)
    for array in language[1:]:
        array.flags.writeable = False
    return language


def _preferred(rng: np.random.Generator, unigram: np.ndarray) -> np.ndarray:
    """For each word in turn, the ids of `rng.choice(V, PREFERRED_SUCCESSORS,
    replace=False, p=unigram)`, ascending, as a (V, PREFERRED_SUCCESSORS)
    int64 array.

    This is numpy's own algorithm, so `rng` is consumed as `choice` consumes
    it, with the normalized unigram CDF summed once instead of per word:
    each round draws one uniform per id still missing, searches the CDF
    (side="right") and keeps the new ids in first-seen order. Only a word
    whose draws repeat sums a CDF with its found ids' probabilities set to 0.
    """
    cdf = np.cumsum(unigram)
    cdf /= cdf[-1]
    rows = []
    for _ in range(len(unigram)):
        found: list[int] = []
        row_cdf = cdf
        while len(found) < PREFERRED_SUCCESSORS:
            if found:
                p = unigram.copy()
                p[found] = 0.0
                row_cdf = np.cumsum(p)
                row_cdf /= row_cdf[-1]
            draws = rng.random(PREFERRED_SUCCESSORS - len(found))
            for pick in row_cdf.searchsorted(draws, side="right").tolist():
                if pick not in found:
                    found.append(pick)
        rows.append(sorted(found))
    return np.array(rows, dtype=np.int64)


def _row_cdf(language: _Language, word: int) -> np.ndarray:
    """The CDF of the successors of `word`: its boosted row divided by its
    sum, cumulated. Rounding may leave its last entry just below 1.0."""
    row = language.unigram.copy()
    row[language.preferred[word]] *= PREFERENCE_BOOST
    return np.cumsum(row / language.sums[word])


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
    language = _language(vocab_size)
    rng = np.random.default_rng(seed)
    ids = np.zeros(0, dtype=np.int32)
    if n_tokens:
        draws = np.concatenate(([rng.random()], rng.random(n_tokens - 1)))
        built = kernel.get()
        if built is None:
            ids = np.array(_chain(language, draws), dtype=np.int32)
        else:
            ids = built.chain(language.unigram, language.unigram_cdf, language.preferred,
                              language.sums, PREFERENCE_BOOST, draws).astype(np.int32)
    return TokenStream._from_ids(f"synthetic-s{seed}-n{n_tokens}", language.words, ids)


def _chain(language: _Language, draws: np.ndarray) -> list[int]:
    """The word ids the draws pick, one searchsorted per token: the first
    from the unigram CDF, each next from the `_row_cdf` of the one before.
    A draw above the last entry of its CDF picks the last word."""
    last = len(language.unigram) - 1
    current = min(int(np.searchsorted(language.unigram_cdf, draws[0])), last)
    ids = [current]
    for r in draws[1:]:
        current = min(int(np.searchsorted(_row_cdf(language, current), r)), last)
        ids.append(current)
    return ids
