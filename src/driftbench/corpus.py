"""Corpus ingestion: deterministic tokenization, vocabularies, corpus statistics."""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import EncodingError, EmptyVocabularyError, UnknownWordError

# A token is a maximal run of Unicode letters/digits; apostrophes (straight or
# typographic) and hyphens are kept only between such runs. Underscore is a
# separator (it is markup in plain-text ebooks, not a word character).
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*", re.UNICODE)
# On ASCII text _TOKEN_RE's letters and digits are [a-z0-9] after lowercasing.
# This table lowercases A-Z, keeps [a-z0-9'-] and maps every other byte to a
# space, so that splitting the result gives the runs a token can come from.
_ASCII_KEPT = b"abcdefghijklmnopqrstuvwxyz0123456789'-"
_ASCII_WORDS = bytes(c + 32 if 65 <= c <= 90 else c if c in _ASCII_KEPT else 32 for c in range(256))


@dataclass(frozen=True)
class Document:
    id: str
    text: str


@dataclass(frozen=True)
class TokenStream:
    """Ordered lowercase tokens of one document."""

    doc_id: str
    tokens: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.tokens)


def tokenize(text: str, doc_id: str = "") -> TokenStream:
    """Split text into lowercase word tokens.

    Letters and digits form tokens; an apostrophe or hyphen survives only
    between two such runs ("common-sense", "don't"). Everything else
    separates. Lowercasing happens before extraction, so tokenizing the
    space-joined output reproduces it exactly.

    _TOKEN_RE defines the tokens. ASCII text takes a faster path with the
    same result: one translate keeps the runs of [a-z0-9'-], and only a run
    holding an apostrophe or hyphen goes through the regex, which cannot
    match across the separators between runs.
    """
    if not text.isascii():
        return TokenStream(doc_id=doc_id, tokens=tuple(_TOKEN_RE.findall(text.lower())))
    runs = text.encode().translate(_ASCII_WORDS).decode()
    if "'" not in runs and "-" not in runs:
        return TokenStream(doc_id=doc_id, tokens=tuple(runs.split()))
    tokens: list[str] = []
    for run in runs.split():
        if run.isalnum():
            tokens.append(run)
        else:
            tokens += _TOKEN_RE.findall(run)
    return TokenStream(doc_id=doc_id, tokens=tuple(tokens))


def tokenize_document(doc: Document) -> TokenStream:
    return tokenize(doc.text, doc_id=doc.id)


def decode_utf8(data: bytes, source: str = "<bytes>") -> str:
    """Decode bytes as UTF-8, reporting the byte offset of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(source, exc.start) from exc


# str.splitlines() ends a line at each of these as well as at LF. The bulk
# readers split at LF alone, so they leave a text holding one of them to the
# per-line readers.
_OTHER_LINE_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _lf_lines_only(text: str) -> bool:
    """True when the text breaks lines at LF and nowhere else."""
    return not any(brk in text for brk in _OTHER_LINE_BREAKS)


def read_document(path: str | Path) -> Document:
    path = Path(path)
    text = decode_utf8(path.read_bytes(), source=str(path))
    return Document(id=path.name, text=text)


def read_corpus(path: str | Path) -> list[Document]:
    """Read a corpus from a single text file or a directory of text files.

    Directory entries are read in sorted name order so document ids and
    stream order are deterministic.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(p for p in path.iterdir() if p.is_file())
        return [read_document(p) for p in files]
    return [read_document(path)]


def load_stoplist(path: str | Path) -> frozenset[str]:
    """Load a stoplist file: one token per line, blank lines ignored."""
    text = decode_utf8(Path(path).read_bytes(), source=str(path))
    return frozenset(line.strip() for line in text.splitlines() if line.strip())


def remove_stopwords(stream: TokenStream, stoplist: Iterable[str]) -> TokenStream:
    """Drop stoplisted tokens, preserving the order of the rest.

    Runs before any windowed counting, so context windows close over the
    gaps left by removed tokens.
    """
    stop = stoplist if isinstance(stoplist, (set, frozenset)) else frozenset(stoplist)
    return TokenStream(
        doc_id=stream.doc_id,
        tokens=tuple(t for t in stream.tokens if t not in stop),
    )


class Vocabulary:
    """Bijection between tokens and contiguous indices, with corpus frequencies.

    Index order is total-frequency descending, ties broken lexicographically,
    which makes construction deterministic and matches the most-frequent-first
    truncation rule. Types appended later (corpus augmentation) keep their
    position; existing indices never move.
    """

    def __init__(self, tokens: Sequence[str], frequencies: Sequence[int]):
        if len(tokens) != len(frequencies):
            raise ValueError("tokens and frequencies must have equal length")
        self._tokens: list[str] = list(tokens)
        self._freq: list[int] = list(frequencies)
        self._index: dict[str, int] = {t: i for i, t in enumerate(self._tokens)}
        if len(self._index) != len(self._tokens):
            raise ValueError("duplicate token in vocabulary")
        if any(f < 1 for f in self._freq):
            raise ValueError("frequencies must be >= 1")

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self._tokens == other._tokens
            and self._freq == other._freq
        )

    def index_of(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise UnknownWordError(token) from None

    def get(self, token: str) -> int | None:
        return self._index.get(token)

    def token_at(self, index: int) -> str:
        return self._tokens[index]

    def frequency(self, token: str) -> int:
        return self._freq[self.index_of(token)]

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    @property
    def frequencies(self) -> list[int]:
        return list(self._freq)

    def items(self) -> Iterable[tuple[str, int, int]]:
        """Yield (token, index, frequency) in index order."""
        for i, (t, f) in enumerate(zip(self._tokens, self._freq)):
            yield t, i, f

    def extended(self, extra_counts: Counter[str]) -> "Vocabulary":
        """Return a vocabulary with frequencies updated and new types appended.

        Existing indices are untouched; new types go on the end sorted by
        (new-count descending, token ascending).
        """
        freq = list(self._freq)
        new_types: list[tuple[str, int]] = []
        for token, count in extra_counts.items():
            if count <= 0:
                continue
            existing = self._index.get(token)
            if existing is None:
                new_types.append((token, count))
            else:
                freq[existing] += count
        new_types.sort(key=lambda tc: (-tc[1], tc[0]))
        tokens = self._tokens + [t for t, _ in new_types]
        freq.extend(c for _, c in new_types)
        return Vocabulary(tokens, freq)


def build_vocabulary(
    streams: Iterable[TokenStream],
    min_count: int = 1,
    max_size: int | None = None,
) -> Vocabulary:
    """Build a vocabulary of every token with total frequency >= min_count.

    If max_size is given, only the max_size most frequent types are kept
    (ties broken lexicographically).
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    if max_size is not None and max_size < 1:
        raise ValueError("max_size must be >= 1 when given")
    counts: Counter[str] = Counter()
    for stream in streams:
        counts.update(stream.tokens)
    kept = [(t, c) for t, c in counts.items() if c >= min_count]
    if not kept:
        raise EmptyVocabularyError(
            f"no token has frequency >= {min_count}"
            + ("" if counts else " (corpus is empty)")
        )
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    if max_size is not None:
        kept = kept[:max_size]
    return Vocabulary([t for t, _ in kept], [c for _, c in kept])


# the entry of `_window_ids` that ends every window: one before each
# document and one after the last
_BOUNDARY = -2


def _window_ids(streams: Iterable[TokenStream], vocab: Vocabulary,
                radius: int) -> tuple[np.ndarray, int]:
    """Every document's vocabulary ids (-1 out of vocabulary), with a
    `_BOUNDARY` before each document and after the last, and the radius to
    walk over them: `radius`, but at most the longest document's length - 1
    (and at least 1), as no two tokens of one document lie farther apart.
    A window walks from its token until that radius or a boundary, so it
    stays inside its document; the array holds tokens + documents + 1
    entries, whatever the radius. Counting and training both walk it."""
    streams = list(streams)
    ids = np.full(1 + sum(len(s.tokens) + 1 for s in streams), _BOUNDARY, dtype=np.int64)
    get, oov = vocab._index.get, itertools.repeat(-1)
    start, longest = 1, 0
    for stream in streams:
        n = len(stream.tokens)
        ids[start : start + n] = np.fromiter(map(get, stream.tokens, oov), np.int64, n)
        start += n + 1
        longest = max(longest, n)
    return ids, max(1, min(radius, longest - 1))


@dataclass(frozen=True)
class CorpusStats:
    token_count: int
    type_count: int
    type_token_ratio: float
    empty: bool = field(default=False)

    def to_dict(self) -> dict:
        return {
            "token_count": self.token_count,
            "type_count": self.type_count,
            "type_token_ratio": self.type_token_ratio,
            "empty": self.empty,
        }


def corpus_stats(streams: Iterable[TokenStream]) -> CorpusStats:
    """Exact token and type counts over all streams.

    The type/token ratio of an empty corpus is undefined; it is reported
    as 0.0 with the `empty` flag set.
    """
    tokens = 0
    types: set[str] = set()
    for stream in streams:
        tokens += len(stream.tokens)
        types.update(stream.tokens)
    if tokens == 0:
        return CorpusStats(0, 0, 0.0, empty=True)
    return CorpusStats(tokens, len(types), len(types) / tokens)
