"""Corpus ingestion: deterministic tokenization, vocabularies, corpus statistics."""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import kernel
from .errors import DataError, EncodingError, EmptyVocabularyError, UnknownWordError
from .kernel import _BOUNDARY

# A token is a maximal run of Unicode letters/digits; apostrophes (straight or
# typographic) and hyphens are kept only between such runs. Underscore is a
# separator (it is markup in plain-text ebooks, not a word character).
_TOKEN_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*", re.UNICODE)


@dataclass(frozen=True)
class Document:
    id: str
    text: str


class TokenStream:
    """Ordered lowercase tokens of one document, held as ids: `types` lists
    distinct tokens and `ids`, read-only int32, indexes them in text order.
    `types` may list tokens that no id names (`remove_stopwords` keeps them).

    `TokenStream(doc_id, tokens)` builds one from strings; `tokens` is the
    sequence as a tuple, built on first use. Two streams are equal when
    their doc ids and token sequences are.
    """

    __slots__ = ("doc_id", "types", "ids", "_tokens")

    def __init__(self, doc_id: str, tokens: Sequence[str]):
        tokens = tuple(tokens)
        types = tuple(dict.fromkeys(tokens))
        index = dict(zip(types, range(len(types))))
        ids = np.fromiter(map(index.__getitem__, tokens), np.int32, len(tokens))
        self._set(doc_id, types, ids, tokens)

    @classmethod
    def _from_ids(cls, doc_id: str, types: Sequence[str], ids: np.ndarray) -> "TokenStream":
        """The stream whose tokens are `types[i]` for each i of the int32
        `ids`, which it makes read-only; the types must be distinct."""
        stream = cls.__new__(cls)
        stream._set(doc_id, tuple(types), ids, None)
        return stream

    def _set(self, doc_id, types, ids, tokens) -> None:
        ids.flags.writeable = False
        for name, value in (("doc_id", doc_id), ("types", types), ("ids", ids), ("_tokens", tokens)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"TokenStream is immutable: cannot set {name!r}")

    @property
    def tokens(self) -> tuple[str, ...]:
        if self._tokens is None:
            object.__setattr__(self, "_tokens", tuple(map(self.types.__getitem__, self.ids.tolist())))
        return self._tokens

    def __len__(self) -> int:
        return len(self.ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TokenStream):
            return NotImplemented
        if self.doc_id != other.doc_id or len(self) != len(other):
            return False
        if self.types == other.types:
            return bool(np.array_equal(self.ids, other.ids))
        return self.tokens == other.tokens

    def __hash__(self) -> int:
        return hash((self.doc_id, self.tokens))

    def __repr__(self) -> str:
        return f"TokenStream(doc_id={self.doc_id!r}, tokens={self.tokens!r})"

    def __reduce__(self):
        return TokenStream._from_ids, (self.doc_id, self.types, self.ids)


def tokenize(text: str, doc_id: str = "") -> TokenStream:
    """Split text into lowercase word tokens.

    Letters and digits form tokens; an apostrophe or hyphen survives only
    between two such runs ("common-sense", "don't"). Everything else
    separates. Lowercasing happens before extraction, so tokenizing the
    space-joined output reproduces it exactly.

    _TOKEN_RE defines the tokens. On ASCII text the compiled kernel finds
    them and their type ids in one pass (`Kernel.encode`); any other text,
    and all text where the kernel is not built, goes through the regex.
    """
    if text.isascii():
        built = kernel.get()
        if built is not None:
            return TokenStream._from_ids(doc_id, *built.encode(text.encode()))
    return TokenStream(doc_id, _TOKEN_RE.findall(text.lower()))


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
    """Load a stoplist file: one token per line, blank lines ignored.

    Each line goes through `tokenize`, so `Rose` stoplists `rose`; a line
    that gives no token or more than one is a `DataError` naming the file
    and line.
    """
    text = decode_utf8(Path(path).read_bytes(), source=str(path))
    stop = set()
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        tokens = tokenize(line).tokens
        if len(tokens) != 1:
            raise DataError(f"{path}: line {number}: {line.strip()!r} is not one token "
                            f"(it gives {len(tokens)})")
        stop.add(tokens[0])
    return frozenset(stop)


def remove_stopwords(stream: TokenStream, stoplist: Iterable[str]) -> TokenStream:
    """Drop stoplisted tokens, preserving the order of the rest.

    Runs before any windowed counting, so context windows close over the
    gaps left by removed tokens.
    """
    stop = stoplist if isinstance(stoplist, (set, frozenset)) else frozenset(stoplist)
    kept = np.fromiter((t not in stop for t in stream.types), bool, len(stream.types))
    return TokenStream._from_ids(stream.doc_id, stream.types, stream.ids[kept[stream.ids]])


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

    def extended(self, extra_counts: Mapping[str, int]) -> "Vocabulary":
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
    types, counts = _type_counts(streams)
    kept = np.flatnonzero(counts >= min_count)
    if not len(kept):
        raise EmptyVocabularyError(
            f"no token has frequency >= {min_count}"
            + ("" if counts.any() else " (corpus is empty)")
        )
    kept = np.array(sorted(kept.tolist(), key=types.__getitem__), dtype=np.int64)
    kept = kept[np.argsort(-counts[kept], kind="stable")]
    if max_size is not None:
        kept = kept[:max_size]
    return Vocabulary(list(map(types.__getitem__, kept.tolist())), counts[kept].tolist())


def _type_counts(streams: Iterable[TokenStream]) -> tuple[Sequence[str], np.ndarray]:
    """The distinct types of the streams and how often each occurs in them,
    int64 (0 for a type that a stream lists but no id names): one bincount
    per stream, merged over the streams' types."""
    parts: list[list] = []
    for stream in streams:
        counts = np.bincount(stream.ids, minlength=len(stream.types))
        if parts and stream.types is parts[-1][0]:
            parts[-1][1] += counts
        else:
            parts.append([stream.types, counts])
    if len(parts) < 2:
        return tuple(parts[0]) if parts else ((), np.zeros(0, dtype=np.int64))
    index: dict[str, int] = {}
    for types, _ in parts:
        for t in types:
            index.setdefault(t, len(index))
    merged = np.zeros(len(index), dtype=np.int64)
    for types, counts in parts:
        merged[np.fromiter(map(index.__getitem__, types), np.int64, len(types))] += counts
    return list(index), merged


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
    ids = np.full(1 + sum(len(s) + 1 for s in streams), _BOUNDARY, dtype=np.int64)
    get, oov = vocab._index.get, itertools.repeat(-1)
    start, longest, types, lookup = 1, 0, None, None
    for stream in streams:
        n = len(stream)
        if stream.types is not types:  # each type's vocabulary id, -1 out of vocabulary
            types = stream.types
            lookup = np.fromiter(map(get, types, oov), np.int64, len(types))
        # the ids index the types, so no id clips; "clip" writes to `out` unbuffered
        np.take(lookup, stream.ids, out=ids[start : start + n], mode="clip")
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
    _, counts = _type_counts(streams)
    tokens, types = int(counts.sum()), int(np.count_nonzero(counts))
    if tokens == 0:
        return CorpusStats(0, 0, 0.0, empty=True)
    return CorpusStats(tokens, types, types / tokens)
