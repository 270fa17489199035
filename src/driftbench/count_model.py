"""Sparse target-by-context co-occurrence matrices and PPMI weighting."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import kernel
from ._csr import CSR
from .corpus import (
    _BOUNDARY,
    _OTHER_LINE_BREAKS,
    TokenStream,
    Vocabulary,
    _lf_lines_only,
    _type_counts,
    _window_ids,
    decode_utf8,
)
from .errors import DataError, FormatError
from .vector_space import VectorSpace, WordVector


@dataclass(frozen=True)
class WindowConfig:
    """Symmetric context window: `radius` tokens on each side of the target."""

    radius: int = 10

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("window radius must be >= 1")


class CooccurrenceMatrix:
    """Symmetric co-occurrence counts over a vocabulary.

    counts[t, c] is the number of times a token of type c appears within
    the window of an occurrence of t, summed over the corpus. The target
    occurrence itself is left out of its own window, but other occurrences
    of the same type inside the window do count, so the diagonal holds
    same-type co-occurrence. Stored sparse; zero cells are absent.
    `counts` is a read-only int64 `CSR`: the constructor keeps a `CSR` it
    is given as it is, and reads a scipy sparse matrix into a canonical
    copy without modifying it.
    """

    def __init__(self, vocab: Vocabulary, counts, window: WindowConfig):
        counts = CSR.of(counts).astype(np.int64)
        if counts.shape != (len(vocab), len(vocab)):
            raise ValueError("count matrix shape does not match vocabulary size")
        self.vocab = vocab
        self.counts = counts
        self.window = window
        self.total = int(counts.data.sum())

    def count(self, target: str, context: str) -> int:
        t = self.vocab.index_of(target)
        c = self.vocab.index_of(context)
        return int(self.counts.get(t, c))

    def validate(self) -> None:
        """Check the symmetry and positivity invariants (used by tests)."""
        if self.counts != self.counts.T:
            raise AssertionError("co-occurrence matrix is not symmetric")
        if self.counts.nnz and self.counts.data.min() <= 0:
            raise AssertionError("stored counts must be positive")
        if self.total % 2 != 0:
            raise AssertionError("total count must be even")

    def same_counts(self, other: "CooccurrenceMatrix") -> bool:
        return (
            self.vocab == other.vocab
            and self.window == other.window
            and self.counts == other.counts
        )

    def to_space(self) -> VectorSpace:
        """View the raw count rows as vectors over context dimensions."""
        return VectorSpace(self.vocab, self.counts.astype(np.float64))


# positions per slab of the numpy counter, and the fewest (earlier, later)
# keys it folds into its running total at once
_CHUNK = 1 << 16


def _numpy_counts(ids: np.ndarray, vsize: int, radius: int) -> CSR:
    """The symmetric counts of the pairs at most `radius` apart in
    `corpus._window_ids` with no boundary between them, whose -1 entries
    pair with nothing: where the compiled kernel is not built, and the
    reference it is tested against.

    Offset by offset, each slab pairs _CHUNK positions with the positions d
    later; `inside` marks the positions with no boundary in the d after
    them. A pair is keyed at its earlier position, so a cut at any position
    is safe. The slabs' keys are held until they outnumber both _CHUNK and
    the running total of (earlier, later) counts, then folded into it as
    one count each: memory stays O(tokens + nnz), and each key is folded
    in amortised constant time."""
    shape = (vsize, vsize)

    def fold(forward: CSR, held: list[np.ndarray]) -> CSR:
        keys = np.concatenate([np.zeros(0, dtype=np.int64), *held])
        keys.sort()  # in place: from_triples' stable argsort then meets one sorted run
        return forward + CSR.from_triples(keys // vsize, keys % vsize, np.ones_like(keys), shape)

    forward = CSR.from_triples([], [], [], shape, np.int64)
    inside = np.ones(len(ids), dtype=bool)
    held: list[np.ndarray] = []
    size = 0
    for d in range(1, radius + 1):
        for start in range(0, len(ids) - d, _CHUNK):
            b = ids[start + d : start + d + _CHUNK]
            a = ids[start : start + len(b)]
            pair = inside[start : start + len(b)]
            pair &= b != _BOUNDARY
            pair = pair & (a >= 0) & (b >= 0)
            held.append(a[pair] * vsize + b[pair])
            size += len(held[-1])
            if size >= max(_CHUNK, forward.nnz):
                forward, held, size = fold(forward, held), [], 0
    forward = fold(forward, held)
    return forward + forward.T


def count_cooccurrences(
    streams: Iterable[TokenStream],
    vocab: Vocabulary,
    window: WindowConfig = WindowConfig(),
) -> CooccurrenceMatrix:
    """Count in-window co-occurrences over the streams.

    Out-of-vocabulary tokens still occupy window positions (they are not
    spliced out the way stoplisted tokens are); they simply contribute no
    counts. Windows never cross document boundaries. Only the radius that
    `corpus._window_ids` clips is walked, so a window wider than the
    longest document counts the same pairs; the matrix keeps the radius as
    given. Where the compiled kernel is built it counts; otherwise
    `_numpy_counts` does, with the same CSR arrays.
    """
    vsize = len(vocab)
    ids, radius = _window_ids(streams, vocab, window.radius)
    built = kernel.get()
    if built is None:
        counts = _numpy_counts(ids, vsize, radius)
    else:
        indptr, indices, data = built.cooccur(ids, vsize, radius)
        counts = CSR(data, indices, indptr, (vsize, vsize))
    return CooccurrenceMatrix(vocab, counts, window)


def augment_counts(
    base: CooccurrenceMatrix, new_streams: Iterable[TokenStream]
) -> CooccurrenceMatrix:
    """Add new documents to an existing matrix.

    New word types are appended to the vocabulary, so existing indices are
    stable. Because windows never cross documents, the result equals a
    fresh count over the union of all streams under the extended
    vocabulary. The new documents are counted with the base's window.
    """
    new_streams = list(new_streams)
    types, counts = _type_counts(new_streams)
    vocab = base.vocab.extended(dict(zip(types, counts.tolist())))
    vsize = len(vocab)
    old = base.counts
    indptr = np.append(old.indptr, np.full(vsize - old.shape[0], old.nnz))  # new rows are empty
    widened = CSR(old.data, old.indices, indptr, (vsize, vsize))
    added = count_cooccurrences(new_streams, vocab, base.window)
    return CooccurrenceMatrix(vocab, widened + added.counts, base.window)


def ppmi_transform(m: CooccurrenceMatrix) -> VectorSpace:
    """Reweight counts by positive pointwise mutual information.

    Cell (t, c) becomes max(0, ln(count[t,c] * total / (rowsum[t] * colsum[c]))).
    Non-positive cells are dropped, so the result stays sparse; a pair is
    kept only when it co-occurs more than its margins predict.
    """
    if m.total <= 0:
        raise DataError("cannot PPMI-transform an empty co-occurrence matrix")
    counts = m.counts
    rowsum = counts.row_sums().astype(np.float64)
    colsum = counts.col_sums().astype(np.float64)
    pmi = np.log(counts.data.astype(np.float64) * float(m.total)) - np.log(
        rowsum[counts.row_ids()] * colsum[counts.indices]
    )
    return VectorSpace(m.vocab, counts.with_data(np.where(pmi > 0, pmi, 0.0)))


def row_vector(source: CooccurrenceMatrix | VectorSpace, word: str) -> WordVector:
    """The row for `word` as a dense vector in canonical index order."""
    if isinstance(source, CooccurrenceMatrix):
        idx = source.vocab.index_of(word)
        return WordVector(word, source.counts.dense_rows([idx])[0].astype(np.float64))
    return source.vector(word)


COOC_MAGIC = "COOC v1"
_INT64_MAX = (1 << 63) - 1
# a token that the COOC reader would not read back: one holding its field
# separator or a line break, or a lone surrogate, which UTF-8 cannot encode
_COOC_UNSAFE = re.compile(f"[\t\n{_OTHER_LINE_BREAKS}\ud800-\udfff]")


def save_cooc(m: CooccurrenceMatrix, path: str | Path) -> None:
    """Write the matrix in the COOC v1 text format.

    Header `COOC v1 <vocab_size> <radius>`, one `index<TAB>token<TAB>freq`
    line per vocabulary entry, then `t<TAB>c<TAB>count` triples with
    t <= c; the lower triangle is reconstructed on load. The compiled
    kernel writes the lines where it is built, and a % format otherwise,
    with the same bytes. A token that the reader could not read back
    (holding a TAB, a line break or a lone surrogate) raises ValueError
    naming it, before any byte is written.
    """
    tokens = m.vocab.tokens
    unsafe = next(filter(_COOC_UNSAFE.search, tokens), None)
    if unsafe is not None:
        raise ValueError(f"token {unsafe!r} cannot be written to a COOC file: "
                         "it holds a TAB, a line break or a lone surrogate")
    counts = m.counts
    rows = counts.row_ids()
    upper = counts.indices >= rows
    t, c, v = rows[upper], counts.indices[upper].astype(np.int64), counts.data[upper]
    freqs = m.vocab.frequencies
    built = kernel.get()
    if built is None or max(freqs, default=1) > _INT64_MAX:  # % writes any int
        lines = [f"{index}\t{token}\t{freq}\n" for token, index, freq in m.vocab.items()]
        triples = np.column_stack((t, c, v))
        body = ["".join(lines).encode(),
                ("%d\t%d\t%d\n" * len(triples) % tuple(triples.ravel().tolist())).encode()]
    else:
        blob = "\n".join([*tokens, ""]).encode()
        body = [built.format_lines(blob, b"", "iti", None, None, np.array(freqs, dtype=np.int64)),
                built.format_lines(b"", b"", "iii", t, c, v)]
    with open(path, "wb") as out:
        out.write(f"{COOC_MAGIC} {len(m.vocab)} {m.window.radius}\n".encode())
        out.writelines(body)


def load_cooc(path: str | Path) -> CooccurrenceMatrix:
    """Read a COOC v1 file; a malformed line raises FormatError naming it.

    Where the compiled kernel is built, a file as save_cooc writes it is
    read in bulk. Any other file, any file that fails a bulk check, and
    every file without the kernel goes through the per-line reader, which
    words every error.
    """
    data = Path(path).read_bytes()
    m = _parse_cooc_bulk(data)
    return m if m is not None else _parse_cooc_lines(decode_utf8(data, str(path)), path)


def _parse_cooc_bulk(data: bytes) -> CooccurrenceMatrix | None:
    """The matrix of a file as save_cooc writes it, or None for the per-line
    reader.

    That is a `COOC v1 <vocab> <radius>` header with both above 0, then the
    layout `kernel.Kernel.read_cooc` reads: vocabulary lines in index order,
    then triples in strictly increasing (t, c) order, every number in
    digits, with LF line breaks only and distinct UTF-8 tokens. Read where
    the compiled kernel is built; without it, every file goes to the
    per-line reader.
    """
    built = kernel.get()
    if built is None:
        return None
    match = re.match(rb"COOC v1 ([0-9]+) ([0-9]+)\n", data)
    if match is None:
        return None
    vsize, radius = int(match[1]), int(match[2])
    if not 0 < vsize < min(len(data), 2**31) or radius < 1:  # the kernel's int32 columns
        return None
    bad, blob, freqs, arrays = built.read_cooc(memoryview(data)[match.end():], vsize)
    if bad >= 0:
        return None
    # the other fields are digits, so only the tokens can hold bytes that
    # are not UTF-8 or a line break other than LF
    try:
        joined = blob.decode()
    except UnicodeDecodeError:
        return None
    if not _lf_lines_only(joined):
        return None
    try:
        vocab = Vocabulary(joined.split("\n")[:-1], freqs.tolist())
    except ValueError:  # a repeated token
        return None
    return CooccurrenceMatrix(vocab, CSR(*arrays, (vsize, vsize)), WindowConfig(radius))


def _parse_cooc_lines(text: str, path: str | Path) -> CooccurrenceMatrix:
    """The per-line COOC reader: accepts every valid file and names the first
    bad line of an invalid one."""
    lines = text.splitlines()
    if not lines or lines[0].split()[:2] != COOC_MAGIC.split():
        raise FormatError(f"{path}: line 1: not a {COOC_MAGIC} file")
    number = 1
    try:
        vsize, radius = (int(field) for field in lines[0].split()[2:4])
        window = WindowConfig(radius=radius)
        if not 0 <= vsize < len(lines):
            raise ValueError(f"{vsize} vocabulary lines do not fit the file")
        tokens: list[str | None] = [None] * vsize
        freqs = [0] * vsize
        seen: set[str] = set()
        for number, line in enumerate(lines[1 : 1 + vsize], start=2):
            idx_s, token, freq_s = line.split("\t")
            idx, freq = int(idx_s), int(freq_s)
            if not 0 <= idx < vsize or tokens[idx] is not None:
                raise ValueError(f"vocabulary index {idx} out of range or repeated")
            if token in seen:
                raise ValueError(f"token {token!r} repeated")
            if freq < 1:
                raise ValueError("frequency must be >= 1")
            tokens[idx], freqs[idx] = token, freq
            seen.add(token)
        triples: list[int] = []
        cells: set[int] = set()  # t * vsize + c of each triple read
        for number, line in enumerate(lines[1 + vsize :], start=2 + vsize):
            if not line:
                continue
            t_s, c_s, v_s = line.split("\t")
            t, c, v = int(t_s), int(c_s), int(v_s)
            if not 0 <= t <= c < vsize:
                raise ValueError(f"triple violates 0 <= t <= c < {vsize}")
            if not 1 <= v < 1 << 63:
                raise ValueError("count must be in [1, 2**63)")
            if t * vsize + c in cells:
                raise ValueError(f"triple ({t}, {c}) repeated")
            cells.add(t * vsize + c)
            triples += (t, c, v)
    except ValueError as exc:
        raise FormatError(f"{path}: line {number}: {exc}") from None
    t, c, v = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    off = t < c  # the file holds t <= c: mirror each cell off the diagonal
    counts = CSR.from_triples(np.concatenate((t, c[off])), np.concatenate((c, t[off])),
                              np.concatenate((v, v[off])), (vsize, vsize))
    return CooccurrenceMatrix(Vocabulary(tokens, freqs), counts, window)
