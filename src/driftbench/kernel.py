"""The compiled kernel: build, load and ctypes bindings of `_kernel.c`.

One small C file holds the loops that numpy cannot batch: the SGD epoch of
the trainer, the tokenizer that turns ASCII text into type ids in one pass,
the chain sampler of the synthetic language, which sums each transition
row's CDF only as far as its draw, the co-occurrence counter, the writer
and reader of the embedding text format, the line writer and the readers
of the COOC and edge-list formats, the loop of neighbour ranking (the
cosine division with top-k selection), and the product of a CSR matrix
with dense vectors. The embedding writer formats components with Ryu and
the reader parses them with Eisel-Lemire, each from a table of powers of
five that this module computes with exact integers; the reader leaves to
the C library's strtod only the fields Eisel-Lemire does not decide. Each
text reader takes a file only in its writer's layout and order. `get()`
compiles it on first use with the system C compiler and caches the
library; where it cannot be built or loaded, `get()` returns None and each
caller runs its fallback: the regex tokenizer (`corpus._TOKEN_RE`), the
numpy step, the per-token chain loop (`synthetic._chain`, which builds
each visited row's whole CDF), the numpy counter
(`count_model._numpy_counts`), the repr() and % writers, for each text
loader its per-line reader, numpy's ranking (`vector_space._select`) and
the numpy CSR product (`_csr._numpy_dot`). The fallbacks, with float() and
int() for the parsers, are the references the kernel is tested against.
The name the provenance gives the kernel hashes this source, so it changes
with any change here, the ranking loop, the chain sampler and the counter
included. The training step's element-wise updates run in vector lanes
that each do the scalar operations, and no sum is reordered, so the
trained bits are those of the scalar loops.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_kernel.c")
# no -march=native and no fast-math: sums stay sequential and bits reproducible
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# the widest component repr() writes ('-2.2250738585072014e-308'), plus its separator
_COMPONENT_BYTES = 25
_P = ctypes.c_void_p
_I = ctypes.c_int64
# the entry of `corpus._window_ids` that ends every window: one before each
# document and one after the last
_BOUNDARY = -2


def _ryu_table() -> np.ndarray:
    """The multipliers `driftbench_format` reads, from exact integers: 342
    inverse powers floor(2**(bitlength(5**i) - 1 + 125) / 5**i) + 1, then 326
    powers 5**i scaled to 125 bits, each as a (low, high) pair of uint64."""
    inverses = [(1 << (5**i).bit_length() - 1 + 125) // 5**i + 1 for i in range(342)]
    powers = [(5**i << 125) >> (5**i).bit_length() for i in range(326)]
    mask = (1 << 64) - 1
    return np.array([(x & mask, x >> 64) for x in inverses + powers], dtype=np.uint64)


def _eisel_lemire_table() -> np.ndarray:
    """The powers `driftbench_parse` reads, from exact integers: 5**q for
    -342 <= q <= 308 scaled to 128 bits with bit 127 set, each as a (low,
    high) pair of uint64. Lemire's table: truncated, except floor + 1 for
    -27 <= q < 0, where 5**-q fits in 64 bits."""
    scaled = []
    for q in range(-342, 309):
        if q >= 0:
            power = 5**q
            scaled.append(power << 128 >> power.bit_length())
        elif q >= -27:
            scaled.append((1 << (5**-q).bit_length() + 127) // 5**-q + 1)
        else:
            value = (1 << 2 * (5**-q).bit_length() + 128) // 5**-q + 1
            scaled.append(value >> value.bit_length() - 128)
    mask = (1 << 64) - 1
    return np.array([(x & mask, x >> 64) for x in scaled], dtype=np.uint64)


def _bind(library: ctypes.CDLL, name: str, restype, *argtypes):
    function = getattr(library, name)
    function.argtypes = argtypes
    function.restype = restype
    return function


def _check_window_ids(ids: np.ndarray, vocab: int) -> None:
    """Refuses what is not a `corpus._window_ids` array over `vocab` words:
    the kernel's walks stop only at the boundaries at its ends."""
    if ids.dtype != np.int64 or not ids.flags.c_contiguous or ids.max(initial=-1) >= vocab:
        raise ValueError("window ids must be C-contiguous int64 vocabulary ids")
    if len(ids) == 0 or ids[0] != _BOUNDARY or ids[-1] != _BOUNDARY or ids.min() < _BOUNDARY:
        raise ValueError("window ids must start and end with a document boundary")


class Kernel:
    """The loaded `_kernel.c` functions and the name the provenance gives them."""

    def __init__(self, library: ctypes.CDLL, name: str):
        self._sgd = _bind(library, "driftbench_sgd", ctypes.c_int,
                          _P, _P, _I, _I, _P, _I, _I, _I, ctypes.c_int32, _P, _I,
                          ctypes.c_double, ctypes.c_double, _I, _I,
                          ctypes.POINTER(ctypes.c_double))
        self._format = _bind(library, "driftbench_format", _I, _P, _I, _I, ctypes.c_char_p, _P, _P)
        self._parse = _bind(library, "driftbench_parse", _I, _P, _I, _I, _I, _P, _P, _P,
                            ctypes.POINTER(_I))
        self._format_lines = _bind(library, "driftbench_format_lines", _I, ctypes.c_char_p, _I,
                                   ctypes.c_char_p, _P, _I, _I, _I, _P, _P, _P, _P)
        self._read_cooc = _bind(library, "driftbench_read_cooc", _I, _P, _I, _I, _P,
                                ctypes.POINTER(_I), _P, _P, _P, _P)
        self._read_edge_list = _bind(library, "driftbench_read_edge_list", _I, _P, _I, _I, _I,
                                     _P, _P, _P, _P, _P, _P)
        self._select = _bind(library, "driftbench_select", ctypes.c_int,
                             _P, _I, _I, _P, _P, _P, _I, _P, _I, _P, _P)
        self._chain = _bind(library, "driftbench_chain", None, _P, _P, _P, _I, _P,
                            ctypes.c_double, _I, _P, _I, _P)
        self._cooccur = _bind(library, "driftbench_cooccur", ctypes.c_int, _P, _I, _I, _I,
                              _P, _P, _P)
        self._csr_dot = _bind(library, "driftbench_csr_dot", None, _P, _P, _P, _I, _P, _I, _P)
        self._encode = _bind(library, "driftbench_encode", _I, ctypes.c_char_p, _I, _P, _P,
                             ctypes.POINTER(_I))
        self._table = _ryu_table()
        self._powers = _eisel_lemire_table()
        self._library = library  # keeps the library loaded while its functions are used
        self.name = name

    def sgd(self, w_in: np.ndarray, w_out: np.ndarray, ids: np.ndarray, radius: int,
            skipgram: bool, k: int, learning_rate: float, lr_floor: float, total: int):
        """The SGD step of `trainer._numpy_sgd` in C: checks the arguments once
        and returns the step, which calls `driftbench_sgd`."""
        v, d = w_in.shape
        for w in (w_in, w_out):
            if w.shape != (v, d) or w.dtype != np.float64 or not w.flags.c_contiguous:
                raise ValueError("weights must be C-contiguous float64 of shape (vocabulary, dimension)")
        _check_window_ids(ids, v)

        def step(start: int, stop: int, noise: np.ndarray, seen: int, loss_sum: float) -> float:
            out = ctypes.c_double(loss_sum)
            status = self._sgd(
                w_in.ctypes.data, w_out.ctypes.data, v, d, ids.ctypes.data, start, stop,
                radius, skipgram, noise.ctypes.data, k, learning_rate, lr_floor, seen, total,
                ctypes.byref(out),
            )
            if status != 0:
                raise MemoryError("training kernel could not allocate its scratch memory")
            return out.value

        return step

    def chain(self, unigram: np.ndarray, unigram_cdf: np.ndarray, preferred: np.ndarray,
              sums: np.ndarray, boost: float, draws: np.ndarray) -> np.ndarray:
        """The word ids of `synthetic._chain`, as int64: the first from the
        unigram CDF, each next from the transition row of the one before,
        each the first id whose CDF entry is not below its draw in [0, 1),
        or the last id where none is. Row r is `unigram` with the entries
        at row r of `preferred` (ascending ids) multiplied by `boost`,
        divided by sums[r]; the kernel sums its CDF only up to the draw."""
        v = len(unigram)
        floats = (unigram, unigram_cdf, sums, draws)
        if any(a.dtype != np.float64 or not a.flags.c_contiguous for a in floats):
            raise ValueError("unigram, CDF, sums and draws must be C-contiguous float64")
        if v < 1 or any(a.shape != (v,) for a in (unigram, unigram_cdf, sums)) or draws.ndim != 1:
            raise ValueError("need a unigram, its CDF and sums of V >= 1 entries each "
                             "and a 1-d array of draws")
        if (preferred.dtype != np.int64 or not preferred.flags.c_contiguous
                or preferred.ndim != 2 or preferred.shape[0] != v):
            raise ValueError("preferred must be C-contiguous int64 of shape (V, successors)")
        if preferred.size and (preferred.min() < 0 or preferred.max() >= v
                               or (np.diff(preferred, axis=1) <= 0).any()):
            raise ValueError("each row of preferred must hold ascending ids in [0, V)")
        out = np.empty(len(draws), dtype=np.int64)
        self._chain(unigram.ctypes.data, unigram_cdf.ctypes.data, preferred.ctypes.data,
                    preferred.shape[1], sums.ctypes.data, boost, v, draws.ctypes.data,
                    len(draws), out.ctypes.data)
        return out

    def encode(self, text: bytes) -> tuple[list[str], np.ndarray]:
        """The tokens of the ASCII `text` as `corpus.tokenize` finds them, in
        one pass: (types, ids), the distinct tokens in first-seen order and,
        read-only int32, each token's index into them."""
        if not text.isascii() or len(text) >= 2**32:
            raise ValueError("need ASCII text of fewer than 2**32 bytes")
        ids = np.empty((len(text) + 1) // 2, dtype=np.int32)  # a separator follows each token but the last
        types = np.empty(len(text) + 1, dtype=np.uint8)
        sizes = (_I * 2)()
        tokens = self._encode(text, len(text), ids.ctypes.data, types.ctypes.data, sizes)
        if tokens < 0:
            raise MemoryError("encoding kernel could not allocate its hash table")
        ids = ids[:tokens].copy()
        ids.flags.writeable = False
        return str(types.data[:sizes[1]], "ascii").split("\n")[:-1], ids

    def cooccur(self, ids: np.ndarray, vocab: int, radius: int):
        """The counts of `count_model._numpy_counts` over the `_window_ids`
        array `ids` as CSR arrays (indptr, indices, data), int64, int32 and
        int64, each row's columns ascending: entry (t, c) counts the position
        pairs at most `radius` apart, in one document, holding t and c. A
        first pass sizes the arrays and a second fills them, so nothing grows
        as tokens x radius."""
        _check_window_ids(ids, vocab)
        if not 0 <= vocab < 2**31 or radius < 1:
            raise ValueError("need 0 <= vocabulary < 2**31 and radius >= 1")
        indptr = np.empty(vocab + 1, dtype=np.int64)

        def count(indices, data):
            if self._cooccur(ids.ctypes.data, len(ids), vocab, radius, indptr.ctypes.data,
                             indices, data) != 0:
                raise MemoryError("counting kernel could not allocate its scratch memory")

        count(None, None)
        indices = np.empty(indptr[-1], dtype=np.int32)
        data = np.empty(indptr[-1], dtype=np.int64)
        count(indices.ctypes.data, data.ctypes.data)
        return indptr, indices, data

    def csr_dot(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                x: np.ndarray) -> np.ndarray:
        """`_csr._numpy_dot` bit for bit: the product of the CSR matrix
        (int64 indptr, int32 indices, float64 data) with the dense (n,) or
        (n, k) float64 x, each row's terms summed in index order."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        columns = x.reshape(len(x), -1)
        if (indptr.dtype != np.int64 or indices.dtype != np.int32 or data.dtype != np.float64
                or not all(a.flags.c_contiguous for a in (indptr, indices, data))):
            raise ValueError("need C-contiguous int64 indptr, int32 indices and float64 data")
        if (len(indptr) < 1 or indptr[0] != 0 or (np.diff(indptr) < 0).any()
                or indptr[-1] != len(indices) or len(indices) != len(data)):
            raise ValueError("indptr must rise from 0 to the number of entries")
        if len(indices) and not 0 <= indices.min() <= indices.max() < len(x):
            raise ValueError("column indices must be in [0, rows of x)")
        y = np.empty((len(indptr) - 1, columns.shape[1]))
        self._csr_dot(indptr.ctypes.data, indices.ctypes.data, data.ctypes.data, len(y),
                      columns.ctypes.data, columns.shape[1], y.ctypes.data)
        return y.reshape((len(y),) + x.shape[1:])

    def format_rows(self, tokens: bytes, rows: np.ndarray) -> memoryview:
        """The embedding text body: per row, its token, a space, the row's
        components as repr() writes them, separated by spaces, and LF.
        `tokens` holds one UTF-8 token per row, each ended by LF, which no
        token may hold."""
        if rows.ndim != 2 or rows.dtype != np.float64 or not rows.flags.c_contiguous:
            raise ValueError("rows must be a C-contiguous 2-d float64 array")
        if tokens.count(b"\n") != len(rows):
            raise ValueError("tokens must hold one LF-ended token per row")
        # a row of no components still takes a space
        out = np.empty(len(tokens) + len(rows) + rows.size * _COMPONENT_BYTES, dtype=np.uint8)
        size = self._format(rows.ctypes.data, rows.shape[0], rows.shape[1], tokens,
                            self._table.ctypes.data, out.ctypes.data)
        return out.data[:size]

    def parse_rows(self, body, rows: int, cols: int) -> tuple[np.ndarray, int, bytes]:
        """Reads an embedding text body, any bytes-like object, in one pass:
        `rows` LF-ended lines, each a non-empty token, a space and `cols`
        space-separated fields. Returns (components, bad, tokens): the
        (rows, cols) components as float() reads them, -1 and the rows'
        tokens, each ended by LF. Where a token is empty, a line breaks that
        layout, a field is not a decimal number as repr() writes it or reads
        as non-finite, or bytes follow the last line, bad is the byte offset
        of the first such token, field or byte. It reads no byte past the
        body; the caller bounds rows * cols."""
        if cols < 1 or rows < 0:
            raise ValueError("need rows >= 0 and at least one field per row")
        data = np.frombuffer(body, dtype=np.uint8)
        out = np.empty((rows, cols), dtype=np.float64)
        tokens = np.empty(len(data), dtype=np.uint8)  # tokens take no more than the body
        size = _I()
        bad = self._parse(data.ctypes.data, len(data), rows, cols, self._powers.ctypes.data,
                          out.ctypes.data, tokens.ctypes.data, ctypes.byref(size))
        return out, bad, tokens[:size.value].tobytes()

    def format_lines(self, tokens: bytes, prefix: bytes, fields: str, *columns) -> memoryview:
        """Lines of TAB-separated fields, each line `prefix` first and LF
        last: the lines of COOC files and edge lists. Column k gives field
        k of each row: `fields[k]` is `t` where it holds the index of a
        token of `tokens` (UTF-8, each token ended by LF, which no token
        may hold), written as the token, or `i` where it holds an integer,
        written as %d writes it. A column is a 1-d int64 array, or None for
        the row numbers; at least one is an array."""
        rows = {len(c) for c in columns if c is not None}
        if len(fields) != len(columns) or not 1 <= len(columns) <= 3 or len(rows) != 1 \
                or set(fields) - set("ti"):
            raise ValueError("need one `t` or `i` per column, 1 to 3 columns, "
                             "and arrays of one length")
        (rows,) = rows
        ends = np.flatnonzero(np.frombuffer(tokens, dtype=np.uint8) == ord("\n"))
        starts = np.concatenate(([0], ends + 1))
        lengths = ends - starts[:-1]
        size = rows * (len(prefix) + len(columns))
        arrays = []
        for kind, column in zip(fields, columns):
            if column is not None and (column.dtype != np.int64 or column.ndim != 1
                                       or not column.flags.c_contiguous):
                raise ValueError("columns must be C-contiguous 1-d int64 arrays")
            ids = np.arange(rows) if column is None else column
            if kind == "t":
                if rows and not 0 <= ids.min() <= ids.max() < len(ends):
                    raise ValueError("token indices must be in [0, tokens)")
                size += int(lengths[ids].sum())
            else:
                size += rows * 20  # the widest int64, -9223372036854775808
            arrays.append(None if column is None else column.ctypes.data)
        arrays += [None] * (3 - len(arrays))
        out = np.empty(size, dtype=np.uint8)
        written = self._format_lines(prefix, len(prefix), tokens, starts.ctypes.data, rows,
                                     len(columns), sum(1 << k for k, kind in enumerate(fields)
                                                       if kind == "t"),
                                     *arrays, out.ctypes.data)
        return out.data[:written]

    def read_cooc(self, body, vocab: int):
        """Reads the body of a COOC v1 file, any bytes-like object after its
        header, in one pass that checks it and a second that fills the
        arrays: `vocab` lines `index TAB token TAB frequency`, indices in
        line order and frequencies at least 1, then the upper triangle's
        `t TAB c TAB count` triples in strictly increasing (t, c) order,
        t <= c < vocab and counts at least 1, numbers written as digits
        below 2**63. Returns (bad, tokens, frequencies, (data, indices,
        indptr)): -1, the tokens, each ended by LF, the int64 frequencies,
        and the symmetric matrix's CSR arrays (int64, int32, int64), in the
        order `_csr.CSR` takes them. Where the body breaks that layout, bad
        is the byte offset of the first line that does, and the rest is
        None."""
        if not 0 <= vocab < 2**31:
            raise ValueError("need 0 <= vocabulary < 2**31")
        data = np.frombuffer(body, dtype=np.uint8)
        tokens = np.empty(len(data), dtype=np.uint8)  # tokens take no more than the body
        freqs = np.empty(vocab, dtype=np.int64)
        indptr = np.empty(vocab + 1, dtype=np.int64)
        size = _I()

        def read(indices, values) -> int:
            return self._read_cooc(data.ctypes.data, len(data), vocab, tokens.ctypes.data,
                                   ctypes.byref(size), freqs.ctypes.data, indptr.ctypes.data,
                                   indices, values)

        bad = read(None, None)
        if bad >= 0:
            return bad, None, None, None
        indices = np.empty(indptr[-1], dtype=np.int32)
        values = np.empty(indptr[-1], dtype=np.int64)
        read(indices.ctypes.data, values.ctypes.data)
        return -1, tokens[:size.value].tobytes(), freqs, (values, indices, indptr)

    def read_edge_list(self, body, nodes: int):
        """Reads the body of an edge list, any bytes-like object after its
        `# nodes: N` header, in one pass: `nodes` lines `# node TAB token
        TAB self_weight`, tokens in strictly increasing byte order, then
        edge lines `tokenA TAB tokenB TAB weight`, node tokens with tokenA
        before tokenB, in strictly increasing (tokenA, tokenB) order,
        weights at least 1, numbers written as digits below 2**63. Returns
        (bad, tokens, self_weights, (data, indices, indptr)) as `read_cooc`
        does, the arrays being the upper-triangular matrix of the edges'
        weights over node ids."""
        if not 0 <= nodes < 2**31:
            raise ValueError("need 0 <= nodes < 2**31")
        data = np.frombuffer(body, dtype=np.uint8)
        edges = int(np.count_nonzero(data == ord("\n"))) - nodes  # each line ends with LF
        if edges < 0:
            return len(data), None, None, None
        tokens = np.empty(len(data), dtype=np.uint8)
        starts = np.empty(nodes + 1, dtype=np.int64)
        self_weights = np.empty(nodes, dtype=np.int64)
        indptr = np.empty(nodes + 1, dtype=np.int64)
        indices = np.empty(edges, dtype=np.int32)
        values = np.empty(edges, dtype=np.int64)
        bad = self._read_edge_list(data.ctypes.data, len(data), nodes, edges, tokens.ctypes.data,
                                   starts.ctypes.data, self_weights.ctypes.data,
                                   indptr.ctypes.data, indices.ctypes.data, values.ctypes.data)
        if bad >= 0:
            return bad, None, None, None
        return -1, tokens[:starts[-1]].tobytes(), self_weights, (values, indices, indptr)

    def select(self, scores: np.ndarray, exclude: np.ndarray, k: int, lex_rank: np.ndarray,
               norms: np.ndarray | None = None, qnorms: np.ndarray | None = None):
        """`vector_space._select` of the (queries, vocab) `scores`, bit for
        bit: the ids and scores of each row's k best candidates, score
        descending with NaN last, then `lex_rank` ascending. Row i of the
        2-d `exclude` lists distinct ids left out of row i. With `norms`
        and `qnorms`, the scores are first divided as `scores / (norms *
        qnorms[:, None])` divides them."""
        scores = np.ascontiguousarray(scores, dtype=np.float64)
        exclude = np.ascontiguousarray(exclude, dtype=np.int64)
        lex_rank = np.ascontiguousarray(lex_rank, dtype=np.int64)
        n, v = scores.shape
        if exclude.shape[0] != n or lex_rank.shape != (v,) or not 1 <= k <= v - exclude.shape[1]:
            raise ValueError("need an exclude row per query, a rank per id, 1 <= k <= candidates")
        if exclude.size and (exclude.min() < 0 or exclude.max() >= v):
            raise ValueError("excluded ids must be in [0, vocabulary)")
        if norms is not None:
            norms = np.ascontiguousarray(norms, dtype=np.float64)
            qnorms = np.ascontiguousarray(qnorms, dtype=np.float64)
            if norms.shape != (v,) or qnorms.shape != (n,):
                raise ValueError("need a norm per id and per query")
        ids = np.empty((n, k), dtype=np.int64)
        top = np.empty((n, k))
        status = self._select(scores.ctypes.data, n, v,
                              None if norms is None else norms.ctypes.data,
                              None if qnorms is None else qnorms.ctypes.data,
                              exclude.ctypes.data, exclude.shape[1], lex_rank.ctypes.data, k,
                              ids.ctypes.data, top.ctypes.data)
        if status != 0:
            raise MemoryError("selection kernel could not allocate its scratch memory")
        return ids, top


def compiler() -> str | None:
    return shutil.which("cc") or shutil.which("gcc")


@functools.cache
def get() -> Kernel | None:
    """The compiled kernel, cached in the package's __pycache__; None when it
    cannot be built or loaded here, and the numpy, repr() and per-line paths
    run instead."""
    return load(Path(__file__).parent / "__pycache__")


def load(cache_dir: Path) -> Kernel | None:
    """Load the kernel built for this source, flags and machine from
    cache_dir, building it first when it is missing or does not load."""
    try:
        source = SOURCE.read_bytes()
    except OSError:
        return None
    build = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), platform.machine().encode(),
                    platform.system().encode()])
    ).hexdigest()[:16]
    name = "c:" + hashlib.sha256(source).hexdigest()[:12]
    path = cache_dir / f"_kernel-{build}.so"
    try:
        return Kernel(ctypes.CDLL(str(path)), name)
    except (OSError, AttributeError):  # missing, or not a loadable build of this source
        pass
    cc = compiler()
    if cc is None:
        return None
    try:
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".kernel-", suffix=".so")
        except OSError:  # not writable: build in a private directory, removed below
            path = Path(tempfile.mkdtemp(prefix="driftbench-")) / path.name
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".kernel-", suffix=".so")
        os.close(fd)
        try:
            subprocess.run(
                [cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                check=True, capture_output=True, timeout=120,
            )
            os.replace(tmp, path)  # another process may be building the same file
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        kernel = Kernel(ctypes.CDLL(str(path)), name)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    finally:
        if path.parent != cache_dir:  # a loaded library stays mapped without its file
            shutil.rmtree(path.parent, ignore_errors=True)
    for stale in [*path.parent.glob("_sgd-*.so"), *path.parent.glob("_kernel-*.so")]:
        if stale != path:  # builds of older sources or flags
            try:
                stale.unlink()
            except OSError:
                pass
    return kernel
