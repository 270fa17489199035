"""The package's one sparse matrix type: compressed sparse rows.

A `CSR` is always in canonical layout: rows ascending, each row's
columns ascending, no column twice in a row, and no stored zero. So two
matrices are equal exactly when their arrays are, and row-major cell
numbers (row * columns + column) of the stored entries increase.
`indptr` is int64, `indices` int32, and all three arrays are read-only,
so matrices share arrays without copying and a caller cannot make a
count model's cached totals stale by writing into them.

Two builders make every matrix: `from_triples` takes cells in any
order, sums repeated ones and drops zeros, and `with_data` gives a
matrix's cells new values and drops the zeros among them. `+` and `T`
are `from_triples` over the operands' cells, and `of` over a scipy
matrix's. Outside this module, only arrays that are canonical already
are wrapped with `CSR(...)`, which checks nothing: the compiled
counter's output (`count_model.count_cooccurrences`), the compiled bulk
readers' output (`count_model._parse_cooc_bulk` and
`graph._import_edge_list_bulk`), and `augment_counts`' widened base,
which is the same cells with more empty rows.

It has only what the count models, vector spaces and word graphs use.
The product with a dense matrix runs in the compiled kernel where it is
built (`kernel.Kernel.csr_dot`) and in `_numpy_dot` otherwise; both sum
each row's terms on their own, in index order, as scipy's `csr_matvec`
and `csr_matvecs` do, so scores keep those bits. The constructors accept
a scipy sparse matrix (anything with `tocsr()`) and only read it; this
module does not import scipy.
"""

from __future__ import annotations

import numpy as np

from . import kernel


class CSR:
    """A read-only sparse matrix in canonical compressed-row layout."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        """Wraps arrays that are already canonical, without checking or
        copying them; they become read-only. `of` and `from_triples` take
        anything else."""
        self.data = np.asarray(data)
        self.indices = np.asarray(indices, dtype=np.int32)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.shape = (int(shape[0]), int(shape[1]))
        for array in (self.data, self.indices, self.indptr):
            array.flags.writeable = False

    @classmethod
    def of(cls, matrix) -> "CSR":
        """`matrix` itself, or a canonical copy of a scipy sparse matrix,
        which is read and never modified."""
        if isinstance(matrix, CSR):
            return matrix
        if not hasattr(matrix, "tocsr"):
            raise TypeError(f"expected a sparse matrix, got {type(matrix).__name__}")
        m = matrix.tocsr()
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        return cls.from_triples(rows, m.indices, m.data, m.shape)

    @classmethod
    def from_triples(cls, rows, cols, values, shape, dtype=None) -> "CSR":
        """The matrix with values[k] at (rows[k], cols[k]), in any order:
        the values of a repeated cell are summed, and zero cells dropped. It
        holds new arrays, never the ones given."""
        values = np.asarray(values, dtype=dtype)
        keys = _keys(np.asarray(rows), np.asarray(cols), shape[1])
        if not (np.diff(keys) > 0).all():
            order = np.argsort(keys, kind="stable")
            keys, values = keys[order], values[order]
            del order  # freed before the sums, where the most arrays are alive
            starts = np.flatnonzero(_firsts(keys))
            keys, values = keys[starts], np.add.reduceat(values, starts)
        keep = values != 0
        keys, values = keys[keep], values[keep]
        first_cells = np.arange(shape[0] + 1, dtype=np.int64) * shape[1]  # of each row
        indptr = np.searchsorted(keys, first_cells)
        return cls(values, keys - np.repeat(first_cells[:-1], np.diff(indptr)), indptr, shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSR):
            return NotImplemented
        return self.shape == other.shape and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in self.__slots__[:3]
        )

    def row_ids(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr))

    def astype(self, dtype) -> "CSR":
        if self.dtype == dtype:
            return self
        return self.with_data(self.data.astype(dtype))

    def with_data(self, values: np.ndarray) -> "CSR":
        """The matrix with values[k] at the position of stored entry k, its
        zero values dropped."""
        if values.all():
            return CSR(values, self.indices, self.indptr, self.shape)
        keep = values != 0
        kept_before = np.concatenate(([0], np.cumsum(keep)))  # kept entries before each
        return CSR(values[keep], self.indices[keep], kept_before[self.indptr], self.shape)

    @property
    def T(self) -> "CSR":
        return CSR.from_triples(self.indices, self.row_ids(), self.data, self.shape[::-1])

    def __add__(self, other: "CSR") -> "CSR":
        if self.shape != other.shape:
            raise ValueError(f"shapes differ: {self.shape} and {other.shape}")
        return CSR.from_triples(
            np.concatenate((self.row_ids(), other.row_ids())),
            np.concatenate((self.indices, other.indices)),
            np.concatenate((self.data, other.data)),
            self.shape,
        )

    def row_sums(self) -> np.ndarray:
        """Each row's sum, by np.add.reduceat over the non-empty rows: the
        bits of scipy's `sum(axis=1)`."""
        sums = np.zeros(self.shape[0], dtype=np.sum(self.data[:0]).dtype)
        full = np.flatnonzero(np.diff(self.indptr))
        sums[full] = np.add.reduceat(self.data, self.indptr[full])
        return sums

    def col_sums(self) -> np.ndarray:
        """Each column's sum, adding the entries in row order."""
        sums = np.zeros(self.shape[1], dtype=np.sum(self.data[:0]).dtype)
        np.add.at(sums, self.indices, self.data)
        return sums

    def get(self, i: int, j: int):
        """The value at (i, j); 0 where nothing is stored."""
        start, end = self.indptr[i], self.indptr[i + 1]
        k = start + int(np.searchsorted(self.indices[start:end], j))
        return self.data[k] if k < end and self.indices[k] == j else self.dtype.type(0)

    def dense_rows(self, rows) -> np.ndarray:
        """Dense copies of the given rows, one per row of the result."""
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        lengths = np.diff(self.indptr)[rows]
        first = self.indptr[rows] - (np.cumsum(lengths) - lengths)  # minus entries before
        at = np.repeat(first, lengths) + np.arange(lengths.sum())  # the rows' entries in turn
        out = np.zeros((len(rows), self.shape[1]), dtype=self.dtype)
        out[np.repeat(np.arange(len(rows)), lengths), self.indices[at]] = self.data[at]
        return out

    def toarray(self) -> np.ndarray:
        return self.dense_rows(np.arange(self.shape[0]))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """The float64 product with the dense (columns,) or (columns, k) x:
        each result starts at 0.0 and adds data * x over the row's stored
        entries in index order, as scipy's `csr_matvec(s)` does."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        data = self.data.astype(np.float64, copy=False)
        built = kernel.get()
        if built is None:
            return _numpy_dot(self.indptr, self.indices, data, x)
        return built.csr_dot(self.indptr, self.indices, data, x)


def _keys(rows: np.ndarray, cols: np.ndarray, ncols: int) -> np.ndarray:
    """Row-major cell numbers, which sort like (row, column)."""
    return rows.astype(np.int64) * ncols + cols.astype(np.int64)


def _firsts(sorted_keys: np.ndarray) -> np.ndarray:
    """Whether each entry differs from the one before it."""
    firsts = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=firsts[1:])
    return firsts


def _numpy_dot(indptr, indices, data, x: np.ndarray) -> np.ndarray:
    """`CSR.dot` where the compiled kernel is not built, and the reference
    its `csr_dot` is tested against: the p-th entry of every row long
    enough is added at step p, so each row sums in index order."""
    columns = x.reshape(len(x), -1)
    y = np.zeros((len(indptr) - 1, columns.shape[1]))
    lengths = np.diff(indptr)
    live = np.flatnonzero(lengths)
    for p in range(int(lengths.max(initial=0))):
        live = live[lengths[live] > p]
        at = indptr[live] + p
        y[live] += data[at, None] * columns[indices[at]]
    return y.reshape((len(y),) + x.shape[1:])
