"""The package's CSR type against scipy.sparse, bit for bit.

Every operation that the count models, vector spaces and word graphs use
must give the canonical arrays scipy gives (sorted columns, no repeated
cell, no stored zero) and the same value bits: the sums of squares that
cosine ranking divides by, and the products that score sparse rows, on
the compiled kernel and on the numpy path that runs without it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

import driftbench as db
from driftbench import vector_space
from driftbench._csr import CSR

ORACLE = settings(max_examples=150, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])

INTS = st.integers(-3, 3)
# normal values of mixed magnitude, whose sums depend on their order, and
# values whose squares or products underflow to 0 or to subnormals
FLOATS = st.one_of(
    st.floats(-1e3, 1e3, allow_subnormal=False),
    st.sampled_from([5e-324, -5e-324, 2.5e-310, 1e-170, -1e-170, 1.5e-154, 1e-8, 3.0, -7.25]),
)


@st.composite
def dense(draw, values, shape=None):
    """A matrix with many zero cells, up to 24 columns so that a row's sum
    runs past numpy's eight-way unrolled blocks."""
    rows, cols = shape or (draw(st.integers(1, 6)), draw(st.integers(1, 24)))
    cells = draw(st.lists(st.one_of(st.just(0), st.just(0), values),
                          min_size=rows * cols, max_size=rows * cols))
    dtype = np.int64 if values is INTS else np.float64
    return np.array(cells, dtype=dtype).reshape(rows, cols)


@st.composite
def dense_pair(draw, values):
    a = draw(dense(values))
    return a, draw(dense(values, a.shape))


def bits(values: np.ndarray) -> list:
    values = np.asarray(values)
    return values.view(np.uint64).tolist() if values.dtype == np.float64 else values.tolist()


def assert_same(mine: CSR, theirs) -> None:
    """`mine` holds the canonical arrays of the scipy matrix `theirs`."""
    theirs = theirs.tocsr().copy()
    theirs.sum_duplicates()
    theirs.eliminate_zeros()
    assert mine.shape == theirs.shape
    assert mine.indptr.tolist() == theirs.indptr.tolist()
    assert mine.indices.tolist() == theirs.indices.tolist()
    assert bits(mine.data) == bits(theirs.data)


class TestConstruction:
    @ORACLE
    @given(data=st.data())
    def test_triples_in_any_order_with_repeats(self, each_path, data):
        rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
        cells = data.draw(st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1),
                                             INTS), max_size=30))
        r, c, v = (np.array(x, dtype=np.int64) for x in zip(*cells)) if cells else ([], [], [])
        mine = CSR.from_triples(r, c, v, (rows, cols), np.int64)
        assert_same(mine, sparse.coo_matrix((v, (r, c)), shape=(rows, cols), dtype=np.int64))

    @ORACLE
    @given(data=st.data())
    def test_repeated_int64_cells_in_random_order(self, data):
        # many repeats of each cell, in random order, summed as scipy sums them
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        n = data.draw(st.integers(17, 600))
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        r, c = rng.integers(0, rows, n), rng.integers(0, cols, n)
        v = rng.integers(-(2**40), 2**40, n)
        v[rng.random(n) < 0.1] = 0
        mine = CSR.from_triples(r, c, v, (rows, cols), np.int64)
        assert_same(mine, sparse.coo_matrix((v, (r, c)), shape=(rows, cols), dtype=np.int64))

    @ORACLE
    @given(values=st.lists(st.sampled_from([1e16, -1e16, 1.0, 0.5, 3.0, -7.25, 1e-8]),
                           min_size=17, max_size=200), seed=st.integers(0, 2**32 - 1))
    def test_repeated_float_cells_sum_in_the_order_given(self, values, seed):
        # a float sum depends on the order of its terms: each cell's values
        # must be summed as np.add.reduceat sums them in the order given
        rng = np.random.default_rng(seed)
        r, c = rng.integers(0, 2, len(values)), rng.integers(0, 2, len(values))
        mine = CSR.from_triples(r, c, values, (2, 2), np.float64)
        cells = (2 * r + c).tolist()
        order = sorted(range(len(values)), key=cells.__getitem__)  # Python's sort is stable
        ordered = [cells[i] for i in order]
        starts = [k for k in range(len(order)) if k == 0 or ordered[k] != ordered[k - 1]]
        sums = np.add.reduceat(np.array(values)[order], starts)
        expected = {divmod(ordered[k], 2): float(x) for k, x in zip(starts, sums) if x != 0}
        got = dict(zip(zip(mine.row_ids().tolist(), mine.indices.tolist()), mine.data.tolist()))
        assert list(got) == list(expected)
        assert bits(list(got.values())) == bits(list(expected.values()))

    @ORACLE
    @given(matrix=dense(FLOATS), seed=st.integers(0, 2**32 - 1))
    def test_scipy_input_with_explicit_zeros_is_read_not_modified(self, each_path, matrix,
                                                                  seed):
        # every row stores its non-zero cells and some zero ones, in shuffled order
        rng = np.random.default_rng(seed)
        stored = (matrix != 0) | (rng.random(matrix.shape) < 0.3)
        indptr = np.concatenate([[0], np.cumsum(stored.sum(axis=1))])
        indices = np.concatenate([rng.permutation(np.flatnonzero(row)) for row in stored])
        data = matrix[np.repeat(np.arange(len(matrix)), stored.sum(axis=1)), indices]
        given_matrix = sparse.csr_matrix((data, indices, indptr), shape=matrix.shape)
        before = [a.copy() for a in (given_matrix.data, given_matrix.indices, given_matrix.indptr)]
        mine = CSR.of(given_matrix)
        assert_same(mine, sparse.csr_matrix(matrix))
        after = (given_matrix.data, given_matrix.indices, given_matrix.indptr)
        assert all(np.array_equal(b, a) for b, a in zip(before, after))
        assert all(a.flags.writeable for a in after)
        assert not any(a.flags.writeable for a in (mine.data, mine.indices, mine.indptr))


class TestArithmetic:
    @ORACLE
    @given(pair=dense_pair(INTS))
    def test_transpose_add_and_integer_sums(self, each_path, pair):
        a, b = pair
        sa, sb = sparse.csr_matrix(a), sparse.csr_matrix(b)
        ma, mb = CSR.of(sa), CSR.of(sb)
        assert_same(ma.T, sa.T)
        assert_same(ma + mb, sa + sb)
        assert ma.row_sums().tolist() == np.asarray(sa.sum(axis=1)).ravel().tolist()
        assert ma.col_sums().tolist() == np.asarray(sa.sum(axis=0)).ravel().tolist()
        assert ma.T.T == ma

    @ORACLE
    @given(matrix=dense(FLOATS))
    def test_float_row_sums_of_squares(self, each_path, matrix):
        # the products that underflow to 0 are dropped before np.add.reduceat
        s = sparse.csr_matrix(matrix)
        m = CSR.of(s)
        want = np.asarray(s.multiply(s).sum(axis=1)).ravel()
        assert bits(m.with_data(m.data * m.data).row_sums()) == bits(want)
        space = db.VectorSpace(db.Vocabulary([f"w{i}" for i in range(len(matrix))],
                                             [1] * len(matrix)), s)
        norms, plain = space._unit_rows()[1], np.sqrt(want)
        kept = (plain >= vector_space._MIN_NORM) & np.isfinite(plain)  # rows not rescaled
        assert bits(norms[kept]) == bits(plain[kept])

    @ORACLE
    @given(matrix=dense(FLOATS), data=st.data())
    def test_product_with_a_vector_and_with_vectors(self, each_path, matrix, data):
        s = sparse.csr_matrix(matrix)
        m = CSR.of(s)
        width = matrix.shape[1]
        x = np.array(data.draw(st.lists(FLOATS, min_size=width, max_size=width)), dtype=float)
        assert bits(m.dot(x)) == bits(s @ x)
        k = data.draw(st.integers(1, 4))
        xs = np.array(data.draw(st.lists(FLOATS, min_size=width * k, max_size=width * k)),
                      dtype=float).reshape(width, k)
        assert bits(m.dot(xs)) == bits(s @ xs)

    @ORACLE
    @given(matrix=dense(FLOATS), data=st.data())
    def test_dense_rows(self, each_path, matrix, data):
        s = sparse.csr_matrix(matrix)
        rows = data.draw(st.lists(st.integers(0, len(matrix) - 1), max_size=8))
        assert bits(CSR.of(s).dense_rows(rows)) == bits(s[rows].toarray().reshape(-1, s.shape[1]))
        assert bits(CSR.of(s).toarray()) == bits(s.toarray())


@pytest.mark.parametrize("matrix", [
    np.zeros((1, 1)), np.array([[2.5]]), np.zeros((3, 4)),
    np.array([[0.0, 0.0], [0.0, -1.5], [0.0, 0.0]]), np.array([[0.0, 3.0, 0.0, 1e-170]]),
], ids=["1x1-empty", "1x1", "no-entries", "empty-rows", "one-row"])
def test_edges(each_path, matrix):
    s = sparse.csr_matrix(matrix)
    m = CSR.of(s)
    assert_same(m, s)
    assert_same(m.T, s.T)
    assert_same(m + m, s + s)
    assert_same(m + m.with_data(-m.data), s + -s)  # every cell cancels
    assert bits(m.row_sums()) == bits(np.asarray(s.sum(axis=1)).ravel())
    assert bits(m.with_data(m.data * m.data).row_sums()) == bits(
        np.asarray(s.multiply(s).sum(axis=1)).ravel())
    x = np.linspace(-1.0, 2.0, s.shape[1])
    assert bits(m.dot(x)) == bits(s @ x)
    assert bits(m.dot(np.stack([x, -x], axis=1))) == bits(s @ np.stack([x, -x], axis=1))
    assert bits(m.dense_rows([])) == bits(np.zeros((0, s.shape[1])))
    assert bits(m.toarray()) == bits(s.toarray())
