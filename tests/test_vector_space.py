"""Similarity metrics, neighbor rankings, and analogy arithmetic."""

import inspect
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import sparse

import driftbench as db

from conftest import dense_space, to_scipy

finite_vec = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=2, max_size=8
)


def fsum_cosine(a, b):
    """Independent cosine oracle built on exact summation."""
    dot = math.fsum(x * y for x, y in zip(a, b))
    na = math.sqrt(math.fsum(x * x for x in a))
    nb = math.sqrt(math.fsum(y * y for y in b))
    return dot / (na * nb)


class TestCosine:
    def test_self_similarity_is_one(self, table1_space):
        v = table1_space.vector("dog")
        assert db.cosine_similarity(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_count_rows_against_oracle(self, table1_space):
        dog = table1_space.vector("dog")
        cat = table1_space.vector("cat")
        bird = table1_space.vector("bird")
        assert db.cosine_similarity(dog, cat) == pytest.approx(
            fsum_cosine([50, 77, 3], [48, 4, 2]), abs=1e-9
        )
        assert db.cosine_similarity(bird, cat) == pytest.approx(
            fsum_cosine([0, 10, 47], [48, 4, 2]), abs=1e-9
        )
        assert db.cosine_similarity(dog, cat) > db.cosine_similarity(bird, cat)

    def test_zero_vector_rejected(self):
        z = db.WordVector("zero", np.zeros(3))
        v = db.WordVector("v", np.ones(3))
        with pytest.raises(db.ZeroVectorError):
            db.cosine_similarity(z, v)

    def test_dimension_mismatch(self):
        with pytest.raises(db.DimensionMismatchError):
            db.cosine_similarity(
                db.WordVector("a", np.ones(3)), db.WordVector("b", np.ones(4))
            )

    @given(finite_vec, finite_vec)
    def test_symmetry(self, a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        if np.linalg.norm(va) == 0 or np.linalg.norm(vb) == 0:
            return
        assert db.cosine_similarity(va, vb) == db.cosine_similarity(vb, va)

    @given(finite_vec, st.floats(1e-3, 1e3))
    @example([0.0, 5.7e-155], 2**-8)
    @example([-1.0, -1.0], 1.0)  # w is the zero vector, which has no cosine
    def test_scale_invariance(self, a, lam):
        v = np.array(a)
        w = v[::-1] + 1.0
        if np.linalg.norm(v) == 0 or np.linalg.norm(lam * v) == 0 or np.linalg.norm(w) == 0:
            return
        assert db.cosine_similarity(lam * v, w) == pytest.approx(
            db.cosine_similarity(v, w), abs=1e-12
        )

    @given(finite_vec, finite_vec)
    def test_range(self, a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        if np.linalg.norm(va) == 0 or np.linalg.norm(vb) == 0:
            return
        assert -1.0 - 1e-9 <= db.cosine_similarity(va, vb) <= 1.0 + 1e-9


class TestDistances:
    def test_self_distance_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert db.vector_distance(v, v, "euclidean") == 0.0
        assert db.vector_distance(v, v, "cityblock") == 0.0

    def test_three_four_five_triangle(self):
        assert db.vector_distance([0.0, 0.0], [3.0, 4.0], "euclidean") == 5.0

    def test_cityblock_coordinate_sum(self):
        assert db.vector_distance([0.0, 0.0], [3.0, 4.0], "cityblock") == 7.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            db.vector_distance([0.0], [1.0], "chebyshev")

    @given(finite_vec, finite_vec)
    def test_symmetry_both_metrics(self, a, b):
        n = min(len(a), len(b))
        va, vb = np.array(a[:n]), np.array(b[:n])
        for metric in ("euclidean", "cityblock"):
            assert db.vector_distance(va, vb, metric) == db.vector_distance(
                vb, va, metric
            )


def brute_force_ranking(space, word, metric, k):
    """Full sort oracle over explicit pairwise calls."""
    scores = []
    query = space.vector(word)
    for other in space.vocab.tokens:
        if other == word:
            continue
        if metric == "cosine":
            s = db.cosine_similarity(query, space.vector(other))
        else:
            s = -db.vector_distance(
                query.components, space.vector(other).components, metric
            )
        scores.append((other, s))
    scores.sort(key=lambda ts: (-ts[1], ts[0]))
    return scores[:k]


class TestNearestNeighbors:
    def test_only_sharing_word_ranks_first(self):
        space = dense_space(
            ["w1", "w2", "w3"], [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
        )
        nl = db.nearest_neighbors(space, "w1", 1)
        assert nl.tokens() == ("w2",)

    def test_k_beyond_vocab_returns_full_ranking(self, table1_space):
        nl = db.nearest_neighbors(table1_space, "cat", 50)
        assert len(nl) == 2

    def test_matches_brute_force_all_metrics(self):
        rng = np.random.default_rng(5)
        tokens = [f"t{i:02d}" for i in range(40)]
        space = dense_space(tokens, rng.standard_normal((40, 6)))
        for metric in ("cosine", "euclidean", "cityblock"):
            for word in ("t00", "t17", "t39"):
                mine = db.nearest_neighbors(space, word, 7, metric)
                oracle = brute_force_ranking(space, word, metric, 7)
                assert [t for t, _ in oracle] == list(mine.tokens())

    def test_matches_brute_force_at_larger_scale(self):
        rng = np.random.default_rng(6)
        tokens = [f"t{i:03d}" for i in range(400)]
        space = dense_space(tokens, rng.standard_normal((400, 10)))
        for metric in ("cosine", "euclidean", "cityblock"):
            mine = db.nearest_neighbors(space, "t123", 15, metric)
            oracle = brute_force_ranking(space, "t123", metric, 15)
            assert [t for t, _ in oracle] == list(mine.tokens())

    def test_sparse_and_dense_agree(self, rose_matrix):
        from scipy import sparse

        sparse_space = rose_matrix.to_space()
        dense = db.VectorSpace(
            rose_matrix.vocab, np.asarray(to_scipy(rose_matrix.counts).todense(), dtype=float)
        )
        for metric in ("cosine", "euclidean", "cityblock"):
            for word in rose_matrix.vocab.tokens:
                a = db.nearest_neighbors(sparse_space, word, 3, metric)
                b = db.nearest_neighbors(dense, word, 3, metric)
                assert a.tokens() == b.tokens()
                assert [s for _, s in a.entries] == pytest.approx(
                    [s for _, s in b.entries], abs=1e-9
                )

    def test_deterministic_tie_break(self):
        space = dense_space(
            ["mid", "zeta", "alpha", "beta"],
            [[1, 0], [0, 1], [0, 1], [0, 1]],
        )
        nl = db.nearest_neighbors(space, "mid", 3)
        assert nl.tokens() == ("alpha", "beta", "zeta")

    def test_unknown_word(self, table1_space):
        with pytest.raises(db.UnknownWordError, match="fish"):
            db.nearest_neighbors(table1_space, "fish", 1)

    def test_k_must_be_positive(self, table1_space):
        with pytest.raises(ValueError):
            db.nearest_neighbors(table1_space, "dog", 0)

    def test_zero_row_query_rejected(self):
        space = dense_space(["a", "b"], [[0, 0], [1, 1]])
        with pytest.raises(db.ZeroVectorError):
            db.nearest_neighbors(space, "a", 1)

    def test_zero_row_candidate_rejected_under_cosine(self):
        space = dense_space(["a", "b", "z"], [[1, 0], [1, 1], [0, 0]])
        with pytest.raises(db.ZeroVectorError, match="z"):
            db.nearest_neighbors(space, "a", 1)

    def test_zero_rows_fine_for_distance_metrics(self):
        space = dense_space(["a", "b", "z"], [[1, 0], [1, 1], [0, 0]])
        nl = db.nearest_neighbors(space, "a", 2, "euclidean")
        assert set(nl.tokens()) == {"b", "z"}

    def test_neighbor_table_matches_per_word(self, rose_matrix):
        space = rose_matrix.to_space()
        table = db.neighbor_table(space, 2)
        for word in rose_matrix.vocab.tokens:
            assert table[word].entries == db.nearest_neighbors(space, word, 2).entries

    def test_include_self_puts_query_first_under_cosine(self, table1_space):
        nl = db.nearest_neighbors(table1_space, "cat", 3, include_self=True)
        assert nl.tokens()[0] == "cat"
        assert nl.entries[0][1] == pytest.approx(1.0)


class TestNeighborList:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            db.NeighborList("q", (("a", 0.1), ("b", 0.5)))
        with pytest.raises(ValueError):
            db.NeighborList("q", (("b", 0.5), ("a", 0.5)))  # tie must be lex ascending

    def test_tsv_has_ten_decimal_places(self, table1_space):
        nl = db.nearest_neighbors(table1_space, "cat", 2)
        lines = nl.to_tsv().splitlines()
        assert lines[0] == "1\tdog\t0.6128751618"
        assert lines[1].startswith("2\tbird\t0.0578461914")

    def test_json_round_trip(self, table1_space):
        nl = db.nearest_neighbors(table1_space, "cat", 2)
        payload = json.loads(nl.to_json())
        assert payload["query"] == "cat"
        assert payload["metric"] == "cosine"
        assert payload["entries"][0]["token"] == "dog"
        assert payload["entries"][0]["rank"] == 1


class TestAnalogy:
    def test_b_minus_a_plus_a_returns_b(self, table1_space):
        nl = db.analogy(table1_space, "dog", "cat", "dog", k=1, exclude_inputs=False)
        assert nl.tokens()[0] == "cat"

    def test_inputs_excluded_by_default(self):
        rng = np.random.default_rng(0)
        tokens = ["king", "man", "woman", "queen", "castle"]
        space = dense_space(tokens, rng.standard_normal((5, 4)))
        nl = db.analogy(space, "man", "king", "woman", k=5)
        assert {"man", "king", "woman"}.isdisjoint(set(nl.tokens()))

    def test_constructed_parallelogram(self):
        # queen placed exactly at king - man + woman
        king = [2.0, 2.0, 0.0]
        man = [1.0, 0.0, 0.0]
        woman = [1.0, 0.0, 1.0]
        queen = [2.0, 2.0, 1.0]
        space = dense_space(
            ["king", "man", "woman", "queen", "other"],
            [king, man, woman, queen, [0.1, -3.0, 0.2]],
        )
        nl = db.analogy(space, "man", "king", "woman", k=1)
        assert nl.tokens() == ("queen",)

    def test_unknown_word(self, table1_space):
        with pytest.raises(db.UnknownWordError):
            db.analogy(table1_space, "dog", "cat", "unicorn", k=1)


def old_rank_scores(space, query, metric):
    """The per-word scoring that ranking used before the batched kernel."""
    vectors = to_scipy(space.vectors) if space.is_sparse else space.vectors
    if metric == "cosine":
        if space.is_sparse:
            sq = vectors.multiply(vectors).sum(axis=1)
            norms = np.sqrt(np.asarray(sq).ravel())
        else:
            norms = np.linalg.norm(vectors, axis=1)
        dots = np.asarray(vectors @ query).ravel()
        return dots / (norms * np.linalg.norm(query))
    if space.is_sparse:
        m = space.vectors
        qs = query[m.indices]
        if metric == "euclidean":
            per_nz, base = (m.data - qs) ** 2 - qs**2, float(query @ query)
        else:
            per_nz, base = np.abs(m.data - qs) - np.abs(qs), float(np.abs(query).sum())
        sums = []
        for lo, hi in zip(m.indptr[:-1], m.indptr[1:]):
            # one term at a time in index order; sum() compensates since Python 3.12
            total = 0.0
            for term in per_nz[lo:hi].tolist():
                total += term
            sums.append(total)
        d = np.maximum(np.array(sums) + base, 0.0)
        return -np.sqrt(d) if metric == "euclidean" else -d
    diff = space.vectors - query
    if metric == "euclidean":
        return -np.sqrt((diff**2).sum(axis=1))
    return -np.abs(diff).sum(axis=1)


def old_top_k(space, scores, k, exclude_idx):
    """Full-lexsort selection: the oracle for the partial top-k."""
    mask = np.ones(len(scores), dtype=bool)
    for i in exclude_idx:
        mask[i] = False
    candidates = np.flatnonzero(mask)
    order = np.lexsort((space.lex_rank()[candidates], -scores[candidates]))
    chosen = candidates[order[:k]]
    return [(space.vocab.token_at(int(i)), float(scores[i])) for i in chosen]


def bits(entries):
    return [(t, float(s).hex()) for t, s in entries]


component = st.one_of(st.integers(-2, 2).map(float), st.floats(-10, 10, width=64))


@st.composite
def ranking_case(draw):
    v = draw(st.integers(2, 9))
    d = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(component, min_size=d, max_size=d), min_size=v, max_size=v))
    for _ in range(draw(st.integers(0, 2))):  # duplicate rows make exact ties
        rows[draw(st.integers(0, v - 1))] = list(rows[draw(st.integers(0, v - 1))])
    matrix = np.array(rows)
    if draw(st.booleans()):
        matrix = sparse.csr_matrix(matrix)
    space = db.VectorSpace(db.Vocabulary([f"t{i}" for i in range(v)], [1] * v), matrix)
    return (
        space,
        draw(st.sampled_from(db.vector_space.METRICS)),
        draw(st.integers(1, v + 1)),
        draw(st.booleans()),
        draw(st.integers(1, 40)),
    )


class TestRankingKernel:
    @given(ranking_case())
    def test_batch_single_and_oracle_agree_bitwise(self, case):
        space, metric, k, include_self, block = case
        tokens = space.vocab.tokens
        if metric == "cosine" and not all(space.dense_row(i).any() for i in range(len(tokens))):
            with pytest.raises(db.ZeroVectorError):
                db.neighbor_table(space, k, metric)
            return
        rows = np.arange(len(tokens))
        exclude = np.empty((len(tokens), 0), dtype=int) if include_self else rows[:, None]
        with mock.patch.object(db.vector_space, "_BLOCK_ENTRIES", block):
            ids, scores = db.vector_space._top_k(space, rows, k, metric, exclude)
        # the old scoring squared tiny components into subnormals; it is the
        # oracle only where no row's squared norm underflows
        norms = [np.linalg.norm(space.dense_row(i)) for i in range(len(tokens))]
        exact_oracle = metric != "cosine" or min(norms) >= db.vector_space._MIN_NORM
        for i, word in enumerate(tokens):
            single = db.nearest_neighbors(space, word, k, metric, include_self=include_self)
            batch = [(tokens[j], s) for j, s in zip(ids[i], scores[i])]
            assert bits(single.entries) == bits(batch)
            if exact_oracle:
                oracle = old_top_k(
                    space,
                    old_rank_scores(space, space.dense_row(i), metric),
                    k,
                    () if include_self else (i,),
                )
                assert bits(batch) == bits(oracle)

    def test_subnormal_row_ranks_with_its_cosine(self):
        rows = [[0.0, 1e-170], [1.0, 1.0], [1.0, 0.0]]
        space = dense_space(["tiny", "diag", "x"], rows)
        nl = db.nearest_neighbors(space, "tiny", 2)
        assert nl.tokens() == ("diag", "x")
        assert nl.entries[0][1] == pytest.approx(
            db.cosine_similarity(rows[0], rows[1]), rel=1e-15
        )
        back = dict(db.nearest_neighbors(space, "diag", 2).entries)
        assert back["tiny"] == pytest.approx(db.cosine_similarity(rows[1], rows[0]), rel=1e-15)

    @pytest.mark.parametrize("metric", ["euclidean", "cityblock"])
    @pytest.mark.parametrize("big", [[1e9, 1e9], [1e307, -1e307]])
    def test_sparse_distances_sum_each_row_on_its_own(self, metric, big):
        # a row's sparse distance must not absorb the rounding, or the
        # overflow, of the rows before it
        rows = np.array([big, [1.0, 2.0], [3.0, 1.0], [2.0, 2.0]])
        vocab = db.Vocabulary(["a", "c", "d", "e"], [1] * 4)
        dense, csr = (
            db.nearest_neighbors(db.VectorSpace(vocab, m), "c", 3, metric)
            for m in (rows, sparse.csr_matrix(rows))
        )
        assert dense.tokens() == ("e", "d", "a")
        assert bits(csr.entries) == bits(dense.entries)

    def test_numpy_selection_takes_the_kernels_arguments(self):
        kernel_params = list(inspect.signature(db.kernel.Kernel.select).parameters.values())
        assert kernel_params[0].name == "self"
        assert list(inspect.signature(db.vector_space._select).parameters.values()) == (
            kernel_params[1:]
        )
