"""Neighbor-list diffs, rigid rotations, Procrustes alignment, seed studies."""

import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse, stats

import driftbench as db
from driftbench.stability import _rank_agreement

from conftest import dense_space
from reference_lists import ATOMISM_AUGMENTED, ATOMISM_BASE, CAN_AUGMENTED, CAN_BASE


def make_list(query, tokens):
    scores = np.linspace(0.9, 0.1, len(tokens))
    return db.NeighborList(query, tuple(zip(tokens, scores)))


class TestOverlapAndJaccard:
    def test_identical_lists(self):
        nl = make_list("q", ["a", "b", "c", "d"])
        assert db.overlap_at_k(nl, nl, 4) == 1.0
        assert db.jaccard_at_k(nl, nl, 4) == 1.0

    def test_rare_word_fixture_point_seven(self):
        assert db.overlap_at_k(ATOMISM_BASE, ATOMISM_AUGMENTED, 10) == pytest.approx(0.7)

    def test_common_word_fixture_full_overlap_order_change(self):
        diff = db.diff_neighbor_lists(CAN_BASE, CAN_AUGMENTED, 10)
        assert diff.overlap_at_k == 1.0
        assert diff.jaccard_at_k == 1.0
        assert not diff.exact_order
        # one adjacent swap among ten ranks: 44 concordant pairs, 1 discordant
        assert diff.rank_agreement == pytest.approx(43 / 45)

    def test_query_word_excluded_from_both(self):
        with_self = make_list("q", ["q", "a", "b"])
        without = make_list("q", ["a", "b", "x"])
        assert db.overlap_at_k(with_self, without, 2) == 1.0

    def test_different_queries_rejected(self):
        with pytest.raises(db.DataError):
            db.overlap_at_k(make_list("q1", ["a"]), make_list("q2", ["a"]), 1)

    def test_short_lists_clamp_with_warning(self):
        long = make_list("q", ["a", "b", "c", "d", "e"])
        short = make_list("q", ["a", "b"])
        with pytest.warns(UserWarning, match="clamped"):
            value = db.overlap_at_k(long, short, 5)
        assert value == 1.0  # comparison clamped to the top-2 of both

    def test_empty_list_is_an_error(self):
        empty = db.NeighborList("q", ())
        with pytest.raises(db.DataError):
            db.overlap_at_k(empty, make_list("q", ["a"]), 1)

    def test_overlap_one_same_lengths_implies_jaccard_one(self):
        rng = np.random.default_rng(0)
        letters = [f"t{i}" for i in range(12)]
        for _ in range(50):
            perm = list(rng.permutation(letters))
            a = make_list("q", perm[:6])
            b = make_list("q", sorted(perm[:6], key=lambda t: rng.random()))
            if db.overlap_at_k(a, b, 6) == 1.0:
                assert db.jaccard_at_k(a, b, 6) == 1.0


class TestRankAgreement:
    def test_exact_order_gives_one(self):
        a = make_list("q", ["a", "b", "c", "d"])
        b = make_list("q", ["a", "b", "c", "d"])
        diff = db.diff_neighbor_lists(a, b, 4)
        assert diff.exact_order and diff.rank_agreement == 1.0

    def test_reversed_order_gives_minus_one(self):
        a = make_list("q", ["a", "b", "c", "d"])
        b = make_list("q", ["d", "c", "b", "a"])
        assert db.diff_neighbor_lists(a, b, 4).rank_agreement == -1.0

    def test_fewer_than_two_common_is_undefined(self):
        for a, b in ((["a", "b"], ["a", "x"]), (["a"], ["a"])):
            diff = db.diff_neighbor_lists(make_list("q", a), make_list("q", b), len(a))
            assert diff.rank_agreement is None
        a = make_list("q", ["a", "b", "c"])
        b = make_list("q", ["a", "x", "y"])
        diff = db.diff_neighbor_lists(a, b, 3)
        assert diff.rank_agreement is None  # flagged, never reported as 0

    def test_disjoint_lists(self):
        a = make_list("q", ["a", "b", "c"])
        b = make_list("q", ["x", "y", "z"])
        diff = db.diff_neighbor_lists(a, b, 3)
        assert diff.overlap_at_k == 0.0
        assert diff.jaccard_at_k == 0.0
        assert diff.rank_agreement is None

    @pytest.mark.parametrize("n", range(2, 8))
    def test_closed_form_matches_scipy_on_every_permutation(self, n):
        perms = np.array(list(itertools.permutations(range(n))))
        mine = _rank_agreement(np.ones(perms.shape, dtype=bool), perms)
        ranks = np.arange(n)
        theirs = [stats.kendalltau(ranks, p, variant="b").statistic for p in perms]
        assert mine.tobytes() == np.array(theirs).tobytes()

    @given(st.data())
    def test_shared_subset_matches_scipy(self, data):
        n = data.draw(st.integers(1, 50))
        pool = [f"t{i}" for i in range(2 * n)]
        ta = data.draw(st.permutations(pool))[:n]
        tb = data.draw(st.permutations(pool))[:n]
        common = [t for t in ta if t in set(tb)]
        diff = db.diff_neighbor_lists(make_list("q", ta), make_list("q", tb), n)
        if len(common) < 2:
            assert diff.rank_agreement is None
            return
        expected = stats.kendalltau(
            range(len(common)), [tb.index(t) for t in common], variant="b"
        ).statistic
        assert np.float64(diff.rank_agreement).tobytes() == np.float64(expected).tobytes()


class TestNeighborDiffOnSpaces:
    def test_identical_spaces(self, table1_space):
        diff = db.neighbor_diff(table1_space, table1_space, "cat", k=2)
        assert diff.overlap_at_k == 1.0
        assert diff.exact_order
        assert diff.rank_agreement == 1.0

    def test_dimension_agnostic_comparison(self):
        stream = db.tokenize(
            "north wind and warm sun argued over a traveler on the road "
            "until the warm sun won the argument and the wind gave up "
            "the traveler walked on the road in the warm sun"
        )
        wide = db.train_cbow([stream], db.TrainingConfig(seed=1, dimension=24, window_radius=2, epochs=2))
        narrow = db.train_cbow([stream], db.TrainingConfig(seed=1, dimension=6, window_radius=2, epochs=2))
        diff = db.neighbor_diff(wide, narrow, "sun", k=5)
        assert 0.0 <= diff.overlap_at_k <= 1.0

    def test_word_missing_from_one_space(self, table1_space):
        other = dense_space(["cat", "dog"], [[1, 0], [0, 1]])
        with pytest.raises(db.UnknownWordError, match="bird"):
            db.neighbor_diff(table1_space, other, "bird", k=1)


class TestDisplacement:
    def test_identical_spaces_zero(self, table1_space):
        d = db.displacement(table1_space, table1_space, "dog")
        assert d.euclidean == 0.0
        assert d.cosine == pytest.approx(1.0)

    def test_dimension_mismatch_points_to_alignment(self, table1_space):
        other = dense_space(["dog"], [[1.0, 2.0]])
        with pytest.raises(db.DimensionMismatchError, match="procrustes_align"):
            db.displacement(table1_space, other, "dog")

    def test_rotation_moves_points_but_not_neighbors(self):
        rng = np.random.default_rng(9)
        tokens = [f"w{i:02d}" for i in range(30)]
        space = dense_space(tokens, rng.standard_normal((30, 12)))
        rotated = db.random_rotation(space, seed=4)
        moved = [db.displacement(space, rotated, w).euclidean for w in tokens]
        assert np.mean(moved) > 0.5  # absolute positions changed a lot
        for w in tokens[:8]:
            assert db.neighbor_diff(space, rotated, w, k=10).overlap_at_k == 1.0

    def test_procrustes_restores_positions(self):
        rng = np.random.default_rng(10)
        tokens = [f"w{i:02d}" for i in range(25)]
        space = dense_space(tokens, rng.standard_normal((25, 8)))
        rotated = db.random_rotation(space, seed=5, style="haar")
        result = db.procrustes_align(space, rotated)
        aligned = db.apply_alignment(space, result)
        for w in tokens:
            assert db.displacement(aligned, rotated, w, aligned=True).euclidean < 1e-6


class TestJacobiSvd:
    @pytest.mark.parametrize("shape", [(3, 3), (8, 8), (10, 6), (40, 25)])
    def test_matches_numpy_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        m = rng.standard_normal(shape)
        u, s, vt = db.jacobi_svd(m)
        assert np.allclose(u @ np.diag(s) @ vt, m, atol=1e-9)
        assert np.allclose(u.T @ u, np.eye(shape[1]), atol=1e-9)
        assert np.allclose(vt @ vt.T, np.eye(shape[1]), atol=1e-9)
        assert np.allclose(s, np.linalg.svd(m, compute_uv=False), atol=1e-9)
        assert np.all(np.diff(s) <= 1e-12)  # descending

    def test_rank_deficient(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((6, 2))
        m = base @ rng.standard_normal((2, 6))  # rank 2 in 6x6
        u, s, vt = db.jacobi_svd(m)
        assert np.allclose(u @ np.diag(s) @ vt, m, atol=1e-9)
        assert np.allclose(u.T @ u, np.eye(6), atol=1e-8)
        assert np.sum(s > 1e-9) == 2

    def test_zero_matrix(self):
        u, s, vt = db.jacobi_svd(np.zeros((4, 4)))
        assert np.allclose(s, 0)
        assert np.allclose(u.T @ u, np.eye(4), atol=1e-12)


class TestProcrustes:
    def test_self_alignment_is_identity(self):
        rng = np.random.default_rng(2)
        tokens = [f"w{i}" for i in range(20)]
        space = dense_space(tokens, rng.standard_normal((20, 6)))
        result = db.procrustes_align(space, space)
        assert result.residual < 1e-9
        assert np.allclose(result.rotation, np.eye(6), atol=1e-8)
        assert not result.underdetermined

    @pytest.mark.parametrize("dim", [2, 10, 50])
    def test_recovers_random_rotation(self, dim):
        rng = np.random.default_rng(dim)
        n = max(2 * dim, dim + 10)
        x = rng.standard_normal((n, dim))
        q = db.random_orthogonal(dim, rng)
        tokens = [f"w{i:03d}" for i in range(n)]
        sx = dense_space(tokens, x)
        sy = dense_space(tokens, x @ q)
        result = db.procrustes_align(sx, sy)
        assert result.residual < 1e-6
        assert np.allclose(result.rotation, q, atol=1e-8)

    def test_noisy_target_residual_tracks_noise(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 5))
        noise = 1e-3 * rng.standard_normal((40, 5))
        tokens = [f"w{i}" for i in range(40)]
        result = db.procrustes_align(
            dense_space(tokens, x), dense_space(tokens, x + noise)
        )
        assert result.residual == pytest.approx(np.linalg.norm(noise), rel=0.5)
        assert np.allclose(result.rotation, np.eye(5), atol=1e-2)

    def test_optimality_beats_random_rotations(self):
        # exhaustive-ish check at toy scale: no random orthogonal does better
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3))
        y = rng.standard_normal((6, 3))
        tokens = [f"w{i}" for i in range(6)]
        result = db.procrustes_align(dense_space(tokens, x), dense_space(tokens, y))
        xc = x - x.mean(axis=0)
        yc = y - y.mean(axis=0)
        best = np.linalg.norm(xc @ result.rotation - yc)
        for _ in range(10_000):
            q = db.random_orthogonal(3, rng)
            assert np.linalg.norm(xc @ q - yc) >= best - 1e-9

    def test_underdetermined_flagged(self):
        rng = np.random.default_rng(5)
        tokens = ["a", "b", "c"]
        x = dense_space(tokens, rng.standard_normal((3, 8)))
        y = dense_space(tokens, rng.standard_normal((3, 8)))
        result = db.procrustes_align(x, y)
        assert result.underdetermined
        r = result.rotation
        assert np.allclose(r.T @ r, np.eye(8), atol=1e-8)

    def test_no_shared_vocab(self):
        x = dense_space(["a"], [[1.0, 0.0]])
        y = dense_space(["b"], [[0.0, 1.0]])
        with pytest.raises(db.DataError):
            db.procrustes_align(x, y)

    def test_dimension_mismatch(self):
        x = dense_space(["a"], [[1.0, 0.0]])
        y = dense_space(["a"], [[1.0, 0.0, 0.0]])
        with pytest.raises(db.DimensionMismatchError):
            db.procrustes_align(x, y)


class TestRandomRotation:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.tokens = [f"w{i:02d}" for i in range(50)]
        self.space = dense_space(self.tokens, rng.standard_normal((50, 20)))

    def all_pairwise(self, space, metric):
        vals = []
        for i, j in itertools.combinations(range(12), 2):
            a, b = space.dense_row(i), space.dense_row(j)
            if metric == "cosine":
                vals.append(db.cosine_similarity(a, b))
            else:
                vals.append(db.vector_distance(a, b, metric))
        return np.array(vals)

    def test_signed_permutation_preserves_all_three_metrics(self):
        for seed in (1, 2, 3):
            rotated = db.random_rotation(self.space, seed=seed)
            for metric in ("cosine", "euclidean", "cityblock"):
                before = self.all_pairwise(self.space, metric)
                after = self.all_pairwise(rotated, metric)
                assert np.abs(before - after).max() < 1e-9

    def test_haar_preserves_cosine_and_euclidean_only(self):
        rotated = db.random_rotation(self.space, seed=1, style="haar")
        for metric in ("cosine", "euclidean"):
            before = self.all_pairwise(self.space, metric)
            after = self.all_pairwise(rotated, metric)
            assert np.abs(before - after).max() < 1e-9
        # city-block is not invariant under generic rotations, only under
        # axis relabelings; this documents the asymmetry
        l1_before = self.all_pairwise(self.space, "cityblock")
        l1_after = self.all_pairwise(rotated, "cityblock")
        assert np.abs(l1_before - l1_after).max() > 1e-3

    def test_neighbor_lists_identical_under_both_styles(self):
        for style in ("signed_permutation", "haar"):
            rotated = db.random_rotation(self.space, seed=2, style=style)
            for word in self.tokens[:6]:
                before = db.nearest_neighbors(self.space, word, 10)
                after = db.nearest_neighbors(rotated, word, 10)
                assert before.tokens() == after.tokens()

    def test_seeded_determinism(self):
        a = db.random_rotation(self.space, seed=7)
        b = db.random_rotation(self.space, seed=7)
        assert np.array_equal(a.vectors, b.vectors)

    def test_sparse_space_refused(self, rose_matrix):
        with pytest.raises(db.DataError):
            db.random_rotation(rose_matrix.to_space(), seed=1)


class TestStabilityReport:
    def test_self_comparison(self, table1_space):
        report = db.stability_report(table1_space, table1_space, k=2)
        assert all(d.overlap_at_k == 1.0 for d in report.diffs.values())
        assert all(d.exact_order for d in report.diffs.values())
        assert report.frequency_correlation is None  # constant overlap: flagged
        assert report.aggregates["mean_overlap"] == 1.0
        assert set(report.diffs) == {"dog", "cat", "bird"}

    def test_covers_exactly_shared_vocabulary(self, table1_space):
        other = dense_space(["cat", "dog", "fox"], np.eye(3) + 0.1)
        report = db.stability_report(table1_space, other, k=1)
        assert set(report.diffs) == {"dog", "cat"}

    def test_word_subset(self, table1_space):
        report = db.stability_report(table1_space, table1_space, k=2, words=["dog"])
        assert set(report.diffs) == {"dog"}

    def test_csv_shape(self, table1_space):
        report = db.stability_report(table1_space, table1_space, k=2)
        lines = report.to_csv().splitlines()
        assert lines[0] == "word,frequency,overlap,jaccard,exact_order,rank_agreement,displacement"
        assert len(lines) == 4

    def test_json_round_trips(self, table1_space):
        report = db.stability_report(table1_space, table1_space, k=2)
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["aggregates"]["mean_overlap"] == 1.0
        assert payload["words"]["dog"]["displacement"] == 0.0

    def test_no_displacement_across_dimensions(self, table1_space):
        other = dense_space(["dog", "cat", "bird"], np.eye(3)[:, :2] + 0.3)
        report = db.stability_report(table1_space, other, k=1)
        assert report.displacements is None
        assert "displacement" not in report.to_json_dict()["words"]["dog"]

    @pytest.mark.filterwarnings("ignore:k=.*clamped")
    @given(st.integers(2, 12), st.integers(0, 6), st.integers(1, 8), st.booleans(), st.integers(0, 10**6))
    def test_matches_word_by_word_comparison(self, v, extra, k, sparse_b, seed):
        rng = np.random.default_rng(seed)
        a = dense_space([f"w{i}" for i in range(v)], rng.integers(-2, 3, (v, 3)) + 0.5)
        b_tokens = [f"w{i}" for i in rng.permutation(v + extra)]
        rows = rng.integers(0, 3, (v + extra, v + extra)).astype(float) + np.eye(v + extra)
        b = db.VectorSpace(
            db.Vocabulary(b_tokens, [1] * len(b_tokens)),
            sparse.csr_matrix(rows) if sparse_b else rows,
        )
        report = db.stability_report(a, b, k=k)
        for word, diff in report.diffs.items():
            la = db.nearest_neighbors(a, word, k)
            lb = db.nearest_neighbors(b, word, k)
            assert report.neighbor_lists(word) == (la, lb)
            assert diff == db.diff_neighbor_lists(la, lb, k)

    def test_disjoint_vocabulary_rejected(self, table1_space):
        other = dense_space(["x", "y"], [[1, 0], [0, 1]])
        with pytest.raises(db.DataError):
            db.stability_report(table1_space, other)


class TestCrossSeed:
    def make_stream(self):
        return db.synthetic_corpus(600, seed=5)

    def config(self):
        return db.TrainingConfig(
            seed=0, dimension=12, window_radius=2, epochs=2,
            learning_rate=0.05, min_count=2,
        )

    def test_bounds_and_reproducibility(self):
        stream = self.make_stream()
        report = db.cross_seed_stability([stream], self.config(), [1, 2], k=5)
        assert all(0.0 <= v <= 1.0 for v in report.per_word_mean_overlap.values())
        again = db.cross_seed_stability([stream], self.config(), [1, 2], k=5)
        assert report.mean_overlap == again.mean_overlap

    def test_identical_seeds_give_full_overlap(self):
        stream = self.make_stream()
        report = db.cross_seed_stability([stream], self.config(), [3, 3], k=5)
        assert report.mean_overlap == 1.0

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            db.cross_seed_stability([self.make_stream()], self.config(), [1])

    def test_training_failure_names_the_seed(self):
        empty = db.TokenStream("e", ())
        with pytest.raises(db.EmptyVocabularyError, match="seed 1"):
            db.cross_seed_stability([empty], self.config(), [1, 2])


class TestSyntheticCorpus:
    def test_deterministic(self):
        a = db.synthetic_corpus(500, seed=1)
        b = db.synthetic_corpus(500, seed=1)
        assert a == b

    def test_seed_changes_sample(self):
        assert db.synthetic_corpus(500, seed=1) != db.synthetic_corpus(500, seed=2)

    def test_sizes(self):
        assert len(db.synthetic_corpus(0, seed=1)) == 0
        assert len(db.synthetic_corpus(1234, seed=1)) == 1234

    def test_vocabulary_is_bounded(self):
        stream = db.synthetic_corpus(3000, seed=7)
        assert len(set(stream.tokens)) <= 500
