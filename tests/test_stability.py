"""Neighbor-list diffs, rigid rotations, Procrustes alignment, seed studies."""

import hashlib
import itertools
import json
import os
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse, stats

import driftbench as db
from driftbench import kernel as kernel_module
from driftbench.stability import _rank_agreement, _spearman

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

    def test_subnormal_vectors_have_the_cosine_of_cosine_similarity(self):
        # squaring 1e-170 underflows to 0, so an unscaled cosine finds no direction
        a = dense_space(["w"], [[0.0, 1e-170]])
        b = dense_space(["w"], [[0.0, 2e-170]])
        assert db.displacement(a, b, "w").cosine == 1.0

    def test_zero_vector_has_no_cosine(self):
        a = dense_space(["w"], [[0.0, 0.0]])
        b = dense_space(["w"], [[0.0, 1.0]])
        d = db.displacement(a, b, "w")
        assert d.cosine is None and d.euclidean == 1.0

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


@st.composite
def alignment_inputs(draw):
    """Rows of two n x d spaces, up to 12 x 8, and a random orthogonal Q.
    Each space's rows are random, rank-deficient, with duplicate columns or
    all zero (so they centre to zero); scaled by 2**0 or 2**+-500, and some
    with a few entries replaced by subnormal numbers. The second space is
    either the first rotated by Q or a draw of its own."""
    d = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def rows():
        kind = draw(st.sampled_from(["random", "rank_deficient", "duplicate_columns", "zero"]))
        m = rng.standard_normal((n, d))
        if kind == "rank_deficient":
            rank = draw(st.integers(0, d - 1))
            m = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
        elif kind == "duplicate_columns":
            m = m[:, rng.integers(0, d, size=d)]
        elif kind == "zero":
            m = np.zeros((n, d))
        m = np.ldexp(m, draw(st.sampled_from([0, 500, -500])))
        if draw(st.booleans()):
            tiny = rng.random((n, d)) < 0.3
            m[tiny] = rng.integers(-(2**40), 2**40, size=int(tiny.sum())) * 5e-324
        return m

    x = rows()
    q = db.random_orthogonal(d, rng)
    return x, x @ q if draw(st.booleans()) else rows(), q


class TestProcrustesOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=alignment_inputs())
    def test_rotation_is_orthogonal_and_no_rotation_fits_better(self, case):
        x, y, q = case
        tokens = [f"w{i}" for i in range(len(x))]
        result = db.procrustes_align(dense_space(tokens, x), dense_space(tokens, y))
        d = x.shape[1]
        assert np.abs(result.rotation.T @ result.rotation - np.eye(d)).max() <= 1e-12
        # Procrustes optimality: neither the identity nor Q leaves a smaller
        # residual. Compare at the scale of the largest centred entry, where
        # the check's own products neither under- nor overflow, allowing one
        # step of the float grid at the residual's own scale.
        xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
        scale = -int(np.frexp(max(np.abs(xc).max(), np.abs(yc).max()))[1])
        xs, ys = np.ldexp(xc, scale), np.ldexp(yc, scale)
        residual = np.ldexp(result.residual, scale)
        slack = 1e-12 * (np.linalg.norm(xs) + np.linalg.norm(ys)) + np.ldexp(1.0, scale - 1074)
        for other in (np.eye(d), q):
            assert residual <= np.linalg.norm(xs @ other - ys) + slack

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_recovers_rotation_where_the_cross_covariance_would_under_or_overflow(self, scale):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4)) * scale
        q = db.random_orthogonal(4, rng)
        tokens = [f"w{i:02d}" for i in range(50)]
        result = db.procrustes_align(dense_space(tokens, x), dense_space(tokens, x @ q))
        assert np.abs(result.rotation - q).max() <= 1e-12
        assert np.abs(x @ result.rotation - x @ q).max() <= 1e-12 * scale
        assert 0 < result.residual <= 1e-12 * scale

    def test_centring_that_overflows_raises(self):
        tokens = ["a", "b", "c"]
        x = dense_space(tokens, [[1.7e308, 0.0], [1.7e308, 1.0], [-1.7e308, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # raised, not warned about first
            with pytest.raises(db.NumericalError, match="not finite"):
                db.procrustes_align(x, x)


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
            assert diff == db.diff_neighbor_lists(la, lb, k)

    @pytest.mark.parametrize("block", [1, 7, 1 << 17])
    @pytest.mark.parametrize("layout", ["dense", "sparse"])
    def test_displacements_do_not_depend_on_the_block(self, layout, block):
        rng = np.random.default_rng(11)
        tokens = [f"w{i:02d}" for i in range(40)]
        rows_a, rows_b = rng.standard_normal((2, 40, 40)) * (rng.random((2, 40, 40)) < 0.3)
        a = db.VectorSpace(db.Vocabulary(tokens, [1] * 40),
                           rows_a if layout == "dense" else sparse.csr_matrix(rows_a))
        b = db.VectorSpace(db.Vocabulary(tokens[::-1], [1] * 40),
                           rows_b if layout == "dense" else sparse.csr_matrix(rows_b))
        with mock.patch.object(db.vector_space, "_BLOCK_ENTRIES", block):
            report = db.stability_report(a, b, k=3)
        expected = {w: db.displacement(a, b, w).euclidean for w in tokens}
        assert {w: d.hex() for w, d in report.displacements.items()} == {
            w: d.hex() for w, d in expected.items()
        }

    def test_disjoint_vocabulary_rejected(self, table1_space):
        other = dense_space(["x", "y"], [[1, 0], [0, 1]])
        with pytest.raises(db.DataError):
            db.stability_report(table1_space, other)

    def test_no_words_rejected(self, table1_space):
        with pytest.raises(db.DataError, match="no words given"):
            db.stability_report(table1_space, table1_space, words=[])

    @pytest.mark.parametrize("entry", ["overlap_at_k", "jaccard_at_k", "diff_neighbor_lists",
                                       "neighbor_diff", "stability_report",
                                       "cross_seed_stability"])
    def test_one_warning_per_clamped_comparison(self, entry):
        # lists of five and two neighbours; five words of four neighbours each;
        # thirteen trained words of twelve each: every call clamps k once, and
        # the warning names this file, however deep in the package it is raised
        long, short = make_list("q", ["a", "b", "c", "d", "e"]), make_list("q", ["a", "b"])
        space = dense_space([f"w{i}" for i in range(5)], np.eye(5) + 0.1)
        config = db.TrainingConfig(seed=0, dimension=12, window_radius=2, epochs=2,
                                   learning_rate=0.05, min_count=2)
        calls = {
            "overlap_at_k": lambda: db.overlap_at_k(long, short, 5),
            "jaccard_at_k": lambda: db.jaccard_at_k(long, short, 5),
            "diff_neighbor_lists": lambda: db.diff_neighbor_lists(long, short, 5),
            "neighbor_diff": lambda: db.neighbor_diff(space, space, "w0", k=6),
            "stability_report": lambda: db.stability_report(space, space, k=6),
            "cross_seed_stability": lambda: db.cross_seed_stability(
                [db.synthetic_corpus(600, seed=5)], config, [1, 2], k=20),
        }
        messages = {
            "neighbor_diff": "k=6 clamped to 4 (shortest list) for 1 word(s), the first 'w0'",
            "stability_report": "k=6 clamped to 4 (shortest list) for 5 word(s), the first 'w0'",
            "cross_seed_stability":
                "k=20 clamped to 12 (shortest list) for 13 word(s), the first 'w000'",
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calls[entry]()
        assert [str(w.message) for w in caught] == [messages.get(
            entry, "k=5 clamped to 2 (shortest list) for 1 word(s), the first 'q'")]
        assert caught[0].filename == __file__


class TestSpearman:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6),
                              st.integers(0, 4).map(lambda i: i / 4) | st.floats(0, 1)),
                    max_size=30))
    def test_matches_scipy_bit_for_bit(self, pairs):
        # frequencies against overlaps, as stability_report correlates them:
        # ties on both sides, and constant sides, which have no rho
        x, y = [a for a, _ in pairs], [b for _, b in pairs]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = stats.spearmanr(x, y).statistic if len(pairs) > 1 else np.nan
        got = _spearman(x, y)
        if np.isnan(want):
            assert got is None
        else:
            assert type(got) is float and got.hex() == float(want).hex()


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

    def test_repeated_seed_gives_the_recorded_bits(self):
        # recorded before the study ranked through the comparison of given
        # spaces; seed 2 is listed twice, so "2-2" compares a space with itself
        report = db.cross_seed_stability([self.make_stream()], self.config(), [1, 2, 3, 2], k=5)
        assert {w: v.hex() for w, v in report.per_word_mean_overlap.items()} == {
            "w000": "0x1.8888888888888p-1", "w001": "0x1.aaaaaaaaaaaabp-1",
            "w002": "0x1.cccccccccccccp-1", "w007": "0x1.aaaaaaaaaaaabp-1",
            "w024": "0x1.aaaaaaaaaaaabp-1", "w004": "0x1.cccccccccccccp-1",
            "w053": "0x1.8888888888888p-1", "w003": "0x1.7777777777778p-1",
            "w005": "0x1.0000000000000p+0", "w010": "0x1.1111111111111p-1",
            "w012": "0x1.0000000000000p-1", "w015": "0x1.bbbbbbbbbbbbcp-2",
            "w017": "0x1.2222222222222p-1",
        }
        assert {p: v.hex() for p, v in report.per_pair_mean_overlap.items()} == {
            "1-2": "0x1.7237237237236p-1", "1-3": "0x1.6276276276276p-1",
            "2-3": "0x1.4ad4ad4ad4ad5p-1", "2-2": "0x1.0000000000000p+0",
            "3-2": "0x1.4ad4ad4ad4ad5p-1",
        }
        assert report.mean_overlap.hex() == "0x1.7a17a17a17a17p-1"

    def test_pair_overlaps_are_the_reports_of_the_same_spaces(self):
        stream, seeds = self.make_stream(), [1, 2, 3, 2]
        spaces = {s: db.train_cbow([stream], replace(self.config(), seed=s)) for s in set(seeds)}
        report = db.cross_seed_stability([stream], self.config(), seeds, k=5)
        per_word = {w: 0.0 for w in report.per_word_mean_overlap}
        for sa, sb in itertools.combinations(seeds, 2):
            diffs = db.stability_report(spaces[sa], spaces[sb], k=5).diffs
            assert list(diffs) == list(per_word)
            total = 0.0
            for w in per_word:
                per_word[w] += diffs[w].overlap_at_k
                total += diffs[w].overlap_at_k
            assert report.per_pair_mean_overlap[f"{sa}-{sb}"] == total / len(per_word)
        assert report.per_word_mean_overlap == {w: v / 6 for w, v in per_word.items()}

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            db.cross_seed_stability([self.make_stream()], self.config(), [1])

    def test_training_failure_names_the_seed(self):
        empty = db.TokenStream("e", ())
        with pytest.raises(db.EmptyVocabularyError, match="seed 1"):
            db.cross_seed_stability([empty], self.config(), [1, 2])


# sha256 of the LF-joined tokens of synthetic_corpus(n_tokens, seed, vocab_size),
# recorded with the per-token numpy loop before the kernel sampled the chain
CORPUS_DIGESTS = {
    (0, 1, 500): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 3, 500): "3dee778006424cccc5fb63596cf0f9b20135a553c758ffe3890a44393b089f38",
    (2, 4, 4): "a4ec89dd6ebff5f2e955eccdff2f0d6d7800cd1e29c9b211499d80b206ab3943",
    (3000, 8, 4): "21c90db4ab03b665a4d3997d04228ae5d0bbcb8101b29ce16b27e751f5d9e564",
    (1500, 17, 500): "a6c1d34764d04a7bee7f0b9a41446833ea014f64428f5aad8346386a6f0a1fe3",
    (2300, 5, 500): "e0729498a82f214cf3dc30434879dbd4e24c1f30656b439fcf51c90c76bac050",
    (5000, 11, 300): "bae9ffe9ea438c4f69839ce1b92e596421e56d6a05439e1d2bd3bf00907afd48",
    (10000, 2, 2000): "96c6214b0a6f514baed3f4f4a11fbe187eefb7dead761da97135f73806b42aad",
    (60000, 9, 3000): "f22c47c0401aaaa57f28ce736cfa2bf52406675885358a2ff0e0018d3a753cc1",
}


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

    def test_vocabulary_smaller_than_the_successor_set_is_refused(self):
        with pytest.raises(ValueError, match="vocab_size must be >= 4"):
            db.synthetic_corpus(10, seed=1, vocab_size=3)

    @pytest.fixture(params=["kernel", "numpy"])
    def sampler(self, request, monkeypatch):
        """Each chain path: the compiled kernel's, or the numpy loop's."""
        if request.param == "kernel":
            request.getfixturevalue("kernel")
        else:
            monkeypatch.setattr(kernel_module, "get", lambda: None)
        return request.param

    @pytest.mark.parametrize("case", list(CORPUS_DIGESTS), ids=lambda c: "-".join(map(str, c)))
    def test_corpus_bits_unchanged(self, sampler, case):
        n_tokens, seed, vocab_size = case
        stream = db.synthetic_corpus(n_tokens, seed=seed, vocab_size=vocab_size)
        digest = hashlib.sha256("\n".join(stream.tokens).encode()).hexdigest()
        assert digest == CORPUS_DIGESTS[case]

    def test_a_draw_past_the_last_cdf_entry_picks_the_last_word(self, sampler, monkeypatch):
        words, unigram_cdf, transition_cdf = db.synthetic._language(500)
        row = int(np.argmin(transition_cdf[:, -1]))  # ends 1.8e-15 below 1.0
        last_below_one = float(np.nextafter(1.0, 0.0))
        assert transition_cdf[row, -1] < last_below_one
        draws = [unigram_cdf[row], last_below_one]  # pick word `row`, then draw past its row

        class Draws:
            def random(self, size=None):
                if size is None:
                    return draws.pop(0)
                return np.array([draws.pop(0) for _ in range(size)])

        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: Draws() if seed == -1 else real(seed))
        stream = db.synthetic_corpus(2, seed=-1, vocab_size=500)
        assert stream.tokens == (words[row], words[-1])

    @pytest.mark.parametrize("vocab_size", [4, 500, 3000])
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n_tokens=st.integers(0, 3) | st.integers(4, 3000), seed=st.integers(0, 2**64 - 1))
    def test_kernel_gives_the_numpy_tokens(self, kernel, monkeypatch, vocab_size, n_tokens,
                                          seed):
        got = db.synthetic_corpus(n_tokens, seed=seed, vocab_size=vocab_size)
        with monkeypatch.context() as numpy_path:
            numpy_path.setattr(kernel_module, "get", lambda: None)
            assert db.synthetic_corpus(n_tokens, seed=seed, vocab_size=vocab_size) == got
