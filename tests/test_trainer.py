"""Training determinism, loss behavior, gradient fidelity, persistence."""

import math

import numpy as np
import pytest

import driftbench as db
from driftbench.trainer import iter_samples

TINY_TEXT = (
    "the quick brown fox jumps over the lazy dog while the cat watches "
    "the bird fly past the old barn door near the quiet river and the "
    "fox runs back over the field to the barn where the dog sleeps"
)


@pytest.fixture
def tiny_stream():
    return db.tokenize(TINY_TEXT, doc_id="tiny")


@pytest.fixture
def alternating_stream():
    return db.TokenStream("alt", tuple(["x", "y"] * 100))


def small_config(**overrides):
    base = dict(
        seed=3, dimension=8, window_radius=2, epochs=5, learning_rate=0.1
    )
    base.update(overrides)
    return db.TrainingConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            db.TrainingConfig(seed=1, dimension=0)
        with pytest.raises(ValueError):
            db.TrainingConfig(seed=1, epochs=0)
        with pytest.raises(ValueError):
            db.TrainingConfig(seed=1, learning_rate=-0.1)
        with pytest.raises(ValueError):
            db.TrainingConfig(seed=1, objective="hierarchical")
        with pytest.raises(ValueError):
            db.TrainingConfig(seed=1, objective="neg:0")

    def test_objective_auto_resolution(self, tiny_stream):
        state = db.init_state([tiny_stream], small_config())
        assert state.objective == ("softmax", 0)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self, tiny_stream):
        a = db.train_cbow([tiny_stream], small_config())
        b = db.train_cbow([tiny_stream], small_config())
        assert np.array_equal(a.vectors, b.vectors)
        assert np.array_equal(a.output_weights, b.output_weights)

    def test_different_seeds_differ(self, tiny_stream):
        a = db.train_cbow([tiny_stream], small_config(seed=1))
        b = db.train_cbow([tiny_stream], small_config(seed=2))
        assert not np.array_equal(a.vectors, b.vectors)

    def test_skipgram_deterministic_and_distinct(self, tiny_stream):
        cfg = small_config()
        s1 = db.train_skipgram([tiny_stream], cfg)
        s2 = db.train_skipgram([tiny_stream], cfg)
        c = db.train_cbow([tiny_stream], cfg)
        assert np.array_equal(s1.vectors, s2.vectors)
        assert not np.array_equal(s1.vectors, c.vectors)

    def test_identical_text_files_byte_for_byte(self, tiny_stream, tmp_path):
        cfg = small_config()
        p1, p2 = tmp_path / "one.txt", tmp_path / "two.txt"
        db.save_embedding_text(db.train_cbow([tiny_stream], cfg), p1)
        db.save_embedding_text(db.train_cbow([tiny_stream], cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestLoss:
    def test_cbow_loss_decreases(self, alternating_stream):
        emb = db.train_cbow([alternating_stream], small_config(window_radius=1, epochs=5))
        losses = emb.provenance["epoch_losses"]
        assert losses[4] < losses[0]

    def test_skipgram_loss_decreases(self, tiny_stream):
        emb = db.train_skipgram([tiny_stream], small_config(epochs=5))
        losses = emb.provenance["epoch_losses"]
        assert losses[-1] < losses[0]

    def test_two_word_corpus_converges_near_zero(self, alternating_stream):
        emb = db.train_cbow(
            [alternating_stream], small_config(window_radius=1, epochs=30)
        )
        assert emb.provenance["epoch_losses"][-1] < 0.05

    def test_untrained_uniform_model_loss_is_log_vocab(self, tiny_stream):
        state = db.init_state([tiny_stream], small_config())
        batch = list(iter_samples(state, [tiny_stream], 2))
        vocab_size = len(state.vocab)
        assert db.training_loss(state, batch) == pytest.approx(
            math.log(vocab_size), rel=0.02
        )

    def test_empty_batch_reports_zero_with_warning(self, tiny_stream):
        state = db.init_state([tiny_stream], small_config())
        with pytest.warns(UserWarning, match="empty batch"):
            assert db.training_loss(state, []) == 0.0

    def test_negative_sampling_trains(self, tiny_stream):
        cfg = small_config(objective="neg:3", epochs=8)
        emb = db.train_cbow([tiny_stream], cfg)
        assert np.all(np.isfinite(emb.vectors))
        again = db.train_cbow([tiny_stream], cfg)
        assert np.array_equal(emb.vectors, again.vectors)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostics(self, alternating_stream):
        cfg = small_config(learning_rate=1e6, epochs=3)
        with pytest.raises(db.NumericalError, match="epoch"):
            db.train_cbow([alternating_stream], cfg)

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(db.EmptyVocabularyError):
            db.train_cbow([db.TokenStream("e", ())], small_config())


class TestGradientCheck:
    def test_softmax_cbow_within_tolerance(self, tiny_stream):
        err = db.gradient_check(small_config(), [tiny_stream])
        assert err < 1e-4

    def test_softmax_skipgram_within_tolerance(self, tiny_stream):
        err = db.gradient_check(small_config(), [tiny_stream], architecture="skipgram")
        assert err < 1e-4

    def test_negative_sampling_within_tolerance(self, tiny_stream):
        err = db.gradient_check(small_config(objective="neg:3"), [tiny_stream])
        assert err < 1e-4

    def test_corrupted_gradient_detected(self, tiny_stream):
        err = db.gradient_check(small_config(), [tiny_stream], corruption=0.05)
        assert err > 1e-2

    def test_dimension_cap_enforced(self, tiny_stream):
        with pytest.raises(ValueError):
            db.gradient_check(small_config(dimension=32), [tiny_stream])

    def test_zero_learning_rate_leaves_weights_unchanged(self, tiny_stream):
        cfg = small_config(learning_rate=0.0, epochs=2)
        emb = db.train_cbow([tiny_stream], cfg)
        state = db.init_state([tiny_stream], cfg)
        assert np.array_equal(emb.vectors, state.w_in)
        assert np.array_equal(emb.output_weights, state.w_out)


class TestSampling:
    def test_cbow_contexts_respect_document_bounds(self):
        s1, s2 = db.tokenize("a b", doc_id="1"), db.tokenize("c d", doc_id="2")
        cfg = small_config(window_radius=5)
        state = db.init_state([s1, s2], cfg)
        samples = list(iter_samples(state, [s1, s2], 5))
        vocab = state.vocab
        for ctx, target in samples:
            target_token = vocab.token_at(target)
            ctx_tokens = {vocab.token_at(int(i)) for i in ctx}
            if target_token in {"a", "b"}:
                assert ctx_tokens <= {"a", "b"}
            else:
                assert ctx_tokens <= {"c", "d"}

    def test_oov_tokens_occupy_positions(self):
        # "zz" appears once, filtered by min_count=2; it still separates a and b
        stream = db.TokenStream("d", ("a", "zz", "b", "a", "b", "a", "b"))
        cfg = small_config(window_radius=1, min_count=2)
        state = db.init_state([stream], cfg)
        samples = list(iter_samples(state, [stream], 1))
        # position 0 ("a") sees only the OOV "zz" in its radius-1 window: no sample;
        # position 2 ("b") sees zz (skipped) and a, so its context is just ["a"]
        assert len(samples) == 5
        first_ctx = [state.vocab.token_at(int(i)) for i in samples[0][0]]
        assert state.vocab.token_at(samples[0][1]) == "b"
        assert first_ctx == ["a"]


class TestPersistence:
    def test_text_round_trip_exact(self, tiny_stream, tmp_path):
        emb = db.train_cbow([tiny_stream], small_config())
        path = tmp_path / "vecs.txt"
        db.save_embedding_text(emb, path)
        loaded = db.load_embedding_text(path)
        assert loaded.vocab.tokens == emb.vocab.tokens
        assert np.array_equal(loaded.vectors, emb.vectors)

    def test_text_header(self, tiny_stream, tmp_path):
        emb = db.train_cbow([tiny_stream], small_config())
        path = tmp_path / "vecs.txt"
        db.save_embedding_text(emb, path)
        first = path.read_text(encoding="utf-8").splitlines()[0]
        assert first == f"{len(emb.vocab)} {emb.dim}"

    def test_checkpoint_round_trip(self, tiny_stream, tmp_path):
        emb = db.train_cbow([tiny_stream], small_config())
        path = tmp_path / "model.npz"
        db.save_checkpoint(emb, path)
        loaded = db.load_checkpoint(path)
        assert np.array_equal(loaded.vectors, emb.vectors)
        assert np.array_equal(loaded.output_weights, emb.output_weights)
        assert loaded.vocab.frequencies == emb.vocab.frequencies
        assert loaded.provenance["config"]["seed"] == 3

    def test_checkpoint_with_object_array_rejected(self, tiny_stream, tmp_path):
        emb = db.train_cbow([tiny_stream], small_config())
        path = tmp_path / "crafted.npz"
        np.savez(
            path,
            format=np.array(db.trainer.CHECKPOINT_FORMAT),
            vectors=emb.vectors,
            output_weights=emb.output_weights,
            tokens=np.array(emb.vocab.tokens, dtype=object),
            frequencies=np.array(emb.vocab.frequencies),
            provenance=np.array("{}"),
        )
        with pytest.raises(db.errors.FormatError, match="malformed"):
            db.load_checkpoint(path)

    @pytest.mark.parametrize("content", [b"", b"not a zip archive", b"PK\x03\x04truncated"])
    def test_malformed_checkpoint_rejected(self, tmp_path, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        with pytest.raises(db.errors.FormatError):
            db.load_checkpoint(path)

    def test_malformed_text_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 4\nword 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(db.errors.FormatError):
            db.load_embedding_text(path)
