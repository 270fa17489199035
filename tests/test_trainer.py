"""Training determinism, loss behavior, gradient fidelity, persistence."""

import hashlib
import math
import platform
import re
import tempfile
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import driftbench as db
from driftbench import kernel as kernel_module
from driftbench import trainer
from driftbench.corpus import _window_ids
from driftbench.synthetic import synthetic_corpus
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


# The per-architecture generators that `iter_samples` replaced, kept as the
# reference for its sample stream.
def _reference_cbow(ids, radius):
    n = len(ids)
    for i in range(n):
        target = ids[i]
        if target < 0:
            continue
        lo, hi = max(0, i - radius), min(n, i + radius + 1)
        ctx = [int(ids[j]) for j in range(lo, hi) if j != i and ids[j] >= 0]
        if ctx:
            yield np.asarray(ctx, dtype=np.int64), int(target)


def _reference_skipgram(ids, radius):
    n = len(ids)
    for i in range(n):
        center = ids[i]
        if center < 0:
            continue
        lo, hi = max(0, i - radius), min(n, i + radius + 1)
        for j in range(lo, hi):
            if j != i and ids[j] >= 0:
                yield np.asarray([int(center)], dtype=np.int64), int(ids[j])


def reference_iter_samples(state, streams, radius):
    gen = _reference_cbow if state.architecture == "cbow" else _reference_skipgram
    for stream in streams:
        ids = np.asarray([state.vocab.get(t) if t in state.vocab else -1 for t in stream.tokens],
                         dtype=np.int64)
        yield from gen(ids, radius)


def reference_training(streams, cfg, architecture):
    """The numpy training loop as it was before `trainer._epoch` planned every
    epoch: the reference generators' samples, each drawing its own noise."""
    state = db.init_state(streams, cfg, architecture)
    rng = np.random.default_rng(cfg.seed + 1)
    samples = list(reference_iter_samples(state, streams, cfg.window_radius))
    total = max(len(samples) * cfg.epochs, 1)
    seen, losses = 0, []
    for _ in range(cfg.epochs):
        loss_sum = 0.0
        for ctx, target in samples:
            lr = cfg.learning_rate * max(trainer.LR_FLOOR_FRACTION, 1.0 - seen / total)
            negatives = trainer._draw_negatives(state, target, rng)
            loss, *step = trainer._sample_loss_grads(state, ctx, target, negatives)
            trainer._apply_step(state, ctx, lr, *step)
            loss_sum += loss
            seen += 1
        losses.append(loss_sum / max(len(samples), 1))
    return state, samples, losses


@st.composite
def training_corpora(draw):
    """Several documents, always including an empty and a one-token one."""
    word = st.sampled_from("abcdefgh")
    docs = draw(st.lists(st.lists(word, max_size=25), min_size=1, max_size=4))
    docs.insert(draw(st.integers(0, len(docs))), [])
    docs.insert(draw(st.integers(0, len(docs))), [draw(word)])
    min_count = draw(st.integers(1, 3))  # rarer words become OOV positions
    assume(max(Counter(t for doc in docs for t in doc).values()) >= min_count)
    streams = [db.TokenStream(f"d{i}", tuple(doc)) for i, doc in enumerate(docs)]
    return streams, min_count


class TestSampleStreamOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        training_corpora(),
        st.integers(1, 6),
        st.sampled_from(["cbow", "skipgram"]),
        st.sampled_from(["softmax", "neg:2"]),
        st.sampled_from([1, 3, trainer.NOISE_CHUNK]),
    )
    def test_matches_reference_generators(self, corpus, radius, architecture, objective, chunk):
        streams, min_count = corpus
        cfg = small_config(
            dimension=4, window_radius=radius, epochs=2, min_count=min_count, objective=objective
        )
        state = db.init_state(streams, cfg, architecture)
        got = list(iter_samples(state, streams, radius))
        want = list(reference_iter_samples(state, streams, radius))
        assert len(got) == len(want)
        for (ctx, target), (ref_ctx, ref_target) in zip(got, want):
            assert ctx.dtype == ref_ctx.dtype == np.int64
            assert np.array_equal(ctx, ref_ctx)
            assert type(target) is type(ref_target) is int
            assert target == ref_target

        # the numpy step, in chunks of `chunk` samples, against the reference
        # generators' samples trained one by one
        train = db.train_cbow if architecture == "cbow" else db.train_skipgram
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_module, "get", lambda: None)
            mp.setattr(trainer, "NOISE_CHUNK", chunk)
            emb = train(streams, cfg)
        ref, samples, losses = reference_training(streams, cfg, architecture)
        assert emb.provenance["samples_per_epoch"] == len(samples)
        assert emb.provenance["epoch_losses"] == losses
        assert np.array_equal(emb.vectors, ref.w_in)
        assert np.array_equal(emb.output_weights, ref.w_out)


class TestSampleCount:
    @settings(max_examples=80, deadline=None)
    @given(training_corpora(), st.integers(1, 6), st.sampled_from(["cbow", "skipgram"]),
           st.sampled_from([0, 1, 2]), st.sampled_from([1, 3, trainer.NOISE_CHUNK]))
    def test_count_matches_generator(self, corpus, radius, architecture, k, chunk):
        streams, min_count = corpus
        cfg = small_config(dimension=1, window_radius=radius, min_count=min_count)
        state = db.init_state(streams, cfg, architecture)
        ids, walked = _window_ids(streams, state.vocab, radius)
        assert len(ids) == 1 + sum(len(s.tokens) + 1 for s in streams)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer, "NOISE_CHUNK", chunk)
            plan = trainer._plan(ids, walked, architecture, k)
        stops = [0]
        for start, stop, samples in plan:
            assert stops[-1] <= start < stop <= len(ids)
            assert samples == len(list(trainer._samples(ids, walked, architecture, start, stop)))
            # a chunk ends at the position that passes a multiple of `chunk`
            assert 0 < samples and (samples <= chunk + 2 * walked or not k)
            stops.append(stop)
        # the positions between chunks yield no samples
        for start, stop in zip(stops[:-1], [start for start, _, _ in plan]):
            assert not list(trainer._samples(ids, walked, architecture, start, stop))
        assert not list(trainer._samples(ids, walked, architecture, stops[-1], len(ids)))
        assert len(plan) <= 1 or k
        total = sum(samples for _, _, samples in plan)
        assert total == len(list(iter_samples(state, streams, radius)))


# ---------------------------------------------------------------------------
# the compiled epoch kernel and its numpy fallback


def oracle_streams():
    """Documents of a synthetic language, one empty and one of a single word;
    with min_count 2 the words seen once leave out-of-vocabulary gaps."""
    tokens = synthetic_corpus(300, seed=11, vocab_size=60).tokens
    cuts = [("a", 0, 150), ("empty", 150, 150), ("b", 150, 260), ("one", 260, 261), ("c", 261, 300)]
    return [db.TokenStream(name, tokens[lo:hi]) for name, lo, hi in cuts]


def assert_noise_chunk_size_leaves_bits_unchanged(monkeypatch, architecture, chunk):
    """Cutting an epoch into chunks of `chunk` samples, each drawing its noise
    at once, trains the same bits as one chunk per epoch."""
    cfg = small_config(dimension=6, window_radius=3, epochs=2, min_count=2, objective="neg:3")
    train = db.train_cbow if architecture == "cbow" else db.train_skipgram
    whole = train(oracle_streams(), cfg)
    monkeypatch.setattr(trainer, "NOISE_CHUNK", chunk)
    chunked = train(oracle_streams(), cfg)
    assert np.array_equal(whole.vectors, chunked.vectors)
    assert np.array_equal(whole.output_weights, chunked.output_weights)
    assert whole.provenance["epoch_losses"] == chunked.provenance["epoch_losses"]


class TestNumpyStepDeterminism(TestDeterminism):
    """TestDeterminism, the divergence check and the noise-chunk check again,
    on the numpy step."""

    @pytest.fixture(autouse=True)
    def _numpy(self, numpy_step):
        pass

    test_divergence_aborts_with_diagnostics = TestLoss.test_divergence_aborts_with_diagnostics

    def test_provenance_names_numpy(self, tiny_stream):
        emb = db.train_cbow([tiny_stream], small_config())
        assert emb.provenance["kernel"] == trainer.training_kernel() == f"numpy:{np.__version__}"

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("architecture", ["cbow", "skipgram"])
    def test_noise_chunk_size_leaves_bits_unchanged(self, monkeypatch, architecture, chunk):
        assert_noise_chunk_size_leaves_bits_unchanged(monkeypatch, architecture, chunk)


class TestKernel:
    def test_provenance_names_the_kernel(self, kernel, tiny_stream):
        emb = db.train_cbow([tiny_stream], small_config())
        assert emb.provenance["kernel"] == trainer.training_kernel() == kernel.name
        assert re.fullmatch("c:[0-9a-f]{12}", kernel.name)

    @pytest.mark.parametrize("epochs", [1, 2, 3])
    @pytest.mark.parametrize("radius", [1, 2, 5])
    @pytest.mark.parametrize("objective", ["softmax", "neg:1", "neg:5"])
    @pytest.mark.parametrize("architecture", ["cbow", "skipgram"])
    def test_matches_numpy_step(self, kernel, monkeypatch, architecture, objective, radius,
                                epochs):
        streams = oracle_streams()
        cfg = small_config(dimension=12, window_radius=radius, epochs=epochs, min_count=2,
                           objective=objective)
        train = db.train_cbow if architecture == "cbow" else db.train_skipgram
        got = train(streams, cfg)
        monkeypatch.setattr(kernel_module, "get", lambda: None)
        want = train(streams, cfg)
        assert (got.provenance["kernel"], want.provenance["kernel"]) == (
            kernel.name, f"numpy:{np.__version__}")
        assert got.provenance["samples_per_epoch"] == want.provenance["samples_per_epoch"]
        np.testing.assert_allclose(got.vectors, want.vectors, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got.output_weights, want.output_weights, rtol=1e-9, atol=0)
        np.testing.assert_allclose(got.provenance["epoch_losses"],
                                   want.provenance["epoch_losses"], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("chunk", [1, 7, 100])
    @pytest.mark.parametrize("architecture", ["cbow", "skipgram"])
    def test_noise_chunk_size_leaves_bits_unchanged(self, kernel, monkeypatch, architecture,
                                                    chunk):
        assert_noise_chunk_size_leaves_bits_unchanged(monkeypatch, architecture, chunk)


class TestEffectiveRadius:
    @pytest.mark.parametrize("architecture", ["cbow", "skipgram"])
    def test_a_window_past_the_longest_document_trains_the_same_bytes(self, each_path,
                                                                      architecture):
        tokens = synthetic_corpus(60, seed=4, vocab_size=12).tokens
        cuts = [("a", 0, 25), ("empty", 25, 25), ("b", 25, 59), ("one", 59, 60)]
        streams = [db.TokenStream(name, tokens[lo:hi]) for name, lo, hi in cuts]
        # the longest document holds 34 tokens
        cfg = small_config(dimension=6, window_radius=33, epochs=2, min_count=2, objective="neg:3")
        train = db.train_cbow if architecture == "cbow" else db.train_skipgram
        near = train(streams, cfg)
        far = train(streams, replace(cfg, window_radius=10**9))
        assert far.provenance["config"]["window_radius"] == 10**9
        assert near.vectors.tobytes() == far.vectors.tobytes()
        assert near.output_weights.tobytes() == far.output_weights.tobytes()
        assert near.provenance["epoch_losses"] == far.provenance["epoch_losses"]
        samples = list(iter_samples(db.init_state(streams, cfg, architecture), streams, 10**20))
        assert len(samples) == near.provenance["samples_per_epoch"]


# a build can be cached where no compiler is on PATH, so a test that compiles
# needs the compiler as well as the `kernel` fixture
needs_compiler = pytest.mark.skipif(kernel_module.compiler() is None,
                                    reason="no C compiler on PATH")


class TestKernelBuild:
    def test_no_compiler_trains_on_numpy_step(self, tiny_stream, tmp_path, monkeypatch):
        monkeypatch.setattr(kernel_module, "compiler", lambda: None)
        monkeypatch.setattr(kernel_module, "get", lambda: kernel_module.load(tmp_path))
        emb = db.train_cbow([tiny_stream], small_config())
        assert emb.provenance["kernel"] == trainer.training_kernel() == f"numpy:{np.__version__}"
        assert np.isfinite(emb.vectors).all()
        assert emb.provenance["epoch_losses"][-1] < emb.provenance["epoch_losses"][0]

    @needs_compiler
    def test_compile_error_returns_none(self, kernel, tmp_path, monkeypatch):
        source = tmp_path / "_kernel.c"
        source.write_text("this is not C\n", encoding="utf-8")
        monkeypatch.setattr(kernel_module, "SOURCE", source)
        assert kernel_module.load(tmp_path / "cache") is None
        assert not list((tmp_path / "cache").iterdir())  # no temporary file is left behind

    @needs_compiler
    def test_garbage_at_the_cache_path_is_rebuilt(self, kernel, tiny_stream, tmp_path,
                                                 monkeypatch):
        assert kernel_module.load(tmp_path / "first") is not None
        (library,) = (tmp_path / "first").glob("_kernel-*.so")
        garbage = tmp_path / "second" / library.name
        garbage.parent.mkdir()
        garbage.write_bytes(b"not a shared library")
        rebuilt = kernel_module.load(garbage.parent)
        assert rebuilt is not None and rebuilt.name == kernel.name
        assert garbage.read_bytes() == library.read_bytes()
        cached = db.train_cbow([tiny_stream], small_config())
        monkeypatch.setattr(kernel_module, "get", lambda: rebuilt)
        again = db.train_cbow([tiny_stream], small_config())
        assert np.array_equal(cached.vectors, again.vectors)

    @needs_compiler
    def test_unwritable_cache_builds_in_a_private_directory(self, kernel, tiny_stream,
                                                            tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        blocker = tmp_path / "a-file"
        blocker.write_bytes(b"")
        built = kernel_module.load(blocker / "cache")  # a directory cannot be made there
        assert built is not None and built.name == kernel.name
        assert not list(tmp_path.glob("driftbench-*"))  # removed once the library loaded
        cached = db.train_cbow([tiny_stream], small_config())
        monkeypatch.setattr(kernel_module, "get", lambda: built)
        again = db.train_cbow([tiny_stream], small_config())
        assert again.provenance["kernel"] == kernel.name
        assert np.array_equal(cached.vectors, again.vectors)
        assert np.array_equal(cached.output_weights, again.output_weights)

    @needs_compiler
    def test_a_new_build_removes_the_stale_ones(self, kernel, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "_sgd-0123456789abcdef.so").write_bytes(b"a build of the old source name")
        (cache / "other.so").write_bytes(b"not a kernel build")
        assert kernel_module.load(cache) is not None
        (first,) = cache.glob("_kernel-*.so")
        source = tmp_path / "_kernel.c"
        source.write_bytes(kernel_module.SOURCE.read_bytes() + b"\n/* another source */\n")
        monkeypatch.setattr(kernel_module, "SOURCE", source)
        newer = kernel_module.load(cache)
        assert newer is not None and newer.name != kernel.name
        (second,) = cache.glob("_kernel-*.so")
        assert second != first
        assert sorted(p.name for p in cache.iterdir()) == sorted([second.name, "other.so"])


# sha256 of vectors + output weights trained by the numpy step: dimension 16,
# seed 7, r=3, 2 epochs, on synthetic_corpus(3000, seed=5, vocab_size=300)
# plus tests/data/cafe_story.txt. BLAS kernels differ in their last bits
# between builds and CPUs, so these hold for the build that recorded them.
NUMPY_STEP_DIGESTS = {
    ("cbow", "softmax", 1): "558f528772681e191e6ee8f8058c2f1efbe2f96b4f26f64d8dc87eda7b98065e",
    ("cbow", "softmax", 3): "a72def6bf298eb2f78e5fa122b50495bc546b46ff959006f6a36614c59eb348a",
    ("cbow", "neg:5", 1): "1590e8903224108923671489990734360a52dd43f66ab1aa71ca364947cae633",
    ("cbow", "neg:5", 3): "6d7ff80cb499d887c557204798b06b9c910597f282d33f90e726cde20d1c5669",
    ("skipgram", "softmax", 1): "21ab5df7956b594e20803176c61de2c5edd5be83e6cd8732d451f6edaca6b6e2",
    ("skipgram", "softmax", 3): "6b533d032be9599aaeb9faf19f1017e8150af9aaa146a43cee7c077abd7008a4",
    ("skipgram", "neg:5", 1): "fa0eba9260e2321ad741ba627ca92c7ad4447a603fc99f043137c753049bcc47",
    ("skipgram", "neg:5", 3): "9d8ebf75250a6d8270fe473eb586c78c80e90e064f0bd4f6fc8f148f9c42b347",
}


@pytest.mark.skipif(
    (np.__version__, platform.machine()) != ("2.4.6", "x86_64"),
    reason="the digests were recorded with numpy 2.4.6 (OpenBLAS) on x86-64",
)
@pytest.mark.parametrize("case", list(NUMPY_STEP_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_numpy_step_bits_unchanged(case, numpy_step, cafe_text):
    architecture, objective, min_count = case
    streams = [synthetic_corpus(3000, seed=5, vocab_size=300), db.tokenize(cafe_text)]
    cfg = db.TrainingConfig(seed=7, dimension=16, window_radius=3, epochs=2,
                            min_count=min_count, objective=objective)
    train = db.train_cbow if architecture == "cbow" else db.train_skipgram
    emb = train(streams, cfg)
    digest = hashlib.sha256(emb.vectors.tobytes() + emb.output_weights.tobytes()).hexdigest()
    assert digest == NUMPY_STEP_DIGESTS[case]


# sha256 of vectors + output weights trained by the compiled kernel: dimension
# 19 (odd, so every vectorised loop also has a scalar tail), seed 7, r=3, 2
# epochs, min_count 1, on the corpora of NUMPY_STEP_DIGESTS. The kernel sums
# sequentially, so a build that reordered any sum would change them. They
# hold where they were recorded: x86-64, glibc 2.36 (whose exp, log and log1p
# the step calls) and numpy 2.4.6 (which draws the initial weights and noise).
KERNEL_DIGESTS = {
    ("cbow", "softmax"): "7528d4103e4aee167e0551a4f9c90d40ad28e2d0e70717fbf24072cb2290876e",
    ("cbow", "neg:5"): "72f291a36585517b611c66657f31177a21c2cdc33ef6b84394d880d08194bf1e",
    ("cbow", "neg:1"): "7cf7cc18580219f93671d5a7fbec82c0f45fb6973384602ce7a2ec4a0b2f071d",
    ("skipgram", "softmax"): "e4cfd8fd789e9f5480b56cfb4f9079e4f8903dcd7edaa3b2f7cf65d8f1747234",
    ("skipgram", "neg:5"): "bbf46e9c569100b6558208a9aa3b0d02026dda736dc1fa4d61107353cb0324ce",
    ("skipgram", "neg:1"): "2c9c58772a4e5300df255fa710474ab664269b432e562eb7890a8a61585282d3",
}


@pytest.mark.skipif(
    (np.__version__, platform.machine(), platform.libc_ver())
    != ("2.4.6", "x86_64", ("glibc", "2.36")),
    reason="the digests were recorded with numpy 2.4.6 and glibc 2.36 on x86-64",
)
@pytest.mark.parametrize("case", list(KERNEL_DIGESTS), ids="-".join)
def test_kernel_bits_unchanged(case, kernel, cafe_text):
    architecture, objective = case
    streams = [synthetic_corpus(3000, seed=5, vocab_size=300), db.tokenize(cafe_text)]
    cfg = db.TrainingConfig(seed=7, dimension=19, window_radius=3, epochs=2, min_count=1,
                            objective=objective)
    train = db.train_cbow if architecture == "cbow" else db.train_skipgram
    emb = train(streams, cfg)
    assert emb.provenance["kernel"] == kernel.name
    digest = hashlib.sha256(emb.vectors.tobytes() + emb.output_weights.tobytes()).hexdigest()
    assert digest == KERNEL_DIGESTS[case]


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

    @pytest.mark.parametrize(
        "field, offset, value",
        [
            ("directory", 8, 0x01),  # the general-purpose flags: encrypted
            ("directory", 8, 0x20),  # the general-purpose flags: compressed patched data
            ("directory", 10, 99),  # an unknown compression method
            ("end", 19, 0xFF),  # the central directory's offset points before the file
        ],
        ids=["encrypted", "patched-data", "unknown-compression", "directory-offset"],
    )
    def test_corrupted_checkpoint_raises_format_error(self, tiny_stream, tmp_path, field,
                                                      offset, value):
        path = tmp_path / "model.npz"
        db.save_checkpoint(db.train_cbow([tiny_stream], small_config(epochs=1)), path)
        data = bytearray(path.read_bytes())
        signature = {"directory": b"PK\x01\x02", "end": b"PK\x05\x06"}[field]
        data[data.find(signature) + offset] = value
        path.write_bytes(bytes(data))
        with pytest.raises(db.errors.FormatError, match="malformed"):
            db.load_checkpoint(path)

    def test_missing_checkpoint_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            db.load_checkpoint(tmp_path / "absent.npz")

    def test_malformed_text_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 4\nword 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(db.errors.FormatError):
            db.load_embedding_text(path)
