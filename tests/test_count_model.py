"""Windowed counting against the all-pairs oracle, augmentation, PPMI."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftbench as db
from driftbench import kernel as kernel_module
from driftbench.count_model import load_cooc, save_cooc

from conftest import brute_force_counts, matrix_equals_oracle, random_streams, to_scipy


class TestRoseOracle:
    def test_full_matrix_cells(self, rose_matrix):
        expect = {
            ("rose", "rose"): 12,
            ("rose", "is"): 12,
            ("is", "rose"): 12,
            ("is", "is"): 6,
            ("a", "a"): 6,
            ("rose", "a"): 12,
            ("a", "rose"): 12,
            ("is", "a"): 9,
            ("a", "is"): 9,
        }
        for (t, c), v in expect.items():
            assert rose_matrix.count(t, c) == v

    def test_matches_brute_force(self, rose_stream, rose_matrix):
        oracle = brute_force_counts([rose_stream], rose_matrix.vocab, 10)
        assert matrix_equals_oracle(rose_matrix, oracle)

    def test_single_occurrence_sees_same_type_three_times(self, rose_stream):
        # one target occurrence of "rose" has three other "rose" tokens in window
        positions = [i for i, t in enumerate(rose_stream.tokens) if t == "rose"]
        first = positions[0]
        in_window = [
            p for p in positions if p != first and abs(p - first) <= 10
        ]
        assert len(in_window) == 3

    def test_invariants(self, rose_matrix):
        rose_matrix.validate()


class TestWindowing:
    def test_radius_one_is_adjacent_bigrams(self):
        stream = db.tokenize("a b a c a b")
        vocab = db.build_vocabulary([stream])
        m = db.count_cooccurrences([stream], vocab, db.WindowConfig(radius=1))
        # ordered adjacent pairs (t,c)+(c,t): a-b at (0,1),(4,5) + b-a at (1,2)
        assert m.count("a", "b") == 3
        assert m.count("b", "a") == 3
        assert m.count("a", "c") == 2

    def test_windows_do_not_cross_documents(self):
        s1, s2 = db.tokenize("a b", doc_id="1"), db.tokenize("c d", doc_id="2")
        vocab = db.build_vocabulary([s1, s2])
        m = db.count_cooccurrences([s1, s2], vocab, db.WindowConfig(radius=10))
        assert m.count("b", "c") == 0
        assert m.count("a", "b") == 1

    def test_oov_tokens_occupy_window_positions(self):
        # "x" is out of vocabulary but keeps "a" and "b" two positions apart
        stream = db.TokenStream("d", ("a", "x", "b"))
        vocab = db.Vocabulary(["a", "b"], [1, 1])
        near = db.count_cooccurrences([stream], vocab, db.WindowConfig(radius=1))
        far = db.count_cooccurrences([stream], vocab, db.WindowConfig(radius=2))
        assert near.count("a", "b") == 0
        assert far.count("a", "b") == 1

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            db.WindowConfig(radius=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 10),
        st.lists(st.sampled_from(["empty", "short", "long"]), min_size=1, max_size=6),
        st.integers(1, 3),
    )
    def test_matches_brute_force_on_random_corpora(self, seed, radius, kinds, min_count):
        # empty documents, documents shorter than the radius, and (min_count
        # above 1) out-of-vocabulary tokens holding window positions
        rng = np.random.default_rng(seed)
        longest = {"empty": 0, "short": radius - 1, "long": 120}
        streams = [
            random_streams(rng, 1, max_tokens=longest[kind], vocab_size=12)[0] for kind in kinds
        ]
        try:
            vocab = db.build_vocabulary(streams, min_count=min_count)
        except db.EmptyVocabularyError:
            return
        m = db.count_cooccurrences([s for s in streams], vocab, db.WindowConfig(radius=radius))
        oracle = brute_force_counts(streams, vocab, radius)
        assert matrix_equals_oracle(m, oracle)
        m.validate()

    def test_symmetry_on_random_corpus(self):
        rng = np.random.default_rng(7)
        streams = random_streams(rng, 5)
        vocab = db.build_vocabulary(streams)
        m = db.count_cooccurrences(streams, vocab, db.WindowConfig(radius=4))
        assert (to_scipy(m.counts) != to_scipy(m.counts).T).nnz == 0


class TestEffectiveRadius:
    @pytest.mark.parametrize("wide", [10**9, 10**20])
    def test_a_window_past_the_longest_document_counts_the_same(self, each_path, wide):
        rng = np.random.default_rng(5)
        streams = random_streams(rng, 4, max_tokens=60, vocab_size=9)
        longest = max(map(len, streams))
        vocab = db.build_vocabulary(streams)
        near = db.count_cooccurrences(streams, vocab, db.WindowConfig(longest - 1))
        far = db.count_cooccurrences(streams, vocab, db.WindowConfig(wide))
        assert far.window.radius == wide  # kept as given, for the COOC header
        assert near.counts.nnz and (to_scipy(near.counts) != to_scipy(far.counts)).nnz == 0
        assert matrix_equals_oracle(far, brute_force_counts(streams, vocab, longest - 1))
        augmented = db.augment_counts(far, random_streams(rng, 2, max_tokens=30))
        assert augmented.window.radius == wide


# The memory probes read the peak RSS of their own address space (VmHWM), in
# KiB: ru_maxrss would start from the peak of the process that started them,
# which exec passes on, so a parent larger than the probe hides every rise.
PEAK = """
def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
"""

# Counts a uniform corpus over 200 words, whose 40,000 cells all fill, and
# prints the rise of the process's own peak RSS in KiB, nnz and the length
# of the window id array. Shape "one" is one document at radius 20; shape
# "many" is a 300-token document and then documents of 0 to 40 tokens, at
# radius 2,000,000,000, which walks 299 positions.
MEMORY_PROBE = PEAK + """
import sys
import numpy as np
import driftbench as db
from driftbench import kernel
from driftbench.corpus import _window_ids
path, shape, tokens = sys.argv[1], sys.argv[2], int(sys.argv[3])
if path == "numpy":
    kernel.get = lambda: None
elif kernel.get() is None:
    sys.exit("the C kernel does not load")
words = [f"w{i}" for i in range(200)]
draws = np.random.default_rng(0).integers(0, 200, tokens, dtype=np.uint8)
every = tuple(map(words.__getitem__, draws.tolist()))
if shape == "one":
    streams, radius = [db.TokenStream("d", every)], 20
else:
    cuts, length = [0, 300], 0
    while cuts[-1] < tokens:
        cuts.append(min(cuts[-1] + length, tokens))
        length = (length + 1) % 41
    streams = [db.TokenStream(f"d{i}", every[lo:hi]) for i, (lo, hi) in enumerate(zip(cuts, cuts[1:]))]
    radius = 2_000_000_000
del draws, every
vocab = db.build_vocabulary(streams)
window = db.WindowConfig(radius)
db.count_cooccurrences([db.TokenStream("warm-up", streams[0].tokens[:2000])], vocab, window)
before = peak()
nnz = db.count_cooccurrences(streams, vocab, window).counts.nnz
print(peak() - before, nnz, len(_window_ids(streams, vocab, radius)[0]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
class TestBoundedMemory:
    TOKENS = 100_000

    def probe(self, path: str, shape: str, tokens: int) -> tuple[int, int]:
        """The peak-RSS rise in bytes and the window id array's length."""
        src = str(Path(db.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", MEMORY_PROBE, path, shape, str(tokens)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=300, check=True)
        rise, nnz, entries = map(int, done.stdout.split())
        assert nnz == 200 * 200
        return rise * 1024, entries

    @pytest.mark.parametrize("shape", ["one", "many"])
    @pytest.mark.parametrize("path", ["kernel", "numpy"])
    def test_peak_memory_grows_with_tokens_not_tokens_times_radius(self, path, shape):
        # 4N tokens may take more than N only by an int64 id per extra entry
        # of the window ids (a token or a document boundary) and an int64
        # position per extra token; n x radius keys would take 160 B per
        # token at radius 20, and radius pads per document 2.4 kB per
        # document at radius 299
        if path == "kernel" and kernel_module.get() is None:
            pytest.skip("the C kernel does not build here")
        rise, entries = self.probe(path, shape, self.TOKENS)
        rise_4n, entries_4n = self.probe(path, shape, 4 * self.TOKENS)
        assert rise_4n - rise <= (entries_4n - entries) * 8 + 3 * self.TOKENS * 8


# Reads, tokenizes and counts a text file as `build-count` does, and prints
# the rise of the process's own peak RSS in KiB, nnz and the token count.
TEXT_MEMORY_PROBE = PEAK + """
import sys
import driftbench as db
from driftbench import kernel
from driftbench.cli import _corpus_streams
text, warm_up = sys.argv[1], sys.argv[2]
if kernel.get() is None:
    sys.exit("the C kernel does not load")
window = db.WindowConfig(20)
streams = _corpus_streams(warm_up)
db.count_cooccurrences(streams, db.build_vocabulary(streams), window)
del streams
before = peak()
streams = _corpus_streams(text)
nnz = db.count_cooccurrences(streams, db.build_vocabulary(streams), window).counts.nnz
print(peak() - before, nnz, len(streams[0]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc/self/status")
class TestBoundedTextMemory:
    TOKENS = 100_000

    @staticmethod
    def write_text(path: Path, tokens: int) -> Path:
        """tokens of 200 words, capitalised or not, 20 to a line ending in a full stop"""
        words = [f"{'W' if i % 2 else 'w'}{i:03d}" for i in range(200)]
        draws = np.random.default_rng(0).integers(0, 200, tokens).tolist()
        path.write_text("".join(" ".join(map(words.__getitem__, draws[i:i + 20])) + ".\n"
                                for i in range(0, tokens, 20)), encoding="utf-8")
        return path

    def probe(self, tmp_path: Path, tokens: int) -> int:
        """The peak-RSS rise in bytes of reading, tokenizing and counting the text."""
        text = self.write_text(tmp_path / f"text_{tokens}.txt", tokens)
        warm_up = self.write_text(tmp_path / "warm_up.txt", 2000)
        src = str(Path(db.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", TEXT_MEMORY_PROBE, str(text), str(warm_up)],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=300, check=True)
        rise, nnz, length = map(int, done.stdout.split())
        assert (nnz, length) == (200 * 200, tokens)
        return rise * 1024

    def test_text_is_held_as_ids(self, kernel, tmp_path):
        # Each extra token of text may raise the peak by 40 B. Held as an
        # int32 id per token it took 20 B; as a tuple of str per token 92 B,
        # and the numpy fallback, which still builds that tuple, takes 90 B
        # (2-vCPU VM, Python 3.11, 5 bytes of text per token).
        rise = self.probe(tmp_path, self.TOKENS)
        rise_4n = self.probe(tmp_path, 4 * self.TOKENS)
        assert rise_4n - rise <= 3 * self.TOKENS * 40


class TestAugmentation:
    def test_empty_augmentation_is_identity(self, rose_matrix):
        out = db.augment_counts(rose_matrix, [])
        assert out.same_counts(rose_matrix)

    def test_equals_fresh_count_over_union(self):
        rng = np.random.default_rng(11)
        a = random_streams(rng, 2, max_tokens=80, vocab_size=10)
        b = random_streams(rng, 2, max_tokens=80, vocab_size=14)
        vocab_a = db.build_vocabulary(a)
        window = db.WindowConfig(radius=3)
        augmented = db.augment_counts(db.count_cooccurrences(a, vocab_a, window), b)
        fresh = db.count_cooccurrences(a + b, augmented.vocab, window)
        assert augmented.same_counts(fresh)

    def test_new_types_appended_old_indices_stable(self, rose_stream, rose_matrix):
        extra = db.tokenize("thorn and rose and thorn", doc_id="x")
        out = db.augment_counts(rose_matrix, [extra])
        for token in rose_matrix.vocab.tokens:
            assert out.vocab.index_of(token) == rose_matrix.vocab.index_of(token)
        assert set(out.vocab.tokens) == {"rose", "a", "is", "thorn", "and"}
        assert out.vocab.frequency("rose") == 5

    def test_additivity_many_random_pairs(self):
        rng = np.random.default_rng(23)
        window = db.WindowConfig(radius=5)
        for _ in range(20):
            a = random_streams(rng, 1, max_tokens=100, vocab_size=8)
            b = random_streams(rng, 1, max_tokens=100, vocab_size=8)
            if not any(s.tokens for s in a):
                continue
            base = db.count_cooccurrences(a, db.build_vocabulary(a), window)
            augmented = db.augment_counts(base, b)
            fresh = db.count_cooccurrences(a + b, augmented.vocab, window)
            assert augmented.same_counts(fresh)


class TestMatrixArrays:
    def test_a_scipy_input_is_read_and_never_modified(self):
        from scipy import sparse

        # unsorted columns and an explicit zero, which the matrix must not keep
        given = sparse.csr_matrix(
            (np.array([1, 2, 0, 2]), np.array([1, 0, 1, 0]), np.array([0, 2, 4])), shape=(2, 2)
        )
        before = [a.copy() for a in (given.data, given.indices, given.indptr)]
        m = db.CooccurrenceMatrix(db.Vocabulary(["a", "b"], [1, 1]), given, db.WindowConfig(1))
        assert [a.tolist() for a in (given.data, given.indices, given.indptr)] == [
            a.tolist() for a in before
        ]
        assert (m.counts.indptr.tolist(), m.counts.indices.tolist(), m.counts.data.tolist()) == (
            [0, 2, 3], [0, 1, 0], [2, 1, 2]
        )
        assert m.total == 5

    def test_arrays_are_read_only(self, rose_matrix):
        space = db.ppmi_transform(rose_matrix)
        for matrix in (rose_matrix.counts, space.vectors):
            for array in (matrix.data, matrix.indices, matrix.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0] + 1
        assert rose_matrix.total == int(to_scipy(rose_matrix.counts).sum())


class TestPpmi:
    def test_two_word_corpus_hand_value(self):
        stream = db.tokenize("x y")
        vocab = db.build_vocabulary([stream])
        m = db.count_cooccurrences([stream], vocab, db.WindowConfig(radius=1))
        # count(x,y)=1, total=2, margins 1 and 1: pmi = ln(1*2/(1*1)) = ln 2
        space = db.ppmi_transform(m)
        xy = space.vector("x").components[vocab.index_of("y")]
        assert xy == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_matrix_gives_all_zeros(self):
        # every pair equally likely -> no association anywhere
        vocab = db.Vocabulary(["a", "b"], [4, 4])
        from scipy import sparse

        counts = sparse.csr_matrix(np.array([[2, 2], [2, 2]], dtype=np.int64))
        m = db.CooccurrenceMatrix(vocab, counts, db.WindowConfig(radius=1))
        space = db.ppmi_transform(m)
        assert space.vectors.nnz == 0

    def test_zero_cells_stay_absent(self, rose_matrix):
        space = db.ppmi_transform(rose_matrix)
        dense = np.asarray(to_scipy(space.vectors).todense())
        raw = np.asarray(to_scipy(rose_matrix.counts).todense())
        assert np.all(dense[raw == 0] == 0)
        assert np.all(dense >= 0)

    def test_empty_matrix_rejected(self):
        vocab = db.Vocabulary(["a"], [1])
        from scipy import sparse

        m = db.CooccurrenceMatrix(
            vocab, sparse.csr_matrix((1, 1), dtype=np.int64), db.WindowConfig()
        )
        with pytest.raises(db.DataError):
            db.ppmi_transform(m)

    def test_non_negative_on_random_corpus(self):
        rng = np.random.default_rng(3)
        streams = random_streams(rng, 4, max_tokens=150, vocab_size=10)
        vocab = db.build_vocabulary(streams)
        m = db.count_cooccurrences(streams, vocab, db.WindowConfig(radius=5))
        space = db.ppmi_transform(m)
        assert space.vectors.data.min() > 0  # clamped cells are dropped, not stored


class TestRowVector:
    def test_rose_is_row(self, rose_matrix):
        vec = db.row_vector(rose_matrix, "is")
        vocab = rose_matrix.vocab
        assert vec.components[vocab.index_of("is")] == 6
        assert vec.components[vocab.index_of("rose")] == 12
        assert vec.components[vocab.index_of("a")] == 9

    def test_unknown_word_named_in_error(self, rose_matrix):
        with pytest.raises(db.UnknownWordError, match="tulip"):
            db.row_vector(rose_matrix, "tulip")

    def test_table1_style_rows(self, table1_space):
        vec = db.row_vector(table1_space, "dog")
        assert list(vec.components) == [50, 77, 3]


class TestCoocFormat:
    def test_round_trip(self, rose_matrix, tmp_path):
        path = tmp_path / "rose.cooc"
        save_cooc(rose_matrix, path)
        loaded = load_cooc(path)
        assert loaded.same_counts(rose_matrix)
        assert loaded.window == rose_matrix.window

    def test_rose_file_has_six_triples(self, rose_matrix, tmp_path):
        path = tmp_path / "rose.cooc"
        save_cooc(rose_matrix, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "COOC v1 3 10"
        triples = lines[1 + 3 :]
        assert len(triples) == 6  # rose-rose, rose-a, rose-is, a-a, a-is, is-is

    def test_save_is_deterministic(self, rose_matrix, tmp_path):
        p1, p2 = tmp_path / "a.cooc", tmp_path / "b.cooc"
        save_cooc(rose_matrix, p1)
        save_cooc(rose_matrix, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.cooc"
        path.write_text("not a matrix\n", encoding="utf-8")
        with pytest.raises(db.errors.FormatError):
            load_cooc(path)

    def test_lower_triangle_rejected(self, tmp_path):
        path = tmp_path / "bad.cooc"
        path.write_text(
            "COOC v1 2 1\n0\ta\t1\n1\tb\t1\n1\t0\t2\n", encoding="utf-8"
        )
        with pytest.raises(db.errors.FormatError):
            load_cooc(path)
