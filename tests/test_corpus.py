"""Tokenization, vocabulary construction, and corpus statistics."""

import pickle
import string
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import driftbench as db
from driftbench import corpus, kernel as kernel_module
from driftbench.corpus import _TOKEN_RE, _window_ids, decode_utf8

from conftest import DATA_DIR, ROSE_TEXT

# every class of character the tokenizer treats apart: letters of both cases,
# digits, the joiners (the typographic apostrophe is not ASCII), underscore,
# all ASCII whitespace (str.split() also splits at \x1c-\x1f), punctuation,
# NUL, DEL, and non-ASCII letters, digits and spaces
ASCII_ALPHABET = (
    string.ascii_letters + string.digits + "'-_" + string.punctuation
    + " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x00\x7f"
)
ALPHABET = ASCII_ALPHABET + "’éÉßİı١\u00a0\u2028\u3000ﬁ"
texts = (
    st.text(alphabet=st.sampled_from(ASCII_ALPHABET), max_size=120)
    | st.text(alphabet=st.sampled_from("aB9'-_ \x1c"), max_size=40)
    | st.text(alphabet=st.sampled_from(ALPHABET), max_size=120)
)


def regex_tokens(text: str) -> tuple[str, ...]:
    """The definition of the tokens, which the ASCII path must reproduce."""
    return tuple(_TOKEN_RE.findall(text.lower()))


def corpus_text(name: str) -> str:
    """`cafe_story.txt`; a synthetic speaker corpus laid out as the benchmark
    writes it; or prose-like text from the same seed, with capitals, joiners
    and punctuation."""
    if name == "cafe_story":
        return (DATA_DIR / "cafe_story.txt").read_text(encoding="utf-8")
    stream = db.synthetic_corpus(5000, seed=11, vocab_size=300)
    if name == "speaker":
        return "\n".join(" ".join(stream.tokens[i:i + 20]) for i in range(0, 5000, 20)) + "\n"
    rng = np.random.default_rng(11)
    glue = ["", " ", " ", " ", "-", "'", "--", " '", "' ", ", ", ". ", "_", "\t", "\r\n"]
    words = [w.capitalize() if rng.random() < 0.2 else w for w in stream.tokens]
    return "".join(w + glue[i] for w, i in zip(words, rng.integers(0, len(glue), 5000)))


class TestTokenize:
    def test_rose_sentence(self):
        assert db.tokenize(ROSE_TEXT).tokens == (
            "rose", "is", "a", "rose", "is", "a", "rose", "is", "a", "rose",
        )

    def test_empty_input(self):
        assert db.tokenize("").tokens == ()

    def test_internal_hyphen_kept_punctuation_dropped(self):
        assert db.tokenize("common-sense, Stoics!").tokens == ("common-sense", "stoics")

    def test_internal_apostrophe(self):
        assert db.tokenize("Don't! they're 'quoted'").tokens == (
            "don't", "they're", "quoted",
        )

    def test_leading_trailing_joiners_are_separators(self):
        assert db.tokenize("-dash- 'tis rock- -and-roll-").tokens == (
            "dash", "tis", "rock", "and-roll",
        )

    def test_digits_kept(self):
        assert db.tokenize("Chapter 42, page 7.").tokens == ("chapter", "42", "page", "7")

    def test_underscore_is_a_separator(self):
        assert db.tokenize("_emphasis_ mid_word").tokens == ("emphasis", "mid", "word")

    def test_crlf_and_whitespace(self):
        assert db.tokenize("one\r\ntwo\tthree  four").tokens == (
            "one", "two", "three", "four",
        )

    @given(
        st.text(
            alphabet=st.characters(
                codec="utf-8",
                categories=("Lu", "Ll", "Nd", "Po", "Zs", "Pd", "Cc"),
            ),
            max_size=200,
        )
    )
    @settings(max_examples=200)
    def test_idempotent_on_own_output(self, text):
        once = db.tokenize(text).tokens
        again = db.tokenize(" ".join(once)).tokens
        assert once == again

    @given(texts)
    @settings(max_examples=500)
    def test_equals_the_regex(self, text):
        assert db.tokenize(text).tokens == regex_tokens(text)

    @pytest.mark.parametrize("name", ["cafe_story", "speaker", "prose"])
    def test_equals_the_regex_on_corpora(self, name):
        text = corpus_text(name)
        assert text.isascii()
        tokens = db.tokenize(text).tokens
        assert len(tokens) > 1000
        assert tokens == regex_tokens(text)

    def test_text_takes_the_regex_path_without_the_kernel(self, monkeypatch, numpy_step):
        """Without the kernel, the whole lowercased text reaches the regex once."""
        seen = []

        class Recorder:
            def findall(self, text):
                seen.append(text)
                return _TOKEN_RE.findall(text)

        monkeypatch.setattr(corpus, "_TOKEN_RE", Recorder())
        assert db.tokenize("Don't stop--the Well-Known 'x' ends.").tokens == (
            "don't", "stop", "the", "well-known", "x", "ends",
        )
        assert seen == ["don't stop--the well-known 'x' ends."]
        seen.clear()
        assert db.tokenize("Café’s menu").tokens == ("café’s", "menu")
        assert seen == ["café’s menu"]

    def test_ascii_text_takes_the_kernel_path(self, monkeypatch, kernel):
        """With the kernel, ASCII text never reaches the regex."""
        seen = []

        class Recorder:
            def findall(self, text):
                seen.append(text)
                return _TOKEN_RE.findall(text)

        monkeypatch.setattr(corpus, "_TOKEN_RE", Recorder())
        assert db.tokenize("Don't stop--the Well-Known 'x' ends.").tokens == (
            "don't", "stop", "the", "well-known", "x", "ends",
        )
        assert db.tokenize("Café’s menu").tokens == ("café’s", "menu")
        assert seen == ["café’s menu"]

    @given(st.text(max_size=100))
    def test_tokens_lowercase_nonempty_no_whitespace(self, text):
        for tok in db.tokenize(text).tokens:
            assert tok
            assert tok == tok.lower()
            assert not any(ch.isspace() for ch in tok)


def many_types(n: int, seed: int) -> str:
    """n distinct tokens, some capitalised, each twice, in a shuffled order."""
    words = [f"{'T' if i % 3 else 't'}{i:x}" for i in range(n)] * 2
    np.random.default_rng(seed).shuffle(words)
    return " ".join(words)


# ASCII documents for the encoder: joiners at the edges of runs, capitals,
# digits, CR, TAB, NUL and DEL; enough distinct types to grow its table
# several times (it starts at 1,024 slots and stays at most half full); and
# one token longer than 64 KB
documents = (
    st.text(alphabet=st.sampled_from(ASCII_ALPHABET), max_size=200)
    | st.text(alphabet=st.sampled_from("aZ9'- \r\t\x00\x7f"), max_size=80)
    | st.lists(st.sampled_from(["'quoted'", "rock-", "--", "a'-b", "Don't", "X-1'2", "'", "-",
                                "\r\n", "\t", "\x00", "\x7f", "A", "9"]), max_size=30).map(" ".join)
    | st.builds(many_types, st.integers(1, 5000), st.integers(0, 2**32 - 1))
    | st.tuples(st.sampled_from(["", "a'", "-"]), st.sampled_from(["Ab9-" * 17_000, "z" * 70_000]),
                st.sampled_from(["", "'b", " c"])).map("".join)
)


def string_chain(texts: list[str], min_count: int, radius: int):
    """Tokens to window ids one string at a time, the reference for the ids
    path: regex tokens, a Counter vocabulary sorted by (-count, token), dict
    lookups for the window ids and a set of the types for the statistics."""
    docs = [regex_tokens(text) for text in texts]
    counts = Counter(chain.from_iterable(docs))
    kept = sorted(((t, c) for t, c in counts.items() if c >= min_count), key=lambda tc: (-tc[1], tc[0]))
    index = {t: i for i, (t, _) in enumerate(kept)}
    ids = [-2]
    for doc in docs:
        ids += [index.get(t, -1) for t in doc] + [-2]
    tokens = sum(map(len, docs))
    stats = (tokens, len(counts), len(counts) / tokens if tokens else 0.0)
    return kept, ids, max(1, min(radius, max(map(len, docs), default=0) - 1)), stats


class TestEncode:
    @given(st.lists(documents, max_size=4), st.integers(1, 3), st.integers(1, 12))
    @example(texts=[many_types(5000, 0), "", "x'Y-" * 17_000], min_count=1, radius=3)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    def test_ids_path_equals_the_string_chain(self, kernel, texts, min_count, radius):
        for text in texts:
            types, ids = kernel.encode(text.encode())
            tokens = regex_tokens(text)
            assert types == list(dict.fromkeys(tokens))
            assert ids.dtype == np.int32 and not ids.flags.writeable
            assert list(map(types.__getitem__, ids.tolist())) == list(tokens)
        kept, window_ids, clipped, stats = string_chain(texts, min_count, radius)
        for path in ("kernel", "numpy"):
            with pytest.MonkeyPatch.context() as mp:
                if path == "numpy":
                    mp.setattr(kernel_module, "get", lambda: None)
                streams = [db.tokenize(text, doc_id=str(i)) for i, text in enumerate(texts)]
            got = db.corpus_stats(streams)
            assert (got.token_count, got.type_count, got.type_token_ratio) == stats
            if not kept:
                with pytest.raises(db.EmptyVocabularyError):
                    db.build_vocabulary(streams, min_count=min_count)
                continue
            vocab = db.build_vocabulary(streams, min_count=min_count)
            assert list(zip(vocab.tokens, vocab.frequencies)) == kept
            ids, r = _window_ids(streams, vocab, radius)
            assert (ids.tolist(), r) == (window_ids, clipped)

    def test_refuses_text_that_is_not_ascii(self, kernel):
        with pytest.raises(ValueError):
            kernel.encode("café".encode())


class TestTokenStream:
    def test_ids_and_strings_make_equal_streams(self, each_path, cafe_text):
        stream = db.tokenize(cafe_text, doc_id="cafe")
        assert stream == db.TokenStream("cafe", regex_tokens(cafe_text))
        assert stream != db.TokenStream("other", regex_tokens(cafe_text))
        assert stream != db.TokenStream("cafe", regex_tokens(cafe_text)[1:])
        assert hash(stream) == hash(db.TokenStream("cafe", regex_tokens(cafe_text)))

    def test_length_reads_the_ids(self, kernel, cafe_text):
        stream = db.tokenize(cafe_text)
        assert len(stream) == len(regex_tokens(cafe_text))
        assert stream._tokens is None  # no string was built
        assert stream.tokens is stream.tokens

    def test_read_only(self, rose_stream):
        with pytest.raises(ValueError):
            rose_stream.ids[0] = 1
        with pytest.raises(AttributeError):
            rose_stream.doc_id = "other"

    def test_pickles(self, rose_stream):
        assert pickle.loads(pickle.dumps(rose_stream)) == rose_stream

    def test_synthetic_stream_holds_the_chain_ids(self):
        stream = db.synthetic_corpus(200, seed=3, vocab_size=50)
        assert len(stream.types) == 50 and len(stream) == 200
        assert stream.tokens == tuple(f"w{i:03d}" for i in stream.ids.tolist())


class TestEncoding:
    def test_bad_utf8_reports_byte_offset(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"good text \xff\xfe more")
        with pytest.raises(db.EncodingError) as err:
            db.read_corpus(bad)
        assert err.value.byte_offset == 10

    def test_decode_helper_roundtrip(self):
        assert decode_utf8("naïve café".encode("utf-8")) == "naïve café"


class TestVocabulary:
    def test_rose_counts_min1(self, rose_stream):
        vocab = db.build_vocabulary([rose_stream], min_count=1)
        assert {t: f for t, _, f in vocab.items()} == {"rose": 4, "is": 3, "a": 3}

    def test_rose_min_count_4(self, rose_stream):
        vocab = db.build_vocabulary([rose_stream], min_count=4)
        assert vocab.tokens == ["rose"]
        assert vocab.frequency("rose") == 4

    def test_indices_contiguous_most_frequent_first(self, rose_stream):
        vocab = db.build_vocabulary([rose_stream])
        # ties (a, is both 3) break lexicographically
        assert vocab.tokens == ["rose", "a", "is"]
        assert [vocab.index_of(t) for t in vocab.tokens] == [0, 1, 2]

    def test_max_size_keeps_most_frequent(self, rose_stream):
        vocab = db.build_vocabulary([rose_stream], max_size=2)
        assert vocab.tokens == ["rose", "a"]

    def test_max_size_zero_is_an_error(self, rose_stream):
        with pytest.raises(ValueError):
            db.build_vocabulary([rose_stream], max_size=0)

    def test_nothing_survives_filtering(self, rose_stream):
        with pytest.raises(db.EmptyVocabularyError):
            db.build_vocabulary([rose_stream], min_count=99)

    def test_empty_corpus_is_an_error(self):
        with pytest.raises(db.EmptyVocabularyError):
            db.build_vocabulary([db.TokenStream("e", ())])

    def test_unknown_word_lookup_names_the_word(self, rose_stream):
        vocab = db.build_vocabulary([rose_stream])
        with pytest.raises(db.UnknownWordError, match="thorn"):
            vocab.index_of("thorn")

    @given(st.lists(st.sampled_from("abcdef"), max_size=60))
    def test_frequencies_sum_to_token_count(self, letters):
        stream = db.TokenStream("doc", tuple(letters))
        if not letters:
            with pytest.raises(db.EmptyVocabularyError):
                db.build_vocabulary([stream])
            return
        vocab = db.build_vocabulary([stream], min_count=1)
        assert sum(vocab.frequencies) == len(letters)

    def test_extension_appends_without_moving_indices(self, rose_stream):
        vocab = db.build_vocabulary([rose_stream])
        extended = vocab.extended({"thorn": 2, "a": 1, "bud": 2, "stem": 5})
        assert extended.tokens[:3] == vocab.tokens
        assert extended.tokens[3:] == ["stem", "bud", "thorn"]
        assert extended.frequency("a") == 4


class TestStopwords:
    def test_direct_filter(self):
        stream = db.TokenStream("d", ("rose", "is", "a", "rose"))
        out = db.remove_stopwords(stream, {"is", "a"})
        assert out.tokens == ("rose", "rose")

    def test_empty_stoplist_identity(self, rose_stream):
        assert db.remove_stopwords(rose_stream, frozenset()) == rose_stream

    def test_the_dog_barks(self):
        stream = db.TokenStream("d", ("the", "dog", "barks"))
        assert db.remove_stopwords(stream, {"the"}).tokens == ("dog", "barks")

    def test_removal_happens_before_windowing(self):
        # with "b" stoplisted, "a" and "c" become adjacent and co-occur at radius 1
        stream = db.tokenize("a b c")
        filtered = db.remove_stopwords(stream, {"b"})
        vocab = db.build_vocabulary([filtered])
        m = db.count_cooccurrences([filtered], vocab, db.WindowConfig(radius=1))
        assert m.count("a", "c") == 1

    def test_stoplist_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("the\nand\n\nof\n", encoding="utf-8")
        assert db.load_stoplist(path) == {"the", "and", "of"}

    def test_stoplist_lines_are_tokenized(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("Rose\n  IS \n\n'Tis\r\nDON'T\n", encoding="utf-8")
        assert db.load_stoplist(path) == {"rose", "is", "tis", "don't"}
        stream = db.remove_stopwords(db.tokenize("Rose is a rose"), db.load_stoplist(path))
        assert stream.tokens == ("a",)

    @pytest.mark.parametrize("line", ["two words", "--", "rock- roll", "...", "a_b"])
    def test_stoplist_line_of_not_one_token_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "stop.txt"
        path.write_text(f"the\n\n{line}\nand\n", encoding="utf-8")
        with pytest.raises(db.DataError, match=rf"stop\.txt: line 3: "):
            db.load_stoplist(path)

    def test_removal_keeps_the_types(self, each_path, rose_stream):
        out = db.remove_stopwords(rose_stream, {"is"})
        assert out.types == rose_stream.types
        assert out.tokens == ("rose", "a", "rose", "a", "rose", "a", "rose")
        assert db.corpus_stats([out]).type_count == 2


class TestCorpusStats:
    def test_rose_sentence(self, rose_stream):
        stats = db.corpus_stats([rose_stream])
        assert stats.token_count == 10
        assert stats.type_count == 3
        assert stats.type_token_ratio == pytest.approx(0.3)
        assert not stats.empty

    def test_empty_corpus_flagged(self):
        stats = db.corpus_stats([])
        assert stats.token_count == 0 and stats.type_count == 0
        assert stats.type_token_ratio == 0.0
        assert stats.empty

    def test_type_count_never_exceeds_token_count(self, cafe_text):
        stats = db.corpus_stats([db.tokenize(cafe_text)])
        assert 0 < stats.type_count <= stats.token_count
        assert 0 < stats.type_token_ratio <= 1


class TestCorpusReading:
    def test_directory_read_sorted(self, tmp_path):
        (tmp_path / "b.txt").write_text("second doc", encoding="utf-8")
        (tmp_path / "a.txt").write_text("first doc", encoding="utf-8")
        docs = db.read_corpus(tmp_path)
        assert [d.id for d in docs] == ["a.txt", "b.txt"]

    def test_single_file_read(self, tmp_path):
        f = tmp_path / "only.txt"
        f.write_text("just one", encoding="utf-8")
        docs = db.read_corpus(f)
        assert len(docs) == 1 and docs[0].text == "just one"
