"""The bulk text readers against the per-line readers they stand in front of.

Where the kernel is built, each loader parses a canonical file in bulk and
hands anything else to its per-line reader, which words every error; without
the kernel, the per-line reader reads every file. Here hypothesis feeds all
four loaders arbitrary bytes and near-valid mutations of files saved from
small random models. A text loader must return the per-line reader's object or
raise its exact error; a checkpoint may raise nothing but FormatError.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import driftbench as db
from driftbench import count_model, graph, trainer
from driftbench import kernel as kernel_module
from driftbench._csr import CSR
from driftbench.corpus import decode_utf8
from driftbench.errors import EncodingError, FormatError

FUZZ = settings(max_examples=200, deadline=None)
# how a test case is made: mostly near-valid mutations of a saved file
FORMS = st.sampled_from(["canonical", "bytes"] + ["mutated"] * 4)

WORDS = ["a", "b", "rose", "is", "café", "ß", "x-y", "don't", "7", "e1"]

# fields that a bulk reader must refuse, or read as int() or float() does
ODD_FIELDS = [
    "+5", " 5", "5 ", "1_0", "١", "1e400", "-1e400", "nan", "inf", "", "0", "-1",
    "-0", "1.0", ".5", "5.", "-0.0", "1e5", "0x10", "9223372036854775807",
    "9223372036854775808", "00012",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("formats")


@st.composite
def count_models(draw):
    tokens = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=40))
    stream = db.TokenStream("d", tuple(tokens))
    vocab = db.build_vocabulary([stream])
    window = db.WindowConfig(radius=draw(st.integers(1, 4)))
    return db.count_cooccurrences([stream], vocab, window)


components = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e22, 0.1]
)


@st.composite
def embedding_spaces(draw):
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5, unique=True))
    dim = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(components, min_size=dim, max_size=dim),
                         min_size=len(words), max_size=len(words)))
    return db.VectorSpace(db.Vocabulary(words, [1] * len(words)), np.array(rows))


@st.composite
def mutated(draw, text, sep):
    """`text` with one to three edits to its fields, lines or line ends."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(range(len(lines))))
        fields = lines[i].split(sep)
        j, k = draw(st.lists(st.sampled_from(range(len(fields))), min_size=2, max_size=2))
        edit = draw(st.sampled_from([
            "drop-field", "double-field", "swap-fields", "odd-field", "trailing-tab",
            "drop-line", "double-line", "swap-lines", "blank-line", "crlf", "crlf-all",
            "truncate",
        ]))
        if edit == "drop-field":
            del fields[j]
        elif edit == "double-field":
            fields.insert(j, fields[j])
        elif edit == "swap-fields":
            fields[j], fields[k] = fields[k], fields[j]
        elif edit == "odd-field":
            fields[j] = draw(st.sampled_from(ODD_FIELDS))
        elif edit == "trailing-tab":
            fields[-1] += "\t"
        elif edit == "crlf":
            fields[-1] += "\r"
        if edit == "drop-line":
            del lines[i]
        elif edit == "double-line":
            lines.insert(i, lines[i])
        elif edit == "swap-lines":
            m = draw(st.sampled_from(range(len(lines))))
            lines[i], lines[m] = lines[m], lines[i]
        elif edit == "blank-line":
            lines.insert(i, "")
        elif edit == "crlf-all":
            lines = [line + "\r" for line in lines]
        elif edit == "truncate":
            joined = "\n".join(lines)
            lines = joined[: draw(st.integers(0, len(joined)))].split("\n")
        else:
            lines[i] = sep.join(fields)
        if not lines:
            lines = [""]
    return "\n".join(lines)


def decoded(path) -> str:
    return decode_utf8(path.read_bytes(), str(path))


# per format: the loader and the per-line reader it falls back to
LOADERS = {
    "cooc": (count_model.load_cooc,
             lambda p: count_model._parse_cooc_lines(decoded(p), p)),
    "embedding": (trainer.load_embedding_text,
                  lambda p: trainer._parse_embedding_lines(decoded(p), p)),
    "edges": (lambda p: graph.import_edge_list(decoded(p)),
              lambda p: graph._import_edge_list_lines(decoded(p))),
}


def outcome(load, path):
    """What a loader does with a file: its result, or its error's type and text."""
    try:
        return "ok", load(path)
    except (FormatError, EncodingError) as exc:
        return type(exc), str(exc)


def same_cooc(a, b) -> bool:
    return (
        a.vocab == b.vocab
        and a.window == b.window
        and a.total == b.total
        and a.counts.dtype == b.counts.dtype
        and a.counts.shape == b.counts.shape
        and all(np.array_equal(getattr(a.counts, f), getattr(b.counts, f))
                for f in ("indptr", "indices", "data"))
    )


def same_space(a, b) -> bool:
    return (
        a.vocab == b.vocab
        and a.vectors.dtype == b.vectors.dtype
        and a.vectors.shape == b.vectors.shape
        and a.vectors.tobytes() == b.vectors.tobytes()
        and a.provenance == b.provenance
        and a.output_weights is None and b.output_weights is None
    )


def same_graph(a, b) -> bool:
    return (
        list(a.nodes.items()) == list(b.nodes.items())
        and list(a.edges.items()) == list(b.edges.items())
        and all(type(w) is int for w in [*a.nodes.values(), *a.edges.values()])
    )


SAME = {"cooc": same_cooc, "embedding": same_space, "edges": same_graph}

# per format: the bulk reader in front of the per-line reader
BULK = {
    "cooc": lambda text: count_model._parse_cooc_bulk(text.encode()),
    "embedding": lambda text: trainer._parse_embedding_bulk(text.encode(), "x"),
    "edges": graph._import_edge_list_bulk,
}


def bulk_reads(kind: str, text: str) -> bool:
    return BULK[kind](text) is not None


def check(kind: str, path, content: bytes) -> None:
    """The loader returns what the per-line reader returns, or raises its error."""
    path.write_bytes(content)
    load, reference = LOADERS[kind]
    got, expected = outcome(load, path), outcome(reference, path)
    if expected[0] == "ok":
        assert got[0] == "ok", got
        assert SAME[kind](got[1], expected[1])
    else:
        assert got == expected


COOC = "COOC v1 3 2\n0\ta\t3\n1\tcafé\t2\n2\tb\t1\n0\t0\t2\n0\t1\t4\n1\t2\t1\n"
EMBEDDING = "3 2\na 0.5 -1.0\ncafé 1e-05 2.0\nb -0.0 3.0\n"
EDGES = "# nodes: 3\n# node\ta\t0\n# node\tb\t2\n# node\tcafé\t0\na\tb\t3\na\tcafé\t1\n"

# files that a bulk check must send to the per-line reader, valid or not
NEAR_VALID = {
    "cooc": [
        COOC,
        COOC + "0\t1\t4\n",  # repeated triple
        COOC.replace("0\t1\t4\n1\t2\t1\n", "1\t2\t1\n0\t1\t4\n"),  # unordered, valid
        COOC.replace("0\t1\t4\n", "0\t1\t4\n\n"),
        COOC.replace("1\tcafé\t2\n2\tb\t1\n", "2\tb\t1\n1\tcafé\t2\n"),
        COOC.replace("café", "caf\x85é"),
        COOC.replace("café", "ca\x1cfé"),
        COOC.replace("COOC v1 3 2", "COOC v1 3 2 extra"),
        COOC.replace("COOC v1 3 2", "COOC v1 3 0"),
        COOC.replace("COOC v1 3 2", "COOC v1 99999999999999999999 2"),
        COOC.replace("\n", "\r\n"),
        COOC.rstrip("\n"),
        COOC.replace("\t4\n", "\t4\t\n"),
        *(COOC.replace("\t4\n", f"\t{count}\n") for count in ODD_FIELDS),
        *(COOC.replace("0\t1\t4", f"{t}\t1\t4") for t in ["+0", " 0", "٠", "3"]),
        COOC.replace("\ta\t3", "\ta\t0"),
        COOC.replace("\ta\t3", "\ta\t1_0"),
        COOC.replace("\tb\t1", "\ta\t1"),
        COOC.replace("COOC v1 3 2", "COOC v12 3 2"),  # another version
        COOC.replace("COOC v1 3 2", "COOC v1x 3 2"),
    ],
    "embedding": [
        EMBEDDING,
        EMBEDDING + "c 1.0 1.0\ngarbage here\n",  # rows past the header's count
        EMBEDDING + "\n\n",
        EMBEDDING.rstrip("\n"),
        EMBEDDING.replace("\n", "\r\n"),
        EMBEDDING.replace("café", "caf\u2028é"),
        EMBEDDING.replace("\nb ", "\na "),
        EMBEDDING.replace("0.5 ", "0.5  "),
        EMBEDDING.replace("-1.0\n", "-1.0 \n"),
        EMBEDDING.replace("-1.0\n", "\n"),
        EMBEDDING.replace("-1.0\n", "-1.0\n\n"),
        EMBEDDING.replace("3 2", "3 2 "),
        EMBEDDING.replace("3 2", "2 2"),
        "1 99999999999999999999\na\n",
        "1 9999999999\na \n",
        *(EMBEDDING.replace("0.5", value) for value in ODD_FIELDS + ["1e-400", "-1e400", "e5"]),
        EMBEDDING.replace("\nb ", "\n "),  # an empty token
        "2 2\n 1.0 0.0\nb 0.0 1.0\n",
        EMBEDDING.replace("-1.0\n", "-1.0\x00\n"),
        EMBEDDING + "\x00",
        EMBEDDING.replace("café", "ca\x00fé"),  # valid: a token may hold NUL
        EMBEDDING.replace("0.5", "0.50000000000000000000001"),  # valid: strtod reads it
    ],
    "edges": [
        EDGES,
        EDGES.replace("a\tb\t3\n", "# note\na\tb\t3\n"),  # a comment among the edges, valid
        EDGES.replace("# nodes: 3", "# nodes: 4") + "# node\td\t0\n",  # a late node, valid
        EDGES + "# node\td\t0\n",
        EDGES + "a\tb\t3\n",
        EDGES + "b\ta\t3\n",
        EDGES + "a\td\t3\n",
        EDGES.replace("# node\tb\t2\n", "# node\tb\t2\n# node\tb\t2\n"),
        EDGES.replace("# nodes: 3", "# nodes: 2"),
        EDGES.replace("# nodes: 3", "# nodes:3"),
        EDGES.replace("# nodes: 3", "# nodes: 99999999999999999999"),
        EDGES.replace("# nodes: 3", "# nodes: 9999999999"),
        EDGES.rstrip("\n"),
        EDGES + "x",
        EDGES.replace("# nodes: 3", "# nodes: 4\n# node\t#x\t0") + "#x\ta\t3\n",  # a comment
        EDGES.replace("\n", "\r\n"),
        EDGES.replace("café", "caf\x1cé"),
        EDGES.replace("a\tb\t3", "a\tb\t3\t"),
        *(EDGES.replace("a\tb\t3", f"a\tb\t{w}") for w in ODD_FIELDS),
        *(EDGES.replace("\tb\t2", f"\tb\t{w}") for w in ["-1", "+2", "1_0"]),
        EDGES.replace("a\tb\t3", "a\tb\t00000000000000000003"),  # int() reads 3
        EDGES.replace("\tb\t2", "\tb\t9223372036854775808"),
        EDGES.replace("a\tb\t3\n", "a\tb\t3\n\n"),  # a blank line among the edges, valid
        EDGES.replace("a\tb\t3", "a\tb\t3\x00"),
        EDGES.replace("a\tb\t3", "a\tb3"),
        EDGES.replace("\tcafé\t0", "\tcafé0"),
    ],
}
NEAR_VALID["cooc"] += [
    COOC.replace("\t4\n", "\t00000000000000000004\n"),  # int() reads 4
    COOC.replace("0\t0\t2", "0\t0\t2\x00"),
    COOC.replace("0\t0\t2", "0\t00\t2"),
    COOC.replace("0\t0\t2", "0\t0\t9223372036854775808"),
    COOC.replace("0\t1\t4", "0\t1 4"),
    COOC.replace("0\t1\t4", "0\t1"),
    COOC.replace("0\t0\t2\n0\t1\t4\n", "0\t1\t4\n0\t0\t2\n"),  # triples swapped, valid
    COOC.replace("0\t1\t4", "1\t0\t4"),  # a lower-triangle triple
    COOC.replace("1\t2\t1", "0\t2\t1"),  # valid
    COOC.replace("\t4\n", "\t9223372036854775807\n"),  # valid
    COOC.replace("1\t2\t1\n", ""),  # valid
]
NEAR_VALID["edges"] += [
    EDGES.replace("# node\tb\t2\n# node\tcafé\t0\n", "# node\tcafé\t0\n# node\tb\t2\n"),  # valid
    EDGES.replace("a\tb\t3\na\tcafé\t1\n", "a\tcafé\t1\na\tb\t3\n"),  # valid
    EDGES.replace("a\tb\t3", "b\tcafé\t3"),  # valid, the edges out of order
    EDGES.replace("\tb\t2", "\tcafe\t2").replace("a\tb", "a\tcafe"),  # valid
    EDGES.replace("# node\tb\t2\n", "# node\tb\t2\n# node\tbb\t0\n", 1).replace(
        "# nodes: 3", "# nodes: 4"),  # valid
    EDGES.replace("a\tb\t3", "b\tb\t3"),
    EDGES.replace("a\tb\t3", "a\ta\t3"),
    EDGES.replace("a\tb\t3", "a\tb\x00\t3"),
    EDGES.replace("a\tb\t3", "a\t\t3"),
    EDGES.replace("a\tb\t3", "a\tb\t9223372036854775807"),  # valid
    EDGES.replace("\tb\t2", "\tb\t0"),  # valid
    EDGES.replace("a\tb\t3\na\tcafé\t1\n", ""),  # valid, no edges
    "# nodes: 0\n",  # valid
    "# nodes: 0\na\tb\t1\n",
    "# nodes: 3\n# node\t#x\t0\n# node\ta\t0\n# node\tb\t0\n#x\ta\t3\na\tb\t1\n",  # a comment
]


@pytest.mark.parametrize(
    "kind, content",
    [pytest.param(kind, text, id=f"{kind}-{i}")
     for kind, texts in NEAR_VALID.items() for i, text in enumerate(texts)],
)
def test_near_valid_file_loads_like_per_line_reader(workdir, kind, content):
    check(kind, workdir / f"near.{kind}", content.encode())


# without the kernel no bulk reader runs, not even on a canonical file
@pytest.mark.parametrize(
    "content",
    [pytest.param(text, id=f"embedding-{i}") for i, text in enumerate(NEAR_VALID["embedding"])],
)
def test_near_valid_embedding_loads_like_per_line_reader_without_kernel(workdir, numpy_step,
                                                                        content):
    assert not bulk_reads("embedding", content)
    check("embedding", workdir / "near-numpy.txt", content.encode())


@pytest.mark.parametrize(
    "kind, content",
    [pytest.param(kind, text, id=f"{kind}-{i}")
     for kind in ("cooc", "edges") for i, text in enumerate(NEAR_VALID[kind])],
)
def test_near_valid_count_file_loads_like_per_line_reader_without_kernel(workdir, numpy_step,
                                                                         kind, content):
    assert not bulk_reads(kind, content)
    check(kind, workdir / f"near-numpy.{kind}", content.encode())


def test_saved_files_take_the_bulk_path():
    built = kernel_module.get() is not None
    assert [bulk_reads("cooc", COOC), bulk_reads("embedding", EMBEDDING),
            bulk_reads("edges", EDGES)] == [built] * 3


def case(data, text: str, form: str, sep: str) -> bytes:
    """The saved text itself, a near-valid mutation of it, or arbitrary bytes
    after a prefix of it."""
    if form == "mutated":
        return data.draw(mutated(text, sep)).encode()
    if form == "bytes":
        return text.encode()[: data.draw(st.integers(0, 40))] + data.draw(st.binary(max_size=60))
    return text.encode()


def saved(path, save, model) -> str:
    save(model, path)
    return path.read_text(encoding="utf-8")


def check_cooc(workdir, model, form, data):
    text = saved(workdir / "saved.cooc", count_model.save_cooc, model)
    if form == "canonical":
        assert bulk_reads("cooc", text) == (kernel_module.get() is not None)
    check("cooc", workdir / "m.cooc", case(data, text, form, "\t"))


def check_embedding_text(workdir, space, form, data):
    text = saved(workdir / "saved.txt", trainer.save_embedding_text, space)
    if form == "canonical":
        assert bulk_reads("embedding", text) == (kernel_module.get() is not None)
    check("embedding", workdir / "v.txt", case(data, text, form, " "))


def check_edge_list(workdir, model, min_weight, form, data):
    text = graph.export_edge_list(graph.from_counts(model, min_weight=min_weight))
    if form == "canonical":
        assert bulk_reads("edges", text) == (kernel_module.get() is not None)
    check("edges", workdir / "g.tsv", case(data, text, form, "\t"))


class TestFuzz:
    @FUZZ
    @given(model=count_models(), form=FORMS, data=st.data())
    def test_cooc(self, workdir, model, form, data):
        check_cooc(workdir, model, form, data)

    @FUZZ
    @given(space=embedding_spaces(), form=FORMS, data=st.data())
    def test_embedding_text(self, workdir, space, form, data):
        check_embedding_text(workdir, space, form, data)

    @FUZZ
    @given(model=count_models(), min_weight=st.integers(1, 3), form=FORMS, data=st.data())
    def test_edge_list(self, workdir, model, min_weight, form, data):
        check_edge_list(workdir, model, min_weight, form, data)


class TestFuzzWithoutKernel:
    """The fuzz tests again, on the % and repr() writers and the per-line readers."""

    @pytest.fixture(autouse=True, scope="class")
    def _numpy(self):  # class-scoped, as hypothesis requires; numpy_step is per test
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_module, "get", lambda: None)
            yield

    @FUZZ
    @given(model=count_models(), form=FORMS, data=st.data())
    def test_cooc(self, workdir, model, form, data):
        check_cooc(workdir, model, form, data)

    @FUZZ
    @given(space=embedding_spaces(), form=FORMS, data=st.data())
    def test_embedding_text(self, workdir, space, form, data):
        check_embedding_text(workdir, space, form, data)

    @FUZZ
    @given(model=count_models(), min_weight=st.integers(1, 3), form=FORMS, data=st.data())
    def test_edge_list(self, workdir, model, min_weight, form, data):
        check_edge_list(workdir, model, min_weight, form, data)


def reordered(data, text: str, sections: list[tuple[int, int]]) -> str:
    """`text` with the lines of each (start, stop) section permuted."""
    lines = text.split("\n")
    for start, stop in sections:
        lines[start:stop] = data.draw(st.permutations(lines[start:stop]))
    return "\n".join(lines)


class TestLinesInAnotherOrder:
    """A valid file whose vocabulary, node, triple or edge lines come in
    another order than the writer's loads as the per-line reader reads it;
    the bulk readers take only the writer's order."""

    @FUZZ
    @given(model=count_models(), data=st.data())
    def test_cooc(self, workdir, model, data):
        text = saved(workdir / "order.cooc", count_model.save_cooc, model)
        v, lines = len(model.vocab), text.count("\n")
        shuffled = reordered(data, text, [(1, 1 + v), (1 + v, lines)])
        if shuffled != text:
            assert not bulk_reads("cooc", shuffled)
        check("cooc", workdir / "shuffled.cooc", shuffled.encode())

    @FUZZ
    @given(model=count_models(), min_weight=st.integers(1, 3), data=st.data())
    def test_edge_list(self, workdir, model, min_weight, data):
        g = graph.from_counts(model, min_weight=min_weight)
        text = graph.export_edge_list(g)
        shuffled = reordered(data, text, [(1, 1 + len(g)), (1 + len(g), text.count("\n"))])
        if shuffled != text:
            assert not bulk_reads("edges", shuffled)
        check("edges", workdir / "shuffled.tsv", shuffled.encode())
        assert graph.import_edge_list(shuffled) == g


INT64 = st.integers(-(2**63), 2**63 - 1)
# tokens the writers must copy byte for byte, NUL included
TOKENS = st.sampled_from(WORDS + ["\x00", "a\x00", "a\x00b", "\U0001f600"])


def both_paths(write):
    """What `write` returns on the kernel path, then with no kernel."""
    compiled = write()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_module, "get", lambda: None)
        return compiled, write()


class TestWritersAgree:
    """The kernel writes the bytes of the % writers it stands in for."""

    @pytest.fixture(autouse=True, scope="class")
    def _kernel(self):
        if kernel_module.get() is None:
            pytest.skip("the C kernel does not build here")

    @FUZZ
    @given(tokens=st.lists(TOKENS, max_size=8, unique=True), radius=st.integers(1, 2**31),
           data=st.data())
    def test_cooc(self, workdir, tokens, radius, data):
        v = len(tokens)
        freqs = data.draw(st.lists(st.integers(1, 2**63 - 1), min_size=v, max_size=v))
        cells = data.draw(st.dictionaries(st.tuples(st.integers(0, max(v - 1, 0)),
                                                    st.integers(0, max(v - 1, 0))),
                                          INT64.filter(bool), max_size=3 * v if v else 0))
        counts = np.zeros((v, v), dtype=np.int64)
        for (t, c), n in cells.items():
            counts[t, c] = counts[c, t] = n
        rows, cols = np.nonzero(counts)
        matrix = count_model.CooccurrenceMatrix(
            db.Vocabulary(tokens, freqs), CSR.from_triples(rows, cols, counts[rows, cols], (v, v)),
            db.WindowConfig(radius))
        path = workdir / "writers.cooc"

        def write():
            count_model.save_cooc(matrix, path)
            return path.read_bytes()

        compiled, fallback = both_paths(write)
        assert compiled == fallback

    @FUZZ
    @given(tokens=st.lists(TOKENS.filter(lambda t: not t.startswith("#")), max_size=8,
                           unique=True), data=st.data())
    def test_edge_list(self, tokens, data):
        tokens = sorted(tokens)
        nodes = {t: data.draw(st.integers(0, 2**63 - 1)) for t in tokens}
        pairs = [(a, b) for i, a in enumerate(tokens) for b in tokens[i + 1:]]
        edges = data.draw(st.dictionaries(st.sampled_from(pairs), st.integers(1, 2**63 - 1))
                          if pairs else st.just({}))
        g = db.SemanticGraph(nodes, edges)  # isolated nodes where no edge names them
        compiled, fallback = both_paths(lambda: graph.export_edge_list(g))
        assert compiled == fallback
        assert graph._import_edge_list_bulk(compiled) == g

    def test_extremes(self, workdir):
        vocab = db.Vocabulary(["a", "b"], [2**63 - 1, 2**64])  # % alone writes 2**64
        counts = CSR.from_triples([0, 0, 1, 1], [0, 1, 0, 1], [-(2**63), 2**63 - 1, 2**63 - 1, 1],
                                  (2, 2), np.int64)
        matrix = count_model.CooccurrenceMatrix(vocab, counts, db.WindowConfig(3))
        path = workdir / "extremes.cooc"

        def write():
            count_model.save_cooc(matrix, path)
            return path.read_bytes()

        compiled, fallback = both_paths(write)
        assert compiled == fallback == (
            b"COOC v1 2 3\n0\ta\t9223372036854775807\n1\tb\t18446744073709551616\n"
            b"0\t0\t-9223372036854775808\n0\t1\t9223372036854775807\n1\t1\t1\n")
        empty = db.SemanticGraph({}, {})
        assert both_paths(lambda: graph.export_edge_list(empty)) == ("# nodes: 0\n",) * 2
        assert graph._import_edge_list_bulk("# nodes: 0\n") == empty


@pytest.mark.parametrize("with_kernel", [True, False], ids=["kernel", "fallback"])
@pytest.mark.parametrize("token", ["", "a b", " ", "a\nb", "a\r", "\x0bx", "x\x1c", "\x85",
                                   "a\u2028", "\u2029b"])
def test_embedding_text_refuses_a_token_it_cannot_read_back(workdir, monkeypatch, with_kernel,
                                                            token):
    if not with_kernel:
        monkeypatch.setattr(kernel_module, "get", lambda: None)
    elif kernel_module.get() is None:
        pytest.skip("the C kernel does not build here")
    space = db.VectorSpace(db.Vocabulary(["a", token], [1, 1]), np.ones((2, 2)))
    path = workdir / "unsafe-token.txt"
    path.unlink(missing_ok=True)
    with pytest.raises(ValueError, match=f"token {re.escape(repr(token))} cannot be written"):
        trainer.save_embedding_text(space, path)
    assert not path.exists()


def test_embedding_text_refuses_a_sparse_space(workdir, rose_matrix):
    path = workdir / "sparse.txt"
    path.unlink(missing_ok=True)
    with pytest.raises(ValueError, match="sparse count space"):
        trainer.save_embedding_text(rose_matrix.to_space(), path)
    assert not path.exists()


@pytest.mark.parametrize("with_kernel", [True, False], ids=["kernel", "fallback"])
def test_embedding_text_refuses_dimension_zero(workdir, monkeypatch, with_kernel):
    # each row would read back as one empty component
    if not with_kernel:
        monkeypatch.setattr(kernel_module, "get", lambda: None)
    elif kernel_module.get() is None:
        pytest.skip("the C kernel does not build here")
    space = db.VectorSpace(db.Vocabulary(["a", "b"], [1, 1]), np.zeros((2, 0)))
    path = workdir / "dimension-zero.txt"
    path.unlink(missing_ok=True)
    with pytest.raises(ValueError, match="dimension 0"):
        trainer.save_embedding_text(space, path)
    assert not path.exists()


@pytest.mark.parametrize("token", ["a\tb", "\t", "a\nb", "a\r", "\x0bx", "x\x0c", "x\x1c",
                                   "\x1d", "\x1e", "\x85", "a\u2028", "\u2029b", "a\ud800"])
def test_cooc_refuses_a_token_it_cannot_read_back(workdir, token):
    vocab = db.Vocabulary(["a", token], [1, 1])
    counts = sparse.csr_matrix(np.array([[0, 1], [1, 0]]))
    model = count_model.CooccurrenceMatrix(vocab, counts, db.WindowConfig(2))
    path = workdir / "unsafe-token.cooc"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match=f"token {re.escape(repr(token))} cannot be written"):
        count_model.save_cooc(model, path)
    assert path.read_bytes() == b"kept"


def test_cooc_reads_back_the_tokens_it_writes(workdir):
    tokens = ["", " ", "a b", "#x", "\x00", "\x1f", "café", "\U0001f600"]
    vocab = db.Vocabulary(tokens, [1] * len(tokens))
    counts = sparse.csr_matrix(np.ones((len(tokens), len(tokens)), dtype=np.int64))
    model = count_model.CooccurrenceMatrix(vocab, counts, db.WindowConfig(2))
    count_model.save_cooc(model, workdir / "tokens.cooc")
    assert count_model.load_cooc(workdir / "tokens.cooc").same_counts(model)


class TestCheckpoint:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        vocab = db.Vocabulary(["a", "café", "c"], [3, 2, 1])
        space = trainer.EmbeddingSpace(vocab, np.arange(6.0).reshape(3, 2),
                                       provenance={"seed": 1}, output_weights=np.ones((3, 2)))
        path = tmp_path_factory.mktemp("ckpt") / "model.npz"
        trainer.save_checkpoint(space, path)
        return path.read_bytes()

    @FUZZ
    @given(edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), max_size=3),
           cut=st.integers(0, 1 << 16), junk=st.binary(max_size=40), data=st.data())
    def test_corrupt_bytes_raise_only_format_error(self, workdir, checkpoint, edits, cut, junk,
                                                   data):
        content = bytearray(checkpoint)
        for offset, value in edits:
            content[offset % len(content)] = value
        if data.draw(st.booleans()):
            content = content[: cut % (len(content) + 1)]
        if data.draw(st.booleans()):
            content = junk
        path = workdir / "c.npz"
        path.write_bytes(bytes(content))
        try:
            trainer.load_checkpoint(path)
        except FormatError:
            pass
