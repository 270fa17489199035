"""The functions of the compiled kernel against their oracles.

The writer must print each component as repr() does, byte for byte, and
the reader must read each field as float() does, bit for bit, or refuse it
so that the caller falls back to the per-line reader. The COOC and
edge-list readers must read each number field as int() does, or refuse it
the same way. Hypothesis
draws the components from random 64-bit patterns and the edges of the
formats. Ranking in the kernel must give the ids and score bits of the
numpy selection and scoring that run without it, counting the CSR
arrays of the numpy counter, and the CSR product the bits of the numpy
product and of scipy's.
"""

import math
import struct
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

import driftbench as db
from driftbench import count_model
from driftbench import kernel as kernel_module
from driftbench._csr import CSR, _numpy_dot
from driftbench.corpus import _OTHER_LINE_BREAKS, _window_ids

from conftest import brute_force_counts, matrix_equals_oracle, to_scipy

ORACLE = settings(max_examples=400, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])


def from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


TINY, HUGE = sys.float_info.min, sys.float_info.max
# where repr() changes layout, or the shortest digits are hardest to find
EDGES = [
    0.0, -0.0, 5e-324, -5e-324, TINY, float(np.nextafter(TINY, 0.0)), HUGE, -HUGE,
    *(float(f"1e{k}") for k in range(-323, 309)),
    *(2.0**k for k in range(-1074, 1024)),
    *(float(np.nextafter(x, toward)) for x in (1e-4, 1e16)
      for toward in (0.0, math.inf)),
    *(float(np.nextafter(np.nextafter(x, toward), toward)) for x in (1e-4, 1e16)
      for toward in (0.0, math.inf)),
    9007199254740993.0, 123456789012345678.0, 0.1, 0.3, 1.0, 1e22, 1e23, 5e-310,
]
components = (
    st.integers(0, 2**64 - 1).map(from_bits).filter(math.isfinite)
    | st.builds(lambda sign, mantissa: from_bits(sign << 63 | mantissa),  # subnormal
                st.integers(0, 1), st.integers(1, 2**52 - 1))
    | st.sampled_from(EDGES)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(2**60), 2**60).map(float)
)


def formatted(kernel, tokens, rows) -> bytes:
    blob = "".join(t + "\n" for t in tokens).encode()
    return bytes(kernel.format_rows(blob, np.asarray(rows, dtype=np.float64)))


def reference(tokens, rows) -> bytes:
    return "".join(f"{t} {' '.join(map(repr, row))}\n" for t, row in zip(tokens, rows)).encode()


class TestWriter:
    def test_edges_print_as_repr(self, kernel):
        values = [*EDGES, *(-x for x in EDGES), math.inf, -math.inf, math.nan]
        assert formatted(kernel, ["t"], [values]) == reference(["t"], [values])

    @ORACLE
    @given(row=st.lists(components, min_size=1, max_size=64))
    def test_prints_as_repr(self, kernel, row):
        assert formatted(kernel, ["t"], [row]) == reference(["t"], [row])

    @ORACLE
    @given(tokens=st.lists(st.text(st.characters(blacklist_characters=" \n" + _OTHER_LINE_BREAKS,
                                                 blacklist_categories=["Cs"]),
                                   min_size=1, max_size=6),
                           max_size=5, unique=True),
           dim=st.integers(0, 4), data=st.data())
    def test_rows_and_tokens(self, kernel, tokens, dim, data):
        rows = data.draw(st.lists(st.lists(components, min_size=dim, max_size=dim),
                                  min_size=len(tokens), max_size=len(tokens)))
        matrix = np.array(rows, dtype=np.float64).reshape(len(tokens), dim)
        assert formatted(kernel, tokens, matrix) == reference(tokens, rows)

    def test_refuses_what_it_cannot_take(self, kernel):
        with pytest.raises(ValueError, match="one LF-ended token per row"):
            kernel.format_rows(b"a\n", np.zeros((2, 3)))
        with pytest.raises(ValueError, match="C-contiguous"):
            kernel.format_rows(b"a\nb\n", np.zeros((3, 2)).T)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernel.format_rows(b"a\nb\n", np.zeros((2, 3), dtype=np.float32))


# repr's digits, float's whole decimal grammar in repr's alphabet, and more
# digits or larger exponents than any repr
fields = (
    components.map(repr)
    | st.text(alphabet="0123456789.e+-", max_size=12)
    | st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-", "+"]),
                st.text(alphabet="0123456789", max_size=30),
                st.text(alphabet="0123456789", max_size=30), st.integers(-420, 420))
)


def read_by_float(field: str) -> float | None:
    try:
        value = float(field)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


# where Eisel-Lemire's rounding is decided, or left to strtod: ties to even,
# the most digits it takes and the first it leaves, 2**53 +- 1 where exact
# powers of ten end, leading zeros, long exponents, the subnormal and
# overflow edges, and products whose low half carries into the kept bits
HARD_FIELDS = [
    "9007199254740993", "9007199254740995", "-9007199254740993", "9007199254740992e23",
    "1152921504606846977", "2.5000000000000000001",
    "1234567890123456789", "9999999999999999999", "1844674407370955161e-5",
    "12345678901234567890", "99999999999999999999", "18446744073709551617",
    "18446744073709551616e-20", "0.99999999999999999999",
    *(f"{m}e{e}" for m in (2**53 - 1, 2**53 + 1) for e in (-23, -22, 22, 23)),
    "000.5", "0.0000001", "-000000000000000000000000.0000000000000000000000001e25",
    "1e0000001", "1e-0000400", "1e+0000308", "0e99999999999999999999999", "-0e-5",
    "1e-342", "1e-343", "1e308", "1e309", "9e-325", "3e-324",
    "2.2250738585072011e-308", "2.2250738585072014e-308", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "4.9406564584124654e-324", "1.7976931348623158e308",
    "1.7976931348623159e308", "-1.7976931348623157e308",
    "4.135498601592148793e-236", "2.53303981450849711e-26", "7.924883549534539311e172",
]


class TestReader:
    @ORACLE
    @given(row=st.lists(fields, min_size=1, max_size=8))
    def test_reads_as_float(self, kernel, row):
        """A field in repr's alphabet is read exactly when float() reads it as
        a finite number, and to the same bits; otherwise the reader points at
        the first field it refuses."""
        body = f"t {' '.join(row)}\n".encode()
        matrix, bad, _ = kernel.parse_rows(body, 1, len(row))
        values = [read_by_float(field) for field in row]
        if None in values:
            first = values.index(None)
            assert bad == len("t ") + sum(len(f) + 1 for f in row[:first])
        else:
            assert bad == -1
            assert matrix.tobytes() == np.array([values]).tobytes()

    @pytest.mark.parametrize("field", HARD_FIELDS)
    def test_reads_hard_fields_as_float(self, kernel, field):
        matrix, bad, _ = kernel.parse_rows(f"a {field}\n".encode(), 1, 1)
        value = read_by_float(field)
        if value is None:
            assert bad == len("a ")
        else:
            assert bad == -1
            assert matrix.tobytes() == np.array([[value]]).tobytes()

    @pytest.mark.parametrize("field", ["1E5", "1_0", "inf", "-inf", "nan", "0x10", "١",
                                       " 1", "", "1e400", "-1e400", "1e"])
    def test_refuses_fields_outside_reprs_grammar(self, kernel, field):
        assert kernel.parse_rows(f"a 0.5 {field}\n".encode(), 1, 2)[1] == len("a 0.5 ")

    @pytest.mark.parametrize("body, offset", [
        ("a 1.0\nb\n", 6),  # a row with no space
        ("a 1.0\nb 2.0 3.0\n", 8),  # more fields than columns
        ("a 1.0\nb 2.0  \n", 8),
        (" 1.0\nb 2.0\n", 0),  # an empty token
        ("a 1.0\n 2.0\n", 6),
        ("a 1.0\n\n", 6),
    ])
    def test_points_at_the_first_bad_field(self, kernel, body, offset):
        assert kernel.parse_rows(body.encode(), 2, 1)[1] == offset

    def test_reads_many_rows(self, kernel):
        body = b"a 0.5 -1.0\ncaf\xc3\xa9 1e-05 2.0\nb\x00c -0.0 3.0\n"
        matrix, bad, tokens = kernel.parse_rows(body, 3, 2)
        assert bad == -1
        assert matrix.tobytes() == np.array([[0.5, -1.0], [1e-05, 2.0], [-0.0, 3.0]]).tobytes()
        assert tokens == b"a\ncaf\xc3\xa9\nb\x00c\n"

    BODY = b"ab 1.5 -2.0\ncd 0.25 3e-7\n"

    @pytest.mark.parametrize("size, offset", [
        (0, 0), (1, 0), (12, 12), (14, 12), (16, 15), (17, 15), (19, 15), (23, 20), (24, 20),
    ])
    def test_reads_nothing_past_the_body(self, kernel, size, offset):
        """A body cut mid-token, mid-field or before its last LF is refused at
        the token or field it cuts, though the bytes after the cut would
        complete it."""
        assert kernel.parse_rows(memoryview(self.BODY)[:size], 2, 2)[1] == offset
        assert kernel.parse_rows(self.BODY, 2, 2)[1] == -1

    @pytest.mark.parametrize("body, offset", [
        (b"ab 1.5\x00 -2.0\n", 3),
        (b"ab 1.5 -2.0\x00\n", 7),
        (b"ab 1.5 -2.0\x00", 7),
        (b"ab 1.5 \x00-2.0\n", 7),
        (b"ab 1.5 -2.0\n\x00", 12),  # bytes after the last row
        (b"ab 1.5 -2.0\nc", 12),
    ])
    def test_refuses_nul_bytes_and_trailing_bytes(self, kernel, body, offset):
        assert kernel.parse_rows(body, 1, 2)[1] == offset

    def test_refuses_what_it_cannot_take(self, kernel):
        with pytest.raises(ValueError, match="at least one field"):
            kernel.parse_rows(b"a \n", 1, 0)
        with pytest.raises(ValueError, match="rows >= 0"):
            kernel.parse_rows(b"a 1.0\n", -1, 1)
        # a count of rows that the body does not hold is a refusal, not an error
        assert kernel.parse_rows(b"a 1.0\n", 2, 1)[1] == 6
        assert kernel.parse_rows(b"a 1.0\nb 2.0", 1, 1)[1] == 6


@ORACLE
@given(rows=st.integers(1, 5).flatmap(
    lambda dim: st.lists(st.lists(components, min_size=dim, max_size=dim), min_size=1,
                         max_size=6)))
def test_saves_the_same_bytes_on_both_paths(kernel, tmp_path_factory, rows):
    tokens = [f"w{i}" for i in range(len(rows))]
    space = db.VectorSpace(db.Vocabulary(tokens, [1] * len(rows)), np.array(rows))
    path = tmp_path_factory.getbasetemp() / "both-paths.txt"
    db.save_embedding_text(space, path)
    compiled = path.read_bytes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel_module, "get", lambda: None)
        db.save_embedding_text(space, path)
        fallback = path.read_bytes()
        assert db.load_embedding_text(path).vectors.tobytes() == space.vectors.tobytes()
    assert compiled == fallback
    assert db.load_embedding_text(path).vectors.tobytes() == space.vectors.tobytes()


INT64_LIMIT = 2**63
# int()'s own grammar in an alphabet around the digits: signs, underscores,
# spaces, the ASCII bytes either side of the digits, non-ASCII digits
int_fields = (
    st.integers(0, INT64_LIMIT - 1).map(str)
    | st.integers(INT64_LIMIT, 10**21).map(str)
    | st.builds("{}{}".format, st.text(alphabet="0", max_size=3), st.integers(0, 10**20))
    | st.text(alphabet="0123456789+-_ /:١\x00", max_size=6)
)


def read_by_int(field: str) -> int | None:
    """What the readers must give for a field: int()'s value where int() reads
    plain ASCII digits below 2**63, else a refusal."""
    if not (field.isascii() and field.isdigit()) or int(field) >= INT64_LIMIT:
        return None
    return int(field)


def read_numbers(kernel, fields):
    """Each field read through both bulk readers: as the count of the COOC
    triple (i, i), as the self weight of edge-list node i and as the weight
    of the edge from node i to node i + 1. Per reader, the values read, or
    the number (from 0) of the first triple, node or edge line refused."""
    n = len(fields)
    cooc = "".join(f"{i}\tw{i}\t1\n" for i in range(n))
    cooc = (cooc + "".join(f"{i}\t{i}\t{f}\n" for i, f in enumerate(fields))).encode()
    nodes = "".join(f"# node\tn{i:02d}\t{f}\n" for i, f in enumerate(fields)).encode()
    edges = "".join(f"# node\tn{i:02d}\t0\n" for i in range(n + 1))
    edges = (edges + "".join(f"n{i:02d}\tn{i + 1:02d}\t{f}\n"
                             for i, f in enumerate(fields))).encode()
    bad, _, _, arrays = kernel.read_cooc(cooc, n)
    counts = arrays[0].tolist() if bad < 0 else cooc[:bad].count(b"\n") - n
    bad, _, self_weights, _ = kernel.read_edge_list(nodes, n)
    self_weights = self_weights.tolist() if bad < 0 else nodes[:bad].count(b"\n")
    bad, _, _, arrays = kernel.read_edge_list(edges, n + 1)
    weights = arrays[0].tolist() if bad < 0 else edges[:bad].count(b"\n") - n - 1
    return counts, self_weights, weights


def expected_numbers(fields):
    """What `read_numbers` must give: a count or an edge weight is at least 1,
    a self weight at least 0."""
    values = [read_by_int(field) for field in fields]

    def read(least):
        refused = [i for i, v in enumerate(values) if v is None or v < least]
        return refused[0] if refused else values

    return read(1), read(0), read(1)


# two-word COOC and edge-list bodies, each with `{}` for one of its number
# fields, a value that field takes, and the offset of that field's line
NUMBER_FIELDS = [
    ("cooc", "{}\ta\t3\n1\tb\t1\n0\t1\t4\n", "0", 0),  # a vocabulary index
    ("cooc", "0\ta\t{}\n1\tb\t1\n0\t1\t4\n", "3", 0),  # a frequency
    ("cooc", "0\ta\t3\n1\tb\t1\n{}\t1\t4\n", "0", 12),  # t
    ("cooc", "0\ta\t3\n1\tb\t1\n0\t{}\t4\n", "1", 12),  # c
    ("cooc", "0\ta\t3\n1\tb\t1\n0\t1\t{}\n", "4", 12),  # a count
    ("edges", "# node\ta\t{}\n# node\tb\t0\na\tb\t5\n", "0", 0),  # a self weight
    ("edges", "# node\ta\t0\n# node\tb\t0\na\tb\t{}\n", "5", 22),  # an edge weight
]


def read_body(kernel, kind, body: bytes, rows: int) -> int:
    read = kernel.read_cooc if kind == "cooc" else kernel.read_edge_list
    return read(body, rows)[0]


class TestIntReader:
    """The number fields of the COOC and edge-list readers: one grammar,
    int()'s digits below 2**63, each field ending exactly on its
    separator."""

    @ORACLE
    @given(rows=st.lists(st.lists(int_fields, min_size=3, max_size=3), min_size=1, max_size=5))
    def test_reads_as_int(self, kernel, rows):
        """Every field that int() reads as an integer in [0, 2**63) written with
        ASCII digits is read to int()'s value; each reader points at the first
        line whose field it refuses or whose number it cannot take."""
        fields = [field for row in rows for field in row]
        assert read_numbers(kernel, fields) == expected_numbers(fields)

    @ORACLE
    @given(values=st.lists(st.integers(0, INT64_LIMIT - 1), min_size=1, max_size=50))
    def test_reads_every_int64(self, kernel, values):
        fields = [str(v) for v in values]
        counts, self_weights, weights = read_numbers(kernel, fields)
        assert self_weights == values
        assert (counts, self_weights, weights) == expected_numbers(fields)

    def test_edges_of_the_range(self, kernel):
        fields = ["0", "00", "1", "9223372036854775807", "09223372036854775807",
                  "00000000000000000000000000042"]
        assert read_numbers(kernel, fields) == (0, [int(f) for f in fields], 0)
        assert read_numbers(kernel, fields[2:]) == ([int(f) for f in fields[2:]],) * 3
        # indices are read by the same grammar
        body = b"00\ta\t1\n0000000000000000000001\tb\t1\n00\t01\t09223372036854775807\n"
        bad, _, _, (values, indices, indptr) = kernel.read_cooc(body, 2)
        assert bad == -1 and values.tolist() == [2**63 - 1] * 2 and indices.tolist() == [1, 0]

    @pytest.mark.parametrize("field", ["9223372036854775808", "18446744073709551616",
                                       "10000000000000000000", "99999999999999999999",
                                       "+1", "-1", "", " 1", "1 ", "1_0", "١", "0x1", "1.0",
                                       "1e3", "\x001"])
    def test_refuses_a_field_int64_or_its_digits_cannot_carry(self, kernel, field):
        for kind, body, valid, offset in NUMBER_FIELDS:
            assert read_body(kernel, kind, body.format(valid).encode(), 2) == -1, body
            assert read_body(kernel, kind, body.format(field).encode(), 2) == offset, body

    @pytest.mark.parametrize("body, rows, offset", [
        (b"1\t2\t3\n4\t5\t6", 2, 10),  # no final LF: the last field does not end on LF
        (b"1\t2\t3\n4\t5\t6\n7", 2, 12),  # bytes after the last line
        (b"1\t2\t3\n\n4\t5\t6\n", 3, 6),  # a blank line
        (b"1\t2\t3\n4\t5\n", 2, 8),  # a line with too few fields
        (b"1\t2\t3\n4\t5\t6\t\n", 2, 10),  # a trailing TAB
        (b"1\t2\t3\n4 5\t6\n", 2, 6),  # another separator
        (b"1\t2\t3\r\n", 1, 4),  # CRLF
        (b"1\t2\t3\n", 2, 6),  # fewer lines than rows
        (b"", 1, 0),
    ])
    def test_points_at_the_first_bad_field(self, kernel, body, rows, offset):
        """The body as COOC triples over ten words and as edges between the
        nodes "0" to "9": each reader points at the line holding the bad
        field at `offset`. Where the body holds whole lines, fewer than
        `rows`, both read it: neither section counts its lines."""
        vocab = b"".join(b"%d\tw\t1\n" % i for i in range(10))
        nodes = b"".join(b"# node\t%d\t0\n" % i for i in range(10))
        cooc = kernel.read_cooc(vocab + body, 10)[0]
        edges = kernel.read_edge_list(nodes + body, 10)[0]
        if offset == len(body):
            assert body.count(b"\n") < rows and cooc == edges == -1
        else:
            line = body.rfind(b"\n", 0, offset) + 1
            assert (cooc, edges) == (len(vocab) + line, len(nodes) + line)

    def test_skips_the_leading_fields(self, kernel):
        """A token field holds any bytes but TAB and LF, none at all too, and
        is not read as a number; a line needs both its TABs."""
        body = "0\tcafé\t1\n1\t\t12\n2\t\x00#1\t9223372036854775807\n".encode()
        bad, tokens, freqs, _ = kernel.read_cooc(body, 3)
        assert bad == -1
        assert tokens == "café\n\n\x00#1\n".encode() and freqs.tolist() == [1, 12, 2**63 - 1]
        assert kernel.read_cooc(b"0\ta\t1\n1b1\n", 2)[0] == len("0\ta\t1\n")
        assert kernel.read_cooc(b"0\ta\n1\tb\t1\n", 2)[0] == 0  # LF ends a token
        body = "# node\t\t0\n# node\tcafé\t12\n\tcafé\t9223372036854775807\n".encode()
        bad, tokens, self_weights, (values, _, _) = kernel.read_edge_list(body, 2)
        assert bad == -1 and tokens == "\ncafé\n".encode()
        assert self_weights.tolist() == [0, 12] and values.tolist() == [2**63 - 1]
        nodes = b"# node\ta\t0\n# node\tb\t0\n"
        assert kernel.read_edge_list(nodes + b"a\tb1\n", 2)[0] == len(nodes)
        assert kernel.read_edge_list(nodes + b"ab\t1\n", 2)[0] == len(nodes)
        assert kernel.read_edge_list(nodes + b"a\tb\t-1\n", 2)[0] == len(nodes)
        assert kernel.read_edge_list(b"# node\ta\n\t0\n", 1)[0] == 0

    def test_reads_no_rows(self, kernel):
        for read in (kernel.read_cooc, kernel.read_edge_list):
            bad, tokens, weights, (values, indices, indptr) = read(b"", 0)
            assert bad == -1 and tokens == b"" and weights.shape == values.shape == (0,)
            assert indptr.tolist() == [0] and indices.shape == (0,)
        assert kernel.read_cooc(b"0\t0\t1\n", 0)[0] == 0
        assert kernel.read_edge_list(b"a\tb\t1\n", 0)[0] == 0

    def test_refuses_what_it_cannot_take(self, kernel):
        """A number the grammar reads but the layout cannot take: an index
        past the vocabulary, however large."""
        for field in ("2", "4294967296", "9223372036854775807"):
            for template in ("0\ta\t3\n1\tb\t1\n{}\t1\t4\n", "0\ta\t3\n1\tb\t1\n0\t{}\t4\n"):
                assert kernel.read_cooc(template.format(field).encode(), 2)[0] == 12
            assert kernel.read_cooc(f"{field}\ta\t3\n".encode(), 1)[0] == 0


# ---------------------------------------------------------------------------
# COOC and edge-list lines: the writer against %, the readers against the
# arrays and the per-line readers' rules


class TestLineWriter:
    @ORACLE
    @given(values=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
    def test_writes_ints_as_percent_d(self, kernel, values):
        a = np.array(values, dtype=np.int64)
        b = a[::-1].copy()
        out = kernel.format_lines(b"", b"p\t", "iii", a, b, None)
        rows = zip(values, values[::-1], range(len(values)))
        assert bytes(out) == "".join("p\t%d\t%d\t%d\n" % row for row in rows).encode()

    def test_writes_tokens_by_index(self, kernel):
        tokens = ["", "a", "a\x00", "café", "\U0001f600", "#x"]
        blob = "".join(t + "\n" for t in tokens).encode()
        ids = np.array([5, 0, 2, 2, 4, 3], dtype=np.int64)
        weights = np.arange(6, dtype=np.int64) * 10**17
        expected = "".join(f"{tokens[i]}\t{tokens[k]}\t{w}\n"
                           for k, (i, w) in enumerate(zip(ids.tolist(), weights.tolist())))
        assert bytes(kernel.format_lines(blob, b"", "tti", ids, None, weights)) == expected.encode()
        nodes = kernel.format_lines(blob, b"# node\t", "ti", None, np.zeros(6, dtype=np.int64))
        assert bytes(nodes) == "".join(f"# node\t{t}\t0\n" for t in tokens).encode()
        assert bytes(kernel.format_lines(blob, b"", "t", np.zeros(0, dtype=np.int64))) == b""

    def test_refuses_what_it_cannot_take(self, kernel):
        one = np.zeros(1, dtype=np.int64)
        for fields, columns in [("i", (one, one)), ("x", (one,)), ("iiii", (one,) * 4),
                                ("", ()), ("ii", (one, np.zeros(2, dtype=np.int64))),
                                ("i", (None,))]:
            with pytest.raises(ValueError, match="one `t` or `i` per column"):
                kernel.format_lines(b"a\n", b"", fields, *columns)
        for column in (np.zeros(1, dtype=np.int32), np.zeros((1, 1), dtype=np.int64),
                       np.zeros(4, dtype=np.int64)[::2]):
            with pytest.raises(ValueError, match="C-contiguous 1-d int64"):
                kernel.format_lines(b"a\n", b"", "i", column)
        for ids in ([1], [-1]):
            with pytest.raises(ValueError, match="token indices"):
                kernel.format_lines(b"a\n", b"", "t", np.array(ids, dtype=np.int64))


COOC_VOCAB = "0\ta\t3\n1\tb\t1\n2\tc\x00\t9223372036854775807\n"
AT = len(COOC_VOCAB)  # the offset of the first triple


class TestCoocReader:
    @ORACLE
    @given(data=st.data())
    def test_gives_the_symmetric_arrays(self, kernel, data):
        v = data.draw(st.integers(1, 8))
        cells = data.draw(st.lists(st.tuples(st.integers(0, v - 1), st.integers(0, v - 1)),
                                   unique=True, max_size=20))
        cells = sorted({(min(t, c), max(t, c)) for t, c in cells})
        counts = data.draw(st.lists(st.integers(1, 2**63 - 1), min_size=len(cells),
                                    max_size=len(cells)))
        freqs = data.draw(st.lists(st.integers(1, 2**63 - 1), min_size=v, max_size=v))
        body = "".join(f"{i}\tw{i}\t{f}\n" for i, f in enumerate(freqs))
        body += "".join(f"{t}\t{c}\t{n}\n" for (t, c), n in zip(cells, counts))
        bad, tokens, got_freqs, (values, indices, indptr) = kernel.read_cooc(body.encode(), v)
        assert bad == -1
        assert tokens == "".join(f"w{i}\n" for i in range(v)).encode()
        assert got_freqs.tolist() == freqs
        t, c = (np.array(x, dtype=np.int64).reshape(-1) for x in zip(*cells or [((), ())]))
        n, off = np.array(counts, dtype=np.int64), t < c  # the cells and their mirrors
        rows, cols = np.concatenate((t, c[off])), np.concatenate((c, t[off]))
        want = CSR.of(sparse.coo_matrix((np.concatenate((n, n[off])), (rows, cols)), shape=(v, v)))
        assert indptr.tolist() == want.indptr.tolist()
        assert indices.tolist() == want.indices.tolist()
        assert values.tolist() == want.data.tolist()

    @pytest.mark.parametrize("body, offset", [
        (COOC_VOCAB.replace("1\tb", "2\tb"), 6),  # an index out of line order
        (COOC_VOCAB.replace("1\tb", "01\tb"), -1),  # int() reads 1
        (COOC_VOCAB.replace("\t3\n", "\t0\n"), 0),  # a frequency below 1
        (COOC_VOCAB.replace("\ta\t", "\ta\n\t"), 0),  # an LF in a token
        (COOC_VOCAB.replace("\ta\t3", "\ta"), 0),
        (COOC_VOCAB[:-1], 12),  # the vocabulary ends early
        (COOC_VOCAB + "1\t0\t4\n", AT),  # t > c
        (COOC_VOCAB + "0\t3\t4\n", AT),  # c >= vocab
        (COOC_VOCAB + "0\t1\t0\n", AT),  # a count below 1
        (COOC_VOCAB + "0\t1\t4\n0\t1\t4\n", AT + 6),  # a repeated triple
        (COOC_VOCAB + "0\t1\t4\n0\t0\t4\n", AT + 6),  # out of order
        (COOC_VOCAB + "0\t1\t4\n\n1\t1\t2\n", AT + 6),  # a blank line
        (COOC_VOCAB + "0\t1\t4\n1\t1\t2", AT + 6),  # no final LF
        (COOC_VOCAB + "0\t1\t4\r\n", AT),
        (COOC_VOCAB + "0\t1\t9223372036854775808\n", AT),
        (COOC_VOCAB + "0\t0\t1\n0\t2\t2\n1\t1\t3\n2\t2\t4\n", -1),
    ])
    def test_points_at_the_first_bad_line(self, kernel, body, offset):
        assert kernel.read_cooc(body.encode(), 3)[0] == offset

    def test_refuses_what_it_cannot_take(self, kernel):
        for vocab in (-1, 2**31):
            with pytest.raises(ValueError, match="vocabulary"):
                kernel.read_cooc(b"", vocab)


NODES = "# node\t\t0\n# node\ta\t1\n# node\ta\x00\t2\n# node\tab\t0\n# node\tcafé\t5\n"
# node tokens that share prefixes, hold NUL or are empty, in byte order
NODE_TOKENS = sorted(["", "a", "a\x00", "a\x00b", "ab", "b", "café", "cafe", "é", "\U0001f600",
                      *(f"n{i:03d}" for i in range(60))])


class TestEdgeListReader:
    @ORACLE
    @given(data=st.data())
    def test_finds_every_end_node(self, kernel, data):
        tokens = sorted(data.draw(st.sets(st.sampled_from(NODE_TOKENS), max_size=len(NODE_TOKENS))))
        assert tokens == sorted(tokens, key=str.encode)  # code-point order is byte order
        pairs = [(i, j) for i in range(len(tokens)) for j in range(i + 1, len(tokens))]
        edges = sorted(data.draw(st.sets(st.sampled_from(pairs), max_size=60)) if pairs else ())
        weights = data.draw(st.lists(st.integers(1, 2**63 - 1), min_size=len(edges),
                                     max_size=len(edges)))
        body = "".join(f"# node\t{t}\t{i}\n" for i, t in enumerate(tokens))
        body += "".join(f"{tokens[i]}\t{tokens[j]}\t{w}\n" for (i, j), w in zip(edges, weights))
        bad, blob, self_weights, (values, indices, indptr) = kernel.read_edge_list(
            body.encode(), len(tokens))
        assert bad == -1
        assert blob == "".join(t + "\n" for t in tokens).encode()
        assert self_weights.tolist() == list(range(len(tokens)))
        rows = np.repeat(np.arange(len(tokens)), np.diff(indptr))
        assert list(zip(rows.tolist(), indices.tolist())) == edges
        assert values.tolist() == weights

    @pytest.mark.parametrize("edges, offset", [
        ("\ta\t1\na\tab\t2\n", -1),  # the empty token is a node
        ("a\tab\t1\na\x00\tcafé\t2\n", -1),
        ("a\ta\t1\n", 0),  # tokenA is not before tokenB
        ("ab\ta\t1\n", 0),
        ("a\tb\t1\n", 0),  # an undeclared node
        ("a\tab\t1\na\ta\x00\t2\n", 7),  # out of order
        ("a\tab\t1\n\ta\t2\n", 7),  # a row before the last row
        ("a\tab\t1\na\tab\t2\n", 7),  # a repeated edge
        ("a\tab\t0\n", 0),  # a weight below 1
        ("a\tab\t1\n# note\n", 7),  # a comment
        ("#\ta\t1\n", 0),
        ("a\tab\t1\n\n", 7),  # a blank line
        ("a\tab\t1", 0),  # no final LF
        ("a\tab\t1\r\n", 0),
    ])
    def test_points_at_the_first_bad_line(self, kernel, edges, offset):
        body = (NODES + edges).encode()
        bad = kernel.read_edge_list(body, 5)[0]
        assert bad == (-1 if offset < 0 else len(NODES.encode()) + offset)

    @pytest.mark.parametrize("nodes, offset", [
        (NODES.replace("\ta\t1", "\ta\t-1"), 10),
        (NODES.replace("# node\ta\t", "# node\tb\t"), 21),  # out of order
        (NODES.replace("# node\ta\x00\t", "# node\ta\t"), 21),  # a repeated node
        (NODES.replace("# node\ta\t", "#node\ta\t"), 10),
        (NODES.replace("# node\t\t0\n", "# node\t0\n"), 0),
        (NODES[:-1], len(NODES.encode()) - 1),  # no final LF: fewer lines than nodes
        (NODES + "# node\tz\t0\n", len(NODES.encode())),  # a node line past the count
    ])
    def test_points_at_the_first_bad_node_line(self, kernel, nodes, offset):
        assert kernel.read_edge_list(nodes.encode(), 5)[0] == offset

    def test_refuses_what_it_cannot_take(self, kernel):
        for nodes in (-1, 2**31):
            with pytest.raises(ValueError, match="nodes"):
                kernel.read_edge_list(b"", nodes)


# ---------------------------------------------------------------------------
# ranking: the kernel's selection against _select, which runs where the
# kernel is not built

# per-row scales: subnormal rows, rows whose cosine dots or distances overflow
ROW_SCALES = [1.0, 1.0, 1.0, 5e-324, 1e-310, 1e-170, 1e160, 1e307]
small = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 5e-324, -5e-324])
         | st.floats(-4, 4, width=64))


@st.composite
def ranked_rows(draw, count, dim):
    rows = np.array([[draw(small) for _ in range(dim)] for _ in range(count)])
    rows *= np.array([draw(st.sampled_from(ROW_SCALES)) for _ in range(count)])[:, None]
    for _ in range(draw(st.integers(0, 3))):  # duplicate rows, and rows one ulp apart
        a, b = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))
        rows[a] = rows[b]
        if draw(st.booleans()):
            j = draw(st.integers(0, dim - 1))
            rows[a, j] = np.nextafter(rows[a, j], draw(st.sampled_from([-np.inf, np.inf])))
    return rows


def as_csr(rows, layout):
    """rows as CSR, with its indices sorted, reversed within each row, or
    with each row's first entry split into two entries of one column."""
    m = sparse.csr_matrix(rows)
    if layout == "sorted":
        return m
    indptr, indices, data = m.indptr, m.indices.copy(), m.data.copy()
    if layout == "unsorted":
        for lo, hi in zip(indptr[:-1], indptr[1:]):
            indices[lo:hi], data[lo:hi] = indices[lo:hi][::-1].copy(), data[lo:hi][::-1].copy()
        return sparse.csr_matrix((data, indices, indptr), shape=m.shape)
    first = indptr[:-1][np.diff(indptr) > 0]
    half = data[first] / 2
    data = np.insert(data, first, half)
    data[first + np.arange(1, len(first) + 1)] -= half
    indices = np.insert(indices, first, indices[first])
    counts = np.diff(indptr) + (np.diff(indptr) > 0)
    return sparse.csr_matrix((data, indices, np.concatenate([[0], np.cumsum(counts)])),
                             shape=m.shape)


@st.composite
def ranking_case(draw):
    v, d = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    rows = draw(ranked_rows(v, d))
    layout = draw(st.sampled_from(["dense", "sorted", "unsorted", "duplicates"]))
    matrix = rows if layout == "dense" else as_csr(rows, layout)
    space = db.VectorSpace(db.Vocabulary([f"t{i}" for i in range(v)], [1] * v), matrix)
    if draw(st.booleans()):
        queries = np.array(draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=2 * v)))
    else:
        queries = draw(ranked_rows(draw(st.integers(1, 3)), d))
    width = draw(st.integers(0, v))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exclude = np.array([rng.permutation(v)[:width] for _ in range(len(queries))])
    return (space, queries, draw(st.sampled_from(db.vector_space.METRICS)),
            draw(st.integers(1, v + 2)), exclude.reshape(len(queries), width),
            draw(st.integers(1, 3 * v)))


def ranked(space, queries, k, metric, exclude):
    """_top_k's ids and score bits, or the error it raises; overflowing rows
    score inf or NaN without a warning."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ids, scores = db.vector_space._top_k(space, queries, k, metric, exclude)
    except db.ZeroVectorError as exc:
        return repr(exc)
    return ids.tolist(), scores.view(np.uint64).tolist()


class TestRanking:
    @ORACLE
    @given(case=ranking_case())
    def test_top_k_gives_the_fallbacks_bits(self, kernel, case):
        space, queries, metric, k, exclude, block = case
        with mock.patch.object(db.vector_space, "_BLOCK_ENTRIES", block):
            compiled = ranked(space, queries, k, metric, exclude)
            with mock.patch.object(kernel_module, "get", lambda: None):
                fallback = ranked(space, queries, k, metric, exclude)
        assert compiled == fallback

    @pytest.mark.parametrize("values", ["integers", "floats"])
    @pytest.mark.parametrize("layout", ["dense", "sorted"])
    @pytest.mark.parametrize("metric", db.vector_space.METRICS)
    def test_ranks_without_the_numpy_selection(self, kernel, layout, metric, values):
        rng = np.random.default_rng(3)
        if values == "integers":  # many exact ties, which the kernel must break by token
            rows = rng.integers(-2, 3, size=(300, 12)).astype(float)
        else:  # sums whose bits depend on their order
            rows = rng.standard_normal((300, 40)) * (rng.random((300, 40)) < 0.4)
        rows[rows[:, 0] == 0, 0] = 1.0
        space = db.VectorSpace(db.Vocabulary([f"w{i:03d}" for i in range(300)][::-1], [1] * 300),
                               rows if layout == "dense" else sparse.csr_matrix(rows))

        def table_bits(k):
            return [(nl.tokens(), [s.hex() for _, s in nl.entries])
                    for nl in db.neighbor_table(space, k, metric).values()]

        with mock.patch.object(kernel_module, "get", lambda: None):
            expected = {k: table_bits(k) for k in (1, 10, 300)}
        with mock.patch.object(db.vector_space, "_select", side_effect=AssertionError):
            for k, bits in expected.items():
                assert table_bits(k) == bits

    @pytest.mark.parametrize("layout", ["dense", "sorted"])
    def test_negative_zero_ties_zero(self, kernel, layout):
        # a's cosine with b is -1e-323 / 4, which rounds to -0.0; with c it is 0.0
        rows = np.array([[2.0, 0.0], [-5e-324, 2.0], [0.0, 1.0]])
        space = db.VectorSpace(db.Vocabulary(["a", "b", "c"], [1] * 3),
                               rows if layout == "dense" else sparse.csr_matrix(rows))
        nl = db.nearest_neighbors(space, "a", 2)
        assert [(t, math.copysign(1.0, s)) for t, s in nl.entries] == [("b", -1.0), ("c", 1.0)]
        with mock.patch.object(kernel_module, "get", lambda: None):
            assert db.nearest_neighbors(space, "a", 2) == nl

    def test_refuses_what_it_cannot_take(self, kernel):
        scores, rank = np.zeros((2, 4)), np.arange(4)
        for k in (0, 4):
            with pytest.raises(ValueError, match="1 <= k"):
                kernel.select(scores, np.zeros((2, 1), dtype=int), k, rank)
        with pytest.raises(ValueError, match=r"\[0, vocabulary\)"):
            kernel.select(scores, np.array([[0], [4]]), 1, rank)
        with pytest.raises(ValueError, match="norm per id"):
            kernel.select(scores, np.zeros((2, 0), dtype=int), 1, rank, np.ones(3), np.ones(2))


# per-query scales for the scatter: components that overflow a norm, and
# inf or NaN components, which the scatter adds wherever the CSR product does
QUERY_SCALES = [1.0, 1.0, 5e-324, 1e307, np.inf, -np.inf, np.nan]


@st.composite
def scatter_case(draw):
    """A sparse V x d space with signed rows, rows that `_rescale` rewrites
    and empty columns; 2-d queries, some with inf or NaN components;
    exclusions; k up to the number of candidates; and a block size that
    splits the queries."""
    v, d = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    rows = draw(ranked_rows(v, d))
    rows[:, draw(st.lists(st.integers(0, d - 1), max_size=d))] = 0.0
    rows[~rows.any(axis=1), draw(st.integers(0, d - 1))] = 1.0  # no zero row to refuse
    space = db.VectorSpace(db.Vocabulary([f"t{i}" for i in range(v)][::-1], [1] * v),
                           CSR.of(sparse.csr_matrix(rows)))
    queries = draw(ranked_rows(draw(st.integers(1, 6)), d))
    for i in draw(st.lists(st.integers(0, len(queries) - 1), max_size=3)):
        queries[i, draw(st.integers(0, d - 1))] = draw(st.sampled_from(QUERY_SCALES))
    queries[~queries.any(axis=1), 0] = 1.0
    width = draw(st.integers(0, v - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    exclude = np.array([rng.permutation(v)[:width] for _ in range(len(queries))])
    k = draw(st.sampled_from([v - width, 1]) | st.integers(1, v - width))
    return space, queries, exclude.reshape(len(queries), width), k, draw(st.integers(1, 3 * v))


class TestScatterRanking:
    @ORACLE
    @given(case=scatter_case())
    def test_gives_the_bits_of_the_csr_product_and_select(self, kernel, case):
        space, queries, exclude, k, block = case
        lex_rank = space.lex_rank()
        with np.errstate(all="ignore"):
            rows, norms = space._unit_rows()
            rank = kernel.cosine_ranker(rows.indptr, rows.indices, rows.data, space.dim, norms,
                                        lex_rank)
            ids, top = rank(*db.vector_space._unit_queries(queries), exclude, k)
            with mock.patch.object(kernel_module, "get", lambda: None):
                dots, norms, qnorms = db.vector_space._cosine_terms(space, queries)
                ref_ids, ref_top = db.vector_space._select(dots, exclude, k, lex_rank, norms, qnorms)
        assert ids.tolist() == ref_ids.tolist()
        assert top.view(np.uint64).tolist() == ref_top.view(np.uint64).tolist()
        # through _top_k, a block at a time, for row queries and vectors alike
        by_row = np.arange(len(space))[:, None][:, :0]
        with mock.patch.object(db.vector_space, "_BLOCK_ENTRIES", block):
            for q, drop in ((queries, exclude), (np.arange(len(space)), by_row)):
                compiled = ranked(space, q, k, "cosine", drop)
                with mock.patch.object(kernel_module, "get", lambda: None):
                    assert compiled == ranked(space, q, k, "cosine", drop)

    def test_makes_no_csr_product(self, kernel):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((200, 90)) * (rng.random((200, 90)) < 0.1)
        rows[:, 0] += 1.0
        space = db.VectorSpace(db.Vocabulary([f"w{i:03d}" for i in range(200)], [1] * 200),
                               sparse.csr_matrix(rows))
        with mock.patch.object(kernel_module, "get", lambda: None):
            expected = db.neighbor_table(space, 7)
        with mock.patch.object(CSR, "dot", side_effect=AssertionError), \
                mock.patch.object(db.vector_space, "_select", side_effect=AssertionError):
            assert db.neighbor_table(space, 7) == expected

    def test_refuses_what_it_cannot_take(self, kernel):
        m = CSR.of(sparse.csr_matrix(np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])))
        norms, rank = np.ones(2), np.arange(2)
        with pytest.raises(ValueError, match="int32 indices"):
            kernel.cosine_ranker(m.indptr, m.indices.astype(np.int64), m.data, 3, norms, rank)
        with pytest.raises(ValueError, match="float64 data"):
            kernel.cosine_ranker(m.indptr, m.indices, m.data.astype(np.float32), 3, norms, rank)
        for indptr in ([1, 1, 3], [0, 2, 1], [0, 1, 4]):
            with pytest.raises(ValueError, match="indptr"):
                kernel.cosine_ranker(np.array(indptr, dtype=np.int64), m.indices, m.data, 3,
                                     norms, rank)
        with pytest.raises(ValueError, match="column indices"):
            kernel.cosine_ranker(m.indptr, m.indices, m.data, 2, norms, rank)
        for norms_, rank_ in ((np.ones(3), rank), (norms, np.arange(1))):
            with pytest.raises(ValueError, match="a norm and a rank per row"):
                kernel.cosine_ranker(m.indptr, m.indices, m.data, 3, norms_, rank_)
        ranker = kernel.cosine_ranker(m.indptr, m.indices, m.data, 3, norms, rank)
        queries, none = np.ones((2, 3)), np.zeros((2, 0), dtype=int)
        for q, qnorms in ((np.ones((2, 2)), np.ones(2)), (np.ones(3), np.ones(1)),
                          (queries, np.ones(3))):
            with pytest.raises(ValueError, match="a norm per query"):
                ranker(q, qnorms, none, 1)
        for k in (0, 3):
            with pytest.raises(ValueError, match="1 <= k"):
                ranker(queries, np.ones(2), none, k)
        with pytest.raises(ValueError, match="1 <= k"):
            ranker(queries, np.ones(2), np.zeros((1, 1), dtype=int), 1)
        with pytest.raises(ValueError, match=r"\[0, vocabulary\)"):
            ranker(queries, np.ones(2), np.array([[0], [2]]), 1)
        ids, top = ranker(queries, np.ones(2), np.array([[0], [1]]), 1)
        assert ids.tolist() == [[1], [0]] and top.tolist() == [[4.0], [2.0]]


def chain_draws(cdf_rows):
    """Draws that land on CDF entries, just beside them, at the ends of
    [0, 1) and past the last entry of a row that ends below 1.0."""
    entries = st.sampled_from(cdf_rows).flatmap(st.sampled_from)
    return st.lists(
        st.floats(0.0, 1.0, exclude_max=True)
        | entries
        | entries.map(lambda x: float(np.nextafter(x, 0.0)))
        | entries.map(lambda x: min(float(np.nextafter(x, 1.0)), 1 - 2**-53))
        | st.sampled_from([0.0, 1 - 2**-53]),
        min_size=1, max_size=300,
    )


def chain_arrays(language):
    """The arguments of `Kernel.chain` before the draws, for a language."""
    return (language.unigram, language.unigram_cdf, language.preferred, language.sums,
            db.synthetic.PREFERENCE_BOOST)


class TestChain:
    @pytest.mark.parametrize("vocab_size", [4, 500, 3000])
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_gives_the_numpy_ids(self, kernel, vocab_size, data):
        language = db.synthetic._language(vocab_size)
        rows = [language.unigram_cdf.tolist()] + [
            db.synthetic._row_cdf(language, r).tolist() for r in (0, vocab_size - 1)]
        draws = np.array(data.draw(chain_draws(rows)), dtype=np.float64)
        got = kernel.chain(*chain_arrays(language), draws)
        assert got.dtype == np.int64
        assert got.tolist() == db.synthetic._chain(language, draws)

    def test_a_draw_past_the_last_entry_picks_the_last_word(self, kernel):
        # both rows end below 1.0, as rounding leaves half the rows at V=500:
        # row 0 is [30, 0.4] / 40, row 1 is [0.5, 24] / 30
        language = db.synthetic._Language(
            ("a", "b"), np.array([0.5, 0.4]), np.array([0.5, 0.9]),
            np.array([[0], [1]]), np.array([40.0, 30.0]))
        assert db.synthetic._row_cdf(language, 0).tolist() == [0.75, 0.76]
        draws = np.array([0.95, 0.01, 0.75, 0.76, 0.95, 0.95])
        expected = [1, 0, 0, 1, 1, 1]
        assert kernel.chain(*chain_arrays(language), draws).tolist() == expected
        assert db.synthetic._chain(language, draws) == expected

    def test_refuses_what_it_cannot_take(self, kernel):
        unigram, cdf, sums, draws = np.array([0.5, 0.5]), np.array([0.5, 1.0]), np.ones(2), np.zeros(3)
        preferred = np.array([[0], [1]])
        with pytest.raises(ValueError, match="float64"):
            kernel.chain(unigram.astype(np.float32), cdf, preferred, sums, 2.0, draws)
        with pytest.raises(ValueError, match="C-contiguous"):
            kernel.chain(unigram, cdf, preferred, np.ones(4)[::2], 2.0, draws)
        with pytest.raises(ValueError, match="V >= 1"):
            kernel.chain(unigram, cdf, preferred, np.ones(3), 2.0, draws)
        with pytest.raises(ValueError, match="V >= 1"):
            kernel.chain(np.zeros(0), np.zeros(0), np.zeros((0, 1), dtype=np.int64), np.zeros(0),
                         2.0, draws)
        with pytest.raises(ValueError, match="V >= 1"):
            kernel.chain(unigram, cdf, preferred, sums, 2.0, np.zeros((3, 1)))
        for bad in (preferred.astype(np.int32), np.array([[0, 1]] * 4), np.array([0, 1]),
                    np.array([[0, 1, 1], [0, 0, 1]])[:, 1:]):
            with pytest.raises(ValueError, match=r"int64 of shape \(V, successors\)"):
                kernel.chain(unigram, cdf, bad, sums, 2.0, draws)
        for bad in ([[0], [2]], [[-1], [0]], [[1, 0], [0, 1]], [[0, 0], [0, 1]]):
            with pytest.raises(ValueError, match=r"ascending ids in \[0, V\)"):
                kernel.chain(unigram, cdf, np.array(bad), sums, 2.0, draws)


@st.composite
def counting_corpora(draw):
    """Several documents, among them empty and one-token ones; with min_count
    above 1 the rarer words are out-of-vocabulary gaps that hold positions."""
    word = st.sampled_from("abcdefghij")
    docs = draw(st.lists(st.lists(word, max_size=40), min_size=1, max_size=5))
    docs.insert(draw(st.integers(0, len(docs))), [])
    docs.insert(draw(st.integers(0, len(docs))), [draw(word)])
    streams = [db.TokenStream(f"d{i}", tuple(doc)) for i, doc in enumerate(docs)]
    return streams, draw(st.integers(1, 3))


class TestCooccur:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(counting_corpora(), st.integers(1, 45), st.sampled_from([1, 2, 7, 64, 1 << 16]))
    def test_gives_the_numpy_arrays(self, kernel, corpus, radius, chunk):
        # radius 1 to past the longest document; small chunks cut the
        # numpy counter's slabs and folds at every kind of position
        streams, min_count = corpus
        try:
            vocab = db.build_vocabulary(streams, min_count=min_count)
        except db.EmptyVocabularyError:
            return
        window = db.WindowConfig(radius)
        built = db.count_cooccurrences(streams, vocab, window).counts
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_module, "get", lambda: None)
            mp.setattr(count_model, "_CHUNK", chunk)
            fallback = db.count_cooccurrences(streams, vocab, window)
        for name in ("indptr", "indices", "data"):
            got, want = getattr(built, name), getattr(fallback.counts, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert matrix_equals_oracle(fallback, brute_force_counts(streams, vocab, radius))

    def test_gives_the_numpy_arrays_on_zipf_documents(self, kernel):
        # Zipf frequencies at V=400: frequent words fill long rows, rare
        # words short ones
        rng = np.random.default_rng(8)
        words = [f"w{i}" for i in range(400)]
        streams = [db.TokenStream(f"d{i}", tuple(words[min(int(r), 400) - 1]
                                                 for r in rng.zipf(1.3, 500)))
                   for i in range(3)]
        vocab = db.build_vocabulary(streams)
        ids, radius = _window_ids(streams, vocab, 3)
        indptr, indices, data = kernel.cooccur(ids, len(vocab), radius)
        want = to_scipy(count_model._numpy_counts(ids, len(vocab), radius)).sorted_indices()
        assert np.array_equal(indptr, want.indptr)
        assert np.array_equal(indices, want.indices)
        assert np.array_equal(data, want.data)

    def test_returns_csr_arrays_with_ascending_columns(self, kernel):
        ids = np.array([-2, 0, 2, 0, -2, 1, 0, -2], dtype=np.int64)
        indptr, indices, data = kernel.cooccur(ids, 4, 2)
        assert (indptr.dtype, indices.dtype, data.dtype) == (np.int64, np.int32, np.int64)
        assert indptr.tolist() == [0, 3, 4, 5, 5]
        assert indices.tolist() == [0, 1, 2, 0, 0]
        assert data.tolist() == [2, 1, 2, 1, 2]

    def test_walks_stop_at_document_boundaries_not_at_gaps(self, kernel):
        # id 1 lies 3 positions from the first 0 across an out-of-vocabulary
        # gap, and 1 position from the second 0 across a boundary
        ids = np.array([-2, 0, -1, -1, 1, -2, 0, -2], dtype=np.int64)
        indptr, indices, data = kernel.cooccur(ids, 2, 10)
        assert indptr.tolist() == [0, 1, 2]
        assert indices.tolist() == [1, 0]
        assert data.tolist() == [1, 1]
        assert (to_scipy(count_model._numpy_counts(ids, 2, 10)) != sparse.csr_matrix(
            (data, indices, indptr), shape=(2, 2))).nnz == 0

    def test_refuses_what_it_cannot_take(self, kernel):
        ids = np.array([-2, 0, 1, -2], dtype=np.int64)
        with pytest.raises(ValueError, match="int64"):
            kernel.cooccur(ids.astype(np.int32), 2, 1)
        with pytest.raises(ValueError, match="vocabulary ids"):
            kernel.cooccur(ids, 1, 1)
        for unbounded in ([-1, 0, 1, -2], [-2, 0, 1, -1], [-2, 0, -3, 1, -2], []):
            with pytest.raises(ValueError, match="boundary"):
                kernel.cooccur(np.array(unbounded, dtype=np.int64), 2, 1)
        with pytest.raises(ValueError, match="2\\*\\*31"):
            kernel.cooccur(ids, 2**31, 1)
        with pytest.raises(ValueError, match="radius"):
            kernel.cooccur(ids, 2, 0)


class TestCsrDot:
    def test_long_rows_give_the_numpy_and_scipy_bits(self, kernel):
        # rows of up to 400 entries of mixed magnitude: any other order of a
        # row's sum would change its last bits
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((300, 400)) * 10.0 ** rng.integers(-8, 8, (300, 400))
        rows *= rng.random((300, 400)) < np.linspace(0.01, 1.0, 300)[:, None]
        m = CSR.of(sparse.csr_matrix(rows))
        for x in (rng.standard_normal(400), rng.standard_normal((400, 7))):
            compiled = kernel.csr_dot(m.indptr, m.indices, m.data, x)
            reference = _numpy_dot(m.indptr, m.indices, m.data, x)
            assert compiled.view(np.uint64).tolist() == reference.view(np.uint64).tolist()
            assert compiled.view(np.uint64).tolist() == (sparse.csr_matrix(rows) @ x).view(
                np.uint64).tolist()

    def test_refuses_what_it_cannot_take(self, kernel):
        m = CSR.of(sparse.csr_matrix(np.array([[0.0, 2.0], [1.0, 0.0]])))
        x = np.ones(2)
        with pytest.raises(ValueError, match="int32 indices"):
            kernel.csr_dot(m.indptr, m.indices.astype(np.int64), m.data, x)
        with pytest.raises(ValueError, match="float64 data"):
            kernel.csr_dot(m.indptr, m.indices, m.data.astype(np.float32), x)
        for indptr in ([1, 1, 2], [0, 2, 1], [0, 1, 3]):
            with pytest.raises(ValueError, match="indptr"):
                kernel.csr_dot(np.array(indptr, dtype=np.int64), m.indices, m.data, x)
        for column in (-1, 2):
            with pytest.raises(ValueError, match="column indices"):
                kernel.csr_dot(m.indptr, np.array([column, 0], dtype=np.int32), m.data, x)
        with pytest.raises(ValueError, match="column indices"):
            kernel.csr_dot(m.indptr, m.indices, m.data, np.ones(1))
