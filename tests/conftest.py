"""Shared fixtures and independent oracles for the test suite."""

from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import driftbench as db
from driftbench import kernel as kernel_module

DATA_DIR = Path(__file__).parent / "data"

ROSE_TEXT = "Rose is a rose is a rose is a rose"

# one line per acceptance criterion, echoed after the run (see
# pytest_terminal_summary); populated by tests/test_acceptance.py
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = list(ACCEPTANCE_RESULTS)
    for rep in terminalreporter.stats.get("skipped", []):
        if "test_acceptance" in str(rep.nodeid):
            reason = ""
            if isinstance(rep.longrepr, tuple):
                reason = rep.longrepr[2].removeprefix("Skipped: ")
            lines.append(f"{rep.nodeid.split('::')[-1]}: SKIP  {reason}")
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


def brute_force_counts(streams, vocab, radius):
    """O(n^2) all-pairs co-occurrence oracle: |i - j| <= radius, i != j."""
    counts = defaultdict(int)
    for stream in streams:
        toks = stream.tokens
        n = len(toks)
        for i in range(n):
            if toks[i] not in vocab:
                continue
            for j in range(n):
                if i != j and abs(i - j) <= radius and toks[j] in vocab:
                    counts[(toks[i], toks[j])] += 1
    return dict(counts)


def to_scipy(m):
    """The package's CSR matrix `m` as a scipy CSR matrix of copied arrays,
    for the assertions that use scipy's operations as their oracle."""
    return sparse.csr_matrix((m.data.copy(), m.indices.copy(), m.indptr.copy()), shape=m.shape)


def matrix_equals_oracle(matrix, oracle):
    """Exact agreement between a CooccurrenceMatrix and the oracle dict."""
    seen = set()
    coo = to_scipy(matrix.counts).tocoo()
    for r, c, v in zip(coo.row, coo.col, coo.data):
        pair = (matrix.vocab.token_at(int(r)), matrix.vocab.token_at(int(c)))
        if oracle.get(pair, 0) != int(v):
            return False
        seen.add(pair)
    return all(pair in seen for pair, v in oracle.items() if v > 0)


def random_streams(rng, n_streams, max_tokens=200, vocab_size=20):
    words = [f"w{i}" for i in range(vocab_size)]
    streams = []
    for s in range(n_streams):
        n = int(rng.integers(0, max_tokens + 1))
        toks = tuple(words[int(i)] for i in rng.integers(0, vocab_size, size=n))
        streams.append(db.TokenStream(doc_id=f"doc{s}", tokens=toks))
    return streams


def dense_space(tokens, rows, freqs=None):
    vocab = db.Vocabulary(list(tokens), freqs or [1] * len(tokens))
    return db.VectorSpace(vocab, np.asarray(rows, dtype=float))


@pytest.fixture
def rose_stream():
    return db.tokenize(ROSE_TEXT, doc_id="rose")


@pytest.fixture
def rose_matrix(rose_stream):
    vocab = db.build_vocabulary([rose_stream])
    return db.count_cooccurrences([rose_stream], vocab, db.WindowConfig(radius=10))


@pytest.fixture
def table1_space():
    """The three-word count-model rows used across similarity tests."""
    return dense_space(
        ["dog", "cat", "bird"], [[50, 77, 3], [48, 4, 2], [0, 10, 47]], [50, 48, 10]
    )


@pytest.fixture
def cafe_text():
    return (DATA_DIR / "cafe_story.txt").read_text(encoding="utf-8")


@pytest.fixture
def numpy_step(monkeypatch):
    """Run the numpy training step, the repr() embedding writer and the
    per-line readers of every text format, as where the C kernel cannot be
    built: kernel, else per-line reader."""
    monkeypatch.setattr(kernel_module, "get", lambda: None)


@pytest.fixture(params=["kernel", "numpy"])
def each_path(request, monkeypatch):
    """Run a test once where the C kernel is built (skipped where it cannot
    be) and once on the numpy paths that run without it."""
    if request.param == "numpy":
        monkeypatch.setattr(kernel_module, "get", lambda: None)
    elif kernel_module.get() is None:
        pytest.skip("the C kernel does not build here")
    return request.param


@pytest.fixture
def kernel():
    built = kernel_module.get()
    if built is None:
        pytest.skip("the C kernel does not build here")
    return built
