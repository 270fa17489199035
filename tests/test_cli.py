"""End-to-end CLI behavior: pipelines, manifests, determinism, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import driftbench as db
from driftbench import cli, kernel as kernel_module, stability
from driftbench.cli import build_parser, main

from conftest import DATA_DIR, ROSE_TEXT

TRAIN_TEXT = (
    "the river ran past the mill and the miller watched the water turn "
    "the wheel while the dog slept by the door of the mill and the water "
    "kept turning the wheel all day until the sun went down over the river"
)


@pytest.fixture
def rose_file(tmp_path):
    path = tmp_path / "rose.txt"
    path.write_text(ROSE_TEXT, encoding="utf-8")
    return path


@pytest.fixture
def train_file(tmp_path):
    path = tmp_path / "mill.txt"
    path.write_text(TRAIN_TEXT, encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestStats:
    def test_rose_stats_json(self, rose_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert run("stats", rose_file, "--out", out) == 0
        payload = json.loads(out.read_text())
        assert payload == {
            "token_count": 10,
            "type_count": 3,
            "type_token_ratio": 0.3,
            "empty": False,
        }
        manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
        assert manifest["subcommand"] == "stats"
        assert len(manifest["inputs"]) == 1

    def test_stdout_and_stderr_manifest(self, rose_file, capsys):
        assert run("stats", rose_file) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["token_count"] == 10
        assert '"subcommand": "stats"' in captured.err

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        assert run("stats", tmp_path / "nope.txt") == 2
        assert "expected" in capsys.readouterr().err


class TestBuildCount:
    def test_rose_cooc_triples(self, rose_file, tmp_path):
        out = tmp_path / "rose.cooc"
        assert run("build-count", rose_file, "--out", out, "--window", 10) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "COOC v1 3 10"
        assert len([l for l in lines[4:] if l]) == 6

    @pytest.mark.parametrize("window", [2_000_000_000, 10**20])
    def test_a_window_past_every_document_is_kept_and_counts_the_rest(self, rose_file,
                                                                      tmp_path, window):
        near, far = tmp_path / "near.cooc", tmp_path / "far.cooc"
        assert run("build-count", rose_file, "--out", near, "--window", 9) == 0
        assert run("build-count", rose_file, "--out", far, "--window", window) == 0
        header, *body = far.read_text().splitlines()
        assert header == f"COOC v1 3 {window}"
        assert body == near.read_text().splitlines()[1:]
        assert run("neighbors", far, "rose", "--k", 2) == 0

    def test_a_window_past_one_long_document_among_many_short_ones(self, tmp_path):
        # one document per file: a 200-token one, then 300 of 0 to 5 tokens,
        # so that a window pad per document would hold 199 x 300 entries
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        words = TRAIN_TEXT.split()
        (corpus / "0-long.txt").write_text(" ".join((words * 5)[:200]), encoding="utf-8")
        for i in range(300):
            (corpus / f"1-{i:03d}.txt").write_text(" ".join(words[i % 40 :][: i % 6]),
                                                   encoding="utf-8")
        near, far = tmp_path / "near.cooc", tmp_path / "far.cooc"
        assert run("build-count", corpus, "--out", near, "--window", 199) == 0
        assert run("build-count", corpus, "--out", far, "--window", 2_000_000_000) == 0
        assert far.read_text().splitlines()[1:] == near.read_text().splitlines()[1:]
        assert run("train", corpus, "--out", tmp_path / "m", "--seed", 3, "--dim", 4,
                   "--epochs", 1, "--window", 2_000_000_000) == 0

    def test_rebuild_is_byte_identical(self, rose_file, tmp_path):
        a, b = tmp_path / "a.cooc", tmp_path / "b.cooc"
        run("build-count", rose_file, "--out", a)
        run("build-count", rose_file, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_stoplist_that_removes_everything_exits_2(self, rose_file, tmp_path, capsys):
        stop = tmp_path / "stop.txt"
        stop.write_text("rose\nis\na\n", encoding="utf-8")
        code = run("build-count", rose_file, "--out", tmp_path / "x.cooc", "--stoplist", stop)
        assert code == 2

    def test_stoplist_with_capitals_removes_its_tokens(self, tmp_path):
        corpus, stop, out = tmp_path / "rose.txt", tmp_path / "stop.txt", tmp_path / "s.json"
        corpus.write_text("Rose is a rose", encoding="utf-8")
        stop.write_text("Rose\nIS\n", encoding="utf-8")
        assert run("stats", corpus, "--stoplist", stop, "--out", out) == 0
        assert json.loads(out.read_text())["token_count"] == 1

    @pytest.mark.parametrize("line", ["Rose is", "--"])
    def test_stoplist_line_of_not_one_token_exits_2(self, rose_file, tmp_path, capsys, line):
        stop = tmp_path / "stop.txt"
        stop.write_text(f"a\n{line}\n", encoding="utf-8")
        assert run("stats", rose_file, "--stoplist", stop) == 2
        assert f"stop.txt: line 2: {line!r} is not one token" in capsys.readouterr().err

    def test_usage_error_exits_1(self, rose_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("build-count", rose_file, "--out", tmp_path / "x.cooc", "--window", "0")
        assert exc.value.code == 1


class TestNeighbors:
    @pytest.fixture
    def cooc(self, rose_file, tmp_path):
        out = tmp_path / "rose.cooc"
        run("build-count", rose_file, "--out", out)
        return out

    def test_tsv_output(self, cooc, capsys):
        assert run("neighbors", cooc, "is", "--k", 2) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        rank, token, score = lines[0].split("\t")
        assert rank == "1" and token == "a"
        assert len(score.split(".")[1]) == 10

    def test_k1_single_row(self, cooc, capsys):
        assert run("neighbors", cooc, "rose", "--k", 1) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_unknown_word_exits_2_and_names_word(self, cooc, capsys):
        assert run("neighbors", cooc, "tulip") == 2
        assert "tulip" in capsys.readouterr().err

    def test_json_format(self, cooc, capsys):
        assert run("neighbors", cooc, "is", "--k", 2, "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["query"] == "is"

    def test_ppmi_weighting(self, cooc, capsys):
        assert run("neighbors", cooc, "is", "--k", 2, "--ppmi") == 0
        assert len(capsys.readouterr().out.splitlines()) == 2


class TestDiff:
    def test_identical_models_all_ones(self, rose_file, tmp_path, capsys):
        cooc = tmp_path / "rose.cooc"
        run("build-count", rose_file, "--out", cooc)
        assert run("diff", cooc, cooc, "--k", 2) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregates"]["mean_overlap"] == 1.0
        assert all(w["exact_order"] for w in payload["words"].values())

    def test_csv_format_and_word_subset(self, rose_file, tmp_path, capsys):
        cooc = tmp_path / "rose.cooc"
        run("build-count", rose_file, "--out", cooc)
        assert run("diff", cooc, cooc, "--k", 2, "--format", "csv", "--words", "rose") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("rose,4,1.0")

    def test_empty_word_selection_is_a_data_error(self, rose_file, tmp_path, capsys):
        cooc = tmp_path / "rose.cooc"
        run("build-count", rose_file, "--out", cooc)
        capsys.readouterr()
        assert run("diff", cooc, cooc, "--words", ",") == 2
        assert capsys.readouterr().err == "driftbench: error: no words given to compare\n"


class TestTrain:
    def test_deterministic_files(self, train_file, tmp_path, capsys):
        a, b = tmp_path / "ma", tmp_path / "mb"
        args = ["--seed", 7, "--dim", 8, "--epochs", 2, "--window", 2]
        assert run("train", train_file, "--out", a, *args) == 0
        assert run("train", train_file, "--out", b, *args) == 0
        assert (tmp_path / "ma.txt").read_bytes() == (tmp_path / "mb.txt").read_bytes()
        manifest = json.loads((tmp_path / "ma.manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_a_window_past_every_document_trains_and_is_kept(self, train_file, tmp_path):
        wide = ["--window", 2_000_000_000]
        assert run("train", train_file, "--out", tmp_path / "m", "--seed", 7, "--dim", 4,
                   "--epochs", 1, *wide) == 0
        manifest = json.loads((tmp_path / "m.manifest.json").read_text())
        assert manifest["parameters"]["window"] == 2_000_000_000
        assert run("experiment", "stein_hemingway", "--base", train_file, "--addition", train_file,
                   "--out", tmp_path / "sh", "--k", 2, *wide) == 0
        assert (tmp_path / "sh" / "base.cooc").read_text().startswith("COOC v1 ")

    def test_missing_seed_is_usage_error(self, train_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", train_file, "--out", tmp_path / "m")
        assert exc.value.code == 1

    def test_epochs_zero_is_usage_error(self, train_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("train", train_file, "--out", tmp_path / "m", "--seed", 1, "--epochs", 0)
        assert exc.value.code == 1

    def test_loss_logged_and_decreasing(self, train_file, tmp_path, capsys):
        run(
            "train", train_file, "--out", tmp_path / "m",
            "--seed", 1, "--dim", 8, "--epochs", 4, "--window", 2,
        )
        err = capsys.readouterr().err
        losses = [
            float(line.rsplit(" ", 1)[1])
            for line in err.splitlines()
            if line.startswith("epoch ")
        ]
        assert len(losses) == 4
        assert losses[-1] < losses[0]

    def test_skipgram_flag_changes_model(self, train_file, tmp_path):
        args = ["--seed", 7, "--dim", 8, "--epochs", 2, "--window", 2]
        run("train", train_file, "--out", tmp_path / "cb", *args)
        run("train", train_file, "--out", tmp_path / "sg", *args, "--skipgram")
        assert (tmp_path / "cb.txt").read_bytes() != (tmp_path / "sg.txt").read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, train_file, tmp_path, capsys):
        code = run(
            "train", train_file, "--out", tmp_path / "m",
            "--seed", 1, "--dim", 8, "--epochs", 2, "--window", 2, "--lr", "1e9",
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestRotateAndAlign:
    @pytest.fixture
    def model(self, train_file, tmp_path):
        run(
            "train", train_file, "--out", tmp_path / "m",
            "--seed", 3, "--dim", 10, "--epochs", 2, "--window", 2,
        )
        return tmp_path / "m.txt"

    def test_rotate_then_diff_full_overlap(self, model, tmp_path, capsys):
        rotated = tmp_path / "rot.txt"
        assert run("rotate", model, "--seed", 5, "--out", rotated) == 0
        assert run("diff", model, rotated, "--k", 5) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregates"]["mean_overlap"] == 1.0

    def test_rotate_requires_seed(self, model, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("rotate", model, "--out", tmp_path / "r.txt")
        assert exc.value.code == 1

    def test_align_recovers_own_rotation(self, model, tmp_path, capsys):
        rotated = tmp_path / "rot.txt"
        run("rotate", model, "--seed", 5, "--out", rotated, "--style", "haar")
        assert run("align", model, rotated) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["residual"] < 1e-6
        assert not payload["underdetermined"]

    def test_align_without_convergence_exits_3(self, model, tmp_path, capsys, monkeypatch):
        rotated = tmp_path / "rot.txt"
        run("rotate", model, "--seed", 5, "--out", rotated, "--style", "haar")

        def svd(matrix):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", svd)
        assert run("align", model, rotated) == 3
        assert "did not converge" in capsys.readouterr().err

    def test_align_of_huge_vectors_writes_a_finite_residual(self, tmp_path, capsys):
        # the cross-covariance of these rows overflows unless they are scaled first
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 4)) * 1e200
        y = x @ stability.random_orthogonal(4, rng)
        for name, rows in (("x.txt", x), ("y.txt", y)):
            lines = [f"w{i} {' '.join(map(repr, row.tolist()))}\n" for i, row in enumerate(rows)]
            (tmp_path / name).write_text("50 4\n" + "".join(lines), encoding="utf-8")
        capsys.readouterr()
        assert run("align", tmp_path / "x.txt", tmp_path / "y.txt") == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert payload["residual"] <= 1e-12 * 1e200

    def test_align_dimension_mismatch_exits_2(self, model, train_file, tmp_path, capsys):
        run(
            "train", train_file, "--out", tmp_path / "n",
            "--seed", 3, "--dim", 6, "--epochs", 1, "--window", 2,
        )
        assert run("align", model, tmp_path / "n.txt") == 2

    def test_rotate_refuses_count_model(self, rose_file, tmp_path, capsys):
        cooc = tmp_path / "rose.cooc"
        run("build-count", rose_file, "--out", cooc)
        assert run("rotate", cooc, "--seed", 1, "--out", tmp_path / "r.txt") == 2


class TestGraphCommands:
    @pytest.fixture
    def cooc(self, rose_file, tmp_path):
        out = tmp_path / "rose.cooc"
        run("build-count", rose_file, "--out", out)
        return out

    def test_rose_graph_three_edges(self, cooc, tmp_path):
        out = tmp_path / "rose.graph.tsv"
        assert run("graph", cooc, "--out", out) == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data) == 3

    def test_huge_min_weight_edgeless(self, cooc, capsys):
        assert run("graph", cooc, "--min-weight", 1000) == 0
        out = capsys.readouterr().out
        assert out.startswith("# nodes: 3")
        assert not [l for l in out.splitlines() if l and not l.startswith("#")]

    def test_intersect_self_identity(self, cooc, tmp_path, capsys):
        gpath = tmp_path / "g.tsv"
        run("graph", cooc, "--out", gpath)
        assert run("intersect", gpath, gpath) == 0
        produced = capsys.readouterr().out
        assert produced == gpath.read_text()

    def test_graphml(self, cooc, capsys):
        assert run("graph", cooc, "--graphml") == 0
        assert capsys.readouterr().out.startswith("<?xml")

    @pytest.mark.parametrize("token, flags", [("#x", []), ("a\x01", ["--graphml"])])
    def test_graph_refuses_a_token_its_format_cannot_carry(self, token, flags, tmp_path, capsys):
        cooc = tmp_path / "odd.cooc"
        cooc.write_text(
            f"COOC v1 3 2\n0\t{token}\t2\n1\tb\t2\n2\tc\t2\n0\t1\t2\n0\t2\t2\n1\t2\t2\n",
            encoding="utf-8",
        )
        assert run("graph", cooc, *flags, "--out", tmp_path / "g.out") == 2
        err = capsys.readouterr().err
        assert repr(token) in err and "Traceback" not in err
        assert not (tmp_path / "g.out").exists()

    def test_intersect_refuses_a_comment_token(self, tmp_path, capsys):
        listing = tmp_path / "g.tsv"
        listing.write_text("# nodes: 2\n# node\t#x\t0\n# node\tb\t1\n", encoding="utf-8")
        assert run("intersect", listing, listing) == 2
        err = capsys.readouterr().err
        assert "'#x'" in err and "Traceback" not in err


class TestExperiments:
    def test_stein_hemingway_wiring(self, tmp_path, capsys, cafe_text):
        base = tmp_path / "base.txt"
        base.write_text(
            "they know the road and they know the river and the glass "
            "window of the house shows the road to all who know it well "
            * 12,
            encoding="utf-8",
        )
        addition = tmp_path / "addition.txt"
        addition.write_text(cafe_text, encoding="utf-8")
        outdir = tmp_path / "exp"
        code = run(
            "experiment", "stein_hemingway",
            "--base", base, "--addition", addition, "--out", outdir,
            "--k", 5, "--words", "know,glass",
        )
        assert code == 0
        assert (outdir / "base.cooc").exists()
        assert (outdir / "augmented.cooc").exists()
        assert (outdir / "report.json").exists()
        assert (outdir / "report.csv").exists()
        assert (outdir / "manifest.json").exists()
        tracked = json.loads((outdir / "tracked.json").read_text())
        assert set(tracked) == {"know", "glass"}
        assert (outdir / "know.base.tsv").exists()
        report = json.loads((outdir / "report.json").read_text())
        assert 0.0 <= report["aggregates"]["mean_overlap"] <= 1.0

    def test_experiment_missing_corpus_lists_expected_files(self, tmp_path, capsys):
        code = run(
            "experiment", "stein_hemingway",
            "--base", tmp_path / "absent.txt",
            "--addition", tmp_path / "also-absent.txt",
            "--out", tmp_path / "exp",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "absent.txt" in err and "also-absent.txt" in err

    def test_wiki_sep_style_wiring(self, train_file, tmp_path, capsys):
        addition = tmp_path / "add.txt"
        addition.write_text(
            "the glass stood on the counter of the mill kitchen near the "
            "window where the water wheel turned",
            encoding="utf-8",
        )
        outdir = tmp_path / "wexp"
        code = run(
            "experiment", "wiki_sep_style",
            "--base", train_file, "--addition", addition, "--out", outdir,
            "--seed", 2, "--dim", 8, "--epochs", 2, "--window", 2, "--k", 5,
        )
        assert code == 0
        assert (outdir / "base.txt").exists()
        assert (outdir / "augmented.txt").exists()
        report = json.loads((outdir / "report.json").read_text())
        assert report["metadata"]["k"] == 5

    def test_seed_stability_wiring(self, tmp_path, capsys):
        outdir = tmp_path / "sexp"
        code = run(
            "experiment", "seed_stability",
            "--out", outdir, "--seed", 11,
            "--sizes", "300,900", "--num-seeds", 2,
            "--dim", 8, "--epochs", 1, "--k", 3,
        )
        assert code == 0
        payload = json.loads((outdir / "seed_stability.json").read_text())
        assert set(payload["sizes"]) == {"300", "900"}
        csv_lines = (outdir / "seed_stability.csv").read_text().splitlines()
        assert csv_lines[0] == "size,mean_overlap"
        assert len(csv_lines) == 3

    def test_seed_stability_applies_stoplist(self, tmp_path):
        stoplist = tmp_path / "stop.txt"
        stoplist.write_text("w000\n", encoding="utf-8")
        words = {}
        for name, extra in (("plain", []), ("stopped", ["--stoplist", stoplist])):
            outdir = tmp_path / name
            code = run(
                "experiment", "seed_stability", "--out", outdir, "--seed", 11,
                "--sizes", "400", "--num-seeds", 2, "--dim", 4, "--epochs", 1, *extra,
            )
            assert code == 0
            payload = json.loads((outdir / "seed_stability.json").read_text())
            words[name] = set(payload["sizes"]["400"]["per_word_mean_overlap"])
        assert "w000" in words["plain"]
        assert "w000" not in words["stopped"]


class TestEntryPoint:
    @staticmethod
    def module(*argv: str) -> subprocess.CompletedProcess:
        """`python -m driftbench argv` in a child that imports this package."""
        src = str(Path(cli.__file__).parents[1])
        return subprocess.run([sys.executable, "-m", "driftbench", *argv],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True)

    def test_module_invocation(self, rose_file):
        proc = self.module("stats", str(rose_file))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["token_count"] == 10

    def test_usage_error_exit_code(self):
        proc = self.module("no-such-command")
        assert proc.returncode == 1
        assert "invalid choice" in proc.stderr

    def test_negative_seed_exits_1_without_a_traceback(self, train_file, tmp_path):
        proc = self.module("train", str(train_file), "--out", str(tmp_path / "m"), "--seed", "-1")
        assert proc.returncode == 1
        assert "argument --seed: must be >= 0, got -1" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_parser_is_built_once_and_handlers_are_looked_up(self, rose_file, monkeypatch, capsys):
        assert build_parser() is build_parser()
        calls = []
        original = cli.cmd_stats

        def wrapped(args):
            calls.append(args.corpus)
            return original(args)

        monkeypatch.setattr(cli, "cmd_stats", wrapped)
        assert run("stats", rose_file) == 0
        assert calls == [str(rose_file)]


# ---------------------------------------------------------------------------
# bad seed and size arguments: each is a usage error (exit 1) that argparse
# reports before any work starts, never a traceback from numpy or int()

SEED_STABILITY = ["experiment", "seed_stability", "--out", "ss"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["train", "c.txt", "--out", "m", "--seed", "-1"], "--seed"),
        (["rotate", "m.txt", "--out", "r.txt", "--seed", "-1"], "--seed"),
        (["experiment", "wiki_sep_style", "--base", "b.txt", "--addition", "a.txt",
          "--out", "w", "--seed", "-1"], "--seed"),
        (SEED_STABILITY + ["--seed", "-1"], "--seed"),
        (SEED_STABILITY + ["--seed", "1", "--sizes", "-5"], "--sizes"),
        (SEED_STABILITY + ["--seed", "1", "--sizes", "300,abc"], "--sizes"),
        (SEED_STABILITY + ["--seed", "1", "--num-seeds", "1"], "--num-seeds"),
    ],
    ids=["train-seed", "rotate-seed", "wiki_sep_style-seed", "seed_stability-seed",
         "negative-size", "non-numeric-size", "one-seed"],
)
def test_bad_seed_or_size_is_a_usage_error(argv, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"error: argument {flag}" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# malformed model files: every one exits 2 with the file and the line (or
# byte offset) in the message, never with a traceback.

ROSE_GRAPH = "# nodes: 2\n# node\ta\t0\n# node\tb\t0\n"
ROSE_COOC = "COOC v1 2 10\n0\ta\t1\n1\tb\t1\n"


@pytest.mark.parametrize(
    "content, where",
    [
        ("# nodes: x\n", "line 1"),
        ("# nodes: 3\n# node\ta\t0\n", "line 1"),
        (ROSE_GRAPH + "a\tb\n", "line 4"),
        (ROSE_GRAPH + "a\tc\t3\n", "line 4"),
        (ROSE_GRAPH + "a\tb\t0\n", "line 4"),
        (ROSE_GRAPH + "b\ta\t3\n", "line 4"),
        (ROSE_GRAPH + "a\tb\t3\na\tb\t4\n", "line 5"),
        ("# nodes: 2\n# node\ta\t0\n# node\ta\t1\n", "line 3"),
        ("# nodes: 1\n# node\ta\t-1\n", "line 2"),
        (ROSE_GRAPH.encode() + b"a\xff\tb\t3\n", "byte offset 34"),
    ],
    ids=["bad-header-count", "header-count-mismatch", "two-field-edge", "undeclared-node",
         "zero-weight", "unordered-edge", "repeated-edge", "repeated-node",
         "negative-self-weight", "invalid-utf8"],
)
def test_malformed_edge_list_exits_2(content, where, tmp_path, capsys):
    bad, good = tmp_path / "bad.tsv", tmp_path / "good.tsv"
    good.write_text(ROSE_GRAPH + "a\tb\t3\n", encoding="utf-8")
    assert run("intersect", good, good) == 0
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    capsys.readouterr()
    assert run("intersect", good, bad) == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and where in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "content, where",
    [
        (ROSE_COOC + "0\t1\n", "line 4"),
        ("COOC v1 2 10\n5\ta\t1\n1\tb\t1\n", "line 2"),
        (ROSE_COOC + "0\t7\t2\n", "line 4"),
        (ROSE_COOC + "0\t1\t0\n", "line 4"),
        (ROSE_COOC + "0\t1\t-2\n", "line 4"),
        (ROSE_COOC + f"0\t1\t{1 << 63}\n", "line 4"),
        ("COOC v1 2 10\n0\ta\t1\n0\tb\t1\n", "line 3"),
        ("COOC v1 2 10\n0\ta\t1\n1\ta\t1\n", "line 3"),
        ("COOC v1 2 10\n0\ta\t0\n1\tb\t1\n", "line 2"),
        (ROSE_COOC + "1\t0\t2\n", "line 4"),
        ("COOC v1 2 0\n0\ta\t1\n1\tb\t1\n", "line 1"),
        (ROSE_COOC + "0\t1\t3\n0\t0\t1\n\n0\t1\t2\n", "line 7"),
        ("2 2\na 1.0 0.5\nb nan 1.0\n", "line 3"),
        ("2 2\na 1.0 0.5\nb 1.0 x\n", "line 3"),
        ("2 2\na 1.0 0.5\nb 1.0\n", "line 3"),
        ("2 2\na 1.0 0.5\na 1.0 1.0\n", "line 3"),
        ("2 -2\na\nb\n", "line 1"),
        ("2 100000000000000\na 1.0\nb 1.0\n", "line 1"),
        (b"2 2\na 1.0 0.5\n\xc3 1.0 1.0\n", "byte offset 14"),
        ("2 2\na 1.0 0.5\nb 0.5 1.0\nc 1.0 1.0\ngarbage here\n", "line 4"),
        ("COOC v12 2 10\n0\ta\t1\n1\tb\t1\n", "line 1: not a COOC v1 file"),
        ("COOC v1x 2 10\n0\ta\t1\n1\tb\t1\n", "line 1: not a COOC v1 file"),
        ("2 2\n 1.0 0.0\nb 0.0 1.0\n", "line 2: empty token"),
        ("COOC v1 2 2\n0\ta\t3\n1\tb\t2\n0\t1\t4\n0\t1\t4\n1\t1\tx\n",
         "line 5: triple (0, 1) repeated"),
        ("3 2\na 1.0 2.0\nb inf 1.0\nc 1.0\n", "line 3: non-finite component"),
    ],
    ids=["two-field-triple", "vocab-index-out-of-range", "context-id-out-of-range",
         "zero-count", "negative-count", "count-beyond-int64", "repeated-vocab-index",
         "repeated-token", "zero-frequency", "lower-triangle", "zero-radius", "repeated-triple",
         "nan-component", "non-numeric-component", "short-vector",
         "repeated-embedding-token", "negative-dimension", "dimension-beyond-file",
         "invalid-utf8", "extra-embedding-row", "cooc-version-v12", "cooc-version-v1x",
         "empty-embedding-token", "repeated-triple-before-a-bad-line",
         "non-finite-row-before-a-short-one"],
)
def test_malformed_model_exits_2(content, where, tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    assert run("neighbors", bad, "a") == 2
    err = capsys.readouterr().err
    assert f"{bad}: " in err and where in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# manifest completeness: equal manifests must mean equal bytes, so every
# argument that can change an output must show up in the manifest.

# Arguments that name input files.
FILE_ARGS = {
    "corpus", "model", "model_a", "model_b", "graph_a", "graph_b",
    "base", "addition", "stoplist",
}

# Per command: a cheap valid argv, and for every other argument a second
# valid value (None toggles a switch). Keys are flags, or the dest of a
# positional argument. "{name}" fields are filled from the `artifacts`
# fixture, and {tmp} is the test's own directory.
MANIFEST_CASES = {
    "stats": (
        ["stats", "{corpus}"],
        {"--stoplist": "{stoplist}", "--out": "{tmp}/s.json"},
    ),
    "build-count": (
        ["build-count", "{corpus}", "--out", "{tmp}/c.cooc"],
        {"--out": "{tmp}/c2.cooc", "--window": "3", "--min-count": "2",
         "--max-size": "5", "--stoplist": "{stoplist}"},
    ),
    "neighbors": (
        ["neighbors", "{cooc}", "water"],
        {"word": "mill", "--k": "3", "--metric": "euclidean", "--ppmi": None,
         "--format": "json", "--out": "{tmp}/n.tsv"},
    ),
    "diff": (
        ["diff", "{cooc}", "{cooc_b}"],
        {"--k": "3", "--metric": "euclidean", "--words": "mill,water", "--ppmi": None,
         "--format": "csv", "--out": "{tmp}/d.json"},
    ),
    "train": (
        ["train", "{corpus}", "--out", "{tmp}/m", "--seed", "1", "--dim", "4",
         "--epochs", "1", "--window", "2"],
        {"--out": "{tmp}/m2", "--seed": "2", "--dim": "5", "--window": "3",
         "--epochs": "2", "--lr": "0.05", "--min-count": "2", "--objective": "neg:2",
         "--stoplist": "{stoplist}", "--skipgram": None},
    ),
    "rotate": (
        ["rotate", "{model}", "--out", "{tmp}/r.txt", "--seed", "1"],
        {"--out": "{tmp}/r2.txt", "--seed": "2", "--style": "haar"},
    ),
    "align": (
        ["align", "{model}", "{model_b}"],
        {"--apply-to": "{tmp}/aligned.txt", "--out": "{tmp}/a.json"},
    ),
    "graph": (
        ["graph", "{cooc}"],
        {"--out": "{tmp}/g.tsv", "--min-weight": "2", "--graphml": None},
    ),
    "intersect": (
        ["intersect", "{graph}", "{graph_b}"],
        {"--out": "{tmp}/i.tsv"},
    ),
    "stein_hemingway": (
        ["experiment", "stein_hemingway", "--base", "{corpus}", "--addition",
         "{addition}", "--out", "{tmp}/sh", "--k", "3", "--words", "water"],
        {"--base": "{other}", "--addition": "{other}", "--out": "{tmp}/sh2",
         "--window": "3", "--k": "4", "--min-count": "2", "--words": "mill",
         "--stoplist": "{stoplist}", "--metric": "euclidean"},
    ),
    "wiki_sep_style": (
        ["experiment", "wiki_sep_style", "--base", "{corpus}", "--addition",
         "{addition}", "--out", "{tmp}/w", "--seed", "1", "--dim", "4",
         "--epochs", "1", "--window", "2", "--k", "3"],
        {"--base": "{other}", "--addition": "{other}", "--out": "{tmp}/w2",
         "--seed": "2", "--dim": "5", "--window": "3", "--epochs": "2",
         "--lr": "0.05", "--min-count": "2", "--objective": "neg:2",
         "--stoplist": "{stoplist}", "--skipgram": None, "--k": "4",
         "--metric": "euclidean"},
    ),
    "seed_stability": (
        ["experiment", "seed_stability", "--out", "{tmp}/ss", "--seed", "1",
         "--sizes", "200", "--num-seeds", "2", "--dim", "4", "--epochs", "1",
         "--k", "3"],
        {"--out": "{tmp}/ss2", "--seed": "2", "--sizes": "300", "--num-seeds": "3",
         "--k": "4", "--min-rel-freq": "0.01", "--metric": "euclidean",
         "--dim": "5", "--window": "3", "--epochs": "2", "--lr": "0.1",
         "--min-count": "2", "--objective": "softmax", "--stoplist": "{stoplist}",
         "--skipgram": None},
    ),
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("artifacts")
    paths = {
        name: str(d / name)
        for name in ("corpus", "addition", "other", "stoplist", "cooc", "cooc_b",
                     "model", "model_b", "graph", "graph_b")
    }
    Path(paths["corpus"]).write_text(TRAIN_TEXT, encoding="utf-8")
    Path(paths["addition"]).write_text(
        "the glass stood on the counter of the mill kitchen near the window",
        encoding="utf-8",
    )
    Path(paths["other"]).write_text(
        "the dog slept by the mill door while the river ran and the water "
        "turned the wheel",
        encoding="utf-8",
    )
    Path(paths["stoplist"]).write_text("the\n", encoding="utf-8")
    assert run("build-count", paths["corpus"], "--out", paths["cooc"]) == 0
    assert run("build-count", paths["corpus"], "--out", paths["cooc_b"], "--window", 2) == 0
    assert run(
        "train", paths["corpus"], "--out", paths["model"],
        "--seed", 1, "--dim", 4, "--epochs", 1, "--window", 2,
    ) == 0
    paths["model"] += ".txt"
    assert run("rotate", paths["model"], "--seed", 1, "--out", paths["model_b"]) == 0
    assert run("graph", paths["cooc"], "--out", paths["graph"]) == 0
    assert run("graph", paths["cooc_b"], "--out", paths["graph_b"]) == 0
    return paths


def command_parser(words):
    parser = build_parser()
    for word in words:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return parser


def run_for_manifest(argv, capsys) -> dict:
    capsys.readouterr()
    assert main(argv) == 0, argv
    err = capsys.readouterr().err
    if "--out" not in argv:
        return json.loads(err)
    out = argv[argv.index("--out") + 1]
    if argv[0] == "experiment":
        return json.loads((Path(out) / "manifest.json").read_text())
    return json.loads(Path(out + ".manifest.json").read_text())


@pytest.mark.parametrize("command", list(MANIFEST_CASES))
def test_manifest_records_every_argument(command, artifacts, tmp_path, capsys):
    template, variations = MANIFEST_CASES[command]
    words = template[:2] if template[0] == "experiment" else template[:1]
    actions = [a for a in command_parser(words)._actions if a.dest != "help"]
    positionals = [a.dest for a in actions if not a.option_strings]
    assert set(variations) == {
        a.option_strings[0] if a.option_strings else a.dest
        for a in actions
        if a.option_strings or a.dest not in FILE_ARGS
    }, "every argument needs a second value in MANIFEST_CASES"

    def fill(argv):
        return [t.format(tmp=tmp_path, **artifacts) for t in argv]

    def vary(key, value):
        argv = list(template)
        if not key.startswith("--"):
            argv[len(words) + positionals.index(key)] = value
        elif key not in argv:
            argv += [key] if value is None else [key, value]
        elif value is None:
            argv.remove(key)
        else:
            argv[argv.index(key) + 1] = value
        return fill(argv)

    files = set(artifacts.values())
    base_argv = fill(template)
    base = run_for_manifest(base_argv, capsys)
    unrecorded, undigested = [], []
    for key, value in [(None, None)] + list(variations.items()):
        argv = base_argv if key is None else vary(key, value)
        manifest = base if key is None else run_for_manifest(argv, capsys)
        field = "seed" if key == "--seed" else "parameters"
        if key is not None and manifest[field] == base[field]:
            unrecorded.append(key)
        undigested += [p for p in files.intersection(argv) if p not in manifest["inputs"]]
    assert not unrecorded, f"changing these leaves the manifest equal: {unrecorded}"
    assert not undigested, f"given but not digested: {sorted(set(undigested))}"

    gone = {t: str(tmp_path / f"missing-{i}") for i, t in enumerate(base_argv) if t in files}
    argv = [gone.get(t, t) for t in base_argv]
    if "--stoplist" in variations:
        gone["stoplist"] = str(tmp_path / "missing-stoplist")
        argv += ["--stoplist", gone["stoplist"]]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    for path in gone.values():
        assert path in err, f"{path} is not named as missing"


# ---------------------------------------------------------------------------
# the compiled kernel: runs with the same kernel repeat byte for byte, and
# the manifest tells a C-kernel run from a numpy run

KERNEL_RUNS = {
    "train": (
        ["train", "{corpus}", "--out", "m", "--seed", "1", "--dim", "4", "--epochs", "2",
         "--window", "2", "--objective", "neg:2"],
        ["m.txt", "m.npz"],
        "m.manifest.json",
    ),
    "wiki_sep_style": (
        ["experiment", "wiki_sep_style", "--base", "{corpus}", "--addition", "{addition}",
         "--out", "w", "--seed", "1", "--dim", "4", "--epochs", "1", "--window", "2",
         "--k", "3"],
        ["w/base.txt", "w/augmented.txt", "w/report.json", "w/report.csv"],
        "w/manifest.json",
    ),
    "seed_stability": (
        ["experiment", "seed_stability", "--out", "ss", "--seed", "1", "--sizes", "200",
         "--num-seeds", "2", "--dim", "4", "--epochs", "1", "--k", "3"],
        ["ss/seed_stability.json", "ss/seed_stability.csv"],
        "ss/manifest.json",
    ),
}

# commands that do not train: their bytes are the same with and without the kernel
NO_KERNEL_RUNS = {
    "stats": (["stats", "{corpus}", "--out", "s.json"], ["s.json"], "s.json.manifest.json"),
    "align": (
        ["align", "{model}", "{model_b}", "--apply-to", "aligned.txt", "--out", "align.json"],
        ["align.json", "aligned.txt"],
        "align.json.manifest.json",
    ),
}


@pytest.fixture
def run_in(artifacts, tmp_path, monkeypatch):
    """run_in(name, template, outputs, manifest_name) runs the command in a
    new directory `name`, so that every run writes the same relative --out,
    and returns its manifest, timestamp aside, and the bytes of its outputs."""

    def run_in(name: str, template, outputs, manifest_name) -> tuple[dict, list[bytes]]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main([t.format(**artifacts) for t in template]) == 0
        manifest = json.loads(Path(manifest_name).read_text(encoding="utf-8"))
        del manifest["timestamp"]
        return manifest, [Path(out).read_bytes() for out in outputs]

    return run_in


@pytest.mark.parametrize("command", list(KERNEL_RUNS))
def test_manifest_names_the_training_kernel(command, run_in, monkeypatch):
    kernel = kernel_module.get()
    if kernel is None:
        pytest.skip("the C kernel does not build here")
    first, first_bytes = run_in("kernel-1", *KERNEL_RUNS[command])
    second, second_bytes = run_in("kernel-2", *KERNEL_RUNS[command])
    assert first == second
    assert first_bytes == second_bytes
    assert first["kernel"] == kernel.name
    monkeypatch.setattr(kernel_module, "get", lambda: None)
    fallback, _ = run_in("numpy", *KERNEL_RUNS[command])
    assert fallback["kernel"] == f"numpy:{np.__version__}"
    assert fallback != first
    assert fallback | {"kernel": kernel.name} == first  # the kernel is all that differs


def test_manifest_of_a_command_that_does_not_train_names_no_kernel(run_in, monkeypatch):
    for command, run in NO_KERNEL_RUNS.items():
        first = run_in(f"{command}-1", *run)
        assert "kernel" not in first[0]
        assert run_in(f"{command}-2", *run) == first
        with monkeypatch.context() as without_kernel:
            without_kernel.setattr(kernel_module, "get", lambda: None)
            assert run_in(f"{command}-numpy", *run) == first


# commands that read text: the sha256 of their outputs (manifests aside) at
# the commit before text was encoded as ids, on `cafe_story.txt` and on a
# synthetic speaker corpus laid out as the benchmark writes it
TEXT_RUNS = {
    "stats": ["stats", "{corpus}", "--out", "out.json"],
    "build-count": ["build-count", "{corpus}", "--out", "out.cooc", "--window", "5"],
    "build-count-stoplist": ["build-count", "{corpus}", "--out", "out.cooc", "--window", "5",
                             "--stoplist", "{stoplist}"],
    "stein_hemingway": ["experiment", "stein_hemingway", "--base", "{corpus}",
                        "--addition", "{other}", "--out", "exp", "--window", "2"],
}
TEXT_DIGESTS = {
    ("cafe_story", "stats"): "b12030285ddbb4e87f760e32b9fc4ee4c401d466dbf327ed89b5f119b3e971f8",
    ("cafe_story", "build-count"): "eb3e28c2c9190bd0df026e982c6f20ba673cd50724e52ba68df56b07a32ab083",
    ("cafe_story", "build-count-stoplist"):
        "10107db647083858f5761de7fff3102884d816bd8113f05d9b9ec91e7ab0646d",
    ("cafe_story", "stein_hemingway"):
        "891f2a65577d3da24829a3e8fde3b0c393808b0a9257dc200001b105a6aa4bb3",
    ("speaker", "stats"): "d85f9084fcb0733764f81da3980641d63762ec8d66ddbeca25f023f84b6f781a",
    ("speaker", "build-count"): "0a3c80b2731f45e429136ca9c32e8c6abda799dd77fd0145c1d4cc07901ea563",
    ("speaker", "build-count-stoplist"):
        "b13dca022ff13b6e990c20e6d56a59a20d5f40467185a0c20f035ce68a5a6b2a",
    ("speaker", "stein_hemingway"):
        "fca2595f8331e465586b8f231add58e4b2d39288cf7c6e4ef61ae1c5b7434881",
}


@pytest.fixture(scope="module")
def text_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("text")
    tokens = db.synthetic_corpus(5000, seed=11, vocab_size=300).tokens
    speaker = d / "speaker.txt"
    speaker.write_text("\n".join(" ".join(tokens[i:i + 20]) for i in range(0, len(tokens), 20))
                       + "\n", encoding="utf-8")
    stoplist = d / "stop.txt"
    stoplist.write_text("the\nand\nw000\nw001\n", encoding="utf-8")
    return {"cafe_story": DATA_DIR / "cafe_story.txt", "speaker": speaker, "stoplist": stoplist}


@pytest.mark.parametrize("corpus", ["cafe_story", "speaker"])
@pytest.mark.parametrize("command", list(TEXT_RUNS))
def test_text_commands_keep_their_bytes_on_both_paths(corpus, command, text_inputs, each_path,
                                                      tmp_path, monkeypatch):
    other = text_inputs["speaker" if corpus == "cafe_story" else "cafe_story"]
    monkeypatch.chdir(tmp_path)
    assert main([a.format(corpus=text_inputs[corpus], other=other,
                          stoplist=text_inputs["stoplist"]) for a in TEXT_RUNS[command]]) == 0
    digest = hashlib.sha256()
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and not path.name.endswith("manifest.json"):
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == TEXT_DIGESTS[corpus, command]


# commands that write stability reports: the sha256 of their outputs
# (manifests aside) at the commit before reports were held as per-word
# columns. Dense diffs with equal dimensions have a displacement column and
# diffs across dimensions have none; the PPMI diff asks for a k above its
# shortest list, so k is clamped and some rank agreements are undefined.
REPORT_RUNS = {
    "diff-dense-json": ["diff", "{dense}", "{dense_b}", "--out", "out.json"],
    "diff-dense-csv": ["diff", "{dense}", "{dense_b}", "--format", "csv", "--out", "out.csv"],
    "diff-dims-json": ["diff", "{dense}", "{narrow}", "--out", "out.json"],
    "diff-dims-csv": ["diff", "{dense}", "{narrow}", "--format", "csv", "--out", "out.csv"],
    "diff-ppmi-clamped-json": ["diff", "{cooc}", "{cooc_b}", "--ppmi", "--k", "12",
                               "--out", "out.json"],
    "diff-ppmi-clamped-csv": ["diff", "{cooc}", "{cooc_b}", "--ppmi", "--k", "12",
                              "--format", "csv", "--out", "out.csv"],
    "wiki_sep_style": ["experiment", "wiki_sep_style", "--base", "{corpus}", "--addition",
                       "{speaker}", "--out", "exp", "--dim", "8", "--epochs", "1", "--seed", "3"],
    "seed_stability": ["experiment", "seed_stability", "--out", "exp", "--sizes", "400",
                       "--num-seeds", "2", "--seed", "1"],
}
# a trained model's bits depend on the training step, so wiki_sep_style has
# one digest per path
REPORT_DIGESTS = {
    "diff-dense-json":
        "cff114944b48b9c145f4521b5a77ee97ed4ab9d5602855eb7512cdeb72d9d548",
    "diff-dense-csv":
        "bf27ed9d257516a21c79de05e60d6f0022ef792efb70bfcbf3ddf82d76233499",
    "diff-dims-json":
        "d47ec2402b24fb8f4e3fb1ff9f4b3cc7d753a50bf12e79a8a1f8c06fc4f8148a",
    "diff-dims-csv":
        "9aa985e86fe8a06b3570a17c9cf6ed92a6b360ebb0c791949b53b24ef53b608a",
    "diff-ppmi-clamped-json":
        "c8b036ccb2616ff602e006aa7f30b6c398110815d3120829e12de9214292d965",
    "diff-ppmi-clamped-csv":
        "d83da3a99cd7545a63ac309072c49b6672a20f2fdbb2cc5b92f677b3b97dc57a",
    ("wiki_sep_style", "kernel"):
        "f4175cb516f189ded4f8d48cd1acdbac57d04de24a4e8d1bed0a1beb94a05600",
    ("wiki_sep_style", "numpy"):
        "0335fc912cbc944b513b69700fae11e735cee46057d1c5efa500a4d177ddfced",
    "seed_stability":
        "1c83c86c70a85770cbe7def855f02e424a504490542089a889ca5ce311f23ac5",
}


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory, text_inputs):
    """Two 8-d models whose vocabularies overlap in different orders, a 5-d
    one, and two small count models that share three or four words."""
    d = tmp_path_factory.mktemp("report")
    corpus = text_inputs["cafe_story"]
    tokens = db.build_vocabulary(cli._corpus_streams(corpus)).tokens
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((len(tokens), 8))
    order = rng.permutation(len(tokens))[:300]
    spaces = {
        "dense": (tokens[:200], rows[:200]),
        "dense_b": ([tokens[i] for i in order], rows[order] + 0.4 * rng.standard_normal((300, 8))),
        "narrow": (tokens[50:250], rng.standard_normal((200, 5))),
    }
    paths = {"corpus": corpus, "speaker": text_inputs["speaker"]}
    for name, (words, vectors) in spaces.items():
        paths[name] = d / f"{name}.txt"
        db.save_embedding_text(db.VectorSpace(db.Vocabulary(words, [1] * len(words)), vectors),
                               paths[name])
    stoplist = d / "stop.txt"
    stoplist.write_text("the\nand\na\nat\n", encoding="utf-8")
    paths["cooc"], paths["cooc_b"] = d / "a.cooc", d / "b.cooc"
    assert main(["build-count", str(corpus), "--out", str(paths["cooc"]), "--window", "2",
                 "--max-size", "8"]) == 0
    assert main(["build-count", str(corpus), "--out", str(paths["cooc_b"]), "--window", "5",
                 "--max-size", "12", "--stoplist", str(stoplist)]) == 0
    return paths


@pytest.mark.filterwarnings("ignore:k=.*clamped")
@pytest.mark.parametrize("command", list(REPORT_RUNS))
def test_report_commands_keep_their_bytes_on_both_paths(command, report_inputs, each_path,
                                                        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([a.format(**report_inputs) for a in REPORT_RUNS[command]]) == 0
    digest = hashlib.sha256()
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and not path.name.endswith("manifest.json"):
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0" + path.read_bytes())
    expected = REPORT_DIGESTS.get(command) or REPORT_DIGESTS[command, each_path]
    assert digest.hexdigest() == expected
