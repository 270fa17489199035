"""End-to-end CLI behavior: pipelines, manifests, determinism, exit codes."""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import pytest

from driftbench.cli import build_parser, main

from conftest import ROSE_TEXT

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


class TestTrain:
    def test_deterministic_files(self, train_file, tmp_path, capsys):
        a, b = tmp_path / "ma", tmp_path / "mb"
        args = ["--seed", 7, "--dim", 8, "--epochs", 2, "--window", 2]
        assert run("train", train_file, "--out", a, *args) == 0
        assert run("train", train_file, "--out", b, *args) == 0
        assert (tmp_path / "ma.txt").read_bytes() == (tmp_path / "mb.txt").read_bytes()
        manifest = json.loads((tmp_path / "ma.manifest.json").read_text())
        assert manifest["seed"] == 7

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
    def test_module_invocation(self, rose_file):
        proc = subprocess.run(
            [sys.executable, "-m", "driftbench", "stats", str(rose_file)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["token_count"] == 10

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "driftbench", "no-such-command"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1


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
