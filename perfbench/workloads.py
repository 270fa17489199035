"""The benchmark's workloads: seeded inputs, one study's commands, output checks.

Each workload is a closed loop with one client. A *study* is a fixed
sequence of driftbench commands, run in process through
`driftbench.cli.main(argv)`, plus a few library calls that have no CLI
command; the next study starts only when the previous one has finished.

Every study ends with the same small *floor* pass: a tiny cross-seed
experiment, a tiny count model and its word network. It costs about a
tenth of a study and makes every layer of the package (corpus,
count_model, vector_space, stability, trainer, graph, manifest, synthetic,
cli) run on every workload, so each per-layer metric is measured, never a
constant zero. Its inputs and seeds are the same for every workload seed,
so its cost is a constant and does not widen the spread across seeds.

Inputs come from the workload seed only. Generation runs in a child
process (`gen.py`), so the large transition matrix of the synthetic
language never counts towards the studies' peak memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

import driftbench
from driftbench import cli as cli_mod
from driftbench import count_model, graph, trainer
from driftbench.synthetic import synthetic_corpus

ROOT = Path(__file__).resolve().parent.parent
ADDITION = ROOT / "tests" / "data" / "cafe_story.txt"

# Float report fields must match the recorded value and the first study of
# the run within this tolerance; last-bit changes from a reordered sum pass,
# a changed neighbour set does not.
FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9
# align of a model onto its own rigid rotation must recover it exactly.
ALIGN_RESIDUAL_MAX = 1e-9
FLOOR_SEED = 7

SIZES = {
    "full": {
        "count_ingest": {"tokens": 60_000, "vocab": 3000, "window": 10, "words": 5, "pairs": 3},
        "drift_report": {"tokens": 10_000, "vocab": 2000, "tracked": 2,
                         "dense_vocab": 1000, "dim": 40, "subset": 100},
        "embed_train": {"sizes": "500,1500", "num_seeds": 3, "epochs": 1,
                        "tokens": 3000, "dim": 50},
        "floor": {"tokens": 1500, "sizes": "300", "num_seeds": 2, "dim": 8},
    },
    "tiny": {
        "count_ingest": {"tokens": 3000, "vocab": 500, "window": 10, "words": 3, "pairs": 2},
        "drift_report": {"tokens": 2000, "vocab": 500, "tracked": 2,
                         "dense_vocab": 200, "dim": 10, "subset": 30},
        "embed_train": {"sizes": "200,400", "num_seeds": 2, "epochs": 1,
                        "tokens": 800, "dim": 10},
        "floor": {"tokens": 400, "sizes": "200", "num_seeds": 2, "dim": 4},
    },
}


class StudyError(Exception):
    """A command exited non-zero or raised."""


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli(*argv) -> None:
    """Run one driftbench command in process; stderr is kept for the error message."""
    args = [str(a) for a in argv]
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = cli_mod.main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    if code != 0:
        tail = err.getvalue().strip().splitlines()[-1:] or [""]
        raise StudyError(f"driftbench {' '.join(args[:2])} exited {code}: {tail[0]}")


def write_corpus(path: Path, tokens) -> int:
    """Write tokens as text, 20 per line; return the token count."""
    lines = [" ".join(tokens[i:i + 20]) for i in range(0, len(tokens), 20)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(tokens)


def addition_stream():
    return driftbench.tokenize(ADDITION.read_text(encoding="utf-8"))


def seed_stability_samples(sizes: str, seed: int, num_seeds: int, epochs: int) -> int:
    """CBOW samples that `experiment seed_stability` trains, from its defaults
    (window 2, min count = 1.5e-3 of the corpus size)."""
    total = 0
    for size in (int(s) for s in sizes.split(",")):
        stream = synthetic_corpus(size, seed=seed)
        total += cbow_samples([stream], window=2, min_count=max(1, round(1.5e-3 * size)))
    return total * num_seeds * epochs


def cbow_samples(streams, window: int, min_count: int = 1) -> int:
    """Samples in one CBOW epoch over the streams."""
    config = trainer.TrainingConfig(seed=0, dimension=1, window_radius=window, min_count=min_count)
    state = trainer.init_state(streams, config)
    return sum(1 for _ in trainer.iter_samples(state, streams, window))


# ---------------------------------------------------------------------------
# output record of one study


class Record:
    """What one study produced, reduced to comparable values.

    `exact`: digests of integer and token-order outputs, compared with the
    recorded digests and with the run's first study. `floats`: float report
    fields, compared within FLOAT_RTOL/FLOAT_ATOL. `repeat`: digests of
    seeded training outputs, which must repeat byte for byte within a run.
    `problems`: failed invariants.
    """

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.exact: dict[str, str] = {}
        self.floats: dict[str, float] = {}
        self.repeat: dict[str, str] = {}
        self.problems: list[str] = []
        self.words = 0

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def exact_file(self, name: str) -> None:
        self.exact[name] = sha256((self.dir / name).read_bytes())

    def repeat_file(self, name: str) -> None:
        self.repeat[name] = sha256((self.dir / name).read_bytes())

    def json(self, name: str):
        return json.loads((self.dir / name).read_text(encoding="utf-8"))

    def cooc(self, name: str) -> None:
        self.exact_file(name)
        try:
            count_model.load_cooc(self.dir / name).validate()
        except AssertionError as exc:
            self.problems.append(f"{name}: {exc}")

    def neighbors(self, name: str, k: int) -> None:
        rows = [line.split("\t") for line in (self.dir / name).read_text(encoding="utf-8").splitlines()]
        self.require(len(rows) == k, f"{name}: {len(rows)} neighbours, expected {k}")
        self.exact[name + ":tokens"] = sha256("\n".join(r[1] for r in rows).encode())
        self.floats[name + ":score_sum"] = sum(float(r[2]) for r in rows)

    def report(self, name: str, fields=("mean_overlap", "mean_jaccard", "exact_order_fraction",
                                        "mean_rank_agreement", "mean_displacement")) -> dict:
        agg = self.json(name)["aggregates"]
        self.words += agg["words"]
        for key in fields:
            if agg.get(key) is not None:
                self.floats[f"{name}:{key}"] = agg[key]
        return agg

    def seed_stability(self, name: str, num_seeds: int) -> None:
        self.repeat_file(name)
        pairs = num_seeds * (num_seeds - 1) // 2
        for size, result in self.json(name)["sizes"].items():
            self.words += len(result["per_word_mean_overlap"]) * pairs
            values = [result["mean_overlap"], *result["per_pair_mean_overlap"].values()]
            self.require(all(0.0 < v <= 1.0 for v in values),
                         f"{name}: cross-seed overlap outside (0, 1] at size {size}")


def floats_close(a: float | None, b: float) -> bool:
    return a is not None and math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)


# ---------------------------------------------------------------------------
# the floor pass shared by every workload


def generate_floor(out: Path, size: dict) -> dict:
    tokens = write_corpus(out / "floor.txt", synthetic_corpus(size["tokens"], seed=FLOOR_SEED + 1).tokens)
    return {"tokens": tokens, "samples": seed_stability_samples(size["sizes"], FLOOR_SEED, size["num_seeds"], 1)}


def run_floor(d: Path, size: dict) -> None:
    cli("experiment", "seed_stability", "--out", d / "floor_ss", "--sizes", size["sizes"],
        "--num-seeds", size["num_seeds"], "--dim", size["dim"], "--epochs", 1,
        "--seed", FLOOR_SEED)
    cli("build-count", d / "floor.txt", "--out", d / "floor.cooc", "--window", 5)
    cli("graph", d / "floor.cooc", "--out", d / "floor.tsv")


def check_floor(rec: Record, size: dict) -> None:
    rec.seed_stability("floor_ss/seed_stability.json", size["num_seeds"])
    rec.cooc("floor.cooc")
    rec.exact_file("floor.tsv")


# ---------------------------------------------------------------------------
# workloads


class CountIngest:
    """Two speaker corpora: stats, window counting, PPMI queries, word networks."""

    name = "count_ingest"

    def generate(self, out: Path, rng: np.random.Generator, size: dict) -> dict:
        tokens = {}
        counts = []
        for speaker in ("a", "b"):
            stream = synthetic_corpus(size["tokens"], seed=int(rng.integers(1 << 30)),
                                      vocab_size=size["vocab"])
            tokens[speaker] = write_corpus(out / f"speaker_{speaker}.txt", stream.tokens)
            counts.append(Counter(stream.tokens))
        shared = [w for w, _ in counts[0].most_common() if w in counts[1]]
        words = sorted(rng.choice(shared[:50], size["words"], replace=False).tolist())
        ends = rng.choice(shared[:200], (size["pairs"], 2), replace=False).tolist()
        return {"tokens": tokens, "words": words, "pairs": ends}

    def study_tokens(self, plan: dict) -> int:
        # stats and build-count each read both corpora
        return 2 * sum(plan["tokens"].values())

    def study(self, d: Path, plan: dict, size: dict) -> dict:
        for s in ("a", "b"):
            cli("stats", d / f"speaker_{s}.txt", "--out", d / f"stats_{s}.json")
        for s in ("a", "b"):
            cli("build-count", d / f"speaker_{s}.txt", "--out", d / f"speaker_{s}.cooc",
                "--window", size["window"])
        for i, word in enumerate(plan["words"]):
            cli("neighbors", d / "speaker_a.cooc", word, "--ppmi", "--out", d / f"nbr_{i}.tsv")
        cli("diff", d / "speaker_a.cooc", d / "speaker_b.cooc", "--ppmi",
            "--words", ",".join(plan["words"]), "--out", d / "speakers_diff.json")
        for s in ("a", "b"):
            cli("graph", d / f"speaker_{s}.cooc", "--out", d / f"speaker_{s}.tsv")
        cli("intersect", d / "speaker_a.tsv", d / "speaker_b.tsv", "--out", d / "shared.tsv")
        shared = graph.import_edge_list((d / "shared.tsv").read_text(encoding="utf-8"))
        ranking = graph.degree_ranking(shared, top=20)
        paths = [graph.shortest_path(shared, a, b) for a, b in plan["pairs"]]
        return {"ranking": ranking, "paths": paths}

    def check(self, rec: Record, plan: dict, size: dict, results: dict) -> None:
        for s in ("a", "b"):
            rec.exact_file(f"stats_{s}.json")
            stats = rec.json(f"stats_{s}.json")
            rec.require(stats["token_count"] == plan["tokens"][s], f"stats_{s}: wrong token count")
            rec.cooc(f"speaker_{s}.cooc")
            rec.exact_file(f"speaker_{s}.tsv")
        for i in range(len(plan["words"])):
            rec.neighbors(f"nbr_{i}.tsv", 10)
        rec.report("speakers_diff.json")
        rec.exact_file("shared.tsv")
        rec.exact["degree_ranking"] = sha256(json.dumps(results["ranking"]).encode())
        paths = results["paths"]
        rec.require(all(p is not None for p in paths), "shortest_path found no route")
        rec.exact["paths"] = sha256(json.dumps([p and p.tokens for p in paths]).encode())
        rec.floats["paths:cost_sum"] = sum(p.cost for p in paths if p)


class DriftReport:
    """Sparse full-vocabulary report after augmentation; dense diff, rotate, align."""

    name = "drift_report"

    def generate(self, out: Path, rng: np.random.Generator, size: dict) -> dict:
        stream = synthetic_corpus(size["tokens"], seed=int(rng.integers(1 << 30)),
                                  vocab_size=size["vocab"])
        base_tokens = write_corpus(out / "base.txt", stream.tokens)
        frequent = [w for w, _ in Counter(stream.tokens).most_common(100)]
        tracked = sorted(rng.choice(frequent, size["tracked"], replace=False).tolist())
        v, dim = size["dense_vocab"], size["dim"]
        vocab = driftbench.Vocabulary([f"e{i:05d}" for i in range(v)], [1] * v)
        model_a = rng.standard_normal((v, dim))
        model_b = model_a + 0.3 * rng.standard_normal((v, dim))
        driftbench.save_embedding_text(driftbench.VectorSpace(vocab, model_a), out / "model_a.txt")
        driftbench.save_embedding_text(driftbench.VectorSpace(vocab, model_b), out / "model_b.txt")
        subset = sorted(rng.choice(vocab.tokens, size["subset"], replace=False).tolist())
        return {
            "tokens": {"base": base_tokens, "addition": len(addition_stream())},
            "tracked": tracked,
            "subset": subset,
            "rotate_seed": int(rng.integers(1 << 30)),
        }

    def study_tokens(self, plan: dict) -> int:
        return sum(plan["tokens"].values())

    def study(self, d: Path, plan: dict, size: dict) -> dict:
        subset = ",".join(plan["subset"])
        cli("experiment", "stein_hemingway", "--base", d / "base.txt", "--addition", ADDITION,
            "--out", d / "sh", "--words", ",".join(plan["tracked"]))
        cli("diff", d / "model_a.txt", d / "model_b.txt", "--words", subset,
            "--out", d / "dense_diff.json")
        cli("rotate", d / "model_a.txt", "--seed", plan["rotate_seed"], "--out", d / "rotated.txt")
        cli("align", d / "model_a.txt", d / "rotated.txt", "--apply-to", d / "aligned.txt",
            "--out", d / "align.json")
        cli("diff", d / "model_a.txt", d / "rotated.txt", "--words", subset,
            "--out", d / "rotated_diff.json")
        return {}

    def check(self, rec: Record, plan: dict, size: dict, results: dict) -> None:
        rec.cooc("sh/base.cooc")
        rec.cooc("sh/augmented.cooc")
        rec.report("sh/report.json")
        rec.exact_file("sh/tracked.json")
        tracked = rec.json("sh/tracked.json")
        rec.require(not any(t.get("missing") for t in tracked.values()), "tracked word missing")
        for word in plan["tracked"]:
            rec.neighbors(f"sh/{word}.base.tsv", 10)
            rec.neighbors(f"sh/{word}.augmented.tsv", 10)
        rec.report("dense_diff.json")
        rec.repeat_file("rotated.txt")
        rec.repeat_file("aligned.txt")
        align = rec.json("align.json")
        rec.require(align["residual"] <= ALIGN_RESIDUAL_MAX,
                    f"align residual {align['residual']:.3g} > {ALIGN_RESIDUAL_MAX}")
        rec.require(align["shared_vocab_size"] == size["dense_vocab"], "align: wrong shared vocabulary")
        agg = rec.report("rotated_diff.json", fields=("mean_displacement",))
        rec.require(agg["mean_overlap"] == 1.0, "diff against own rotation: mean_overlap != 1.0")


class EmbedTrain:
    """Cross-seed CBOW softmax training and a negative-sampling augmentation study."""

    name = "embed_train"

    def generate(self, out: Path, rng: np.random.Generator, size: dict) -> dict:
        seeds = [int(s) for s in rng.integers(1 << 30, size=3)]
        stream = synthetic_corpus(size["tokens"], seed=seeds[0])
        base_tokens = write_corpus(out / "base.txt", stream.tokens)
        addition = addition_stream()
        samples = seed_stability_samples(size["sizes"], seeds[1], size["num_seeds"], size["epochs"])
        samples += cbow_samples([stream], window=5) + cbow_samples([stream, addition], window=5)
        return {
            "tokens": {"base": base_tokens, "addition": len(addition)},
            "stability_seed": seeds[1],
            "train_seed": seeds[2],
            "samples": samples,
        }

    def study_tokens(self, plan: dict) -> int:
        return sum(plan["tokens"].values())

    def study(self, d: Path, plan: dict, size: dict) -> dict:
        cli("experiment", "seed_stability", "--out", d / "ss", "--sizes", size["sizes"],
            "--num-seeds", size["num_seeds"], "--epochs", size["epochs"],
            "--seed", plan["stability_seed"])
        cli("experiment", "wiki_sep_style", "--base", d / "base.txt", "--addition", ADDITION,
            "--out", d / "wk", "--objective", "neg:5", "--dim", size["dim"], "--epochs", 1,
            "--seed", plan["train_seed"])
        return {}

    def check(self, rec: Record, plan: dict, size: dict, results: dict) -> None:
        rec.seed_stability("ss/seed_stability.json", size["num_seeds"])
        for name in ("wk/base.txt", "wk/augmented.txt", "wk/report.json"):
            rec.repeat_file(name)
        agg = rec.json("wk/report.json")["aggregates"]
        rec.words += agg["words"]
        rec.require(0.0 < agg["mean_overlap"] <= 1.0, "wiki_sep_style: mean_overlap outside (0, 1]")


WORKLOADS = {w.name: w for w in (CountIngest(), DriftReport(), EmbedTrain())}


def generate(workload: str, seed: int, scale: str, out: Path) -> dict:
    """Write every input of one workload and return its plan."""
    sizes = SIZES[scale]
    rng = np.random.default_rng([seed, 20_240_512])
    plan = WORKLOADS[workload].generate(out, rng, sizes[workload])
    plan["floor"] = generate_floor(out, sizes["floor"])
    return plan


def run_study(workload: str, d: Path, plan: dict, scale: str) -> dict:
    sizes = SIZES[scale]
    results = WORKLOADS[workload].study(d, plan, sizes[workload])
    run_floor(d, sizes["floor"])
    return results


def check_study(workload: str, d: Path, plan: dict, scale: str, results: dict) -> Record:
    sizes = SIZES[scale]
    rec = Record(d)
    WORKLOADS[workload].check(rec, plan, sizes[workload], results)
    check_floor(rec, sizes["floor"])
    return rec


def study_work(workload: str, plan: dict) -> dict:
    """Fixed work of one study: corpus tokens read from input files, CBOW samples trained."""
    floor = plan["floor"]
    samples = plan.get("samples", 0) + floor["samples"]
    return {"tokens": WORKLOADS[workload].study_tokens(plan) + floor["tokens"], "samples": samples}
