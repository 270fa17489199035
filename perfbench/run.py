"""The driftbench benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a driftbench checkout. It generates the workload's
inputs from the seed, sets up and runs one warm-up study SETUP_REPEATS
times, then runs studies back to back (a closed loop, one client) for S
seconds, checking every study's outputs. The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 untraced and traced
studies alternate and the metrics are the per-layer ones from the spans.
The full record (environment, study times, failures, spans) is written
under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
SETUP_REPEATS = 3
MIN_STUDIES = 11  # study_tail_s needs ten samples beyond its percentile

# Per-layer time metrics: self time summed over these qualified names.
SELF_TIME_GROUPS = {
    "corpus.read_s": ("corpus.read_corpus", "corpus.read_document", "corpus.decode_utf8"),
    "corpus.tokenize_s": ("corpus.tokenize", "corpus.tokenize_document"),
    "corpus.vocab_s": ("corpus.build_vocabulary",),
    "count_model.count_s": ("count_model.count_cooccurrences",),
    "count_model.save_s": ("count_model.save_cooc",),
    "count_model.load_s": ("count_model.load_cooc",),
    "vector_space.query_s": ("vector_space.nearest_neighbors",),
    "stability.report_self_s": ("stability.stability_report",),
    "stability.cross_seed_self_s": ("stability.cross_seed_stability",),
    "trainer.train_s": ("trainer.train_cbow", "trainer.train_skipgram"),
    "graph.build_s": ("graph.from_counts",),
    "graph.export_s": ("graph.export_edge_list",),
    "manifest.digest_s": ("manifest.build_manifest", "manifest.file_digest"),
    "synthetic.corpus_s": ("synthetic.synthetic_corpus",),
}
PER_LAYER_COUNTS = {
    "corpus.tokens": "count",
    "count_model.window_pairs": "count",
    "count_model.nnz": "count",
    "count_model.cooc_bytes": "bytes",
    "vector_space.query_calls": "count",
    "vector_space.rows_scored": "count",
    "stability.words_compared": "count",
    "trainer.samples": "count",
    "graph.edges": "count",
    "manifest.bytes_hashed": "bytes",
    "synthetic.tokens": "count",
    "cli.commands": "count",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input sizes; 'tiny' is for the smoke test")
    return p.parse_args(argv)


def combined_digest(exact: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(exact.items())).encode()).hexdigest()


def compare(wl, rec, ref, expected: dict | None) -> list[str]:
    """Problems of one study's record against the recorded values and the first study."""
    problems = list(rec.problems)
    if expected is not None:
        if combined_digest(rec.exact) != expected["digest"]:
            problems.append("integer/token-order outputs differ from the recorded digests")
        problems += [f"{k}: {rec.floats.get(k)!r} != recorded {v!r}"
                     for k, v in expected["floats"].items() if not wl.floats_close(rec.floats.get(k), v)]
    if ref is not None:
        for kind in ("exact", "repeat"):
            mine, theirs = getattr(rec, kind), getattr(ref, kind)
            problems += [f"{k}: differs from the run's first study"
                         for k in sorted(mine.keys() | theirs.keys()) if mine.get(k) != theirs.get(k)]
        problems += [f"{k}: {rec.floats.get(k)!r} != first study {v!r}"
                     for k, v in ref.floats.items() if not wl.floats_close(rec.floats.get(k), v)]
    return problems


def environment(args, plan: dict, sizes: dict) -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS") or k == "DRIFTBENCH_THREADS"},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "sizes": {args.workload: sizes[args.workload], "floor": sizes["floor"]},
        "input_tokens": {"inputs": plan["tokens"], "floor": plan["floor"]["tokens"]},
    }


class Bench:
    def __init__(self, args, wl, spans):
        self.args, self.wl = args, wl
        self.work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
        self.tracer = spans.Tracer() if args.trace else None
        self.layers = spans.LAYERS
        self.expected = None
        if EXPECTED.is_file():
            store = json.loads(EXPECTED.read_text(encoding="utf-8"))
            self.expected = store.get(args.scale, {}).get(args.workload, {}).get(str(args.seed))
        self.plan: dict = {}
        self.ref = None
        self.attempted = 0
        self.failures: list[str] = []
        self.summaries: list[dict] = []

    def setup(self) -> float:
        """Generate and write the inputs in a child process, then run one warm-up study."""
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "gen.py"), self.args.workload, str(self.args.seed),
                        self.args.scale, str(self.work)], check=True)
        self.plan = json.loads((self.work / "plan.json").read_text(encoding="utf-8"))
        return time.perf_counter() - start + self.study(traced=False)

    def study(self, traced: bool) -> float:
        """Run and check one study; return its wall time."""
        index = self.attempted
        self.attempted += 1
        results = None
        problems: list[str] = []
        gc.collect()
        if traced:
            self.tracer.study = index
            self.tracer.install()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                results = self.wl.run_study(self.args.workload, self.work, self.plan, self.args.scale)
            except Exception as exc:  # a failed study is counted, and the loop goes on
                problems.append(f"{type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)
            end = time.perf_counter()
            if traced:
                self.tracer.uninstall()
        if results is not None:
            try:
                rec = self.wl.check_study(self.args.workload, self.work, self.plan, self.args.scale, results)
                problems += compare(self.wl, rec, self.ref, self.expected)
                self.ref = self.ref or rec
            except Exception as exc:  # unreadable output
                problems.append(f"check: {type(exc).__name__}: {exc}")
        if traced:
            summary = self.tracer.study_summary(index)
            summary["stability.k_clamps"] = sum("clamped" in str(w.message) for w in caught)
            summary["wall_s"] = end - start
            if summary.get("trainer.samples") != self.wl.study_work(self.args.workload, self.plan)["samples"]:
                problems.append(f"trained {summary.get('trainer.samples')} samples, plan says "
                                f"{self.wl.study_work(self.args.workload, self.plan)['samples']}")
            if summary.get("trainer.nonfinite_losses"):
                problems.append("non-finite training loss")
            self.summaries.append(summary)
        if problems:
            self.failures.append(f"study {index}: " + "; ".join(problems))
        return end - start

    def run(self) -> dict:
        args = self.args
        setup_times = [self.setup() for _ in range(SETUP_REPEATS)]
        plain, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(plain) + len(traced) < MIN_STUDIES:
            use_trace = self.tracer is not None and len(plain) > len(traced)
            (traced if use_trace else plain).append(self.study(traced=use_trace))
        work = self.wl.study_work(args.workload, self.plan)
        p50 = statistics.median(plain)
        if self.tracer is None:
            ordered = sorted(plain)
            tail_index = len(ordered) - 11
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "study_p50_s": (p50, "s"),
                "study_tail_s": (ordered[tail_index], "s"),
                "tokens_per_s": (work["tokens"] / p50, "1/s"),
                "words_per_s": (self.ref.words / p50 if self.ref else 0.0, "1/s"),
                "samples_per_s": (work["samples"] / p50, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            detail = {"study_tail_percentile": 100.0 * (tail_index + 1) / len(ordered)}
        else:
            metrics = self.layer_metrics(p50, traced)
            detail = {}
        result = {
            "correct": not self.failures,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record = {
            "result": result,
            **detail,
            "environment": environment(args, self.plan, self.wl.SIZES[args.scale]),
            "work_per_study": work | {"words": self.ref.words if self.ref else None},
            "setup_s": setup_times,
            "study_s": plain,
            "traced_study_s": traced,
            "failures": self.failures,
            "checked_against": ("recorded outputs and " if self.expected else "") + "the run's first study",
        }
        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if self.tracer is not None:
            record["per_study_layers"] = self.summaries
            self.tracer.dump(stem.with_name(stem.name + "-spans.json"), {"workload": args.workload})
        stem.with_suffix(".json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        print(json.dumps({"environment": record["environment"]}))
        return result

    def layer_metrics(self, p50: float, traced: list[float]) -> dict:
        def median_of(key: str) -> float:
            return statistics.median(s.get(key, 0.0) for s in self.summaries)

        metrics = {}
        for layer in self.layers:
            metrics[f"{layer}.self_s"] = (median_of(f"{layer}.self_s"), "s")
        for name, members in SELF_TIME_GROUPS.items():
            for s in self.summaries:
                s[name] = sum(s.get(m + ".self_s", 0.0) for m in members)
            metrics[name] = (median_of(name), "s")
        for name, unit in PER_LAYER_COUNTS.items():
            metrics[name] = (median_of(name), unit)
        rates = [s["trainer.samples"] / s["trainer.train_s"] for s in self.summaries
                 if s.get("trainer.train_s") and "trainer.samples" in s]
        metrics["trainer.samples_per_s"] = (statistics.median(rates) if rates else 0.0, "1/s")
        metrics["trace.overhead_frac"] = (statistics.median(traced) / p50 - 1.0, "ratio")
        return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    needed = [SRC / "driftbench" / "__init__.py", ROOT / "tests" / "data" / "cafe_story.txt"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found; run from the root of a driftbench checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    bench = Bench(args, workloads, spans)
    try:
        result = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
