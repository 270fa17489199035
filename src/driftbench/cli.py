"""Command-line interface: the full pipeline as reproducible subcommands.

Exit codes are a stable contract for scripting: 0 success, 1 usage error,
2 data error, 3 numerical failure. Every run emits a manifest (next to the
output file, or on stderr for stdout output); runs with equal manifests
minus the timestamp produce identical outputs. Seed-dependent subcommands
require an explicit --seed rather than defaulting to a random one.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable

from . import graph as graph_mod
from .corpus import (
    TokenStream,
    build_vocabulary,
    corpus_stats,
    decode_utf8,
    load_stoplist,
    read_corpus,
    remove_stopwords,
    tokenize_document,
)
from .count_model import (
    WindowConfig,
    augment_counts,
    count_cooccurrences,
    load_cooc,
    ppmi_transform,
    save_cooc,
)
from .errors import DataError, DriftbenchError, FormatError, MissingInputError, NumericalError
from .manifest import RunManifest, build_manifest
from .stability import (
    ROTATION_STYLES,
    apply_alignment,
    cross_seed_stability,
    procrustes_align,
    random_rotation,
    stability_report,
)
from .synthetic import synthetic_corpus
from .trainer import (
    TrainingConfig,
    load_embedding_text,
    parse_objective,
    save_checkpoint,
    save_embedding_text,
    train_cbow,
    train_skipgram,
    training_kernel,
)
from .vector_space import VectorSpace, nearest_neighbors

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; our contract reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _objective(text: str) -> str:
    try:
        parse_objective(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


# ---------------------------------------------------------------------------
# shared plumbing

# Arguments that name input files: main() checks that each one given
# exists and records its digest in the manifest.
INPUT_ARGS = (
    "corpus", "model", "model_a", "model_b", "graph_a", "graph_b",
    "base", "addition", "stoplist",
)

# Parsed attributes that are not run parameters; `seed` has its own field.
_NOT_PARAMETERS = ("handler", "subcommand", "experiment", "seed")

# Commands that train, whose bytes depend on the compiled kernel, so their
# manifest names it.
KERNEL_COMMANDS = ("train", "experiment.wiki_sep_style", "experiment.seed_stability")


def _corpus_streams(path: str, stoplist_path: str | None = None) -> list[TokenStream]:
    docs = read_corpus(path)
    streams = [tokenize_document(d) for d in docs]
    if stoplist_path:
        stoplist = load_stoplist(stoplist_path)
        streams = [remove_stopwords(s, stoplist) for s in streams]
    return streams


def _load_space(path: str, ppmi: bool = False) -> VectorSpace:
    """Load a model file, sniffing COOC v1 vs embedding text format."""
    with open(path, "rb") as fh:
        head = fh.readline()
    if head.startswith(b"COOC"):
        matrix = load_cooc(path)
        return ppmi_transform(matrix) if ppmi else matrix.to_space()
    if ppmi:
        raise DataError(f"{path}: --ppmi applies to count models only")
    return load_embedding_text(path)


def _load_dense(path: str) -> VectorSpace:
    space = _load_space(path)
    if space.is_sparse:
        raise DataError(
            f"{path}: this operation needs a dense embedding model, not a count matrix"
        )
    return space


def _training(args) -> tuple[TrainingConfig, str, Callable]:
    """The training configuration, architecture and trainer the parsed flags ask for."""
    config = TrainingConfig(
        seed=args.seed,
        dimension=args.dim,
        window_radius=args.window,
        epochs=args.epochs,
        learning_rate=args.lr,
        min_count=args.min_count,
        objective=args.objective,
    )
    if args.skipgram:
        return config, "skipgram", train_skipgram
    return config, "cbow", train_cbow


def _write(path: str | Path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _inputs(args) -> list[str]:
    """The input files given, after checking that every one of them exists."""
    given = {name: getattr(args, name) for name in INPUT_ARGS if getattr(args, name, None)}
    missing = [f"{name}: {path}" for name, path in given.items() if not Path(path).exists()]
    if missing:
        raise MissingInputError(missing)
    return list(given.values())


def _manifest(args, inputs: list[str]) -> RunManifest:
    """The run's manifest, derived from every parsed argument."""
    subcommand = args.subcommand
    if subcommand == "experiment":
        subcommand = f"experiment.{args.experiment}"
    parameters = {
        name: value for name, value in vars(args).items() if name not in _NOT_PARAMETERS
    }
    return build_manifest(
        subcommand,
        parameters,
        inputs,
        seed=getattr(args, "seed", None),
        kernel=training_kernel() if subcommand in KERNEL_COMMANDS else None,
    )


def _emit(args, payload: str | None, manifest: RunManifest) -> None:
    """Route the payload to --out or stdout and the manifest beside it.

    Experiments keep their manifest inside the --out directory; other
    commands write <out>.manifest.json, or put it on stderr when the
    payload goes to stdout.
    """
    if args.subcommand == "experiment":
        _write(Path(args.out) / "manifest.json", manifest.to_json())
    elif args.out:
        if payload is not None:
            _write(args.out, payload)
        _write(f"{args.out}.manifest.json", manifest.to_json())
    else:
        sys.stdout.write(payload)
        sys.stderr.write(manifest.to_json())


# ---------------------------------------------------------------------------
# subcommand handlers: each does the work and returns its stdout/--out
# payload, or None when it writes its own files.


def cmd_stats(args) -> str:
    streams = _corpus_streams(args.corpus, args.stoplist)
    return json.dumps(corpus_stats(streams).to_dict(), indent=2) + "\n"


def cmd_build_count(args) -> None:
    streams = _corpus_streams(args.corpus, args.stoplist)
    vocab = build_vocabulary(streams, min_count=args.min_count, max_size=args.max_size)
    matrix = count_cooccurrences(streams, vocab, WindowConfig(radius=args.window))
    save_cooc(matrix, args.out)
    _note(f"wrote {args.out}: {len(vocab)} words, {matrix.counts.nnz} nonzero cells")


def cmd_neighbors(args) -> str:
    space = _load_space(args.model, ppmi=args.ppmi)
    result = nearest_neighbors(space, args.word, args.k, args.metric)
    return result.to_json() + "\n" if args.format == "json" else result.to_tsv()


def cmd_diff(args) -> str:
    space_a = _load_space(args.model_a, ppmi=args.ppmi)
    space_b = _load_space(args.model_b, ppmi=args.ppmi)
    words = None
    if args.words and args.words != "all":
        words = [w for w in args.words.split(",") if w]
    report = stability_report(space_a, space_b, k=args.k, metric=args.metric, words=words)
    if args.format == "csv":
        return report.to_csv()
    return json.dumps(report.to_json_dict(), indent=2, ensure_ascii=False) + "\n"


def cmd_train(args) -> None:
    streams = _corpus_streams(args.corpus, args.stoplist)
    config, _, train = _training(args)
    space = train(streams, config)
    text_path = f"{args.out}.txt"
    ckpt_path = f"{args.out}.npz"
    save_embedding_text(space, text_path)
    save_checkpoint(space, ckpt_path)
    for i, loss in enumerate(space.provenance["epoch_losses"], start=1):
        _note(f"epoch {i}/{args.epochs}: mean loss {loss:.6f}")
    _note(f"wrote {text_path} and {ckpt_path}")


def cmd_rotate(args) -> None:
    space = _load_dense(args.model)
    rotated = random_rotation(space, seed=args.seed, style=args.style)
    save_embedding_text(rotated, args.out)
    _note(f"wrote {args.out}")


def cmd_align(args) -> str:
    space_x = _load_dense(args.model_a)
    space_y = _load_dense(args.model_b)
    result = procrustes_align(space_x, space_y)
    if args.apply_to:
        aligned = apply_alignment(space_x, result)
        save_embedding_text(aligned, args.apply_to)
    payload = {
        "residual": result.residual,
        "shared_vocab_size": len(result.shared_vocab),
        "underdetermined": result.underdetermined,
        "rotation": [list(row) for row in result.rotation],
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_graph(args) -> str:
    g = graph_mod.from_counts(load_cooc(args.model), min_weight=args.min_weight)
    return graph_mod.export_graphml(g) if args.graphml else graph_mod.export_edge_list(g)


def _read_graph(path: str) -> graph_mod.SemanticGraph:
    try:
        return graph_mod.import_edge_list(decode_utf8(Path(path).read_bytes(), path))
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def cmd_intersect(args) -> str:
    graph_a, graph_b = (_read_graph(path) for path in (args.graph_a, args.graph_b))
    return graph_mod.export_edge_list(graph_mod.intersection(graph_a, graph_b))


# ---------------------------------------------------------------------------
# experiments


def _write_report(outdir: Path, name: str, report) -> dict:
    """Write a report as JSON and CSV, and return its JSON payload."""
    payload = report.to_json_dict()
    _write(outdir / f"{name}.json", json.dumps(payload, indent=2, ensure_ascii=False) + "\n")
    _write(outdir / f"{name}.csv", report.to_csv())
    return payload


def experiment_stein_hemingway(args) -> None:
    """Count-model corpus-augmentation study: base novel plus a short addition."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    base_streams = _corpus_streams(args.base, args.stoplist)
    add_streams = _corpus_streams(args.addition, args.stoplist)
    vocab = build_vocabulary(base_streams, min_count=args.min_count)
    window = WindowConfig(radius=args.window)
    base_matrix = count_cooccurrences(base_streams, vocab, window)
    augmented = augment_counts(base_matrix, add_streams)
    save_cooc(base_matrix, outdir / "base.cooc")
    save_cooc(augmented, outdir / "augmented.cooc")
    space_a, space_b = base_matrix.to_space(), augmented.to_space()
    report = stability_report(space_a, space_b, k=args.k, metric=args.metric)
    rows = _write_report(outdir, "report", report)["words"]

    tracked = {}
    for word in [w for w in args.words.split(",") if w]:
        if word not in rows:  # the report covers every word both models know
            tracked[word] = {"missing": True}
            continue
        la, lb = (nearest_neighbors(s, word, args.k, args.metric) for s in (space_a, space_b))
        _write(outdir / f"{word}.base.tsv", la.to_tsv())
        _write(outdir / f"{word}.augmented.tsv", lb.to_tsv())
        tracked[word] = {
            "overlap_at_k": rows[word]["overlap_at_k"],
            "exact_order": rows[word]["exact_order"],
            "base_top": list(la.tokens()),
            "augmented_top": list(lb.tokens()),
        }
    _write(outdir / "tracked.json", json.dumps(tracked, indent=2, ensure_ascii=False) + "\n")
    _note(f"report bundle in {outdir}")


def experiment_wiki_sep_style(args) -> None:
    """Embedding-based corpus-augmentation study at whatever scale the inputs allow."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    base_streams = _corpus_streams(args.base, args.stoplist)
    add_streams = _corpus_streams(args.addition, args.stoplist)
    config, _, train = _training(args)
    space_a = train(base_streams, config)
    space_b = train(base_streams + add_streams, config)
    save_embedding_text(space_a, outdir / "base.txt")
    save_embedding_text(space_b, outdir / "augmented.txt")
    report = stability_report(space_a, space_b, k=args.k, metric=args.metric)
    _write_report(outdir, "report", report)
    _note(f"report bundle in {outdir}")


def experiment_seed_stability(args) -> None:
    """Cross-seed neighbor stability at several synthetic corpus sizes.

    Words are ranked only when they clear a relative frequency floor
    (min-rel-freq of the corpus), so every corpus size covers the same
    slice of the language and the overlap values are comparable.
    """
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise DataError("no corpus sizes given")
    config, architecture, _ = _training(args)
    stoplist = load_stoplist(args.stoplist) if args.stoplist else None
    seeds = [args.seed + i for i in range(args.num_seeds)]
    rows = []
    per_size = {}
    for size in sizes:
        min_count = max(args.min_count, round(args.min_rel_freq * size))
        stream = synthetic_corpus(size, seed=args.seed)
        if stoplist:
            stream = remove_stopwords(stream, stoplist)
        result = cross_seed_stability(
            [stream],
            replace(config, min_count=min_count),
            seeds,
            k=args.k,
            metric=args.metric,
            architecture=architecture,
        )
        per_size[str(size)] = result.to_json_dict()
        rows.append((size, result.mean_overlap))
        _note(f"size {size}: mean overlap@{args.k} = {result.mean_overlap:.4f}")
    _write(outdir / "seed_stability.json", json.dumps({"sizes": per_size}, indent=2) + "\n")
    csv_lines = ["size,mean_overlap"] + [f"{s},{o:.10f}" for s, o in rows]
    _write(outdir / "seed_stability.csv", "\n".join(csv_lines) + "\n")
    _note(f"report bundle in {outdir}")


# ---------------------------------------------------------------------------
# parser assembly


def _add_metric(p, default="cosine"):
    p.add_argument(
        "--metric", choices=["cosine", "euclidean", "cityblock"], default=default
    )


def _add_training_flags(p):
    p.add_argument("--dim", type=_positive_int, default=300)
    p.add_argument("--window", type=_positive_int, default=5)
    p.add_argument("--epochs", type=_positive_int, default=5)
    p.add_argument("--lr", type=_positive_float, default=0.025)
    p.add_argument("--min-count", type=_positive_int, default=1)
    p.add_argument("--objective", type=_objective, default="auto")
    p.add_argument("--stoplist", default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--skipgram", action="store_true")


@functools.cache
def build_parser() -> _Parser:
    """The CLI's argument parser, built once per process; callers must not change it."""
    parser = _Parser(prog="driftbench", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stats", help="token/type counts for a corpus")
    p.add_argument("corpus")
    p.add_argument("--stoplist", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("build-count", help="build a co-occurrence matrix")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=_positive_int, default=10)
    p.add_argument("--min-count", type=_positive_int, default=1)
    p.add_argument("--max-size", type=_positive_int, default=None)
    p.add_argument("--stoplist", default=None)
    p.set_defaults(handler=cmd_build_count)

    p = sub.add_parser("neighbors", help="nearest neighbors of a word")
    p.add_argument("model")
    p.add_argument("word")
    p.add_argument("--k", type=_positive_int, default=10)
    _add_metric(p)
    p.add_argument("--ppmi", action="store_true")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_neighbors)

    p = sub.add_parser("diff", help="stability report between two models")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--k", type=_positive_int, default=10)
    _add_metric(p)
    p.add_argument("--words", default="all", help="comma-separated words, or 'all'")
    p.add_argument("--ppmi", action="store_true")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_diff)

    p = sub.add_parser("train", help="train CBOW (or skip-gram) embeddings")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="output prefix (.txt and .npz)")
    _add_training_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("rotate", help="rigidly rotate an embedding model")
    p.add_argument("model")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--style", choices=ROTATION_STYLES, default=ROTATION_STYLES[0])
    p.set_defaults(handler=cmd_rotate)

    p = sub.add_parser("align", help="orthogonal least-squares alignment")
    p.add_argument("model_a")
    p.add_argument("model_b")
    p.add_argument("--apply-to", default=None, help="write rotated model A here")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_align)

    p = sub.add_parser("graph", help="export a count model as a word network")
    p.add_argument("model")
    p.add_argument("--out", default=None)
    p.add_argument("--min-weight", type=_positive_int, default=1)
    p.add_argument("--graphml", action="store_true")
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("intersect", help="intersection of two word networks")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_intersect)

    p = sub.add_parser("experiment", help="end-to-end experiment bundles")
    exp = p.add_subparsers(dest="experiment", required=True)

    e = exp.add_parser("stein_hemingway", help="count model before/after augmentation")
    e.add_argument("--base", required=True)
    e.add_argument("--addition", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--window", type=_positive_int, default=10)
    e.add_argument("--k", type=_positive_int, default=10)
    e.add_argument("--min-count", type=_positive_int, default=1)
    e.add_argument("--words", default="know,glass")
    e.add_argument("--stoplist", default=None)
    _add_metric(e)
    e.set_defaults(handler=experiment_stein_hemingway)

    e = exp.add_parser("wiki_sep_style", help="embeddings before/after augmentation")
    e.add_argument("--base", required=True)
    e.add_argument("--addition", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--k", type=_positive_int, default=10)
    _add_metric(e)
    _add_training_flags(e)
    e.set_defaults(handler=experiment_wiki_sep_style)

    e = exp.add_parser("seed_stability", help="cross-seed overlap vs corpus size")
    e.add_argument("--out", required=True)
    e.add_argument("--sizes", default="2000,20000")
    e.add_argument("--num-seeds", type=_positive_int, default=5)
    e.add_argument("--k", type=_positive_int, default=10)
    e.add_argument("--min-rel-freq", type=_positive_float, default=1.5e-3)
    _add_metric(e)
    _add_training_flags(e)
    e.set_defaults(handler=experiment_seed_stability, dim=25, window=2, epochs=5, lr=0.05)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the parser is cached; look the handler up so that a rebinding of it here counts
    handler = globals()[args.handler.__name__]
    try:
        manifest = _manifest(args, _inputs(args))
        _emit(args, handler(args), manifest)
    except NumericalError as exc:
        print(f"driftbench: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DriftbenchError as exc:
        print(f"driftbench: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"driftbench: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
