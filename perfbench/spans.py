"""Spans around the public functions of every driftbench module, from outside.

`Tracer.install()` replaces each public function of a layer module with a
wrapper at every binding it has in the package (a function imported by
name into `cli` or `stability` is wrapped there too), and `uninstall()`
puts the originals back, so untraced studies run the unmodified program.
A wrapper records one span: name, start, end, parent span, study id and
self time (its duration minus the time its child spans cover), computed
when the span closes. A few wrappers also add counts of the work done at
that boundary. Spans stay in memory until `dump()` writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "driftbench"
LAYERS = ("corpus", "count_model", "vector_space", "stability", "trainer",
          "graph", "manifest", "synthetic", "cli")


def _window_pairs(args, kwargs, result) -> dict:
    streams, window = args[0], (args[2] if len(args) > 2 else kwargs.get("window"))
    radius = window.radius if window is not None else 10
    pairs = 0
    for s in streams:
        r = min(radius, len(s) - 1)
        if r > 0:
            pairs += r * len(s) - r * (r + 1) // 2
    return {"count_model.window_pairs": pairs, "count_model.nnz": result.counts.nnz}


def _trained(args, kwargs, result) -> dict:
    p = result.provenance
    losses = p["epoch_losses"]
    return {
        "trainer.samples": p["samples_per_epoch"] * len(losses),
        "trainer.nonfinite_losses": sum(1 for x in losses if not math.isfinite(x)),
    }


def _cross_seed(args, kwargs, result) -> dict:
    return {"stability.words_compared":
            len(result.per_word_mean_overlap) * len(result.per_pair_mean_overlap)}


# Counts recorded at a span's boundary: qualified name -> f(args, kwargs, result).
COUNTERS = {
    "corpus.tokenize": lambda a, k, r: {"corpus.tokens": len(r)},
    "count_model.count_cooccurrences": _window_pairs,
    "count_model.save_cooc": lambda a, k, r: {"count_model.cooc_bytes": os.path.getsize(a[1])},
    "vector_space.nearest_neighbors": lambda a, k, r: {"vector_space.query_calls": 1,
                                                       "vector_space.rows_scored": len(a[0])},
    "stability.stability_report": lambda a, k, r: {"stability.words_compared": len(r.diffs)},
    "stability.cross_seed_stability": _cross_seed,
    "stability.jacobi_svd": lambda a, k, r: {"stability.jacobi_dim": len(r[1])},
    "trainer.train_cbow": _trained,
    "trainer.train_skipgram": _trained,
    "trainer.save_embedding_text": lambda a, k, r: {"trainer.embedding_bytes": os.path.getsize(a[1])},
    "graph.from_counts": lambda a, k, r: {"graph.edges": len(r.edges)},
    "manifest.file_digest": lambda a, k, r: {"manifest.bytes_hashed": os.path.getsize(a[0])},
    "synthetic.synthetic_corpus": lambda a, k, r: {"synthetic.tokens": len(r)},
    "cli.main": lambda a, k, r: {"cli.commands": 1},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (study, id, parent, name index, start, end, self)
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.study = -1
        self._stack: list[list] = []  # open spans: [id, child time]
        self._next_id = 0
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        self._bindings: list[tuple] = []

    def _wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        counter = COUNTERS.get(qualname)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append((tracer.study, span_id, parent, index, start, end,
                                     end - start - frame[1]))
            if counter is not None:
                counts = tracer.counts[tracer.study]
                for key, value in counter(args, kwargs, result).items():
                    counts[key] += value
            return result

        return wrapper

    def install(self) -> None:
        if not self._wrappers:
            for layer in LAYERS:
                module = sys.modules[f"{PACKAGE}.{layer}"]
                for name, obj in vars(module).items():
                    if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                            and not name.startswith("_") and not inspect.isgeneratorfunction(obj)):
                        self._wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                pair = self._wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, attr, pair[1])
                    self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def study_summary(self, study: int) -> dict[str, float]:
        """Self time per layer and per qualified name, plus counts, for one study."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s[0] == study:
                name = self.names[s[3]]
                out[name + ".self_s"] += s[6]
                out[name.split(".", 1)[0] + ".self_s"] += s[6]
        out.update(self.counts[study])
        return dict(out)

    def dump(self, path: Path, extra: dict) -> None:
        payload = {
            **extra,
            "names": self.names,
            "span_fields": ["study", "id", "parent", "name", "start", "end", "self"],
            "spans": self.spans,
            "counts": {str(k): v for k, v in self.counts.items()},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
