"""Call counts and self time per public function, from outside the program.

`Tracer.install()` replaces each public function listed in TRACED with a
wrapper, in its home module and in every other facetrank module that binds
the same object by name (`phi` is bound in text_metrics, silver, evaluation
and preferences; `retrieve` in corpus, pool and pipeline). A listed name
that no longer exists raises, so a rename cannot silently drop a layer.

A function's self time is its wall time minus the wall time of the traced
calls it makes. Spans are aggregated in memory, per function; the caller of
each call is kept as an edge count, so "phi calls made by aspect_weights"
can be read off. Work done by counters (`COUNTERS`) is kept out of every
span.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# layer -> {name in the layer's module: short metric name}
TRACED = {
    "pipeline": {"run_pipeline": "run_pipeline", "run_stage": "run_stage",
                 "load_dataset": "load_dataset", "load_config": "load_config"},
    "corpus": {"load_corpus": "load", "build_index": "build_index",
               "retrieve": "retrieve"},
    "aspects": {"predict_aspects": "predict", "parse_aspects": "parse"},
    "pool": {"retrieve_per_aspect": "retrieve_per_aspect", "merge_pool": "merge",
             "pool_to_dict": "to_dict", "pool_from_dict": "from_dict"},
    "text_metrics": {"tokenize": "tokenize", "rouge": "rouge",
                     "unigram_f1": "unigram_f1", "phi": "phi",
                     "com_rouge": "com_rouge"},
    "silver": {"aspect_weights": "aspect_weights", "coverage_gain": "coverage_gain",
               "build_silver_list": "build"},
    "ranker": {"rank": "rank", "masked_softmax": "masked_softmax",
               "reference_backend": "reference_backend",
               "ReferenceBackend.step_scores": "step_scores"},
    "preferences": {"reward": "reward", "oracle_generate": "oracle_generate",
                    "generate_rewarded_lists": "generate_lists",
                    "build_us3_pairs": "build_pairs"},
    "evaluation": {"evaluate_response": "evaluate_response",
                   "label_relevance": "label_relevance",
                   "ranking_metrics": "ranking_metrics", "com_score": "com_score",
                   "ncom": "ncom", "rrf_fuse": "rrf_fuse"},
}


def _lcs_cells(counts, args, kwargs, result):
    cand, ref = args[0], args[1]
    variant = args[2] if len(args) > 2 else kwargs["variant"]
    if variant == "lcs" and cand and ref:
        counts["text_metrics.lcs_cells"] += len(cand) * len(ref)


class Tracer:
    """Wraps the TRACED functions and aggregates their spans."""

    def __init__(self, document_frequency: dict[str, int], tokenize):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts = {"corpus.postings_scanned": 0, "text_metrics.lcs_cells": 0}
        self.stage_s: dict[str, float] = {}
        self.keys = [f"{layer}.{short}" for layer, names in TRACED.items()
                     for short in names.values()]
        self._stack: list[list] = []  # [key, child wall time]
        self._restore: list[tuple[object, str, object]] = []
        self._df, self._tokenize = document_frequency, tokenize
        self._counters = {
            "corpus.retrieve": self._postings_scanned,
            "text_metrics.rouge": _lcs_cells,
        }

    def _postings_scanned(self, counts, args, kwargs, result):
        query = args[1] if len(args) > 1 else kwargs["query"]
        counts["corpus.postings_scanned"] += sum(
            self._df.get(t, 0) for t in self._tokenize(query))

    def _wrap(self, fn, key: str):
        stack, counter = self._stack, self._counters.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            frame = [key, 0.0]
            if stack:
                self.edges[(stack[-1][0], key)] += 1
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                self.calls[key] += 1
                self.self_s[key] += end - start - frame[1]
                if key == "pipeline.run_stage":
                    stage = args[0] if args else kwargs["stage"]
                    self.stage_s[stage] = self.stage_s.get(stage, 0.0) + end - start
                if ok and counter is not None:
                    counter(self.counts, args, kwargs, result)
                if stack:
                    stack[-1][1] += time.perf_counter() - start
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "facetrank" or name.startswith("facetrank.")]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"facetrank.{layer}")
            for name, short in names.items():
                key = f"{layer}.{short}"
                if "." in name:  # a method, patched on its class
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name, None)
                    if cls is None or meth not in vars(cls):
                        raise RuntimeError(f"traced name facetrank.{layer}.{name} is gone")
                    self._patch(cls, meth, self._wrap(vars(cls)[meth], key))
                    continue
                if not callable(getattr(home, name, None)):
                    raise RuntimeError(f"traced name facetrank.{layer}.{name} is gone")
                original = getattr(home, name)
                wrapped = self._wrap(original, key)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in TRACED}
        for key, s in self.self_s.items():
            out[key.split(".")[0]] += s
        return out
