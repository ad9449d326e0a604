"""facetrank benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload coverage-heavy --seed 1 --seconds 60 --trace 0

Generates the workload's inputs from the seed, runs the public
`facetrank.pipeline.run_pipeline` on them in a closed loop (one client, the
next run starts when the last one ends) on a fresh output directory each
time, checks the outputs against computations made apart from the program
(checks.py), and prints one JSON line as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off:
setup_s (median over batches of the mean wall time of the index stage on a
fresh directory), queries_per_s (queries answered by the timed run_pipeline
calls / their summed wall time) and peak_rss_mb. --trace 1 alternates untraced and traced pipeline
runs and reports the per-layer metrics (tracer.py); trace.overhead_s is the
difference of their medians. The metrics printed, and their units, are
those BENCHMARK.json lists for the mode. attempted counts every query of every pipeline run in the
process; failed counts those listed in a stage's failures or the report's
skipped.

The sources are imported from src/ next to this directory; the run writes
only under .perfbench/ in the checkout and removes what it wrote.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from functools import cached_property
from pathlib import Path

import checks
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7  # set-up samples at least
SETUP_BATCH_S = 0.3  # one set-up sample repeats the index stage this long

STAGE_NAMES = ("index", "aspects", "retrieve", "pool", "silver", "rank", "pairs", "eval")


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Workload:
    """Generated inputs plus the run configuration of one workload."""

    def __init__(self, name: str, seed: int, work_dir: str):
        from facetrank import pipeline

        self.pipeline = pipeline
        self.work_dir = work_dir
        shape = workloads.WORKLOADS[name]
        self.dataset, self.corpus = workloads.generate(
            shape, seed, os.path.join(work_dir, "inputs"))
        self.config = pipeline.load_config(None, **shape.config)
        self.n_queries = shape.n_queries
        self._runs = 0

    @cached_property
    def inputs(self) -> tuple[list[dict], dict[str, dict]]:
        """The benchmark's own parsed copy of the inputs, for the checks and
        the traced run's postings counts.

        Loaded on first use, after peak_rss_mb is read, so that figure holds
        the program's memory and not this copy.
        """
        return checks.load_inputs(self.dataset, self.corpus)

    def fresh_dir(self) -> str:
        self._runs += 1
        return os.path.join(self.work_dir, f"out{self._runs}")

    def run_stages(self, out_dir: str) -> set[str]:
        """All stages one by one through run_stage; returns the failed query ids."""
        failed = set()
        for stage in self.pipeline.STAGES:
            stats = self.pipeline.run_stage(stage, self.config, self.dataset,
                                            self.corpus, out_dir)
            failed.update(f["id"] for f in stats.get("failures", ()))
            failed.update(stats.get("report", {}).get("skipped", ()))
        return failed

    def timed_pipeline(self) -> tuple[float, str]:
        out_dir = self.fresh_dir()
        start = time.perf_counter()
        self.pipeline.run_pipeline(self.config, self.dataset, self.corpus, out_dir)
        return time.perf_counter() - start, out_dir

    def timed_setup(self) -> float:
        """Mean wall time of index stages, each on a fresh directory, over a
        batch of at least SETUP_BATCH_S."""
        total, n = 0.0, 0
        while total < SETUP_BATCH_S:
            out_dir = self.fresh_dir()
            start = time.perf_counter()
            self.pipeline.run_stage("index", self.config, self.dataset, self.corpus, out_dir)
            total += time.perf_counter() - start
            n += 1
            shutil.rmtree(out_dir)
        return total / n


def _consume(reference: dict, out_dir: str, errors: list[str]) -> None:
    """Compare a repeated run's artifacts with the reference run's, then drop them."""
    if checks.artifact_digest(out_dir) != reference:
        errors.append(f"artifacts of {os.path.basename(out_dir)} differ from the first run")
    shutil.rmtree(out_dir)


def _rounds(deadline: float):
    """Yield once per round of a run, at least once, and stop before a round
    as long as the last one would end after the deadline.

    The reference run and the rounds share the --seconds budget, so a run
    takes --seconds plus input generation and the checks.
    """
    while True:
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        if end + (end - start) > deadline:
            return


def measure(w: Workload, seconds: float, errors: list[str]) -> tuple[dict, tuple[int, int]]:
    """End-to-end metrics from untraced runs; returns them and (attempted, failed)."""
    deadline = time.perf_counter() + seconds
    reference_dir = w.fresh_dir()
    failed = w.run_stages(reference_dir)
    reference = checks.artifact_digest(reference_dir)
    setups, times = [], []
    for _ in _rounds(deadline):
        # set-up samples are spread over the run, so a slow spell of the
        # machine moves their median no more than it moves queries_per_s
        setups.append(w.timed_setup())
        elapsed, out_dir = w.timed_pipeline()
        times.append(elapsed)
        _consume(reference, out_dir, errors)
    while len(setups) < SETUP_REPEATS:
        setups.append(w.timed_setup())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    _verify(w, reference_dir, errors)
    print(f"setup_s samples: {[round(s, 4) for s in setups]}", file=sys.stderr)
    print(f"run_pipeline seconds: {[round(t, 4) for t in times]}", file=sys.stderr)
    # Throughput over the whole run: from run to run it spread less than the
    # median pipeline call did (README, end-to-end figures).
    metrics = {"setup_s": statistics.median(setups),
               "queries_per_s": w.n_queries * len(times) / sum(times),
               "peak_rss_mb": rss_mb}
    return metrics, _result_counts(w, len(times) + 1, failed)


def trace(w: Workload, seconds: float, errors: list[str]) -> tuple[dict, tuple[int, int]]:
    """Per-layer metrics from traced runs, alternated with untraced ones."""
    deadline = time.perf_counter() + seconds
    reference_dir = w.fresh_dir()
    failed = w.run_stages(reference_dir)
    reference = checks.artifact_digest(reference_dir)
    bm25 = checks.Bm25(w.inputs[1], w.config.bm25_k1, w.config.bm25_b)
    df = {term: len(plist) for term, plist in bm25.postings.items()}
    del bm25
    plain, traced, samples = [], [], []
    for _ in _rounds(deadline):
        elapsed, out_dir = w.timed_pipeline()
        plain.append(elapsed)
        _consume(reference, out_dir, errors)
        tracer = Tracer(df, checks.tokenize)
        tracer.install()
        try:
            elapsed, out_dir = w.timed_pipeline()
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        samples.append(_trace_metrics(tracer))
        _consume(reference, out_dir, errors)
    _verify(w, reference_dir, errors)
    # median_low keeps counts whole and every value an actual sample
    metrics = {key: statistics.median_low(s[key] for s in samples) for key in samples[0]}
    metrics["pipeline.artifact_bytes"] = _dir_bytes(reference_dir)
    metrics["pool.candidates"] = sum(
        len(r["candidates"]) for r in checks.read_jsonl(
            os.path.join(reference_dir, "pool.jsonl"))[1:])
    metrics["preferences.pairs_built"] = len(
        checks.read_jsonl(os.path.join(reference_dir, "pairs.jsonl"))) - 1
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    _report_trace(tracer)
    return metrics, _result_counts(w, len(plain) + len(traced) + 1, failed)


def _trace_metrics(tracer: Tracer) -> dict:
    out = {f"stage.{s}_s": tracer.stage_s[s] for s in STAGE_NAMES}
    for layer, s in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = s
    for key in tracer.keys:
        out[f"{key}_calls"] = tracer.calls.get(key, 0)
        out[f"{key}_s"] = tracer.self_s.get(key, 0.0)
    out.update(tracer.counts)
    out["text_metrics.phi_calls_via_aspect_weights"] = tracer.edges[
        ("silver.aspect_weights", "text_metrics.phi")]
    return out


def _report_trace(tracer: Tracer) -> None:
    """Human-readable per-layer and per-function table of one traced run, on stderr."""
    layers = tracer.layer_self_s()
    total = sum(layers.values())
    print(f"traced pipeline self time {total:.3f} s by layer:", file=sys.stderr)
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:14s} {s:9.4f} s {100 * s / total:6.1f}%", file=sys.stderr)
    print("by function (calls, self s):", file=sys.stderr)
    for key in sorted(tracer.calls, key=lambda k: -tracer.self_s[k]):
        print(f"  {key:36s} {tracer.calls[key]:9d} {tracer.self_s[key]:9.4f}",
              file=sys.stderr)
    for (caller, callee), n in sorted(tracer.edges.items()):
        if callee == "text_metrics.phi":
            print(f"  phi calls from {caller}: {n}", file=sys.stderr)


def _verify(w: Workload, out_dir: str, errors: list[str]) -> None:
    config = dataclasses.asdict(w.config)
    records, documents = w.inputs
    for name, errs in checks.run_checks(out_dir, records, documents, config).items():
        errors.extend(f"check {name}: {e}" for e in errs)


def _result_counts(w: Workload, rounds: int, failed: set[str]) -> tuple[int, int]:
    return w.n_queries * rounds, len(failed) * rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "facetrank" / "pipeline.py").is_file():
        print(f"perfbench: no facetrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # BENCHMARK.json is the one list of the metrics a mode reports, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = spec["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    errors: list[str] = []
    try:
        w = Workload(args.workload, args.seed, work_dir)
        run = trace if args.trace else measure
        metrics, (attempted, failed) = run(w, args.seconds, errors)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    for e in errors:
        print(e, file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
