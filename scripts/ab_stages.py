"""Time two source trees against each other in one process, stage by stage.

    python3 scripts/ab_stages.py PARENT_TREE CHANGE_TREE [--workload W] [--rounds N]

Each tree is a checkout of this repository. Its src/facetrank is copied into
a temporary directory under a package name of its own (facetrank_parent,
facetrank_change), so both import side by side. The workload (default
coverage-heavy) is generated once from perfbench/workloads.py at seed 7.
Each round runs both sides, alternating which goes first; a side runs a
fresh `run_stage("index")`, the work perfbench's setup_s times, and then a
stage-by-stage run on one `RunInputs` (its total includes the dataset
parse). Round 0 is a warm-up and is not counted; N rounds are counted
(default 20). The script prints, for the fresh index, each stage and the
total, each side's quartiles and median in ms, the change's median over the
parent's, and the rounds in which the change was faster (ties count for
neither side). Only pairs timed in one session like this compare; seconds
from different sessions do not.

The BLAS thread variables are pinned to 1 before numpy loads, as in
perfbench/run.py, and a full garbage collection runs before each side, so
neither side pays for the other's garbage. Every temporary directory is
removed on exit.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import gc
import importlib
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

SEED = 7
SIDES = ("parent", "change")


def load_tree(tree: str, side: str, packages: str):
    """Copy the tree's src/facetrank to packages/facetrank_<side> and import
    its pipeline module."""
    name = f"facetrank_{side}"
    shutil.copytree(os.path.join(tree, "src", "facetrank"), os.path.join(packages, name))
    return importlib.import_module(f"{name}.pipeline")


def run_side(pipeline, config, dataset: str, corpus: str, out: str) -> dict[str, float]:
    """Seconds of a fresh index stage, of each stage of a run on one
    RunInputs, and of that whole run (`total`)."""
    start = time.perf_counter()
    pipeline.run_stage("index", config, dataset, corpus, os.path.join(out, "fresh"))
    times = {"fresh index": time.perf_counter() - start}
    run_start = time.perf_counter()
    inputs = pipeline.RunInputs(config, dataset, corpus)
    for stage in pipeline.STAGES:
        start = time.perf_counter()
        pipeline.run_stage(stage, config, dataset, corpus, os.path.join(out, "stages"),
                           inputs=inputs)
        times[stage] = time.perf_counter() - start
    times["total"] = time.perf_counter() - run_start
    return times


def summary(parent: list[float], change: list[float]) -> dict:
    """Each side's (q1, median, q3), the change's median over the parent's,
    and the number of paired rounds in which the change took less time."""
    quartiles = {side: tuple(statistics.quantiles(times, n=4, method="inclusive"))
                 for side, times in zip(SIDES, (parent, change))}
    return {**quartiles, "ratio": quartiles["change"][1] / quartiles["parent"][1],
            "wins": sum(c < p for p, c in zip(parent, change))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, metavar=("PARENT_TREE", "CHANGE_TREE"))
    parser.add_argument("--workload", default="coverage-heavy",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=20,
                        help="counted rounds, after one warm-up round (at least 2)")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")
    with tempfile.TemporaryDirectory(prefix="ab-stages-") as work:
        packages = os.path.join(work, "packages")
        os.makedirs(packages)
        sys.path.insert(0, packages)
        pipelines = {side: load_tree(os.path.abspath(tree), side, packages)
                     for side, tree in zip(SIDES, args.trees)}
        shape = workloads.WORKLOADS[args.workload]
        dataset, corpus = workloads.generate(shape, SEED, os.path.join(work, "inputs"))
        configs = {side: p.load_config(None, **shape.config) for side, p in pipelines.items()}
        times: dict[str, dict[str, list[float]]] = {side: {} for side in SIDES}
        out = os.path.join(work, "out")
        for rnd in range(args.rounds + 1):
            for side in SIDES if rnd % 2 == 0 else SIDES[::-1]:
                gc.collect()
                took = run_side(pipelines[side], configs[side], dataset, corpus, out)
                shutil.rmtree(out)
                if rnd:
                    for key, seconds in took.items():
                        times[side].setdefault(key, []).append(seconds)
    print(f"{args.workload}, seed {SEED}: {args.rounds} rounds after a warm-up, "
          "ms as q1 / median / q3")
    print(f"{'':12} {'parent':>24} {'change':>24} {'ratio':>6}  change faster")
    for key in times["parent"]:
        s = summary(times["parent"][key], times["change"][key])
        cells = [" / ".join(f"{1000 * t:.1f}" for t in s[side]) for side in SIDES]
        print(f"{key:12} {cells[0]:>24} {cells[1]:>24} {s['ratio']:6.3f}  "
              f"{s['wins']} of {args.rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
