"""Check that two source trees write byte-identical pipeline artifacts.

    python3 scripts/compare_artifacts.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository. The inputs are made once: the
shipped fixture under data/synthetic (run three times: default config,
`ablation: no-sa` and `ablation: random-pairs`), and the coverage-heavy,
retrieval-heavy and long-list workloads of perfbench/workloads.py at seed
7 (their own configs). Each tree then runs, in its own subprocess with
PYTHONPATH=<tree>/src, `run_pipeline` and a stage-by-stage run (`run_stage`
per stage, each reading the inputs itself) on every input. Every file the
two trees wrote is compared byte for byte, headers included; the script
lists the files that differ or exist on one side only and exits 1 if there
are any. Under each file that differs it names what differs: for a file
whose lines are all JSON, each differing line with the leaf key names whose
values differ there (say `map`, `ndcg@1`); for any other file, the numbers
of the differing lines. It also prints the lines of each Python module under each tree's
src/, one module a line, and their total, so a refactor's two checks (the
same artifacts from fewer lines) and its per-module counts read off one
run.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import workloads  # noqa: E402

WORKLOADS = ("coverage-heavy", "retrieval-heavy", "long-list")
SEED = 7

# run in each tree: argv[1] is the tree's src directory, argv[2] the jobs
CHILD = """
import json, os, sys
from facetrank import pipeline
if not os.path.abspath(pipeline.__file__).startswith(os.path.abspath(sys.argv[1])):
    sys.exit(f"facetrank imported from {pipeline.__file__}, not {sys.argv[1]}")
for job in json.loads(sys.argv[2]):
    config = pipeline.load_config(None, **job["config"])
    paths = (job["dataset"], job["corpus"])
    pipeline.run_pipeline(config, *paths, os.path.join(job["out"], "pipeline"))
    for stage in pipeline.STAGES:
        pipeline.run_stage(stage, config, *paths, os.path.join(job["out"], "stages"))
"""


def make_inputs(work: str) -> list[dict]:
    """Write every input once; one job (name, paths, config) per input."""
    fixture = os.path.join(work, "inputs", "fixture")
    os.makedirs(fixture)
    for name in ("dataset.jsonl", "corpus.jsonl"):
        shutil.copy(os.path.join(ROOT, "data", "synthetic", name), fixture)
    jobs = [{"name": "fixture", "dataset": os.path.join(fixture, "dataset.jsonl"),
             "corpus": os.path.join(fixture, "corpus.jsonl"), "config": {}}]
    jobs += [{**jobs[0], "name": f"fixture-{ablation}", "config": {"ablation": ablation}}
             for ablation in ("no-sa", "random-pairs")]
    for name in WORKLOADS:
        shape = workloads.WORKLOADS[name]
        dataset, corpus = workloads.generate(shape, SEED,
                                             os.path.join(work, "inputs", name))
        jobs.append({"name": name, "dataset": dataset, "corpus": corpus,
                     "config": shape.config})
    return jobs


def run_tree(tree: str, jobs: list[dict], out: str) -> None:
    src = os.path.join(os.path.abspath(tree), "src")
    tree_jobs = [{**job, "out": os.path.join(out, job["name"])} for job in jobs]
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", CHILD, src, json.dumps(tree_jobs)],
                   env=env, cwd=out, check=True)


def _files(top: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), top)
            for d, _, names in os.walk(top) for f in names}


def _leaves(value, path=()) -> dict[tuple, str]:
    """The repr of every leaf of a JSON value, by its path of keys and list
    indices; repr keeps 1 apart from 1.0 and true, and NaN equal to NaN."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: repr(value)}
    leaves = {}
    for key, item in items:
        leaves.update(_leaves(item, path + (key,)))
    return leaves


def _leaf_name(path: tuple) -> str:
    """The last key name on a leaf's path; list indices are skipped."""
    return next((key for key in reversed(path) if isinstance(key, str)), "(top)")


def describe(data_a: bytes, data_b: bytes) -> list[str]:
    """What differs between two versions of one file. If every line of both
    is JSON, one entry per differing line naming the leaf keys whose values
    differ (a key only one side holds differs); otherwise one entry listing
    the numbers of the differing lines."""
    lines_a, lines_b = data_a.splitlines(), data_b.splitlines()
    numbers = [n for n, (a, b) in enumerate(
        itertools.zip_longest(lines_a, lines_b, fillvalue=None), start=1) if a != b]
    try:
        json_a, json_b = ([json.loads(line) for line in lines] for lines in (lines_a, lines_b))
    except ValueError:
        return ["lines " + ", ".join(map(str, numbers))]
    entries = []
    for n in numbers:
        leaves_a = _leaves(json_a[n - 1]) if n <= len(json_a) else {}
        leaves_b = _leaves(json_b[n - 1]) if n <= len(json_b) else {}
        keys = {_leaf_name(path) for path in leaves_a.keys() | leaves_b.keys()
                if leaves_a.get(path) != leaves_b.get(path)}
        entries.append(f"line {n}: " + (", ".join(sorted(keys)) or "same values"))
    return entries


def compare(dir_a: str, dir_b: str) -> tuple[int, list[str]]:
    """Number of files compared, and the files that differ, each with what
    differs in it, or exist once."""
    files_a, files_b = _files(dir_a), _files(dir_b)
    differ = sorted(f"only in {'parent' if f in files_a else 'change'}: {f}"
                    for f in files_a ^ files_b)
    for rel in sorted(files_a & files_b):
        with open(os.path.join(dir_a, rel), "rb") as fa, \
                open(os.path.join(dir_b, rel), "rb") as fb:
            data_a, data_b = fa.read(), fb.read()
        if data_a != data_b:
            differ.append("\n    ".join([f"differs: {rel}", *describe(data_a, data_b)]))
    return len(files_a | files_b), differ


def src_lines(tree: str) -> dict[str, int]:
    """Lines in each .py file under the tree's src/, by path below src/."""
    src = os.path.join(tree, "src")
    lines = {}
    for top, _, names in os.walk(src):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(top, name)
                with open(path, "rb") as fh:
                    lines[os.path.relpath(path, src)] = sum(1 for _ in fh)
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_artifacts.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as work:
        jobs = make_inputs(work)
        outs = []
        for label, tree in zip(("parent", "change"), argv):
            out = os.path.join(work, label)
            os.makedirs(out)
            run_tree(tree, jobs, out)
            outs.append(out)
        total, differ = compare(*outs)
    for line in differ:
        print(line)
    print(f"{total - len(differ)} of {total} files byte-identical")
    parent, change = src_lines(argv[0]), src_lines(argv[1])
    for module in sorted(parent.keys() | change.keys()):
        print(f"src/{module}: {parent.get(module, 0)} → {change.get(module, 0)}")
    print(f"src/ lines: {sum(parent.values())} → {sum(change.values())}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
