"""The benchmark's output checks pass on a real run and reject corrupted artifacts.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from facetrank import pipeline  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Shape(
    n_queries=3, n_aspects=2, docs_per_aspect=4, topic_docs=2,
    background_docs=60, doc_sentences=2, sentence_len=6, sub_answer_len=8,
    background_vocab=200, payload_in_doc=2,
    config={"n_per_aspect": 6, "pool_capacity": 8, "k": 3, "num_samples": 4,
            "mu": 0.0},
)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfbench")
    dataset, corpus = workloads.generate(TINY, 7, str(root / "inputs"))
    config = pipeline.load_config(None, **TINY.config)
    out = root / "out"
    pipeline.run_pipeline(config, dataset, corpus, str(out))
    records, documents = checks.load_inputs(dataset, corpus)
    return out, records, documents, dataclasses.asdict(config)


def test_generated_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.generate(TINY, 3, str(tmp_path / "a"))
    b = workloads.generate(TINY, 3, str(tmp_path / "b"))
    c = workloads.generate(TINY, 4, str(tmp_path / "c"))
    read = lambda paths: [Path(p).read_bytes() for p in paths]  # noqa: E731
    assert read(a) == read(b)
    assert read(a) != read(c)


def test_clean_run_passes_every_check(clean_run):
    out, records, documents, config = clean_run
    assert checks.run_checks(str(out), records, documents, config) == {
        name: [] for name in checks.CHECKS}
    assert len(checks.read_jsonl(str(out / "pairs.jsonl"))) > 1  # pairs are checked


def test_bit_parallel_lcs_matches_dynamic_programming():
    def dp(a, b):
        row = [0] * (len(b) + 1)
        for x in a:
            prev = 0
            for j, y in enumerate(b, start=1):
                prev, row[j] = row[j], prev + 1 if x == y else max(row[j], row[j - 1])
        return row[-1]

    rng = random.Random(0)
    for _ in range(500):
        a = [rng.choice("abcd") for _ in range(rng.randrange(0, 70))]
        b = [rng.choice("abcd") for _ in range(rng.randrange(0, 70))]
        assert checks.lcs_length(a, b) == dp(a, b)


def _first(rows):
    return rows[1]  # rows[0] is the config-fingerprint header


def _swap(seq):
    seq[0], seq[1] = seq[1], seq[0]


def _first_query(report):
    return report["per_query"][sorted(report["per_query"])[0]]


def _scale_first_score(rows):
    entry = _first(rows)["lists"][0][0]
    entry[1] *= 1 + 1e-9


def _duplicate_doc(rows):
    cands = _first(rows)["candidates"]
    cands[1]["doc_id"] = cands[0]["doc_id"]


def _over_capacity(rows):
    cands = _first(rows)["candidates"]
    other = rows[2]["candidates"][0]["doc_id"]  # another query's document
    cands.append({"pool_index": len(cands), "doc_id": other,
                  "aspect_set": [0], "best_rank": {"0": 99}})


def _repeat_rank(rows):
    ids = _first(rows)["docids"]
    ids[1] = ids[0]


def _positive_logprob(rows):
    _first(rows)["step_logprobs"][0] = 0.5


def _swap_rewards(rows):
    pair = _first(rows)
    pair["winner_reward"], pair["loser_reward"] = pair["loser_reward"], pair["winner_reward"]


def _reward_above_two(rows):
    pair = _first(rows)
    pair["winner_reward"] = 2.5
    pair["gap"] = 2.5 - pair["loser_reward"]


def _no_greedy_member(rows):
    pair = _first(rows)
    pair["winner_docids"] = pair["winner_docids"][::-1]
    pair["loser_docids"] = pair["loser_docids"][::-1]


# name: (check expected to fail, artifact, corruption of its parsed content)
CORRUPTIONS = {
    "retrieve-order": ("retrieve", "retrieve.jsonl", lambda rows: _swap(_first(rows)["lists"][0])),
    "retrieve-score": ("retrieve", "retrieve.jsonl", _scale_first_score),
    "pool-duplicate": ("pool", "pool.jsonl", _duplicate_doc),
    "pool-capacity": ("pool", "pool.jsonl", _over_capacity),
    "silver-order": ("silver", "silver.jsonl", lambda rows: _swap(_first(rows)["docids"])),
    "silver-utility": ("silver", "silver.jsonl",
                       lambda rows: _first(rows)["step_utilities"].append(
                           _first(rows)["step_utilities"].pop() + 1e-6)),
    "report-ncom": ("silver", "report.json",
                    lambda rep: _first_query(rep)["ranked"].update(
                        ncom=_first_query(rep)["ranked"]["ncom"] + 1e-6)),
    "rank-repeat": ("rank", "rank.jsonl", _repeat_rank),
    "rank-logprob": ("rank", "rank.jsonl", _positive_logprob),
    "pairs-gap": ("pairs", "pairs.jsonl", lambda rows: _first(rows).update(gap=0.0)),
    "pairs-order": ("pairs", "pairs.jsonl", _swap_rewards),
    "pairs-range": ("pairs", "pairs.jsonl", _reward_above_two),
    "pairs-unilateral": ("pairs", "pairs.jsonl", _no_greedy_member),
    "report-skipped": ("report", "report.json",
                       lambda rep: rep.update(skipped=sorted(rep["per_query"])[:1])),
    "report-count": ("report", "report.json",
                     lambda rep: rep.update(num_queries=rep["num_queries"] - 1)),
    "report-metric": ("report", "report.json", lambda rep: _first_query(rep)["rrf"].update(rl=1.5)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_rejects_corrupted_artifact(clean_run, tmp_path, name):
    out, records, documents, config = clean_run
    check, artifact, corrupt = CORRUPTIONS[name]
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    path = bad / artifact
    if artifact.endswith(".jsonl"):
        rows = checks.read_jsonl(str(path))
        corrupt(rows)
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    else:
        report = json.loads(path.read_text())
        corrupt(report)
        path.write_text(json.dumps(report))
    results = checks.run_checks(str(bad), records, documents, config)
    assert results[check], f"{check} accepted the {name} corruption"


def test_digest_rejects_a_changed_byte(clean_run, tmp_path):
    out = clean_run[0]
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    data = bytearray((bad / "rank.jsonl").read_bytes())
    data[-2] ^= 1
    (bad / "rank.jsonl").write_bytes(bytes(data))
    assert checks.artifact_digest(str(bad)) != checks.artifact_digest(str(out))
