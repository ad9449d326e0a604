import json
import logging
import os

import pytest

from facetrank.cli import main as cli_main
from facetrank.pipeline import (
    STAGES,
    RunConfig,
    load_config,
    load_dataset,
    run_pipeline,
    run_stage,
)


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# config loading


def test_load_config_defaults():
    cfg = load_config(None)
    assert cfg == RunConfig()


def test_load_config_overrides_beat_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": 5, "tau": 0.2}))
    cfg = load_config(str(path), k=3)
    assert cfg.k == 3
    assert cfg.tau == 0.2


def test_load_config_none_override_ignored(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"k": 5}))
    cfg = load_config(str(path), k=None)
    assert cfg.k == 5


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus_knob": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(str(path))


@pytest.mark.parametrize("field,value", [
    ("aspect_mode", "whatever"),
    ("ablation", "bogus"),
    ("ablation", "random_pairs"),
    ("k", 0),
    ("n_per_aspect", 0),
    ("pool_capacity", 0),
    ("num_samples", 0),
    ("generator_budget", 0),
    ("tau", 0.0),
    ("tau", -1.0),
    ("beta", 0.0),
    ("k_rrf", 0.0),
    ("timeout", 0.0),
    ("mu", -0.1),
    ("retries", -1),
    ("relevance_threshold", -0.1),
    ("relevance_threshold", 1.5),
    ("ndcg_cutoffs", (1, 0)),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})


def test_load_config_rejects_bad_ablation():
    with pytest.raises(ValueError, match="ablation"):
        load_config(None, ablation="random_pairs")


def test_config_accepts_boundary_values():
    cfg = RunConfig(k=1, n_per_aspect=1, pool_capacity=1, num_samples=1,
                    generator_budget=1, mu=0.0, retries=0,
                    relevance_threshold=0.0, ndcg_cutoffs=(1,),
                    aspect_mode="predicted", ablation="random-pairs")
    assert cfg.k == 1
    assert RunConfig(relevance_threshold=1.0, ablation="no-sa").relevance_threshold == 1.0


def test_fingerprint_stable_and_sensitive():
    a = RunConfig()
    b = RunConfig()
    c = RunConfig(k=9)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert len(a.fingerprint()) == 16


# ---------------------------------------------------------------------------
# dataset loading


def _record(idx="r1", **over):
    rec = {
        "id": idx,
        "question": "tell me about x",
        "answer": "first part. second part",
        "sub_aspects": ["one", "two"],
        "sub_answers": ["first part.", "second part"],
    }
    rec.update(over)
    return rec


def test_load_dataset_ok(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record()])
    recs = load_dataset(str(path))
    assert len(recs) == 1
    assert recs[0].sub_aspects == ("one", "two")


def test_load_dataset_empty_errors(tmp_path):
    path = tmp_path / "ds.jsonl"
    path.write_text("\n")
    with pytest.raises(ValueError, match="empty dataset"):
        load_dataset(str(path))


def test_load_dataset_missing_field(tmp_path):
    path = tmp_path / "ds.jsonl"
    rec = _record()
    del rec["answer"]
    _write_jsonl(path, [rec])
    with pytest.raises(ValueError, match="missing field"):
        load_dataset(str(path))


def test_load_dataset_misaligned(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(sub_answers=["only one"])])
    with pytest.raises(ValueError, match="aligned"):
        load_dataset(str(path))


def test_load_dataset_warns_on_few_aspects(tmp_path, caplog):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(sub_aspects=["one"], sub_answers=["first part. second part"])])
    with caplog.at_level(logging.WARNING):
        load_dataset(str(path))
    assert "fewer than 2 sub-aspects" in caplog.text


def test_load_dataset_warns_on_answer_mismatch(tmp_path, caplog):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(answer="something else entirely")])
    with caplog.at_level(logging.WARNING):
        load_dataset(str(path))
    assert "not the concatenation" in caplog.text


# ---------------------------------------------------------------------------
# staged runs on the shipped fixture


@pytest.fixture(scope="module")
def small_config():
    return RunConfig(n_per_aspect=10, pool_capacity=12, k=3, num_samples=2)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    out = str(tmp_path_factory.mktemp("run"))
    run_pipeline(small_config, dataset, corpus, out)
    return out


def test_all_artifacts_written(run_dir):
    expected = ["index.json", "aspects.jsonl", "retrieve.jsonl", "pool.jsonl",
                "silver.jsonl", "rank.jsonl", "pairs.jsonl", "report.json",
                "summary.tsv"]
    for name in expected:
        assert os.path.exists(os.path.join(run_dir, name)), name


def test_artifacts_carry_fingerprint(run_dir, small_config):
    fp = small_config.fingerprint()
    for name in ["aspects.jsonl", "pool.jsonl", "rank.jsonl", "report.json"]:
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            head = json.loads(fh.readline())
        assert head["config_fingerprint"] == fp


def test_stage_counts(run_dir, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    stats = run_stage("rank", small_config, dataset, corpus, run_dir)
    assert stats["count"] == 20
    assert stats["failures"] == []


def test_missing_upstream_artifact(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    with pytest.raises(FileNotFoundError, match="missing artifact"):
        run_stage("rank", small_config, dataset, corpus, str(tmp_path))


def test_unknown_stage(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    with pytest.raises(ValueError, match="unknown stage"):
        run_stage("bogus", small_config, dataset, corpus, str(tmp_path))


def test_fingerprint_mismatch_rejected(run_dir, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    import dataclasses
    other = dataclasses.replace(small_config, tau=0.31)
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        run_stage("pool", other, dataset, corpus, run_dir)


def test_reruns_are_byte_identical(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run_pipeline(small_config, dataset, corpus, out_a)
    run_pipeline(small_config, dataset, corpus, out_b)
    for name in os.listdir(out_a):
        with open(os.path.join(out_a, name), "rb") as fa, \
                open(os.path.join(out_b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_no_sa_ablation_collapses_aspects(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    import dataclasses
    cfg = dataclasses.replace(small_config, ablation="no-sa")
    out = str(tmp_path)
    run_stage("index", cfg, dataset, corpus, out)
    run_stage("aspects", cfg, dataset, corpus, out)
    with open(os.path.join(out, "aspects.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(l) for l in fh][1:]
    for row in rows:
        assert row["source"] == "fallback"
        assert len(row["aspects"]) == 1
        assert row["aspects"][0].startswith("tell me about")


def test_random_pairs_ablation_runs(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    import dataclasses
    cfg = dataclasses.replace(small_config, ablation="random-pairs")
    out = str(tmp_path)
    for stage in ("index", "aspects", "retrieve", "pool", "pairs"):
        stats = run_stage(stage, cfg, dataset, corpus, out)
    with open(os.path.join(out, "pairs.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(l) for l in fh][1:]
    for row in rows:
        assert row["winner_reward"] > row["loser_reward"]


def test_pipeline_report_shape(run_dir):
    with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["num_queries"] == 20
    assert set(report["means"]) == {"ranked", "no_ranker", "rrf"}
    for system in report["means"].values():
        for key in ("f1", "r2", "rl", "cr2", "crl", "map", "ncom"):
            assert key in system


# ---------------------------------------------------------------------------
# CLI


def test_cli_single_stage(tmp_path, synthetic_paths, capsys):
    dataset, corpus = synthetic_paths
    rc = cli_main(["index", "--dataset", dataset, "--corpus", corpus,
                   "--out", str(tmp_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["count"] == 200


def test_cli_pipeline_with_overrides(tmp_path, synthetic_paths, capsys):
    dataset, corpus = synthetic_paths
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_per_aspect": 10, "pool_capacity": 12,
                               "num_samples": 2}))
    rc = cli_main(["pipeline", "--config", str(cfg), "--dataset", dataset,
                   "--corpus", corpus, "--out", str(tmp_path / "run"),
                   "--k", "3", "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["num_queries"] == 20
    assert "ranked" in out["means"]
