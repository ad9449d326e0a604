import json
import logging
import os
import re
import shutil

import pytest

from facetrank import pipeline
from facetrank.cli import main as cli_main
from facetrank.corpus import build_index, load_corpus, retrieve
from facetrank.pipeline import (
    STAGES,
    RunConfig,
    RunInputs,
    load_config,
    load_dataset,
    run_pipeline,
    run_stage,
)
from facetrank.evaluation import ranking_metrics
from facetrank.pool import CandidatePool
from facetrank.text_metrics import phi
from conftest import make_pool


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


@pytest.mark.parametrize("content", [[1, 2], None, "k"])
def test_load_config_rejects_file_without_object(tmp_path, content):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(content))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: config must be "
                                         "one JSON object$"):
        load_config(str(path))


@pytest.mark.parametrize("cutoffs", [5, None])
def test_load_config_rejects_cutoffs_not_a_list(tmp_path, cutoffs):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"ndcg_cutoffs": cutoffs}))
    with pytest.raises(ValueError, match="ndcg_cutoffs must be"):
        load_config(str(path))


def test_load_config_cutoffs_override():
    with pytest.raises(ValueError, match="ndcg_cutoffs must be"):
        load_config(None, ndcg_cutoffs=5)
    assert load_config(None, ndcg_cutoffs=[1, 3]).ndcg_cutoffs == (1, 3)
    assert load_config(None, ndcg_cutoffs=(2,)).ndcg_cutoffs == (2,)


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
    ("bm25_k1", -1.0),
    ("bm25_b", -0.1),
    ("bm25_b", 1.5),
    ("bm25_k1", float("nan")),
    ("bm25_k1", float("inf")),
    ("bm25_b", float("nan")),
    ("tau", float("nan")),
    ("tau", float("inf")),
    ("mu", float("nan")),
    ("mu", float("inf")),
    ("beta", float("nan")),
    ("k_rrf", float("nan")),
    ("k_rrf", float("inf")),
    ("relevance_threshold", float("nan")),
    ("timeout", float("nan")),
    ("timeout", float("inf")),
    ("allow_repetition", "no"),
    ("allow_repetition", 1),
    ("k", 2.5),
    ("k", True),
    ("num_samples", 2.0),
    ("retries", 0.5),
    ("seed", 1.5),
    ("tau", True),
    ("tau", "0.1"),
    ("scorer_endpoint", 5),
    ("ndcg_cutoffs", (1, 2.5)),
    ("ndcg_cutoffs", (1, True)),
    ("ndcg_cutoffs", [1, 3]),
    pytest.param("tau", 10**400, id="tau-huge-int"),
    pytest.param("k_rrf", 10**400, id="k_rrf-huge-int"),
    pytest.param("bm25_k1", 10**400, id="bm25_k1-huge-int"),
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
    assert RunConfig(bm25_k1=0.0, bm25_b=0.0).bm25_b == 0.0
    assert RunConfig(bm25_b=1.0).bm25_b == 1.0


def test_fingerprint_stable_and_sensitive():
    a = RunConfig()
    b = RunConfig()
    c = RunConfig(k=9)
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()
    assert len(a.fingerprint()) == 16
    # valid configs keep the fingerprints they had before the finiteness check
    assert a.fingerprint() == "13805a2678bb9222"
    assert RunConfig(n_per_aspect=10, pool_capacity=12, k=3,
                     num_samples=2).fingerprint() == "f5ad2fc5d5c34fad"


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


def test_load_dataset_rejects_duplicate_id(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(), _record("r2"), _record()])
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate id r1 "
                                         "at lines 1 and 3$"):
        load_dataset(str(path))


def test_pipeline_rejects_dataset_with_repeated_record(tmp_path, synthetic_paths,
                                                       small_config):
    # a repeated id would write three rank rows under a report of two queries
    dataset, corpus = synthetic_paths
    with open(dataset, encoding="utf-8") as fh:
        lines = [fh.readline(), fh.readline()]
    repeated = tmp_path / "dataset.jsonl"
    repeated.write_text("".join(lines + lines[:1]), encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate id .* at lines 1 and 3$"):
        run_pipeline(small_config, str(repeated), corpus, str(tmp_path / "run"))


def test_load_dataset_misaligned(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(sub_answers=["only one"])])
    with pytest.raises(ValueError, match="aligned"):
        load_dataset(str(path))


def test_load_dataset_rejects_sub_answer_without_token(tmp_path):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(), _record("r2", answer="... !!! ?",
                                           sub_aspects=["one", "two", "three"],
                                           sub_answers=["...", "!!!", "?"])])
    with pytest.raises(ValueError, match="record r2: sub-answer 0 has no token"):
        load_dataset(str(path))


@pytest.mark.parametrize("over,message", [
    ({"question": "???"}, "record r2: question has no token"),
    ({"question": "???", "sub_aspects": ["one", "!!!"]}, "record r2: question has no token"),
    ({"answer": "..."}, "record r2: answer has no token"),
    ({"sub_aspects": ["one", "  "]}, "record r2: sub-aspect 1 is blank"),
])
def test_load_dataset_rejects_record_without_text(tmp_path, over, message):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(), _record("r2", **over)])
    with pytest.raises(ValueError, match=message):
        load_dataset(str(path))


@pytest.mark.parametrize("over,field", [
    ({"sub_aspects": "ab", "sub_answers": "xy"}, "sub_aspects"),
    ({"answer": 5}, "answer"),
    ({"sub_answers": ["first part.", 5]}, "sub_answers"),
    ({"sub_aspects": ["one", None]}, "sub_aspects"),
    ({"id": 7}, "id"),
    ({"question": ["tell me about x"]}, "question"),
])
def test_load_dataset_rejects_field_of_wrong_type(tmp_path, over, field):
    path = tmp_path / "ds.jsonl"
    _write_jsonl(path, [_record(), _record("r2", **over)])
    with pytest.raises(ValueError, match=f"record at line 2: {field} must be"):
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


def test_artifacts_carry_fingerprint(run_dir, synthetic_paths, small_config):
    fp = small_config.fingerprint()
    digest = RunInputs(small_config, *synthetic_paths).header["input_digest"]
    assert len(digest) == 16
    for name in ["index.json", "aspects.jsonl", "retrieve.jsonl", "pool.jsonl",
                 "silver.jsonl", "rank.jsonl", "pairs.jsonl", "report.json"]:
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            head = json.loads(fh.readline())
        assert head["config_fingerprint"] == fp
        assert head["input_digest"] == digest


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


def _merge_into_header(path, **fields):
    """Merge `fields` into line 1 of the artifact at `path`."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([json.dumps({**json.loads(lines[0]), **fields}) + "\n"] + lines[1:])


# stage -> the upstream artifacts it reads
UPSTREAM = {"retrieve": ("index", "aspects"), "pool": ("aspects", "retrieve"),
            "silver": ("pool",), "rank": ("pool",), "pairs": ("pool",),
            "eval": ("index", "pool", "retrieve", "silver", "rank")}


@pytest.fixture(scope="module")
def two_record_run(tmp_path_factory, synthetic_paths, small_config):
    """The first two fixture records and a full run's artifacts on them."""
    root = tmp_path_factory.mktemp("two")
    two = _first_two_records(root, synthetic_paths[0])
    run_pipeline(small_config, two, synthetic_paths[1], str(root / "run"))
    return two, str(root / "run")


@pytest.mark.parametrize("damage", ["missing", "stale"])
@pytest.mark.parametrize("stage,upstream",
                         [(stage, up) for stage, ups in UPSTREAM.items() for up in ups])
def test_stage_rejects_missing_or_stale_upstream(tmp_path, synthetic_paths, small_config,
                                                 two_record_run, stage, upstream, damage):
    import dataclasses
    two, run = two_record_run
    out = str(tmp_path / "run")
    shutil.copytree(run, out)
    path = os.path.join(out, pipeline._STAGES[upstream][1])
    if damage == "missing":
        os.remove(path)
        error, message = FileNotFoundError, f"missing artifact: {upstream}$"
    else:  # the header rewritten as another config would write it
        other = dataclasses.replace(small_config, tau=0.31)
        _merge_into_header(path, config_fingerprint=other.fingerprint())
        error, message = ValueError, f"fingerprint mismatch: {re.escape(path)}$"
    with pytest.raises(error, match=message):
        run_stage(stage, small_config, two, synthetic_paths[1], out)


def _jsonl_file(reader, tmp_path, synthetic_paths, small_config, two_record_run):
    """A JSONL file one of the three readers reads, and a call that reads it:
    the dataset, the corpus, or retrieve.jsonl read by the pool stage."""
    if reader == "dataset":
        path = str(tmp_path / "ds.jsonl")
        _write_jsonl(path, [_record("r1"), _record("r2")])
        return path, lambda: load_dataset(path)
    if reader == "corpus":
        path = str(tmp_path / "corpus.jsonl")
        _write_jsonl(path, [{"doc_id": "d0", "text": "x"}, {"doc_id": "d1", "text": "y"}])
        return path, lambda: load_corpus(path)
    two, run = two_record_run
    out = str(tmp_path / "run")
    shutil.copytree(run, out)

    def read_upstream():
        run_stage("pool", small_config, two, synthetic_paths[1], out)
        with open(os.path.join(out, "pool.jsonl"), "rb") as fh:
            return fh.read()
    return os.path.join(out, "retrieve.jsonl"), read_upstream


def _rewrite_lines(path, edit):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


READERS = ["dataset", "corpus", "upstream"]


@pytest.mark.parametrize("bad", ['{"id": "q"', '["not", "an", "object"]', '{"id": "q"} {}'],
                         ids=["not-json", "array", "trailing-data"])
@pytest.mark.parametrize("reader", READERS)
def test_jsonl_reader_names_file_and_line_of_bad_line(tmp_path, synthetic_paths, small_config,
                                                      two_record_run, reader, bad):
    path, read = _jsonl_file(reader, tmp_path, synthetic_paths, small_config, two_record_run)
    _rewrite_lines(path, lambda lines: lines[:1] + ["", bad] + lines[1:])
    with pytest.raises(ValueError, match=rf"^{re.escape(path)}: line 3\b"):
        read()


@pytest.mark.parametrize("reader", READERS)
def test_jsonl_reader_skips_blank_lines(tmp_path, synthetic_paths, small_config,
                                        two_record_run, reader):
    path, read = _jsonl_file(reader, tmp_path, synthetic_paths, small_config, two_record_run)
    expected = read()
    _rewrite_lines(path, lambda lines: [""] + [f"{line}\n  \t\n" for line in lines])
    assert read() == expected


def _assert_same_files(dir_a, dir_b):
    names = sorted(os.listdir(dir_a))
    assert names == sorted(os.listdir(dir_b))
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_reruns_are_byte_identical(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    run_pipeline(small_config, dataset, corpus, out_a)
    run_pipeline(small_config, dataset, corpus, out_b)
    _assert_same_files(out_a, out_b)


def _count_calls(monkeypatch, names):
    """Count the calls pipeline makes to each named function from now on."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counted(name))
    return calls


def test_pipeline_scores_each_text_once_per_record(tmp_path, synthetic_paths,
                                                   small_config, monkeypatch):
    """Silver, relevance labels and NCOM read one phi store per record, and
    the store profiles each text it scores once."""
    from facetrank import text_metrics
    profiled = {}  # (store references, text) -> profiles built for it by the store
    active = []
    rows, profile = text_metrics.PhiStore.rows, text_metrics.profile

    def store_rows(self, texts):
        active.append(self)
        try:
            return rows(self, texts)
        finally:
            active.pop()

    def counted_profile(text):
        if active and text not in active[-1].references:
            key = (active[-1].references, text)
            profiled[key] = profiled.get(key, 0) + 1
        return profile(text)
    monkeypatch.setattr(text_metrics.PhiStore, "rows", store_rows)
    monkeypatch.setattr(text_metrics, "profile", counted_profile)
    run_pipeline(small_config, *synthetic_paths, str(tmp_path))
    assert set(profiled.values()) == {1}
    refs = {rec.id: rec.sub_answers for rec in load_dataset(synthetic_paths[0])}
    assert {key for key, _ in profiled} == set(refs.values())
    texts = {d.doc_id: d.text for d in load_corpus(synthetic_paths[1]).values()}
    with open(tmp_path / "pool.jsonl", encoding="utf-8") as fh:
        pools = [json.loads(line) for line in fh][1:]
    pool_texts = {(refs[p["query_id"]], texts[c["doc_id"]])
                  for p in pools for c in p["candidates"]}
    assert {(key, text) for key, text in pool_texts if text not in key} <= set(profiled)


def test_pipeline_parses_inputs_once(tmp_path, synthetic_paths, small_config,
                                    monkeypatch):
    calls = _count_calls(monkeypatch, ("load_dataset", "load_corpus", "build_index"))
    run_pipeline(small_config, *synthetic_paths, str(tmp_path))
    assert calls == {"load_dataset": 1, "load_corpus": 1, "build_index": 1}


def test_rank_hands_each_pool_backend_to_pairs(tmp_path, synthetic_paths, small_config,
                                               monkeypatch):
    dataset, corpus = synthetic_paths
    calls = _count_calls(monkeypatch, ("reference_backend",))
    run_pipeline(small_config, dataset, corpus, str(tmp_path / "pipeline"))
    assert calls == {"reference_backend": 20}  # one per pool
    inputs = RunInputs(small_config, dataset, corpus)
    staged = tmp_path / "staged"
    for stage in STAGES[:STAGES.index("pairs")]:
        run_stage(stage, small_config, dataset, corpus, str(staged), inputs=inputs)
    assert len(inputs.backends) == 20
    run_stage("pairs", small_config, dataset, corpus, str(staged), inputs=inputs)
    assert inputs.backends == {}
    assert calls == {"reference_backend": 40}
    # pairs alone builds its own backends and writes the same bytes
    alone = tmp_path / "alone"
    shutil.copytree(staged, alone)
    os.remove(alone / "pairs.jsonl")
    run_stage("pairs", small_config, dataset, corpus, str(alone))
    assert calls == {"reference_backend": 60}
    expected = (tmp_path / "pipeline" / "pairs.jsonl").read_bytes()
    assert (staged / "pairs.jsonl").read_bytes() == expected
    assert (alone / "pairs.jsonl").read_bytes() == expected


def test_stage_alone_reads_documents_without_building_index(tmp_path, synthetic_paths,
                                                            small_config, monkeypatch):
    dataset, corpus = synthetic_paths
    out = str(tmp_path)
    for stage in ("index", "aspects", "retrieve"):
        run_stage(stage, small_config, dataset, corpus, out)
    calls = _count_calls(monkeypatch, ("load_corpus", "build_index"))
    run_stage("pool", small_config, dataset, corpus, out)
    assert calls == {"load_corpus": 1, "build_index": 0}


def test_stage_alone_rejects_duplicate_doc_id(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    out = str(tmp_path / "run")
    for stage in ("index", "aspects", "retrieve"):
        run_stage(stage, small_config, dataset, corpus, out)
    with open(corpus, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    duplicated = str(tmp_path / "corpus.jsonl")
    with open(duplicated, "w", encoding="utf-8") as fh:
        fh.writelines(lines + lines[:1])
    # the upstream artifacts, re-headed for the corpus with the duplicate
    header = json.dumps(RunInputs(small_config, dataset, duplicated).header)
    for name in ("aspects.jsonl", "retrieve.jsonl"):
        path = os.path.join(out, name)
        with open(path, encoding="utf-8") as fh:
            rows = fh.readlines()[1:]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines([header + "\n"] + rows)
    with pytest.raises(ValueError, match="duplicate doc_id"):
        run_stage("pool", small_config, dataset, duplicated, out)


@pytest.mark.parametrize("stage", ["retrieve", "silver", "rank", "pairs", "eval"])
def test_later_stage_alone_rejects_duplicate_doc_id(tmp_path, synthetic_paths, small_config,
                                                    two_record_run, stage):
    # a whole-input error aborts the stage; it is not every query's failure
    two, run = two_record_run
    out = str(tmp_path / "run")
    shutil.copytree(run, out)
    with open(synthetic_paths[1], encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    duplicated = str(tmp_path / "corpus.jsonl")
    with open(duplicated, "w", encoding="utf-8") as fh:
        fh.writelines(lines + lines[:1])
    header = RunInputs(small_config, two, duplicated).header
    for _job, name in pipeline._STAGES.values():
        _merge_into_header(os.path.join(out, name), **header)
    with pytest.raises(ValueError, match="duplicate doc_id"):
        run_stage(stage, small_config, two, duplicated, out)


def _first_two_records(tmp_path, dataset):
    two = str(tmp_path / "dataset.jsonl")
    with open(dataset, encoding="utf-8") as fh, open(two, "w", encoding="utf-8") as out_fh:
        out_fh.writelines([fh.readline(), fh.readline()])
    return two


def _cut_second_query_to_one_doc(out):
    """Keep one retrieved document for the second query of retrieve.jsonl."""
    path = os.path.join(out, "retrieve.jsonl")
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    row = json.loads(lines[2])
    row["lists"] = [row["lists"][0][:1]]
    lines[2] = json.dumps(row) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return row["id"]


def test_eval_means_skip_undefined_metrics(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    two = _first_two_records(tmp_path, dataset)
    out = str(tmp_path / "run")
    for stage in STAGES[:-1]:
        run_stage(stage, small_config, two, corpus, out)
    # the second query's rrf list is then shorter than k, so ncom is undefined for it
    _cut_second_query_to_one_doc(out)
    report = run_stage("eval", small_config, two, corpus, out)["report"]
    first, second = report["per_query"].values()
    assert "ncom" in first["rrf"] and "ncom" not in second["rrf"]
    assert report["means"]["rrf"]["ncom"] == first["rrf"]["ncom"]
    assert report["mean_counts"]["rrf"]["ncom"] == 1
    assert report["mean_counts"]["rrf"]["f1"] == 2
    assert report["mean_counts"]["ranked"]["ncom"] == 2


def test_every_fixture_query_has_a_relevant_document(run_dir, synthetic_paths, small_config):
    """Every fixture query has pool documents that cover one of its
    sub-answers, and the ranked list's metrics are those of that set."""
    records = {rec.id: rec for rec in load_dataset(synthetic_paths[0])}
    texts = {d.doc_id: d.text for d in load_corpus(synthetic_paths[1]).values()}
    rows = {}
    for name in ("pool.jsonl", "rank.jsonl"):
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            rows[name] = {row["query_id"]: row for row in map(json.loads, list(fh)[1:])}
    with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
        per_query = json.load(fh)["per_query"]
    assert len(per_query) == 20
    for qid, systems in per_query.items():
        pool_ids = [c["doc_id"] for c in rows["pool.jsonl"][qid]["candidates"]]
        relevant = {d for d in pool_ids if max(phi(texts[d], a) for a in records[qid].sub_answers)
                    > small_config.relevance_threshold}
        assert relevant
        ranked = [pool_ids[i] for i in rows["rank.jsonl"][qid]["docids"]]
        expected = ranking_metrics(ranked, relevant, list(small_config.ndcg_cutoffs))
        assert {key: systems["ranked"][key] for key in expected} == expected
        for metrics in systems.values():
            assert metrics["no_relevant"] == 0.0
            assert "map" in metrics


def test_relevant_document_outside_the_pool_counts(tmp_path, synthetic_paths, small_config):
    """The first query's pool is swapped for documents that cover none of its
    sub-answers before silver and rank run, and its retrieve lists are cut to
    one document that covers its last sub-answer: the rrf list is that one
    document, outside the pool, and it is labelled relevant."""
    dataset, corpus = synthetic_paths
    two = _first_two_records(tmp_path, dataset)
    out = str(tmp_path / "run")
    for stage in ("index", "aspects", "retrieve", "pool"):
        run_stage(stage, small_config, two, corpus, out)
    rec = load_dataset(two)[0]
    texts = {d.doc_id: d.text for d in load_corpus(corpus).values()}

    def covers(doc_id, sub_answers):
        return max(phi(texts[doc_id], a) for a in sub_answers) > \
            small_config.relevance_threshold
    uncovering = iter(d for d in texts if not covers(d, rec.sub_answers))
    last = next(d for d in texts if covers(d, rec.sub_answers[-1:]))

    def swap_pool(lines):
        row = json.loads(lines[1])
        for cand in row["candidates"]:
            cand["doc_id"] = next(uncovering)
        return [lines[0], json.dumps(row)] + lines[2:]

    def only_last(lines):
        row = json.loads(lines[1])
        row["lists"] = [[[last, 1.0]]]
        return [lines[0], json.dumps(row)] + lines[2:]
    _rewrite_lines(os.path.join(out, "pool.jsonl"), swap_pool)
    _rewrite_lines(os.path.join(out, "retrieve.jsonl"), only_last)
    for stage in ("silver", "rank"):
        run_stage(stage, small_config, two, corpus, out)
    metrics = run_stage("eval", small_config, two, corpus, out)["report"]["per_query"][rec.id]
    assert metrics["rrf"]["no_relevant"] == 0.0 and metrics["rrf"]["map"] == 1.0
    assert metrics["ranked"]["no_relevant"] == 0.0 and metrics["ranked"]["map"] == 0.0


def test_query_without_relevant_document_is_counted_out_of_map(tmp_path, synthetic_paths,
                                                              small_config):
    dataset, corpus = synthetic_paths
    two = _first_two_records(tmp_path, dataset)

    def uncoverable(lines):  # sub-answers of the second record no document covers
        rec = json.loads(lines[1])
        rec["sub_answers"] = [f"unseen{i} words{i}" for i in range(len(rec["sub_answers"]))]
        return [lines[0], json.dumps(rec)]
    _rewrite_lines(two, uncoverable)
    report = run_pipeline(small_config, two, corpus, str(tmp_path / "run"))
    first, second = report["per_query"].values()
    for name in ("ranked", "no_ranker", "rrf"):
        assert first[name]["no_relevant"] == 0.0 and second[name]["no_relevant"] == 1.0
        assert "map" in first[name] and "map" not in second[name]
        assert not any(key.startswith("ndcg@") for key in second[name])
        assert report["mean_counts"][name]["map"] == 1
        assert report["mean_counts"][name]["no_relevant"] == 2
        assert report["means"][name]["map"] == first[name]["map"]


def test_query_failure_is_recorded_and_skipped(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    two = _first_two_records(tmp_path, dataset)
    out = str(tmp_path / "run")
    for stage in ("index", "aspects", "retrieve"):
        run_stage(stage, small_config, two, corpus, out)
    # a pool of one document is smaller than k, so each query stage fails it
    failed = _cut_second_query_to_one_doc(out)
    assert failed == "q01"
    run_stage("pool", small_config, two, corpus, out)
    errors = {"silver": "k exceeds pool size", "rank": "k exceeds pool",
              "pairs": "k exceeds pool"}
    for stage, error in errors.items():
        stats = run_stage(stage, small_config, two, corpus, out)
        assert stats["failures"] == [{"id": failed, "error": error}]
        with open(os.path.join(out, f"{stage}.jsonl"), encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh][1:]
        assert {r["query_id"] for r in rows} == {"q00"}
    report = run_stage("eval", small_config, two, corpus, out)["report"]
    assert report["skipped"] == [failed]
    assert list(report["per_query"]) == ["q00"]


def test_shared_and_fresh_inputs_write_identical_artifacts(tmp_path, synthetic_paths,
                                                            small_config):
    dataset, corpus = synthetic_paths
    shared, fresh = str(tmp_path / "shared"), str(tmp_path / "fresh")
    run_pipeline(small_config, dataset, corpus, shared)
    for stage in STAGES:
        run_stage(stage, small_config, dataset, corpus, fresh)
    _assert_same_files(shared, fresh)


def test_stages_after_pool_run_without_aspects_artifact(tmp_path, synthetic_paths,
                                                        small_config):
    dataset, corpus = synthetic_paths
    full, staged = tmp_path / "full", tmp_path / "staged"
    run_pipeline(small_config, dataset, corpus, str(full))
    after_pool = STAGES.index("pool") + 1
    for stage in STAGES[:after_pool]:
        run_stage(stage, small_config, dataset, corpus, str(staged))
    os.remove(staged / "aspects.jsonl")
    for stage in STAGES[after_pool:]:
        run_stage(stage, small_config, dataset, corpus, str(staged))
    os.remove(full / "aspects.jsonl")
    _assert_same_files(str(full), str(staged))


def test_run_stage_rejects_inputs_of_another_config(tmp_path, synthetic_paths,
                                                    small_config):
    dataset, corpus = synthetic_paths
    inputs = RunInputs(RunConfig(), dataset, corpus)
    with pytest.raises(ValueError, match="another config"):
        run_stage("index", small_config, dataset, corpus, str(tmp_path),
                  inputs=inputs)


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


def test_changed_corpus_rejects_stale_artifacts(tmp_path, synthetic_paths, small_config):
    dataset, corpus = synthetic_paths
    out = str(tmp_path / "run")
    for stage in ("index", "aspects", "retrieve"):
        run_stage(stage, small_config, dataset, corpus, out)
    with open(corpus, encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh if line.strip()]
    docs[0]["text"] += " changed"
    changed = str(tmp_path / "corpus.jsonl")
    _write_jsonl(changed, docs)
    with pytest.raises(ValueError, match="input_digest mismatch"):
        run_stage("pool", small_config, dataset, changed, out)


# ---------------------------------------------------------------------------
# the no_ranker system's list


def _padded_by_loop(ids, k, pool):
    """Reference padding: walk the pool, appending ids not retrieved."""
    ids = list(ids)
    have = set(ids)
    for c in pool.candidates:
        if len(ids) >= k:
            break
        if c.doc.doc_id not in have:
            ids.append(c.doc.doc_id)
    return ids[:k]


@pytest.mark.parametrize("query,k,expected", [
    ("a", 4, ["d4", "d1", "d3", "d2"]),  # short: padded in pool order
    ("a", 9, ["d4", "d1", "d3", "d2", "d0"]),  # short, and the pool runs out
    ("b", 2, ["d2", "d1"]),  # full: the retrieval as it is
    ("a b", 1, ["d1"]),
])
def test_plain_retrieval_pads_from_the_pool(query, k, expected):
    docs = make_pool(["c", "a b", "b", "d", "a"]).candidates
    pool = CandidatePool("q", ("a",), docs[::-1])  # pool order d4 .. d0
    index = build_index([c.doc for c in docs])
    retrieved = [d for d, _ in retrieve(index, query, k)]
    ids = pipeline._plain_retrieval_ids(index, query, k, pool)
    assert ids == _padded_by_loop(retrieved, k, pool) == expected
