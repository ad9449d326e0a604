"""End-to-end stage orchestration with cached, fingerprinted artifacts.

Stages: index -> aspects -> retrieve -> pool -> silver -> rank -> pairs
-> eval. Each stage reads the upstream cache files, writes its own
newline-delimited JSON artifact keyed by record id, and embeds the run
config's fingerprint and a digest of the input files, so artifacts from
different configurations or inputs can never be mixed. The inputs are
parsed, and the BM25 index built, once per run (`RunInputs`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass
from functools import cached_property

from . import evaluation, preferences, silver
from .aspects import HttpLlmClient, RemoteError, SubAspectList, predict_aspects
from .corpus import Document, InvertedIndex, build_index, load_corpus, read_jsonl, retrieve
from .pool import CandidatePool, merge_pool, pool_from_dict, pool_to_dict, retrieve_per_aspect
from .ranker import RankerConfig, RemoteBackend, rank, reference_backend
from .text_metrics import PhiStore, tokenize

log = logging.getLogger(__name__)

@dataclass(frozen=True)
class DatasetRecord:
    id: str
    question: str
    answer: str
    sub_aspects: tuple[str, ...]
    sub_answers: tuple[str, ...]


# RunConfig field annotation -> the types its value may have
_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
                "str | None": (str, type(None)), "tuple[int, ...]": tuple}


@dataclass(frozen=True)
class RunConfig:
    n_per_aspect: int = 50
    pool_capacity: int = 290
    k: int = 10
    tau: float = 0.1
    mu: float = 0.1
    beta: float = 0.1
    num_samples: int = 4
    allow_repetition: bool = False
    seed: int = 0
    aspect_mode: str = "gold"  # gold | predicted
    ablation: str = "none"  # none | no-sa | random-pairs
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    k_rrf: float = 60.0
    relevance_threshold: float = 0.5
    ndcg_cutoffs: tuple[int, ...] = (1, 3, 5, 10)
    generator_budget: int = 3
    explorer_endpoint: str | None = None
    generator_endpoint: str | None = None
    scorer_endpoint: str | None = None
    timeout: float = 30.0
    retries: int = 1

    def __post_init__(self):
        if self.aspect_mode not in ("gold", "predicted"):
            raise ValueError(f"unknown aspect_mode: {self.aspect_mode!r}")
        if self.ablation not in ("none", "no-sa", "random-pairs"):
            raise ValueError(f"unknown ablation: {self.ablation!r}")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            # a bool is an int to isinstance, so only a bool field takes one
            if (not isinstance(value, _FIELD_TYPES[field.type])
                    or isinstance(value, bool) != (field.type == "bool")):
                raise ValueError(f"{field.name} must be {field.type}, not {value!r}")
            # the bound is false for NaN, +-inf and an int beyond the float range
            if field.type == "float" and not abs(value) <= sys.float_info.max:
                raise ValueError(f"{field.name} must be finite")
        for name in ("k", "n_per_aspect", "pool_capacity", "num_samples",
                     "generator_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("tau", "beta", "k_rrf", "timeout"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("mu", "retries", "bm25_k1"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("relevance_threshold", "bm25_b"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if any(type(c) is not int or c < 1 for c in self.ndcg_cutoffs):
            raise ValueError("ndcg_cutoffs must be ints >= 1")

    def fingerprint(self) -> str:
        canon = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_config(path: str | None, **overrides) -> RunConfig:
    data = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if type(data) is not dict:
            raise ValueError(f"{path}: config must be one JSON object")
    data.update({k: v for k, v in overrides.items() if v is not None})
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if isinstance(data.get("ndcg_cutoffs"), list):
        data["ndcg_cutoffs"] = tuple(data["ndcg_cutoffs"])
    return RunConfig(**data)


def load_dataset(path: str) -> list[DatasetRecord]:
    records = []
    first_line: dict[str, int] = {}
    for lineno, obj in read_jsonl(path):
        try:
            values = {f.name: obj[f.name] for f in dataclasses.fields(DatasetRecord)}
        except KeyError as err:
            raise ValueError(f"{path}: record at line {lineno} missing field {err}") from err
        for name, value in values.items():
            if name in ("sub_aspects", "sub_answers"):
                if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
                    raise ValueError(f"{path}: record at line {lineno}: {name} must be "
                                     "a list of strings")
                values[name] = tuple(value)
            elif not isinstance(value, str):
                raise ValueError(f"{path}: record at line {lineno}: {name} must be a string")
        if first_line.setdefault(values["id"], lineno) != lineno:
            raise ValueError(f"{path}: duplicate id {values['id']} at lines "
                             f"{first_line[values['id']]} and {lineno}")
        rec = DatasetRecord(**values)
        if len(rec.sub_aspects) != len(rec.sub_answers) or not rec.sub_aspects:
            raise ValueError(f"record {rec.id}: sub_aspects and sub_answers "
                             "must be aligned and non-empty")
        for i, sub_answer in enumerate(rec.sub_answers):
            if not rec.sub_aspects[i].strip():
                raise ValueError(f"record {rec.id}: sub-aspect {i} is blank")
            if not tokenize(sub_answer):
                raise ValueError(f"record {rec.id}: sub-answer {i} has no token")
        for field in ("question", "answer"):
            if not tokenize(getattr(rec, field)):
                raise ValueError(f"record {rec.id}: {field} has no token")
        if len(rec.sub_aspects) < 2:
            log.warning("record %s has fewer than 2 sub-aspects", rec.id)
        if _squash(rec.answer) != _squash(" ".join(rec.sub_answers)):
            log.warning("record %s: answer is not the concatenation of its "
                        "sub-answers", rec.id)
        records.append(rec)
    if not records:
        raise ValueError("empty dataset")
    return records


def _squash(text: str) -> str:
    return " ".join(text.split())


def _input_digest(*paths: str) -> str:
    """sha256 over each file's size and bytes, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(b"%d\n" % os.fstat(fh.fileno()).st_size)
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()[:16]


class RunInputs:
    """The inputs of one run: the dataset records, the document map from one
    corpus parse and the BM25 index built from it, each made when a stage
    first asks for it, the header every artifact carries (config
    fingerprint and input-file digest), one store of phi floats per
    record (`coverage`), and each pool's score backend from `rank` until
    `pairs` takes it (`backends`, by `_pool_key`).
    """

    def __init__(self, config: RunConfig, dataset_path: str, corpus_path: str):
        self.config = config
        self.paths = (dataset_path, corpus_path)
        self.records = load_dataset(dataset_path)
        self.header = {"config_fingerprint": config.fingerprint(),
                       "input_digest": _input_digest(dataset_path, corpus_path)}
        self._coverage: dict[DatasetRecord, PhiStore] = {}
        self.backends: dict[tuple, object] = {}

    def coverage(self, rec: DatasetRecord) -> PhiStore:
        """The record's phi store against its sub-answers, shared by the
        silver, relevance and NCOM scoring of the run."""
        store = self._coverage.get(rec)
        if store is None:
            store = self._coverage[rec] = PhiStore(rec.sub_answers)
        return store

    @cached_property
    def documents(self) -> dict[str, Document]:
        return load_corpus(self.paths[1])

    @cached_property
    def index(self) -> InvertedIndex:
        return build_index(self.documents.values(), k1=self.config.bm25_k1,
                           b=self.config.bm25_b)


# ---------------------------------------------------------------------------
# artifact IO


def _artifact_path(out_dir: str, stage: str) -> str:
    return os.path.join(out_dir, _STAGES[stage][1])


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write(stage: str, inputs: RunInputs, out_dir: str, rows=(), **head) -> dict:
    """Write a stage's artifact: the run header with `head` merged into it
    on line 1, then one line per row. Returns the first line."""
    first = {**inputs.header, **head}
    with open(_artifact_path(out_dir, stage), "w", encoding="utf-8") as fh:
        fh.write(_dump(first) + "\n")
        for row in rows:
            fh.write(_dump(row) + "\n")
    return first


def _write_stage(stage: str, inputs: RunInputs, out_dir: str, rows: list[dict],
                 failures: list[dict]) -> dict:
    """Write a per-record stage's rows as its artifact."""
    _write(stage, inputs, out_dir, rows)
    return {"count": len(rows), "failures": failures}


class _ByQuery(dict):
    """An upstream stage's rows by query id. A query with no row failed
    upstream; asking for it raises ValueError, so it fails here too."""

    def __init__(self, stage: str, items):
        super().__init__(items)
        self.stage = stage

    def __missing__(self, query_id):
        raise ValueError(f"failed upstream: no {self.stage} row for {query_id}")


def _upstream(out_dir: str, inputs: RunInputs, stage: str,
              parse=lambda row: row) -> _ByQuery:
    """An upstream stage's rows after the header, each through `parse`, by
    query id; rejects a missing artifact and one written under another
    config or from other input files."""
    path = _artifact_path(out_dir, stage)
    if not os.path.exists(path):
        raise FileNotFoundError(f"missing artifact: {stage}")
    lines = [row for _, row in read_jsonl(path)]
    for key, value in inputs.header.items():
        if not lines or lines[0].get(key) != value:
            raise ValueError(f"artifact {key} mismatch: {path}")
    id_key = "id" if stage in ("aspects", "retrieve") else "query_id"
    return _ByQuery(stage, ((row[id_key], parse(row)) for row in lines[1:]))


def _per_query(inputs: RunInputs, job) -> tuple[list, list[dict]]:
    """The rows job(position, record) returns for every record, and the
    failures: a ValueError or a failed remote call in the job is that
    query's failure ({"id", "error"}) and leaves none of its rows."""
    rows, failures = [], []
    for position, rec in enumerate(inputs.records):
        try:
            rows.extend(job(position, rec))
        except (ValueError, RemoteError) as err:
            failures.append({"id": rec.id, "error": str(err)})
    return rows, failures


# ---------------------------------------------------------------------------
# stage implementations; upstream artifacts and whole-input state are read
# before the per-query loop, so an error there aborts the stage


def _stage_index(config, inputs, out_dir):
    index = inputs.index
    _write("index", inputs, out_dir, doc_count=index.doc_count,
           avg_doc_length=index.avg_doc_length, k1=index.k1, b=index.b,
           vocabulary_size=len(index.terms))
    return {"count": index.doc_count}


def _stage_aspects(config, inputs, out_dir):
    client = None
    if config.aspect_mode == "predicted" and config.ablation != "no-sa":
        if not config.explorer_endpoint:
            raise ValueError("predicted aspect mode requires explorer_endpoint")
        client = HttpLlmClient(config.explorer_endpoint, timeout=config.timeout,
                               retries=config.retries)

    def job(_position, rec):
        if config.ablation == "no-sa":
            aspects = SubAspectList((rec.question,), source="fallback")
        elif config.aspect_mode == "gold":
            aspects = SubAspectList(rec.sub_aspects, source="gold")
        else:
            aspects = predict_aspects(rec.question, client)
        return [{"id": rec.id, "aspects": list(aspects.aspects),
                 "source": aspects.source}]
    return _write_stage("aspects", inputs, out_dir, *_per_query(inputs, job))


def _aspects(row: dict) -> tuple[str, ...]:
    return SubAspectList(tuple(row["aspects"]), source=row["source"]).aspects


def _stage_retrieve(config, inputs, out_dir):
    _upstream(out_dir, inputs, "index")  # index.json is one header line
    index = inputs.index
    aspects = _upstream(out_dir, inputs, "aspects", _aspects)

    def job(_position, rec):
        lists = retrieve_per_aspect(index, rec.question, aspects[rec.id],
                                    config.n_per_aspect)
        return [{"id": rec.id, "lists": lists}]
    return _write_stage("retrieve", inputs, out_dir, *_per_query(inputs, job))


def _stage_pool(config, inputs, out_dir):
    aspects = _upstream(out_dir, inputs, "aspects", _aspects)
    retrieved = _upstream(out_dir, inputs, "retrieve")
    documents = inputs.documents

    def job(_position, rec):
        pool = merge_pool(rec.question, aspects[rec.id], retrieved[rec.id]["lists"],
                          config.pool_capacity, documents)
        return [pool_to_dict(rec.id, pool)]
    return _write_stage("pool", inputs, out_dir, *_per_query(inputs, job))


def _load_pools(out_dir: str, inputs: RunInputs) -> dict[str, CandidatePool]:
    questions = {rec.id: rec.question for rec in inputs.records}
    return _upstream(out_dir, inputs, "pool", lambda row: pool_from_dict(
        row, questions[row["query_id"]], inputs.documents))


def _stage_silver(config, inputs, out_dir):
    pools = _load_pools(out_dir, inputs)

    def job(_position, rec):
        target = silver.build_silver_list(pools[rec.id], inputs.coverage(rec), config.k)
        return [{"query_id": rec.id, "docids": target.docids,
                 "step_utilities": target.step_utilities}]
    return _write_stage("silver", inputs, out_dir, *_per_query(inputs, job))


def _make_backend(config: RunConfig, pool: CandidatePool):
    if config.scorer_endpoint:
        return RemoteBackend(config.scorer_endpoint, pool.query, pool.aspects,
                             [c.doc.text for c in pool.candidates],
                             timeout=config.timeout, retries=config.retries)
    return reference_backend(pool.query, pool.aspects, pool.candidates)


def _pool_key(pool: CandidatePool) -> tuple:  # what its backend is made from
    return pool.query, pool.aspects, tuple(c.doc.text for c in pool.candidates)


def _ranker_config(config: RunConfig) -> RankerConfig:
    return RankerConfig(k=config.k, tau=config.tau,
                        allow_repetition=config.allow_repetition,
                        seed=config.seed)


def _stage_rank(config, inputs, out_dir):
    pools = _load_pools(out_dir, inputs)
    rcfg = _ranker_config(config)

    def job(_position, rec):
        pool = pools[rec.id]
        backend = inputs.backends[_pool_key(pool)] = _make_backend(config, pool)
        ranking = rank(pool, rcfg, backend)
        return [{"query_id": rec.id, "docids": ranking.docids,
                 "step_logprobs": ranking.step_logprobs, "mode": ranking.mode}]
    return _write_stage("rank", inputs, out_dir, *_per_query(inputs, job))


def _make_generator(config: RunConfig):
    if config.generator_endpoint:
        return preferences.HttpGenerator(config.generator_endpoint,
                                         timeout=config.timeout,
                                         retries=config.retries)
    return preferences.OracleGenerator(budget=config.generator_budget)


def _stage_pairs(config, inputs, out_dir):
    pools = _load_pools(out_dir, inputs)
    rcfg = _ranker_config(config)
    generator = _make_generator(config)

    def job(position, rec):
        pool = pools[rec.id]
        # rank's backend, its steps kept; alone, or where rank failed, a new one
        backend = inputs.backends.pop(_pool_key(pool), None) or _make_backend(config, pool)
        lists = preferences.generate_rewarded_lists(
            pool, rcfg, backend, generator,
            rec.answer, list(rec.sub_answers), config.num_samples)
        if config.ablation == "random-pairs":
            pairs = preferences.random_pairs(lists, config.seed + position)
        else:
            pairs = preferences.build_us3_pairs(lists, config.mu)
        return [{
            "query_id": rec.id,
            "winner_docids": p.winner.list.docids,
            "loser_docids": p.loser.list.docids,
            "winner_reward": p.winner.reward,
            "loser_reward": p.loser.reward,
            "gap": p.gap,
            "mu": config.mu,
            "beta": config.beta,
        } for p in pairs]
    return _write_stage("pairs", inputs, out_dir, *_per_query(inputs, job))


def _stage_eval(config, inputs, out_dir):
    _upstream(out_dir, inputs, "index")
    index = inputs.index
    pools = _load_pools(out_dir, inputs)
    retrieved = _upstream(out_dir, inputs, "retrieve")
    silver_rows = _upstream(out_dir, inputs, "silver")
    rank_rows = _upstream(out_dir, inputs, "rank")
    generator = _make_generator(config)
    cutoffs = list(config.ndcg_cutoffs)

    def job(_position, rec):
        pool = pools[rec.id]
        store = inputs.coverage(rec)
        silver_texts = [pool.candidates[i].doc.text
                        for i in silver_rows[rec.id]["docids"]]
        systems = {
            "ranked": [pool.candidates[i].doc.doc_id
                       for i in rank_rows[rec.id]["docids"]],
            "no_ranker": _plain_retrieval_ids(index, rec.question, config.k, pool),
            "rrf": evaluation.rrf_fuse(
                [[d for d, _ in lst] for lst in retrieved[rec.id]["lists"]],
                k_rrf=config.k_rrf, top=config.k),
        }
        # the pool and every scored list are labelled
        relevant = evaluation.label_relevance(
            [c.doc for c in pool.candidates]
            + [inputs.documents[d] for doc_ids in systems.values() for d in doc_ids],
            store, config.relevance_threshold)
        scored = {}
        for name, doc_ids in systems.items():
            texts = [inputs.documents[d].text for d in doc_ids]
            response = generator.generate(rec.question, texts)
            metrics = evaluation.evaluate_response(response, rec.answer,
                                                   list(rec.sub_answers))
            # map and ndcg@c are undefined for a query with nothing relevant
            ranking = evaluation.ranking_metrics(doc_ids, relevant, cutoffs)
            metrics.update(ranking if relevant else {"no_relevant": ranking["no_relevant"]})
            if len(texts) == len(silver_texts):
                metrics["ncom"] = evaluation.ncom(texts, silver_texts, store)
            scored[name] = metrics
        return [(rec.id, scored)]  # only once all three systems are scored
    rows, failures = _per_query(inputs, job)
    per_query = dict(rows)

    # each mean is over the queries that define the metric (ncom needs a
    # list as long as the silver one, map and ndcg@c a relevant document),
    # never imputing a missing value
    defined: dict[str, dict[str, list[float]]] = {}
    for systems_metrics in per_query.values():
        for name, metrics in systems_metrics.items():
            for key, value in metrics.items():
                defined.setdefault(name, {}).setdefault(key, []).append(value)
    means = {name: {key: sum(values) / len(values) for key, values in by_key.items()}
             for name, by_key in defined.items()}
    report = _write("eval", inputs, out_dir, num_queries=len(per_query),
                    skipped=sorted(f["id"] for f in failures), per_query=per_query,
                    means=means,
                    mean_counts={name: {key: len(values) for key, values in by_key.items()}
                                 for name, by_key in defined.items()})
    _write_summary(os.path.join(out_dir, "summary.tsv"), means)
    return {"count": len(per_query), "failures": failures, "report": report}


def _plain_retrieval_ids(index, question, k, pool) -> list[str]:
    """Original-query retrieval order, padded from the pool when short."""
    ids = [d for d, _ in retrieve(index, question, k)]
    return ids + [c.doc.doc_id for c in pool.candidates
                  if c.doc.doc_id not in ids][:k - len(ids)]


def _write_summary(path: str, means: dict[str, dict[str, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for system in sorted(means):
            for metric in sorted(means[system]):
                fh.write(f"{system}\t{metric}\t{means[system][metric]:.6f}\n")


# stage name -> (job, artifact file), in run order
_STAGES = {
    "index": (_stage_index, "index.json"),
    "aspects": (_stage_aspects, "aspects.jsonl"),
    "retrieve": (_stage_retrieve, "retrieve.jsonl"),
    "pool": (_stage_pool, "pool.jsonl"),
    "silver": (_stage_silver, "silver.jsonl"),
    "rank": (_stage_rank, "rank.jsonl"),
    "pairs": (_stage_pairs, "pairs.jsonl"),
    "eval": (_stage_eval, "report.json"),
}
STAGES = tuple(_STAGES)


def run_stage(stage: str, config: RunConfig, dataset_path: str,
              corpus_path: str, out_dir: str, *,
              inputs: RunInputs | None = None) -> dict:
    """Run one named stage; upstream artifacts must already exist.

    `inputs` shares one parse of the inputs across stages; it must have been
    made from the same config and paths. Without it the stage reads the
    inputs itself.
    """
    if stage not in _STAGES:
        raise ValueError(f"unknown stage: {stage!r}")
    if inputs is None:
        inputs = RunInputs(config, dataset_path, corpus_path)
    elif (inputs.config, inputs.paths) != (config, (dataset_path, corpus_path)):
        raise ValueError("inputs were made from another config or other paths")
    os.makedirs(out_dir, exist_ok=True)
    return _STAGES[stage][0](config, inputs, out_dir)


def run_pipeline(config: RunConfig, dataset_path: str, corpus_path: str,
                 out_dir: str) -> dict:
    """Run all stages in order on one RunInputs; returns the eval stage's report."""
    inputs = RunInputs(config, dataset_path, corpus_path)
    stats = {}
    for stage in STAGES:
        stats[stage] = run_stage(stage, config, dataset_path, corpus_path, out_dir,
                                 inputs=inputs)
    return stats["eval"]["report"]
