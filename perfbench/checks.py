"""Output checks computed apart from the program.

Nothing here imports facetrank: the artifacts are read as plain JSON, and
BM25, the coverage score phi and the list-coverage sum are written again
from their definitions. Each check returns a list of error strings; an
empty list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from collections import Counter

RESPONSE_METRICS = ("f1", "r2", "rl", "cr2", "crl")
SYSTEMS = ("ranked", "no_ranker", "rrf")
SAMPLE = 16  # queries whose retrieve lists and silver lists are re-derived
_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _f1(overlap: int, n_cand: int, n_ref: int) -> float:
    p = overlap / n_cand
    r = overlap / n_ref
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def lcs_length(a: list[str], b: list[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix; Hyyro 2004)."""
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - bin(v).count("1")


def phi(candidate: str, reference: str) -> float:
    """Mean of bigram-overlap F1 and LCS F1 over the two token sequences."""
    cand, ref = tokenize(candidate), tokenize(reference)
    cb, rb = list(zip(cand, cand[1:])), list(zip(ref, ref[1:]))
    r2 = _f1(sum((Counter(cb) & Counter(rb)).values()), len(cb), len(rb)) if cb and rb else 0.0
    rl = _f1(lcs_length(cand, ref), len(cand), len(ref)) if cand and ref else 0.0
    return (r2 + rl) / 2.0


def aspect_weights(cov_rows: list[list[float]], n_aspects: int) -> list[float]:
    """1 - sum-normalised best coverage of each aspect by the selected rows."""
    cov = [max((row[j] for row in cov_rows), default=0.0) for j in range(n_aspects)]
    total = sum(cov)
    if total == 0:
        return [1.0] * n_aspects
    return [1.0 - c / total for c in cov]


def list_coverage(rows: list[list[float]]) -> float:
    """Sum over steps of the aspect-weighted coverage of the step's document."""
    n_aspects = len(rows[0]) if rows else 0
    total = 0.0
    for t, row in enumerate(rows):
        w = aspect_weights(rows[:t], n_aspects)
        total += sum(wi * c for wi, c in zip(w, row))
    return total


class Bm25:
    """BM25 over tokenize(title + " " + text), idf floored with log1p."""

    def __init__(self, corpus: dict[str, dict], k1: float, b: float):
        self.k1, self.b = k1, b
        self.postings: dict[str, list[tuple[str, int]]] = {}
        self.lengths: dict[str, int] = {}
        for doc_id, doc in corpus.items():
            tokens = tokenize(doc["title"] + " " + doc["text"])
            self.lengths[doc_id] = len(tokens)
            for term, tf in Counter(tokens).items():
                self.postings.setdefault(term, []).append((doc_id, tf))
        self.n = len(self.lengths)
        self.avg = sum(self.lengths.values()) / self.n

    def search(self, query: str, n: int) -> list[tuple[str, float]]:
        scores: dict[str, float] = {}
        for term in tokenize(query):
            plist = self.postings.get(term, ())
            idf = math.log1p((self.n - len(plist) + 0.5) / (len(plist) + 0.5))
            for doc_id, tf in plist:
                denom = tf + self.k1 * (1 - self.b + self.b * self.lengths[doc_id] / self.avg)
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (self.k1 + 1) / denom
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def load_inputs(dataset_path: str, corpus_path: str) -> tuple[list[dict], dict[str, dict]]:
    return read_jsonl(dataset_path), {d["doc_id"]: d for d in read_jsonl(corpus_path)}


def _rows(out_dir: str, name: str) -> list[dict]:
    """Artifact rows after the config-fingerprint header line."""
    return read_jsonl(os.path.join(out_dir, name))[1:]


def _sample(records: list[dict]) -> list[dict]:
    step = max(1, len(records) // SAMPLE)
    return records[::step][:SAMPLE]


def check_retrieve(out_dir, records, corpus, config) -> list[str]:
    errors = []
    rows = {r["id"]: r["lists"] for r in _rows(out_dir, "retrieve.jsonl")}
    if set(rows) != {r["id"] for r in records}:
        return ["retrieve.jsonl does not hold exactly the dataset's queries"]
    bm25 = Bm25(corpus, config["bm25_k1"], config["bm25_b"])
    for rec in _sample(records):
        lists = rows[rec["id"]]
        if len(lists) != len(rec["sub_aspects"]):
            errors.append(f"{rec['id']}: {len(lists)} lists for "
                          f"{len(rec['sub_aspects'])} aspects")
            continue
        for aspect, got in zip(rec["sub_aspects"], lists):
            want = bm25.search(f"{rec['question']} {aspect}", config["n_per_aspect"])
            if [d for d, _ in got] != [d for d, _ in want]:
                errors.append(f"{rec['id']}: retrieved ids or order differ from BM25")
            elif not all(math.isclose(s, w, rel_tol=1e-12)
                         for (_, s), (_, w) in zip(got, want)):
                errors.append(f"{rec['id']}: retrieved scores differ from BM25")
    return errors


def check_pools(out_dir, records, corpus, config) -> list[str]:
    errors = []
    rows = _rows(out_dir, "pool.jsonl")
    if sorted(r["query_id"] for r in rows) != sorted(r["id"] for r in records):
        errors.append("pool.jsonl does not hold exactly the dataset's queries")
    for row in rows:
        ids = [c["doc_id"] for c in row["candidates"]]
        if len(ids) != len(set(ids)):
            errors.append(f"{row['query_id']}: duplicate doc_id in pool")
        if len(ids) > config["pool_capacity"]:
            errors.append(f"{row['query_id']}: pool of {len(ids)} exceeds capacity")
        if any(d not in corpus for d in ids):
            errors.append(f"{row['query_id']}: pool holds a doc_id not in the corpus")
        if [c["pool_index"] for c in row["candidates"]] != list(range(len(ids))):
            errors.append(f"{row['query_id']}: pool indices are not 0..n-1")
    return errors


def _pool_texts(out_dir: str, corpus: dict[str, dict]) -> dict[str, list[str]]:
    return {row["query_id"]: [corpus[c["doc_id"]]["text"] for c in row["candidates"]]
            for row in _rows(out_dir, "pool.jsonl")}


def check_silver(out_dir, records, corpus, config) -> list[str]:
    """Per-step argmax certificate and com(silver) == sum(step_utilities).

    The ranked list's ncom in the report is checked against the same
    reference coverage values.
    """
    errors = []
    pools = _pool_texts(out_dir, corpus)
    silver = {r["query_id"]: r for r in _rows(out_dir, "silver.jsonl")}
    ranked = {r["query_id"]: r["docids"] for r in _rows(out_dir, "rank.jsonl")}
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        per_query = json.load(fh)["per_query"]
    for rec in _sample(records):
        qid, subs = rec["id"], rec["sub_answers"]
        if qid not in silver or qid not in pools:
            errors.append(f"{qid}: no silver list or pool")
            continue
        texts = pools[qid]
        cov = [[phi(t, a) for a in subs] for t in texts]
        docids, utils = silver[qid]["docids"], silver[qid]["step_utilities"]
        if len(docids) != config["k"] or len(set(docids)) != len(docids) \
                or len(utils) != len(docids):
            errors.append(f"{qid}: silver list is not k distinct steps")
            continue
        remaining = list(range(len(texts)))
        for t, chosen in enumerate(docids):
            w = aspect_weights([cov[i] for i in docids[:t]], len(subs))
            gains = {i: sum(wi * c for wi, c in zip(w, cov[i])) for i in remaining}
            best = gains.get(chosen)
            if best is None or any(g > best or (g == best and i < chosen)
                                   for i, g in gains.items()):
                errors.append(f"{qid}: step {t} is not the lowest-index argmax")
                break
            if not math.isclose(utils[t], best, rel_tol=1e-9, abs_tol=1e-12):
                errors.append(f"{qid}: step {t} utility {utils[t]} != {best}")
                break
            remaining.remove(chosen)
        com_silver = list_coverage([cov[i] for i in docids])
        if not math.isclose(com_silver, sum(utils), rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"{qid}: com(silver) {com_silver} != sum of step utilities")
        if qid in ranked and qid in per_query:
            want = (list_coverage([cov[i] for i in ranked[qid]]) / com_silver
                    if com_silver else 0.0)
            got = per_query[qid]["ranked"].get("ncom")
            if got is None or not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
                errors.append(f"{qid}: reported ncom {got} != {want}")
    return errors


def check_rank(out_dir, records, corpus, config) -> list[str]:
    errors = []
    sizes = {r["query_id"]: len(r["candidates"]) for r in _rows(out_dir, "pool.jsonl")}
    rows = _rows(out_dir, "rank.jsonl")
    if sorted(r["query_id"] for r in rows) != sorted(r["id"] for r in records):
        errors.append("rank.jsonl does not hold exactly the dataset's queries")
    for row in rows:
        qid, ids, lps = row["query_id"], row["docids"], row["step_logprobs"]
        m = sizes.get(qid, 0)
        if len(ids) != config["k"] or len(set(ids)) != len(ids) \
                or not all(0 <= i < m for i in ids):
            errors.append(f"{qid}: rank list is not k distinct pool indices")
        if len(lps) != len(ids) or not all(math.isfinite(x) and x <= 0 for x in lps):
            errors.append(f"{qid}: step log-probabilities not finite and <= 0")
    return errors


def check_pairs(out_dir, records, corpus, config) -> list[str]:
    errors = []
    greedy = {r["query_id"]: r["docids"] for r in _rows(out_dir, "rank.jsonl")}
    for row in _rows(out_dir, "pairs.jsonl"):
        qid, w, l = row["query_id"], row["winner_reward"], row["loser_reward"]
        if not row["gap"] > config["mu"]:
            errors.append(f"{qid}: pair gap {row['gap']} <= mu")
        if not w > l:
            errors.append(f"{qid}: winner reward {w} <= loser reward {l}")
        if not (0 <= w <= 2 and 0 <= l <= 2):
            errors.append(f"{qid}: reward outside [0, 2]")
        if not math.isclose(row["gap"], w - l, rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"{qid}: gap is not winner minus loser reward")
        if greedy.get(qid) not in (row["winner_docids"], row["loser_docids"]):
            errors.append(f"{qid}: neither pair member is the greedy list")
    return errors


def check_report(out_dir, records, corpus, config) -> list[str]:
    errors = []
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if report["num_queries"] != len(records) or report["skipped"]:
        errors.append(f"report covers {report['num_queries']} of {len(records)} "
                      f"queries, skipped {report['skipped']}")
    if set(report["per_query"]) != {r["id"] for r in records}:
        errors.append("report per_query does not hold exactly the dataset's queries")
    for qid, systems in report["per_query"].items():
        for name in SYSTEMS:
            metrics = systems.get(name, {})
            bad = [m for m in RESPONSE_METRICS if not 0 <= metrics.get(m, -1) <= 1]
            if bad:
                errors.append(f"{qid}/{name}: response metrics {bad} outside [0, 1]")
    for name in SYSTEMS:
        means = report["means"].get(name, {})
        if not all(0 <= means.get(m, -1) <= 1 for m in RESPONSE_METRICS):
            errors.append(f"mean response metrics of {name} outside [0, 1]")
    return errors


CHECKS = {
    "retrieve": check_retrieve,
    "pool": check_pools,
    "silver": check_silver,
    "rank": check_rank,
    "pairs": check_pairs,
    "report": check_report,
}


def run_checks(out_dir: str, records, corpus, config: dict) -> dict[str, list[str]]:
    """Run every check; a check that raises on a malformed artifact fails."""
    results = {}
    for name, check in CHECKS.items():
        try:
            results[name] = check(out_dir, records, corpus, config)
        except (KeyError, TypeError, ValueError, IndexError, OSError) as err:
            results[name] = [f"malformed artifact: {type(err).__name__}: {err}"]
    return results


def artifact_digest(out_dir: str) -> dict[str, str]:
    """sha256 of every file in an output directory, by file name."""
    digest = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest
