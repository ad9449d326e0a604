"""Seeded input generators for the benchmark workloads.

Every workload is a corpus plus a dataset of multi-aspect questions, written
as the JSONL files the pipeline reads. The seed picks the words; the shape
(document, sentence and sub-answer lengths, documents per aspect, pool
capacity) is fixed per workload, so the work a pipeline run does is nearly
the same for every seed and run-to-run spread comes from the machine, not
from the inputs.

Per question q there are:

- a topic word, used in the question and in every document about q; the
  question also holds one frequent background word;
- per aspect a, three keywords (the aspect text) and a payload vocabulary;
  the sub-answer is the topic, the keywords and payload words;
- `docs_per_aspect` documents per aspect that mention the topic, two of
  the aspect's keywords and payload words, padded with background words;
- `topic_docs` documents that mention the topic only.

The rest of the corpus is background documents drawn from a Zipf-weighted
vocabulary. Because `docs_per_aspect * n_aspects == pool_capacity` and
every aspect's own documents outrank the others for its query, every pool
fills to exactly `pool_capacity`.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import random
from dataclasses import dataclass, field

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]


def word(i: int) -> str:
    """Injective map from a non-negative integer to a lowercase word."""
    parts = []
    while True:
        i, r = divmod(i, len(_SYLLABLES))
        parts.append(_SYLLABLES[r])
        if i == 0:
            return "".join(reversed(parts))


@dataclass(frozen=True)
class Shape:
    n_queries: int
    n_aspects: int
    docs_per_aspect: int
    topic_docs: int
    background_docs: int
    doc_sentences: int
    sentence_len: int
    sub_answer_len: int
    background_vocab: int
    payload_in_doc: int  # payload words each aspect document carries
    config: dict = field(default_factory=dict)  # RunConfig overrides


WORKLOADS = {
    # The ROADMAP's scaled shape: long documents and sub-answers in pools of
    # 140. The LCS loop under silver and eval does most of the work and the
    # corpus less than a tenth, so a coverage-kernel change shows here and a
    # BM25 change does not.
    "coverage-heavy": Shape(
        n_queries=1, n_aspects=4, docs_per_aspect=35, topic_docs=60,
        background_docs=1200, doc_sentences=8, sentence_len=15,
        sub_answer_len=16, background_vocab=6000,
        payload_in_doc=10,
        config={"n_per_aspect": 50, "pool_capacity": 140, "k": 10,
                "num_samples": 4},
    ),
    # Tens of thousands of short documents and query terms with long postings
    # lists, small pools and k: corpus parsing, index builds and retrieve do
    # most of the work and each phi call is cheap.
    "retrieval-heavy": Shape(
        n_queries=80, n_aspects=2, docs_per_aspect=6, topic_docs=4,
        background_docs=24000, doc_sentences=2, sentence_len=6,
        sub_answer_len=8, background_vocab=3000,
        payload_in_doc=2,
        config={"n_per_aspect": 10, "pool_capacity": 12, "k": 3,
                "num_samples": 2},
    ),
    # Short texts, k=30 and 8 samples per query: many cheap phi calls, most
    # of them from aspect_weights recomputed at every decode and silver step,
    # so cutting calls and cutting the cost per call show apart.
    "long-list": Shape(
        n_queries=2, n_aspects=3, docs_per_aspect=20, topic_docs=10,
        background_docs=800, doc_sentences=2, sentence_len=8,
        sub_answer_len=12, background_vocab=2000,
        payload_in_doc=3,
        config={"n_per_aspect": 30, "pool_capacity": 60, "k": 30,
                "num_samples": 8, "mu": 0.02},
    ),
}


def _sentences(tokens: list[str], sentence_len: int) -> str:
    chunks = [tokens[i:i + sentence_len] for i in range(0, len(tokens), sentence_len)]
    return " ".join(" ".join(c) + "." for c in chunks)


def generate(shape: Shape, seed: int, out_dir: str) -> tuple[str, str]:
    """Write corpus.jsonl and dataset.jsonl under out_dir; return their paths."""
    rng = random.Random(seed)
    vocab = [word(i) for i in range(shape.background_vocab)]
    # Zipf(1) weights over a seed-shuffled vocabulary
    rng.shuffle(vocab)
    cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(vocab))))

    def background(n: int) -> list[str]:
        return [vocab[bisect.bisect(cum, rng.random() * cum[-1])] for _ in range(n)]

    fresh = itertools.count(shape.background_vocab)  # words no background doc uses
    doc_len = shape.doc_sentences * shape.sentence_len
    docs: list[tuple[str, str]] = []
    records = []
    for q in range(shape.n_queries):
        topic = word(next(fresh))
        keywords = [[word(next(fresh)) for _ in range(3)] for _ in range(shape.n_aspects)]
        payloads = [[word(next(fresh)) for _ in range(shape.sub_answer_len)]
                    for _ in range(shape.n_aspects)]
        sub_answers = []
        for a in range(shape.n_aspects):
            body = [topic, *keywords[a]]
            body += rng.sample(payloads[a], shape.sub_answer_len - len(body))
            sub_answers.append(_sentences(body, 12))
        for a in range(shape.n_aspects):
            for _ in range(shape.docs_per_aspect):
                marked = [topic, *rng.sample(keywords[a], 2)]
                marked += rng.sample(payloads[a], shape.payload_in_doc)
                tokens = background(doc_len - len(marked))
                for w in marked:
                    tokens.insert(rng.randrange(len(tokens) + 1), w)
                docs.append((f"q{q:03d}", _sentences(tokens, shape.sentence_len)))
        for _ in range(shape.topic_docs):
            tokens = background(doc_len - 1)
            tokens.insert(rng.randrange(len(tokens) + 1), topic)
            docs.append((f"q{q:03d}", _sentences(tokens, shape.sentence_len)))
        # a frequent, but not the most frequent, word: long postings lists
        common = vocab[5 + q % 20]
        records.append({
            "id": f"q{q:03d}",
            "question": " ".join(["what", "about", common, topic]),
            "answer": " ".join(sub_answers),
            "sub_aspects": [" ".join(k) for k in keywords],
            "sub_answers": sub_answers,
        })
    for _ in range(shape.background_docs):
        docs.append(("bg", _sentences(background(doc_len), shape.sentence_len)))
    rng.shuffle(docs)

    os.makedirs(out_dir, exist_ok=True)
    corpus_path = os.path.join(out_dir, "corpus.jsonl")
    dataset_path = os.path.join(out_dir, "dataset.jsonl")
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for i, (group, text) in enumerate(docs):
            fh.write(json.dumps({"doc_id": f"d{i:06d}-{group}", "title": "",
                                 "text": text}) + "\n")
    with open(dataset_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return dataset_path, corpus_path
