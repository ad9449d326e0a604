"""Corpus ingestion and a fixed lexical BM25 retriever.

The framework treats the retriever as fixed and opaque, so any scorer can
stand in; this one is a plain inverted-index BM25 kept deterministic
(ties broken by ascending doc_id) so golden tests are stable. Queries are
scored over per-term arrays that the index builds on first use.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .text_metrics import tokenize


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    text: str


@dataclass
class InvertedIndex:
    postings: dict[str, list[tuple[str, int]]]
    doc_lengths: dict[str, int]
    doc_count: int
    avg_doc_length: float
    k1: float = 1.2
    b: float = 0.75
    documents: dict[str, Document] = field(default_factory=dict)
    # Built by retrieve() on first use, so an index that only serves as a
    # document map costs nothing more; positions follow doc_lengths order.
    _scoring: _ScoringArrays | None = field(default=None, init=False,
                                            repr=False, compare=False)


class _ScoringArrays:
    """Per-document BM25 length norms and doc_id ranks, and the (position,
    tf) arrays of each term a query has used so far."""

    def __init__(self, index: InvertedIndex):
        self.doc_ids = list(index.doc_lengths)
        self.position = {d: i for i, d in enumerate(self.doc_ids)}
        n = len(self.doc_ids)
        dl = np.fromiter(index.doc_lengths.values(), dtype=np.float64, count=n)
        # the operations and their order of the scalar formula
        # k1 * (1 - b + b * dl / avg), so scores stay bit-identical
        self.norm = index.k1 * ((1 - index.b) + index.b * dl / index.avg_doc_length)
        self.rank = np.empty(n, dtype=np.intp)  # position -> rank of its doc_id
        self.rank[sorted(range(n), key=self.doc_ids.__getitem__)] = np.arange(n)
        self.terms: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def term(self, postings: list[tuple[str, int]], term: str) -> tuple[np.ndarray, np.ndarray]:
        arrays = self.terms.get(term)
        if arrays is None:
            pos = np.fromiter((self.position[d] for d, _ in postings),
                              dtype=np.intp, count=len(postings))
            tf = np.fromiter((f for _, f in postings), dtype=np.float64,
                             count=len(postings))
            arrays = self.terms[term] = (pos, tf)
        return arrays


def load_corpus(path: str) -> list[Document]:
    """Read newline-delimited JSON documents."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            docs.append(Document(obj["doc_id"], obj.get("title", ""), obj["text"]))
    return docs


def build_index(documents, k1: float = 1.2, b: float = 0.75) -> InvertedIndex:
    """Build an inverted index over tokenize(title + " " + text)."""
    postings: dict[str, list[tuple[str, int]]] = {}
    doc_lengths: dict[str, int] = {}
    doc_map: dict[str, Document] = {}
    for doc in documents:
        if doc.doc_id in doc_lengths:
            raise ValueError(f"duplicate doc_id {doc.doc_id}")
        tokens = tokenize(doc.title + " " + doc.text)
        if not tokens:
            raise ValueError(f"document {doc.doc_id} tokenizes to empty")
        doc_lengths[doc.doc_id] = len(tokens)
        doc_map[doc.doc_id] = doc
        tf: dict[str, int] = {}
        for t in tokens:
            tf[t] = tf.get(t, 0) + 1
        for t, f in tf.items():
            postings.setdefault(t, []).append((doc.doc_id, f))
    if not doc_lengths:
        raise ValueError("empty corpus")
    n = len(doc_lengths)
    avg = sum(doc_lengths.values()) / n
    return InvertedIndex(postings, doc_lengths, n, avg, k1=k1, b=b, documents=doc_map)


def _idf(index: InvertedIndex, term: str) -> float:
    df = len(index.postings.get(term, ()))
    # Lucene-style floor at log(1): strictly positive for any matching term
    return math.log1p((index.doc_count - df + 0.5) / (df + 0.5))


def retrieve(index: InvertedIndex, query: str, n: int) -> list[tuple[str, float]]:
    """Top-n BM25 scored documents for a query string.

    Only documents matching at least one query term are returned; ties are
    broken by ascending doc_id.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    q_tokens = tokenize(query)
    if not q_tokens:
        raise ValueError("empty query")
    if index._scoring is None:
        index._scoring = _ScoringArrays(index)
    arrays = index._scoring
    scores = np.zeros(index.doc_count, dtype=np.float64)
    matched = np.zeros(index.doc_count, dtype=bool)
    for term in q_tokens:
        if term not in index.postings:
            continue
        idf = _idf(index, term)
        pos, tf = arrays.term(index.postings[term], term)
        scores[pos] += idf * tf * (index.k1 + 1) / (tf + arrays.norm[pos])
        matched[pos] = True
    hits = np.flatnonzero(matched)
    top = hits[np.lexsort((arrays.rank[hits], -scores[hits]))[:n]]
    return [(arrays.doc_ids[i], float(scores[i])) for i in top]
