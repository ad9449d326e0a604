"""Corpus ingestion and a fixed lexical BM25 retriever.

The framework treats the retriever as fixed and opaque, so any scorer can
stand in; this one is a plain inverted-index BM25 kept deterministic
(ties broken by ascending doc_id) so golden tests are stable. The postings
are compressed-row arrays: term t's documents and term frequencies are
doc_pos[indptr[t]:indptr[t + 1]] and tf[indptr[t]:indptr[t + 1]].
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .text_metrics import tokenize

_raw_decode = json.JSONDecoder().raw_decode


@dataclass(frozen=True, slots=True)
class Document:
    doc_id: str
    title: str
    text: str


@dataclass
class InvertedIndex:
    terms: dict[str, int]  # term -> row of the postings
    indptr: np.ndarray  # row t spans indptr[t]:indptr[t + 1]
    doc_pos: np.ndarray  # position in doc_ids, ascending within a row
    tf: np.ndarray  # float64 term frequency
    doc_ids: list[str]  # corpus order
    norm: np.ndarray  # k1 * (1 - b + b * length / avg_doc_length)
    rank: np.ndarray  # position -> rank of its doc_id in string order
    doc_count: int
    avg_doc_length: float
    k1: float = 1.2
    b: float = 0.75


def read_jsonl(path: str):
    """Yield (line number, object) for each non-blank line; a line that is
    not one JSON object is a ValueError naming the file and the line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(map(str.strip, fh), start=1):
            if not line:
                continue
            try:
                obj, end = _raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as err:
                err.args = (f"{path}: line {lineno} column {err.colno}: {err.msg}",)
                raise
            if type(obj) is not dict:
                raise ValueError(f"{path}: line {lineno}: not a JSON object")
            yield lineno, obj


def load_corpus(path: str) -> list[Document]:
    """Read newline-delimited JSON documents, each doc_id on one line only."""
    docs = []
    first_line: dict[str, int] = {}
    for lineno, obj in read_jsonl(path):
        try:
            doc = Document(obj["doc_id"], obj.get("title", ""), obj["text"])
        except KeyError as err:
            raise KeyError(f"{path}: document at line {lineno} missing field {err}") from None
        if not (type(doc.doc_id) is str and type(doc.title) is str and type(doc.text) is str):
            name = next(n for n in Document.__slots__ if type(getattr(doc, n)) is not str)
            raise ValueError(f"{path}: document at line {lineno}: {name} must be a string")
        if first_line.setdefault(doc.doc_id, lineno) != lineno:
            raise ValueError(f"{path}: duplicate doc_id {doc.doc_id} at lines "
                             f"{first_line[doc.doc_id]} and {lineno}")
        docs.append(doc)
    return docs


def build_index(documents, k1: float = 1.2, b: float = 0.75) -> InvertedIndex:
    """Build an inverted index over tokenize(title + " " + text)."""
    terms = defaultdict(itertools.count().__next__)
    doc_ids: list[str] = []
    seen: set[str] = set()
    lengths: list[int] = []
    ids = array("q")  # term id of every token, document after document
    for doc in documents:
        if doc.doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc.doc_id}")
        tokens = tokenize(doc.title + " " + doc.text)
        if not tokens:
            raise ValueError(f"document {doc.doc_id} tokenizes to empty")
        seen.add(doc.doc_id)
        doc_ids.append(doc.doc_id)
        lengths.append(len(tokens))
        ids.extend(map(terms.__getitem__, tokens))
    if not doc_ids:
        raise ValueError("empty corpus")
    n = len(doc_ids)
    # one key per token, term-major: a run of equal keys is one (term,
    # document) pair and the run's length its term frequency. The keys are
    # sorted in place and each temporary is dropped once used, to keep the
    # build's transient memory low.
    keys = np.frombuffer(ids, dtype=np.int64) * n
    del ids
    keys += np.repeat(np.arange(n), lengths)
    keys.sort()
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    tf = np.diff(starts, append=len(keys)).astype(np.float64)
    keys = keys[starts]
    del starts
    term, doc_pos = np.divmod(keys, n)
    del keys
    indptr = np.zeros(len(terms) + 1, dtype=np.intp)
    np.cumsum(np.bincount(term, minlength=len(terms)), out=indptr[1:])
    del term
    avg = sum(lengths) / n
    dl = np.array(lengths, dtype=np.float64)
    # the operations and their order of the scalar formula
    # k1 * (1 - b + b * dl / avg), so scores stay bit-identical
    norm = k1 * ((1 - b) + b * dl / avg)
    rank = np.empty(n, dtype=np.intp)
    rank[sorted(range(n), key=doc_ids.__getitem__)] = np.arange(n)
    return InvertedIndex(dict(terms), indptr, doc_pos, tf,
                         doc_ids, norm, rank, n, avg, k1=k1, b=b)


def _idf(index: InvertedIndex, t: int) -> float:
    df = int(index.indptr[t + 1] - index.indptr[t])
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
    scores = np.zeros(index.doc_count, dtype=np.float64)
    matched = np.zeros(index.doc_count, dtype=bool)
    for term in q_tokens:
        t = index.terms.get(term)
        if t is None:
            continue
        lo, hi = index.indptr[t], index.indptr[t + 1]
        pos, tf = index.doc_pos[lo:hi], index.tf[lo:hi]
        scores[pos] += _idf(index, t) * tf * (index.k1 + 1) / (tf + index.norm[pos])
        matched[pos] = True
    hits = np.flatnonzero(matched)
    top = hits[np.lexsort((index.rank[hits], -scores[hits]))[:n]]
    return [(index.doc_ids[i], float(scores[i])) for i in top]
