"""Generative list-wise ranking: the step-wise decode contract.

The trained encoder-decoder is one possible backend; this module pins the
behavior that is backend-independent: the masked temperature softmax over
reused candidate representations, greedy and seeded sampled decoding, and
sequence log-probabilities.

A scoring backend supplies, for each decode step, the raw logits h.e_i
over the pool given the already-selected prefix:

    backend.step_scores(selected: Sequence[int]) -> np.ndarray of shape (M,)
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .aspects import post_json
from .pool import Candidate, CandidatePool
from .silver import weights_from_rows
from .text_metrics import Profile, phi_profiles, tokenize


@dataclass(frozen=True)
class RankerConfig:
    k: int
    tau: float = 0.1
    allow_repetition: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass
class RankingList:
    docids: list[int]
    step_logprobs: list[float]
    mode: str  # greedy | sampled


def masked_softmax(scores: np.ndarray, tau: float, mask: set[int]) -> np.ndarray:
    """Temperature softmax with masked indices pinned to exactly zero."""
    m = len(scores)
    if len(mask) >= m:
        raise ValueError("no candidates available")
    logits = np.asarray(scores, dtype=float) / tau
    keep = np.ones(m, dtype=bool)
    keep[list(mask)] = False
    shifted = logits[keep] - logits[keep].max()
    expd = np.exp(shifted)
    probs = np.zeros(m)
    probs[keep] = expd / expd.sum()
    return probs


def _decode(config: RankerConfig, backend, steps: int, pick) -> tuple[list[int], list[float]]:
    """The decode loop: at each step, the masked temperature softmax of the
    backend's scores for the prefix, the docid pick(probs) chooses and its
    log-probability; a chosen docid is masked unless repetition is allowed."""
    docids, logprobs, mask = [], [], set()
    for _ in range(steps):
        probs = masked_softmax(np.asarray(backend.step_scores(docids), dtype=float),
                               config.tau, mask)
        choice = pick(probs)
        if probs[choice] <= 0.0:  # only a forced sequence can choose it
            raise ValueError("masked docid in sequence")
        docids.append(choice)
        logprobs.append(math.log(probs[choice]))
        if not config.allow_repetition:
            mask.add(choice)
    return docids, logprobs


def rank(pool: CandidatePool, config: RankerConfig, backend,
         mode: str = "greedy") -> RankingList:
    """Decode a top-k ranking list, greedily or by seeded sampling."""
    if mode not in ("greedy", "sampled"):
        raise ValueError(f"unknown decode mode: {mode!r}")
    m = len(pool.candidates)
    if m == 0:
        raise ValueError("empty pool")
    if not config.allow_repetition and config.k > m:
        raise ValueError("k exceeds pool")
    rng = random.Random(config.seed)

    def pick(probs):  # argmax ties -> lowest index
        return _draw(probs, rng) if mode == "sampled" else int(np.argmax(probs))
    return RankingList(*_decode(config, backend, config.k, pick), mode)


def _draw(probs: np.ndarray, rng: random.Random) -> int:
    """The first index whose running sum of probs exceeds a uniform draw; a
    draw at or past the last partial sum takes the last nonzero entry."""
    i = int(probs.cumsum().searchsorted(rng.random(), side="right"))
    return i if i < len(probs) else int(np.flatnonzero(probs)[-1])


def sequence_log_prob(pool: CandidatePool, config: RankerConfig, backend,
                      docids: list[int]) -> float:
    """Log-probability of a given docid sequence under the decode contract."""
    if len(docids) > config.k:
        raise ValueError("sequence longer than k")
    for i, d in enumerate(docids):  # checked before any backend call
        if not 0 <= d < len(pool.candidates):
            raise ValueError(f"docid {d} out of range")
        if not config.allow_repetition and d in docids[:i]:
            raise ValueError("masked docid in sequence")
    forced = iter(docids)
    total = 0.0
    for logprob in _decode(config, backend, len(docids), lambda _probs: next(forced))[1]:
        total += logprob  # a left fold: sum() compensates on Python >= 3.12
    return total


class ReferenceBackend:
    """Deterministic lexical backend usable without any trained model.

    Candidate representations are unit-normalized term-frequency vectors
    over the union vocabulary of query, aspect texts, and pool. The decode
    state at step t is the unit-normalized, coverage-weighted sum of
    "query aspect" term vectors, where an aspect's weight decays as
    already-selected documents cover its text (same normalization as
    silver-list construction, with aspect text standing in for the
    sub-answers that are unavailable at inference time).
    """

    def __init__(self, query: str, aspects: tuple[str, ...], candidates: list[Candidate]):
        if not aspects:
            raise ValueError("aspects must be non-empty")
        # term ids in order of first appearance over query, aspects and pool;
        # phi reads only which tokens are equal, so it is scored on the ids
        vocab = defaultdict(itertools.count().__next__)
        query_ids = [vocab[t] for t in tokenize(query)]
        aspect_ids = [[vocab[t] for t in tokenize(a)] for a in aspects]
        self._doc_ids = [[vocab[t] for t in tokenize(c.doc.text)] for c in candidates]
        dim = max(len(vocab), 1)
        self.encodings = _unit_tf_rows(self._doc_ids, dim)
        self.aspect_vectors = _unit_tf_rows([query_ids + ids for ids in aspect_ids], dim)
        self._aspect_profiles = [Profile(ids) for ids in aspect_ids]
        self._coverage: dict[int, list[float]] = {}  # pool position -> phi row

    def step_scores(self, selected) -> np.ndarray:
        for i in selected:
            if i not in self._coverage:
                doc = Profile(self._doc_ids[i])
                self._coverage[i] = [phi_profiles(doc, a) for a in self._aspect_profiles]
        w = weights_from_rows([self._coverage[i] for i in selected],
                              len(self._aspect_profiles))
        h = np.zeros(self.encodings.shape[1])
        for wj, vj in zip(w, self.aspect_vectors):
            h += wj * vj
        norm = np.linalg.norm(h)
        if norm > 0:
            h = h / norm
        return self.encodings @ h


def _unit_tf_rows(rows: list[list[int]], dim: int) -> np.ndarray:
    """Unit-normalized term-frequency row per list of term ids; an empty list
    gives a zero row.

    The counts are whole numbers, so each row's sum of squares is exact in
    any order and its norm equals np.linalg.norm of the row.
    """
    lengths = [len(r) for r in rows]
    keys = np.repeat(np.arange(len(rows)) * dim, lengths)
    keys += np.fromiter(itertools.chain.from_iterable(rows), dtype=np.intp,
                        count=sum(lengths))
    tf = np.bincount(keys, weights=np.ones(len(keys)), minlength=len(rows) * dim)
    tf = tf.astype(np.float64, copy=False).reshape(len(rows), dim)  # int64 when empty
    norm = np.sqrt(np.einsum("ij,ij->i", tf, tf))[:, None]
    return np.divide(tf, norm, out=tf, where=norm > 0)


def reference_backend(query: str, aspects: tuple[str, ...],
                      candidates: list[Candidate]) -> ReferenceBackend:
    return ReferenceBackend(query, aspects, candidates)


@dataclass
class RemoteBackend:
    """Scoring backend backed by an HTTP service, one call per decode step.

    Wire contract: {"query", "aspects", "candidates", "selected"} ->
    {"scores": [float; M]}.
    """

    endpoint: str
    query: str
    aspects: tuple[str, ...]
    candidate_texts: list[str]
    timeout: float = 30.0
    retries: int = 1

    def step_scores(self, selected) -> np.ndarray:
        payload = {"query": self.query, "aspects": list(self.aspects),
                   "candidates": self.candidate_texts, "selected": list(selected)}
        scores = post_json(self.endpoint, payload, self.timeout, self.retries,
                           "scores", list)
        if len(scores) != len(self.candidate_texts):
            raise ValueError("remote backend returned wrong score count")
        # type(), not isinstance: a JSON true is not a score; the bound is
        # false for NaN, +-inf and an int beyond the float range
        if not all(type(s) in (int, float) and abs(s) <= sys.float_info.max for s in scores):
            raise ValueError("remote backend returned a score that is not a finite number")
        return np.asarray(scores, dtype=float)
