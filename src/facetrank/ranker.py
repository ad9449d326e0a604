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
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .aspects import post_json
from .pool import Candidate, CandidatePool
from .silver import Coverage
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

    The state is zero past the query and aspect terms, first in vocabulary
    order, so only their columns are kept, their count rounded up to a
    multiple of 128 (at most the vocabulary). OpenBLAS sums a dot product in
    SIMD accumulators by column position: on an AVX-512 Xeon (OpenBLAS
    0.3.31) a cut at the exact count moved the last bits of 1 norm in 4,
    rounding up to 16 still some, to 32, 64 or 128 none; 128 leaves margin.
    Each prefix's scores are kept, read-only, and so is its coverage state,
    made from its parent prefix's state and the phi row of its last docid.
    """

    def __init__(self, query: str, aspects: tuple[str, ...], candidates: list[Candidate]):
        self._states = {(): Coverage([0.0] * len(aspects))}  # prefix -> state
        query_tokens = tokenize(query)
        aspect_tokens = [tokenize(a) for a in aspects]
        self._texts = [c.doc.text for c in candidates]  # held, not their tokens
        doc_tokens = [tokenize(text) for text in self._texts]
        terms = dict.fromkeys(itertools.chain(query_tokens, *aspect_tokens))
        width, vocab = -(-len(terms) // 128) * 128, set(terms)
        for tokens in itertools.takewhile(lambda _: len(vocab) < width, doc_tokens):
            vocab.update(tokens)
        width = min(width, max(len(vocab), 1))
        self.encodings = _unit_tf(doc_tokens, terms, width)
        self.aspect_vectors = _unit_tf([query_tokens + t for t in aspect_tokens], terms, width)
        self._aspect_profiles = [Profile(tokens) for tokens in aspect_tokens]
        self._coverage: dict[int, list[float]] = {}  # pool position -> phi row
        self._scores: dict[tuple[int, ...], np.ndarray] = {}  # prefix -> scores

    def step_scores(self, selected) -> np.ndarray:
        key = tuple(selected)
        if key in self._scores:
            return self._scores[key]
        h = np.zeros(self.encodings.shape[1])
        for wj, vj in zip(self._state(key).weights, self.aspect_vectors):
            h += wj * vj
        norm = np.linalg.norm(h)
        if norm > 0:
            h = h / norm
        scores = self._scores[key] = self.encodings @ h
        scores.flags.writeable = False
        return scores

    def _state(self, key: tuple[int, ...]) -> Coverage:
        """The coverage state after the prefix `key`, made from its parent
        prefix's state (and so on up to the first one kept) and kept."""
        state = self._states.get(key)
        if state is None:
            i = key[-1]
            if i not in self._coverage:
                doc = Profile(tokenize(self._texts[i]))
                self._coverage[i] = [phi_profiles(doc, a) for a in self._aspect_profiles]
            state = self._states[key] = self._state(key[:-1]).plus(self._coverage[i])
        return state


def _unit_tf(token_lists: list[list[str]], terms: dict, width: int) -> np.ndarray:
    """Per token list, each term's count in its column over the root of the
    list's whole integer sum of squared counts; other columns are zero."""
    rows = np.zeros((len(token_lists), width))
    for row, counts in zip(rows, map(Counter, token_lists)):
        norm = math.sqrt(sum(n * n for n in counts.values()))
        if norm > 0:
            row[:len(terms)] = [counts[t] / norm for t in terms]
    return rows


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
