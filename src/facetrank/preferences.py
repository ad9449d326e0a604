"""Rewards, preference-pair construction, and DPO loss values.

Pairs follow two rules: unilaterality (one member is always the greedy
list, the other a sampled one) and significance (the reward gap must
exceed mu); the random-pairs ablation drops both. Parameter updates are
out of scope; the DPO loss is a pure function for external trainers.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter
from dataclasses import dataclass, replace

from .aspects import post_json
from .pool import CandidatePool
from .ranker import RankerConfig, RankingList, rank
from .text_metrics import clipped_overlap, com_rouge, f1_of, phi, tokenize


@dataclass
class RewardedList:
    list: RankingList
    reward: float


@dataclass
class PreferencePair:
    winner: RewardedList
    loser: RewardedList
    gap: float


def reward(response: str, answer: str, sub_answers: list[str]) -> float:
    """phi(response, answer) + com-rouge(response, sub_answers), in [0, 2]."""
    if not answer:
        raise ValueError("answer must be non-empty")
    if not response:
        return 0.0
    return phi(response, answer) + com_rouge(response, sub_answers)


_SENTENCE_RE = re.compile(r"[.!?]+")


def oracle_generate(query: str, ranked_docs: list[str], budget: int) -> str:
    """Deterministic extractive stand-in for an LLM generator.

    Splits the ranked documents into sentences, then greedily picks up to
    `budget` of them. Each pick is scored by unigram F1 against the query
    tokens not yet covered by picked sentences; ties resolve in document
    rank order, then sentence position.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    sentences = []  # (text, token counts, token count), in rank then position order
    for doc in ranked_docs:
        for raw in _SENTENCE_RE.split(doc):
            toks = tokenize(raw)
            if toks:
                sentences.append((raw.strip(), Counter(toks), len(toks)))
    if not sentences:
        return ""
    query_tokens = tokenize(query)
    picked: list[int] = []
    remaining = list(range(len(sentences)))
    covered: set[str] = set()
    for _ in range(min(budget, len(sentences))):
        target = [t for t in query_tokens if t not in covered]
        target_counts = Counter(target)
        best, best_score = None, -1.0
        for idx in remaining:
            _text, counts, n = sentences[idx]
            score = f1_of(clipped_overlap(counts, target_counts), n, len(target))
            if score > best_score:
                best, best_score = idx, score
        picked.append(best)
        remaining.remove(best)
        covered.update(sentences[best][1])
    return ". ".join(sentences[i][0] for i in picked) + "."


class OracleGenerator:
    """Generator client wrapping oracle_generate."""

    def __init__(self, budget: int = 3):
        self.budget = budget

    def generate(self, query: str, documents: list[str]) -> str:
        return oracle_generate(query, documents, self.budget)


@dataclass
class HttpGenerator:
    """HTTP generator: {"query", "documents", "max_tokens"} -> {"text"}."""

    endpoint: str
    max_tokens: int = 512
    timeout: float = 60.0
    retries: int = 1

    def generate(self, query: str, documents: list[str]) -> str:
        payload = {"query": query, "documents": documents,
                   "max_tokens": self.max_tokens}
        return post_json(self.endpoint, payload, self.timeout, self.retries, "text", str)


def generate_rewarded_lists(pool: CandidatePool, config: RankerConfig, backend,
                            generator, answer: str, sub_answers: list[str],
                            num_samples: int) -> list[RewardedList]:
    """One greedy list plus num_samples sampled lists, each rewarded."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    rankings = [rank(pool, config, backend, mode="greedy")]
    for i in range(num_samples):
        cfg = replace(config, seed=config.seed + i)
        rankings.append(rank(pool, cfg, backend, mode="sampled"))
    out = []
    for ranking in rankings:
        docs = [pool.candidates[d].doc.text for d in ranking.docids]
        response = generator.generate(pool.query, docs)
        out.append(RewardedList(ranking, reward(response, answer, sub_answers)))
    return out


def _pair(a: RewardedList, b: RewardedList) -> PreferencePair:
    """The higher-reward list wins; the gap is its reward minus the loser's."""
    winner, loser = (a, b) if a.reward > b.reward else (b, a)
    return PreferencePair(winner, loser, winner.reward - loser.reward)


def build_us3_pairs(lists: list[RewardedList], mu: float) -> list[PreferencePair]:
    """Unilateral significance pairing against the single greedy list."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    greedy = [l for l in lists if l.list.mode == "greedy"]
    if len(greedy) != 1:
        raise ValueError("unilaterality violated")
    pairs = (_pair(s, greedy[0]) for s in lists if s.list.mode == "sampled")
    return [p for p in pairs if p.gap > mu]


def random_pairs(lists: list[RewardedList], seed: int) -> list[PreferencePair]:
    """Ablation: len(lists) - 1 seeded draws of two lists, with no
    unilaterality or significance rule; a draw of equal rewards is skipped."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(len(lists) - 1):
        a, b = rng.sample(lists, 2)
        if a.reward != b.reward:
            pairs.append(_pair(a, b))
    return pairs


def dpo_loss_value(policy_logprob_w: float, policy_logprob_l: float,
                   reference_logprob_w: float, reference_logprob_l: float,
                   beta: float) -> float:
    """-log sigmoid(beta * [(lp_w - lp_w_ref) - (lp_l - lp_l_ref)])."""
    values = (policy_logprob_w, policy_logprob_l,
              reference_logprob_w, reference_logprob_l)
    if any(not math.isfinite(v) for v in values):
        raise ValueError("non-finite log-probability")
    if beta <= 0:
        raise ValueError("beta must be positive")
    margin = beta * ((policy_logprob_w - reference_logprob_w)
                     - (policy_logprob_l - reference_logprob_l))
    # -log(sigmoid(x)) = log(1 + exp(-x)), computed stably
    if margin >= 0:
        return math.log1p(math.exp(-margin))
    return -margin + math.log1p(math.exp(margin))
