"""Deterministic tokenization and overlap metrics.

Everything downstream (retrieval, silver-list construction, rewards,
evaluation) funnels through these functions, so they are kept pure and
dependency-free.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class OverlapScore:
    precision: float
    recall: float
    f1: float


ZERO_SCORE = OverlapScore(0.0, 0.0, 0.0)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on maximal runs of non-alphanumeric characters."""
    return _TOKEN_RE.findall(text.lower())


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def _clipped_overlap(cand: list, ref: list) -> OverlapScore:
    if not cand or not ref:
        return ZERO_SCORE
    overlap = sum((Counter(cand) & Counter(ref)).values())
    p = overlap / len(cand)
    r = overlap / len(ref)
    return OverlapScore(p, r, _f1(p, r))


def _bigrams(tokens: list[str]) -> list[tuple[str, str]]:
    return list(zip(tokens, tokens[1:]))


def _lcs_length(a: list[str], b: list[str]) -> int:
    """LCS length by the bit-parallel row update (Allison & Dix 1986; Hyyro 2004).

    Bit i of v is 0 where the LCS of the prefix of b seen so far with
    a[:i + 1] is longer than with a[:i]; masks are built over the shorter
    sequence and the longer one is stepped over. A token absent from the
    shorter sequence has u = 0 and leaves v unchanged, so it is skipped.
    """
    if not a or not b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    masks: dict[str, int] = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        m = masks.get(y)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge(candidate: list[str], reference: list[str], variant: str) -> OverlapScore:
    """Rouge score between token sequences.

    variant "bigram": clipped bigram overlap (Rouge-2).
    variant "lcs": longest-common-subsequence precision/recall (Rouge-L).
    An empty side yields an all-zero score.
    """
    if variant == "bigram":
        return _clipped_overlap(_bigrams(candidate), _bigrams(reference))
    if variant == "lcs":
        if not candidate or not reference:
            return ZERO_SCORE
        lcs = _lcs_length(candidate, reference)
        p = lcs / len(candidate)
        r = lcs / len(reference)
        return OverlapScore(p, r, _f1(p, r))
    raise ValueError(f"unknown rouge variant: {variant!r}")


def unigram_f1(candidate: list[str], reference: list[str]) -> OverlapScore:
    """Clipped unigram overlap precision/recall/F1."""
    return _clipped_overlap(candidate, reference)


def phi(candidate_text: str, reference_text: str) -> float:
    """Coverage score: mean of Rouge-2 F1 and Rouge-L F1 on tokenized inputs."""
    return phi_tokens(tokenize(candidate_text), tokenize(reference_text))


def phi_tokens(cand: list[str], ref: list[str]) -> float:
    """phi on token sequences that are already tokenized."""
    return (rouge(cand, ref, "bigram").f1 + rouge(cand, ref, "lcs").f1) / 2.0


def phi_matrix(texts: list[str], references: list[str]) -> list[list[float]]:
    """Rows of phi: out[i][j] == phi(texts[i], references[j]).

    Every text and every reference is tokenized once.
    """
    refs = [tokenize(r) for r in references]
    return [[phi_tokens(cand, ref) for ref in refs] for cand in map(tokenize, texts)]


def com_rouge(response: str, sub_answers: list[str]) -> float:
    """Length-weighted coverage of a response over sub-answers.

    Each sub-answer is weighted by its token count normalized over all
    sub-answers, so the weights sum to 1.
    """
    if not sub_answers:
        raise ValueError("degenerate sub-answers")
    refs = [tokenize(a) for a in sub_answers]
    total = sum(len(ref) for ref in refs)
    if total == 0:
        raise ValueError("degenerate sub-answers")
    resp = tokenize(response)
    return sum((len(ref) / total) * phi_tokens(resp, ref) for ref in refs)
