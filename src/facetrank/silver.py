"""Greedy silver ranking targets from the coverage utility function.

At each step a document's utility is the aspect-weighted sum of its
coverage of every sub-answer; aspect weights decay as earlier selections
cover them, so the greedy list spreads across aspects instead of piling
on the best-covered one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pool import CandidatePool
from .text_metrics import PhiStore


@dataclass
class SilverTarget:
    docids: list[int]
    step_utilities: list[float]


def weights_from_rows(rows: list[list[float]], n: int) -> list[float]:
    """Per-aspect weights 1 - Norm(best coverage) over rows of phi.

    rows[t][j] is the coverage of sub-answer j by the t-th selected doc.
    With no rows (or nothing covered) the coverage vector is all zeros; its
    sum-normalization is defined as all zeros, so every weight is 1 and
    the first step is pure unweighted coverage.
    """
    if n < 1:
        raise ValueError("sub_answers must be non-empty")
    cov = [max((row[j] for row in rows), default=0.0) for j in range(n)]
    total = sum(cov)
    if total == 0:
        return [1.0] * n
    return [1.0 - c / total for c in cov]


def aspect_weights(selected_docs: list[str], sub_answers: list[str]) -> list[float]:
    """Per-aspect weights 1 - Norm(best coverage by selected docs)."""
    return weights_from_rows(PhiStore(sub_answers).rows(selected_docs), len(sub_answers))


def coverage_gain(doc_text: str, w: list[float], sub_answers: list[str]) -> float:
    """Weighted coverage utility of one document."""
    if len(w) != len(sub_answers):
        raise ValueError("weight / sub-answer dimension mismatch")
    return sum(wi * c for wi, c in zip(w, PhiStore(sub_answers).rows([doc_text])[0]))


def build_silver_list(pool: CandidatePool, sub_answers: list[str], k: int,
                      store: PhiStore | None = None) -> SilverTarget:
    """Greedy argmax of the coverage utility, ties by lowest pool position.

    The coverage of every sub-answer by every pool document is read once,
    from `store` when given (it must hold the sub-answers among its
    references); each step reads it for the weights and for the gains.
    """
    if not sub_answers:
        raise ValueError("sub_answers must be non-empty")
    if k > len(pool.candidates):
        raise ValueError("k exceeds pool size")
    store = store or PhiStore(sub_answers)
    cov = store.rows([c.doc.text for c in pool.candidates], sub_answers)
    docids: list[int] = []
    utilities: list[float] = []
    remaining = list(range(len(cov)))
    for _ in range(k):
        w = weights_from_rows([cov[i] for i in docids], len(sub_answers))
        best, best_gain = None, -1.0
        for i in remaining:
            gain = sum(wi * c for wi, c in zip(w, cov[i]))
            if gain > best_gain:
                best, best_gain = i, gain
        docids.append(best)
        utilities.append(best_gain)
        remaining.remove(best)
    return SilverTarget(docids, utilities)
