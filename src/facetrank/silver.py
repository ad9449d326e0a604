"""Greedy silver ranking targets from the coverage utility function.

At each step a document's utility is the aspect-weighted sum of its
coverage of every sub-answer; aspect weights decay as earlier selections
cover them, so the greedy list spreads across aspects instead of piling
on the best-covered one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .pool import CandidatePool
from .text_metrics import PhiStore


@dataclass
class SilverTarget:
    docids: list[int]
    step_utilities: list[float]


class Coverage:
    """The coverage state of a list: best[j] is the best phi of sub-answer j
    by a document so far (0.0 before any; phi is never negative, so this is
    the max over the list), and the weights are 1 - Norm(best), all 1 while
    nothing is covered, so the first step is pure unweighted coverage."""

    __slots__ = ("best", "weights")

    def __init__(self, best):
        self.best = tuple(best)
        if not self.best:
            raise ValueError("aspects must be non-empty")
        total = sum(self.best)
        self.weights = ([1.0] * len(self.best) if total == 0
                        else [1.0 - c / total for c in self.best])

    def plus(self, row) -> Coverage:
        """The state once a document with phi row `row` is selected too."""
        return Coverage(map(max, self.best, row))

    def gain(self, row) -> float:
        """The weighted coverage utility of a document with phi row `row`."""
        return sum(wi * c for wi, c in zip(self.weights, row))


def aspect_weights(selected_docs: list[str], sub_answers: list[str]) -> list[float]:
    """Per-aspect weights 1 - Norm(best coverage by selected docs)."""
    return functools.reduce(Coverage.plus, PhiStore(sub_answers).rows(selected_docs),
                            Coverage([0.0] * len(sub_answers))).weights


def coverage_gain(doc_text: str, w: list[float], sub_answers: list[str]) -> float:
    """Weighted coverage utility of one document."""
    if len(w) != len(sub_answers):
        raise ValueError("weight / sub-answer dimension mismatch")
    return sum(wi * c for wi, c in zip(w, PhiStore(sub_answers).rows([doc_text])[0]))


def build_silver_list(pool: CandidatePool, store: PhiStore, k: int) -> SilverTarget:
    """Greedy argmax of the coverage utility against the store's references,
    the sub-answers, ties by lowest pool position.

    The coverage of every sub-answer by every pool document is read once.
    """
    state = Coverage([0.0] * len(store.references))
    if k > len(pool.candidates):
        raise ValueError("k exceeds pool size")
    cov = store.rows([c.doc.text for c in pool.candidates])
    docids: list[int] = []
    utilities: list[float] = []
    remaining = list(range(len(cov)))
    for _ in range(k):
        gains = [state.gain(cov[i]) for i in remaining]
        best_gain = max(gains)
        best = remaining.pop(gains.index(best_gain))
        docids.append(best)
        utilities.append(best_gain)
        state = state.plus(cov[best])
    return SilverTarget(docids, utilities)
