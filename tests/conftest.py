import os

import numpy as np
import pytest

from facetrank.corpus import Document
from facetrank.pool import Candidate, CandidatePool

DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data", "synthetic")


@pytest.fixture(scope="session")
def synthetic_paths():
    return (os.path.join(DATA_DIR, "dataset.jsonl"),
            os.path.join(DATA_DIR, "corpus.jsonl"))


def make_pool(texts, query="q", aspects=("a",)):
    """Hand-built candidate pool: one candidate per text, aspect 0 for all."""
    candidates = [
        Candidate(doc=Document(f"d{i}", "", t), best_rank={0: i + 1})
        for i, t in enumerate(texts)
    ]
    return CandidatePool(query, tuple(aspects), candidates)


class UniformBackend:
    """Constant scores: every unmasked candidate is equally likely."""

    def __init__(self, pool_size):
        self.pool_size = pool_size

    def step_scores(self, selected):
        return np.zeros(self.pool_size)


def weights_from_rows(rows, n):
    """Per-aspect weights 1 - Norm(best coverage) over rows of phi, rebuilt
    from every row: the oracle of `silver.Coverage`.

    rows[t][j] is the coverage of sub-answer j by the t-th selected doc.
    With no rows (or nothing covered) the coverage vector is all zeros; its
    sum-normalization is defined as all zeros, so every weight is 1.
    """
    if n < 1:
        raise ValueError("sub_answers must be non-empty")
    cov = [max((row[j] for row in rows), default=0.0) for j in range(n)]
    total = sum(cov)
    if total == 0:
        return [1.0] * n
    return [1.0 - c / total for c in cov]
