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
