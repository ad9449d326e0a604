import math

import numpy as np
import pytest

from conftest import make_pool
from facetrank.aspects import SubAspectList
from facetrank.corpus import Document
from facetrank.pool import Candidate
from facetrank.ranker import (CandidateEncoding, RankerConfig, UniformBackend,
                              format_input, masked_softmax, rank,
                              reference_backend, sequence_log_prob,
                              step_distribution)


class StubBackend:
    """Fixed score matrix: row t is the logit vector at decode step t."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def step_scores(self, selected):
        return self.matrix[min(len(selected), len(self.matrix) - 1)]


def candidate(i, text, aspect_set=(0,)):
    return Candidate(i, Document(f"d{i}", "", text), tuple(aspect_set),
                     {a: 1 for a in aspect_set})


def test_format_input_single_aspect():
    asp = SubAspectList(("career",), source="gold")
    c = candidate(3, "the doc text")
    assert format_input(c, "who is X", asp) == "[D3] who is X [Q] career [S] the doc text"


def test_format_input_two_aspects():
    asp = SubAspectList(("a1", "a2"), source="gold")
    c = candidate(0, "body", aspect_set=(0, 1))
    assert format_input(c, "q", asp) == "[D0] q [Q] a1 [E] a2 [S] body"


def test_format_input_empty_doc_text():
    asp = SubAspectList(("a",), source="gold")
    c = candidate(1, "")
    assert format_input(c, "q", asp).endswith("[S] ")


def test_step_distribution_uniform_and_masked():
    enc = CandidateEncoding(np.ones((3, 2)))
    h = np.array([1.0, 0.0])
    probs = step_distribution(enc, h, 1.0, set())
    assert probs == pytest.approx([1 / 3] * 3)
    probs = step_distribution(enc, h, 1.0, {0})
    assert probs[0] == 0.0
    assert probs[1] == probs[2] == pytest.approx(0.5)


def test_step_distribution_closed_form():
    enc = CandidateEncoding(np.array([[1.0], [0.0]]))
    probs = step_distribution(enc, np.array([1.0]), 1.0, set())
    e = math.e
    assert probs == pytest.approx([e / (e + 1), 1 / (e + 1)])


def test_step_distribution_all_masked_errors():
    enc = CandidateEncoding(np.ones((2, 1)))
    with pytest.raises(ValueError, match="no candidates available"):
        step_distribution(enc, np.array([1.0]), 1.0, {0, 1})


def test_step_distribution_dimension_mismatch():
    enc = CandidateEncoding(np.ones((2, 3)))
    with pytest.raises(ValueError, match="dimension"):
        step_distribution(enc, np.array([1.0]), 1.0, set())


def test_rank_pool_of_one():
    pool = make_pool(["only doc"])
    out = rank(pool, RankerConfig(k=1), UniformBackend(1))
    assert out.docids == [0]
    assert out.mode == "greedy"


def test_rank_uniform_greedy_tiebreak_and_logprobs():
    pool = make_pool(["a", "b", "c", "d"])
    out = rank(pool, RankerConfig(k=2, tau=1.0), UniformBackend(4))
    assert out.docids == [0, 1]
    assert out.step_logprobs == pytest.approx([math.log(1 / 4), math.log(1 / 3)])


def test_rank_with_repetition_repeats_argmax():
    pool = make_pool(["a", "b", "c"])
    backend = StubBackend([[0.0, 5.0, 0.0]])
    cfg = RankerConfig(k=4, tau=1.0, allow_repetition=True)
    out = rank(pool, cfg, backend)
    assert out.docids == [1, 1, 1, 1]


def test_rank_k_exceeds_pool():
    pool = make_pool(["a", "b"])
    with pytest.raises(ValueError, match="k exceeds pool"):
        rank(pool, RankerConfig(k=3), UniformBackend(2))


def test_rank_sampled_reproducible():
    pool = make_pool(["a", "b", "c", "d"])
    backend = StubBackend([[0.3, 0.1, 0.9, 0.2]] * 3)
    cfg = RankerConfig(k=3, tau=0.5, seed=42)
    out1 = rank(pool, cfg, backend, mode="sampled")
    out2 = rank(pool, cfg, backend, mode="sampled")
    assert out1.docids == out2.docids
    assert out1.step_logprobs == out2.step_logprobs
    assert out1.mode == "sampled"


def test_sequence_log_prob_uniform():
    pool = make_pool(["a", "b", "c", "d"])
    cfg = RankerConfig(k=2, tau=1.0)
    lp = sequence_log_prob(pool, cfg, UniformBackend(4), [2, 0])
    assert lp == pytest.approx(math.log(1 / 4) + math.log(1 / 3))
    assert lp <= 0


def test_sequence_log_prob_matches_greedy():
    pool = make_pool(["a", "b", "c", "d", "e"])
    backend = StubBackend([[0.5, 0.1, 0.8, 0.2, 0.4],
                           [0.9, 0.3, 0.1, 0.7, 0.2],
                           [0.2, 0.6, 0.1, 0.1, 0.1]])
    cfg = RankerConfig(k=3, tau=0.7)
    out = rank(pool, cfg, backend)
    lp = sequence_log_prob(pool, cfg, backend, out.docids)
    assert lp == sum(out.step_logprobs)


def test_sequence_log_prob_masked_docid():
    pool = make_pool(["a", "b", "c"])
    cfg = RankerConfig(k=3, tau=1.0)
    with pytest.raises(ValueError, match="masked docid"):
        sequence_log_prob(pool, cfg, UniformBackend(3), [1, 1])


def test_sequence_log_prob_out_of_range():
    pool = make_pool(["a", "b"])
    with pytest.raises(ValueError, match="out of range"):
        sequence_log_prob(pool, RankerConfig(k=2), UniformBackend(2), [5])


def test_tau_sharpens_distribution():
    scores = np.array([1.0, 0.0, -1.0])
    p_hot = masked_softmax(scores, 0.1, set())
    p_cold = masked_softmax(scores, 1.0, set())
    assert p_hot.max() > p_cold.max()


def test_masked_probability_exactly_zero_and_sums_to_one():
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = rng.integers(2, 9)
        scores = rng.normal(size=m)
        mask = set(rng.choice(m, size=rng.integers(0, m - 1), replace=False).tolist())
        probs = masked_softmax(scores, 0.3, mask)
        assert all(probs[i] == 0.0 for i in mask)
        assert abs(probs.sum() - 1.0) <= 1e-9


def test_backend_exchangeability():
    texts = ["alpha beta", "gamma delta", "alpha gamma"]
    pool = make_pool(texts, query="alpha", aspects=("beta", "gamma"))
    backends = [
        UniformBackend(3),
        StubBackend([[0.1, 0.2, 0.3]] * 2),
        reference_backend(pool.query, pool.aspects, pool.candidates),
    ]
    cfg = RankerConfig(k=2, tau=0.5)
    for backend in backends:
        out = rank(pool, cfg, backend)
        assert len(out.docids) == len(set(out.docids)) == 2
        assert sequence_log_prob(pool, cfg, backend, out.docids) == \
            pytest.approx(sum(out.step_logprobs))


def test_reference_backend_prefers_aspect_terms():
    asp = SubAspectList(("solar panels",), source="gold")
    cands = [candidate(0, "solar panels on roofs"),
             candidate(1, "unrelated words entirely")]
    backend = reference_backend("energy", asp, cands)
    scores = backend.step_scores([])
    assert scores[0] > scores[1]


def test_reference_backend_weight_shift_after_coverage():
    # doc 0 fully covers aspect 1's text and none of aspect 2's
    asp = SubAspectList(("red apples fresh", "green pears ripe"), source="gold")
    cands = [candidate(0, "red apples fresh", (0,)),
             candidate(1, "green pears ripe", (1,)),
             candidate(2, "red apples fresh again", (0,))]
    backend = reference_backend("fruit", asp, cands)
    scores = backend.step_scores([0])
    # after covering aspect 1, only aspect-2 direction matters
    assert scores[1] > scores[0]
    assert scores[1] > scores[2]


def test_reference_backend_identical_candidates_tiebreak():
    asp = SubAspectList(("same words",), source="gold")
    cands = [candidate(0, "same words here"), candidate(1, "same words here")]
    pool = make_pool(["same words here", "same words here"],
                     query="q", aspects=("same words",))
    backend = reference_backend("q", asp, cands)
    out = rank(pool, RankerConfig(k=1, tau=0.1), backend)
    assert out.docids == [0]


def test_reference_backend_reuse_matches_fresh_backend():
    asp = SubAspectList(("red apples", "green pears", "blue plums"), source="gold")
    texts = ["red apples fresh", "green pears ripe", "red apples green pears",
             "blue plums", "nothing here", "plums pears apples"]
    cands = [candidate(i, t) for i, t in enumerate(texts)]
    reused = reference_backend("fruit", asp, cands)
    # the last prefixes repeat indices, as decoding with allow_repetition does
    prefixes = [[], [2], [2, 0], [2, 0, 5], [4], [3, 3], [3, 3, 1, 3], [5, 2, 5]]
    for prefix in prefixes:
        fresh = reference_backend("fruit", asp, cands)
        assert np.array_equal(reused.step_scores(prefix), fresh.step_scores(prefix))
    pool = make_pool(texts, query="fruit", aspects=asp.aspects)
    cfg = RankerConfig(k=6, tau=0.5, allow_repetition=True, seed=3)
    out = rank(pool, cfg, reused, mode="sampled")
    for t in range(cfg.k):
        fresh = reference_backend("fruit", asp, cands)
        assert np.array_equal(reused.step_scores(out.docids[:t]),
                              fresh.step_scores(out.docids[:t]))


def test_ranker_config_validation():
    with pytest.raises(ValueError):
        RankerConfig(k=1, tau=0.0)
    with pytest.raises(ValueError):
        RankerConfig(k=0)
