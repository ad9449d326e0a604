import math
import random

import numpy as np
import pytest

from conftest import UniformBackend, make_pool
from facetrank.corpus import Document
from facetrank.pool import Candidate
from facetrank.ranker import (RankerConfig, _draw, masked_softmax, rank, reference_backend,
                              sequence_log_prob)
from facetrank.silver import weights_from_rows
from facetrank.text_metrics import phi, tokenize


class StubBackend:
    """Fixed score matrix: row t is the logit vector at decode step t."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=float)

    def step_scores(self, selected):
        return self.matrix[min(len(selected), len(self.matrix) - 1)]


def candidate(i, text, aspect_set=(0,)):
    return Candidate(Document(f"d{i}", "", text), {a: 1 for a in aspect_set})


# The ranker's distribution at one decode step is masked_softmax over that
# step's scores.
def test_step_distribution_uniform_and_masked():
    probs = masked_softmax(np.ones(3), 1.0, set())
    assert probs == pytest.approx([1 / 3] * 3)
    probs = masked_softmax(np.ones(3), 1.0, {0})
    assert probs[0] == 0.0
    assert probs[1] == probs[2] == pytest.approx(0.5)


def test_step_distribution_closed_form():
    probs = masked_softmax(np.array([1.0, 0.0]), 1.0, set())
    e = math.e
    assert probs == pytest.approx([e / (e + 1), 1 / (e + 1)])


def test_step_distribution_all_masked_errors():
    with pytest.raises(ValueError, match="no candidates available"):
        masked_softmax(np.ones(2), 1.0, {0, 1})


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
    for seed in (0, 1, 2, 3):  # and sampled lists, which visit other docids
        cfg = RankerConfig(k=3, tau=0.7, seed=seed)
        for mode in ("greedy", "sampled"):
            out = rank(pool, cfg, backend, mode)
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


class CountingBackend(UniformBackend):
    def __init__(self, pool_size):
        super().__init__(pool_size)
        self.calls = 0

    def step_scores(self, selected):
        self.calls += 1
        return super().step_scores(selected)


@pytest.mark.parametrize("docids, error", [([5], "docid 5 out of range"),
                                           ([0, 1, -1], "docid -1 out of range"),
                                           ([1, 0, 1], "masked docid in sequence")])
def test_sequence_log_prob_rejects_before_any_backend_call(docids, error):
    pool = make_pool(["a", "b", "c"])
    backend = CountingBackend(3)
    with pytest.raises(ValueError, match=error):
        sequence_log_prob(pool, RankerConfig(k=3), backend, docids)
    assert backend.calls == 0


def test_sequence_log_prob_rejects_an_underflowed_docid():
    # doc 1's probability rounds to exactly 0.0 without being masked
    pool = make_pool(["a", "b"])
    backend = StubBackend([[0.0, -1000.0]])
    with pytest.raises(ValueError, match="masked docid in sequence"):
        sequence_log_prob(pool, RankerConfig(k=1, tau=1.0), backend, [1])


def loop_draw(probs, rng):
    """The sampler as a Python loop over the running sum of the nonzero
    entries: the first index whose partial sum exceeds the draw, else the
    last nonzero entry."""
    x = rng.random()
    acc = 0.0
    last = 0
    for i, p in enumerate(probs):
        if p <= 0.0:
            continue
        acc += p
        last = i
        if x < acc:
            return i
    return last


class FixedDraw:
    def __init__(self, x):
        self.x = x

    def random(self):
        return self.x


def _random_distributions(rng, n):
    """masked_softmax outputs over random scores and masks, some with
    unmasked entries that underflow to exactly 0.0."""
    for _ in range(n):
        m = int(rng.integers(1, 12))
        scores = rng.normal(size=m) * rng.choice([1.0, 50.0, 2000.0])
        mask = set(rng.choice(m, size=rng.integers(0, m), replace=False).tolist())
        yield masked_softmax(scores, float(rng.uniform(0.05, 2.0)), mask)


def test_draw_equals_loop_oracle():
    rng = np.random.default_rng(13)
    for case, probs in enumerate(_random_distributions(rng, 2000)):
        assert _draw(probs, random.Random(case)) == loop_draw(probs, random.Random(case))


def test_draw_equals_loop_oracle_at_partial_sums():
    rng = np.random.default_rng(17)
    for probs in _random_distributions(rng, 500):
        sums = [float(v) for v in np.cumsum(probs)]
        # each partial sum exactly, just below it, and draws at or past the last
        # one, which rounding can leave below 1.0
        draws = sums + [math.nextafter(v, 0.0) for v in sums]
        draws += [math.nextafter(sums[-1], 1.0), 1.0 - 2 ** -53]
        for x in draws:
            assert _draw(probs, FixedDraw(x)) == loop_draw(probs, FixedDraw(x))
    probs = np.array([0.0, 0.25, 0.0, 0.5, 0.0])  # partial sums stop at 0.75
    assert _draw(probs, FixedDraw(0.9)) == loop_draw(probs, FixedDraw(0.9)) == 3


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


def list_masked_softmax(scores, tau, mask):
    """masked_softmax with the kept indices built by a Python loop."""
    m = len(scores)
    logits = np.asarray(scores, dtype=float) / tau
    keep = np.array([i not in mask for i in range(m)])
    shifted = logits[keep] - logits[keep].max()
    expd = np.exp(shifted)
    probs = np.zeros(m)
    probs[keep] = expd / expd.sum()
    return probs


def test_masked_softmax_equals_list_mask():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(1, 12))
        scores = rng.normal(size=m) * 3
        mask = set(rng.choice(m, size=rng.integers(0, m), replace=False).tolist())
        tau = float(rng.uniform(0.05, 2.0))
        assert np.array_equal(masked_softmax(scores, tau, mask),
                              list_masked_softmax(scores, tau, mask))


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
    asp = ("solar panels",)
    cands = [candidate(0, "solar panels on roofs"),
             candidate(1, "unrelated words entirely")]
    backend = reference_backend("energy", asp, cands)
    scores = backend.step_scores([])
    assert scores[0] > scores[1]


def test_reference_backend_weight_shift_after_coverage():
    # doc 0 fully covers aspect 1's text and none of aspect 2's
    asp = ("red apples fresh", "green pears ripe")
    cands = [candidate(0, "red apples fresh", (0,)),
             candidate(1, "green pears ripe", (1,)),
             candidate(2, "red apples fresh again", (0,))]
    backend = reference_backend("fruit", asp, cands)
    scores = backend.step_scores([0])
    # after covering aspect 1, only aspect-2 direction matters
    assert scores[1] > scores[0]
    assert scores[1] > scores[2]


def test_reference_backend_identical_candidates_tiebreak():
    asp = ("same words",)
    cands = [candidate(0, "same words here"), candidate(1, "same words here")]
    pool = make_pool(["same words here", "same words here"],
                     query="q", aspects=("same words",))
    backend = reference_backend("q", asp, cands)
    out = rank(pool, RankerConfig(k=1, tau=0.1), backend)
    assert out.docids == [0]


def test_reference_backend_reuse_matches_fresh_backend():
    asp = ("red apples", "green pears", "blue plums")
    texts = ["red apples fresh", "green pears ripe", "red apples green pears",
             "blue plums", "nothing here", "plums pears apples"]
    cands = [candidate(i, t) for i, t in enumerate(texts)]
    reused = reference_backend("fruit", asp, cands)
    # the last prefixes repeat indices, as decoding with allow_repetition does
    prefixes = [[], [2], [2, 0], [2, 0, 5], [4], [3, 3], [3, 3, 1, 3], [5, 2, 5]]
    for prefix in prefixes:
        fresh = reference_backend("fruit", asp, cands)
        assert np.array_equal(reused.step_scores(prefix), fresh.step_scores(prefix))
    pool = make_pool(texts, query="fruit", aspects=asp)
    cfg = RankerConfig(k=6, tau=0.5, allow_repetition=True, seed=3)
    out = rank(pool, cfg, reused, mode="sampled")
    for t in range(cfg.k):
        fresh = reference_backend("fruit", asp, cands)
        assert np.array_equal(reused.step_scores(out.docids[:t]),
                              fresh.step_scores(out.docids[:t]))


class LoopReferenceBackend:
    """ReferenceBackend as one tokenize and term-frequency loop per text, and
    a phi row per selected doc from the strings."""

    def __init__(self, query, aspects, candidates):
        self.aspects = aspects
        self.texts = [c.doc.text for c in candidates]
        vocab = {}
        for text in [query, *aspects, *self.texts]:
            for tok in tokenize(text):
                vocab.setdefault(tok, len(vocab))
        self.vocab = vocab
        self.encodings = (np.stack([self._unit_tf(t) for t in self.texts])
                          if self.texts else np.zeros((0, max(len(vocab), 1))))
        self.aspect_vectors = [self._unit_tf(f"{query} {a}") for a in aspects]

    def _unit_tf(self, text):
        v = np.zeros(max(len(self.vocab), 1))
        for tok in tokenize(text):
            if tok in self.vocab:
                v[self.vocab[tok]] += 1.0
        norm = np.linalg.norm(v)
        return v / norm if norm > 0 else v

    def step_scores(self, selected):
        rows = [[phi(self.texts[i], a) for a in self.aspects] for i in selected]
        w = weights_from_rows(rows, len(self.aspects))
        h = np.zeros(max(len(self.vocab), 1))
        for wj, vj in zip(w, self.aspect_vectors):
            h += wj * vj
        norm = np.linalg.norm(h)
        if norm > 0:
            h = h / norm
        return self.encodings @ h


def test_reference_backend_equals_loop_backend():
    rng = random.Random(5)
    words = ["w%d" % i for i in range(9)] + ["W1", "w1.", "..."]
    for _ in range(40):
        texts = [" ".join(rng.choices(words, k=rng.randint(0, 30)))
                 for _ in range(rng.randint(1, 12))]
        aspects = tuple(" ".join(rng.choices(words[:9], k=rng.randint(1, 4)))
                        for _ in range(rng.randint(1, 4)))
        query = " ".join(rng.choices(words, k=rng.randint(0, 4)))
        pool = make_pool(texts, query=query, aspects=aspects)
        fast = reference_backend(query, pool.aspects, pool.candidates)
        loop = LoopReferenceBackend(query, pool.aspects, pool.candidates)
        assert np.array_equal(fast.encodings, loop.encodings)
        assert len(fast.aspect_vectors) == len(loop.aspect_vectors)
        for got, want in zip(fast.aspect_vectors, loop.aspect_vectors):
            assert np.array_equal(got, want)
        cfg = RankerConfig(k=rng.randint(1, len(texts)), tau=rng.choice([0.1, 0.5, 2.0]),
                           allow_repetition=rng.random() < 0.3, seed=rng.randint(0, 99))
        for mode in ("greedy", "sampled"):
            got, want = rank(pool, cfg, fast, mode), rank(pool, cfg, loop, mode)
            assert (got.docids, got.step_logprobs) == (want.docids, want.step_logprobs)
    asp = ("a b",)
    assert np.array_equal(reference_backend("q", asp, []).encodings,
                          LoopReferenceBackend("q", asp, []).encodings)
    assert reference_backend("q", asp, []).encodings.shape == (0, 3)


def test_reference_backend_rejects_empty_aspects():
    with pytest.raises(ValueError, match="aspects must be non-empty"):
        reference_backend("q", (), [candidate(0, "text")])


def test_ranker_config_validation():
    with pytest.raises(ValueError):
        RankerConfig(k=1, tau=0.0)
    with pytest.raises(ValueError):
        RankerConfig(k=0)
