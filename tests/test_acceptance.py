"""Top-level acceptance checks for the whole package.

Each test exercises one release criterion end to end and prints a single
PASS/FAIL line, so `pytest -s tests/test_acceptance.py` doubles as the
acceptance report. The checks are property-based (independent brute-force
oracles on random fixtures) plus a small-scale directional run on the
shipped synthetic dataset.
"""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest

from facetrank.evaluation import ncom, rrf_fuse
from facetrank.pipeline import RunConfig, run_pipeline
from facetrank.pool import CandidatePool
from facetrank.preferences import RewardedList, build_us3_pairs, dpo_loss_value
from facetrank.ranker import RankerConfig, RankingList, rank, sequence_log_prob
from facetrank.silver import aspect_weights, build_silver_list
from facetrank.text_metrics import PhiStore, phi, rouge, tokenize, unigram_f1

from conftest import make_pool


def _check(name, fn):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"\n{name}: FAIL")
        raise
    print(f"\n{name}: PASS ({time.perf_counter() - start:.2f}s)")


# ---------------------------------------------------------------------------
# independent brute-force oracles (deliberately naive)


def _f1(overlap, len_c, len_r):
    if overlap == 0:
        return 0.0
    p, r = overlap / len_c, overlap / len_r
    return 2 * p * r / (p + r)


def _brute_bigram_f1(cand, ref):
    cb = Counter(zip(cand, cand[1:]))
    rb = Counter(zip(ref, ref[1:]))
    if not cb or not rb:
        return 0.0
    overlap = sum((cb & rb).values())
    return _f1(overlap, sum(cb.values()), sum(rb.values()))


def _brute_lcs_f1(cand, ref):
    if not cand or not ref:
        return 0.0
    n, m = len(cand), len(ref)
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if cand[i - 1] == ref[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return _f1(table[n][m], n, m)


def _brute_unigram_f1(cand, ref):
    if not cand or not ref:
        return 0.0
    overlap = sum((Counter(cand) & Counter(ref)).values())
    return _f1(overlap, len(cand), len(ref))


# ---------------------------------------------------------------------------
# 1. text-overlap metrics match brute-force oracles


def test_acceptance_metric_oracles():
    def body():
        rng = random.Random(101)
        alphabet = ["a", "b", "c", "d", "e"]
        for _ in range(500):
            cand = [rng.choice(alphabet) for _ in range(rng.randint(0, 30))]
            ref = [rng.choice(alphabet) for _ in range(rng.randint(0, 30))]
            assert abs(rouge(cand, ref, "bigram").f1
                       - _brute_bigram_f1(cand, ref)) <= 1e-9
            assert abs(rouge(cand, ref, "lcs").f1
                       - _brute_lcs_f1(cand, ref)) <= 1e-9
            assert abs(unigram_f1(cand, ref).f1
                       - _brute_unigram_f1(cand, ref)) <= 1e-9
        # hand-derived cases
        four, ref4 = tokenize("a b c d"), tokenize("a b x d")
        assert rouge(four, ref4, "bigram").f1 == pytest.approx(1 / 3)
        assert rouge(four, ref4, "lcs").f1 == pytest.approx(3 / 4)
        assert phi("a b c d", "a b x d") == pytest.approx(13 / 24)

    start = time.perf_counter()
    _check("acceptance 1 (metric oracles, 500 random fixtures)", body)
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 2. greedy list construction picks a true per-step argmax


def test_acceptance_greedy_certificate():
    def body():
        rng = random.Random(202)
        vocab = ["red", "blue", "green", "gold", "iron", "clay", "moss", "dust"]
        for _ in range(200):
            n_docs = rng.randint(1, 8)
            n_sub = rng.randint(1, 4)
            k = rng.randint(1, min(3, n_docs))
            texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 6)))
                     for _ in range(n_docs)]
            subs = [" ".join(rng.choices(vocab, k=rng.randint(1, 5)))
                    for _ in range(n_sub)]
            target = build_silver_list(make_pool(texts), PhiStore(subs), k)
            chosen: list[int] = []
            for step, picked in enumerate(target.docids):
                # recompute every utility from scratch, independent of the
                # implementation's incremental bookkeeping
                w = aspect_weights([texts[i] for i in chosen], subs)
                gains = {
                    i: sum(wi * phi(texts[i], a) for wi, a in zip(w, subs))
                    for i in range(n_docs) if i not in chosen
                }
                best_gain = max(gains.values())
                best_index = min(i for i, g in gains.items() if g == best_gain)
                assert picked == best_index, (step, picked, best_index)
                assert target.step_utilities[step] == gains[picked]
                chosen.append(picked)

    start = time.perf_counter()
    _check("acceptance 2 (greedy per-step argmax certificate, 200 instances)", body)
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 3. decoding contract: proper distributions, hard masking, no repeats


class _RandomBackend:
    """Scores depend only on how many docs are already selected."""

    def __init__(self, n, k, rng):
        self.rows = [np.array([rng.uniform(-3, 3) for _ in range(n)])
                     for _ in range(k)]

    def step_scores(self, selected):
        return self.rows[len(selected)]


def test_acceptance_decode_contract():
    def body():
        rng = random.Random(303)
        for trial in range(1000):
            n = rng.randint(1, 10)
            k = rng.randint(1, n)
            pool = make_pool([f"doc {i}" for i in range(n)])
            config = RankerConfig(k=k, tau=rng.choice([0.1, 0.5, 1.0]),
                                  seed=trial)
            backend = _RandomBackend(n, k, rng)
            mode = "greedy" if trial % 2 == 0 else "sampled"
            ranking = rank(pool, config, backend, mode=mode)
            assert len(set(ranking.docids)) == k  # no duplicates
            # the recorded step log-probs come from proper distributions
            masked: set[int] = set()
            for step, (docid, lp) in enumerate(zip(ranking.docids,
                                                   ranking.step_logprobs)):
                scores = backend.step_scores(ranking.docids[:step])
                exps = np.exp((scores - scores.max()) / config.tau)
                exps[list(masked)] = 0.0
                probs = exps / exps.sum()
                assert abs(probs.sum() - 1.0) <= 1e-9
                for m in masked:
                    assert probs[m] == 0.0
                assert lp == pytest.approx(math.log(probs[docid]), abs=1e-9)
                masked.add(docid)
            if mode == "greedy":
                total = sequence_log_prob(pool, config, backend, ranking.docids)
                assert total == sum(ranking.step_logprobs)

    _check("acceptance 3 (decode contract, 1000 randomized rank calls)", body)


# ---------------------------------------------------------------------------
# 4. preference-loss closed forms and the swap identity


def test_acceptance_preference_loss_analytics():
    def body():
        for x, y, beta in [(-1.0, -1.0, 0.1), (0.0, 0.0, 1.0),
                           (-7.3, -2.2, 0.7)]:
            assert abs(dpo_loss_value(x, x, y, y, beta) - math.log(2)) <= 1e-12
        # beta=1 and a bracketed difference of ln 3 gives -log sigma(ln 3)
        assert abs(dpo_loss_value(math.log(3), 0.0, 0.0, 0.0, 1.0)
                   - math.log(4 / 3)) <= 1e-9
        rng = random.Random(404)
        for _ in range(100):
            lps = [rng.uniform(-10, 0) for _ in range(4)]
            beta = rng.uniform(0.05, 2.0)
            loss = dpo_loss_value(*lps, beta)
            swapped = dpo_loss_value(lps[1], lps[0], lps[3], lps[2], beta)
            assert abs(swapped - (-math.log(-math.expm1(-loss)))) <= 1e-9

    _check("acceptance 4 (preference loss: ln 2, ln(4/3), swap identity)", body)


# ---------------------------------------------------------------------------
# 5. pair selection: greedy-vs-sampled only, gap strictly above mu


def _rewarded(reward_value, provenance, seed_list):
    return RewardedList(
        list=RankingList(docids=seed_list, step_logprobs=[0.0] * len(seed_list),
                         mode=provenance),
        reward=reward_value)


def test_acceptance_pair_selection_rule():
    def body():
        rng = random.Random(505)
        for _ in range(200):
            greedy = _rewarded(rng.uniform(0, 2), "greedy", [0])
            sampled = [_rewarded(rng.uniform(0, 2), "sampled", [i + 1])
                       for i in range(rng.randint(0, 6))]
            mu = rng.choice([0.0, 0.05, 0.1, 0.3])
            pairs = build_us3_pairs([greedy, *sampled], mu)
            expected = sum(1 for s in sampled
                           if abs(greedy.reward - s.reward) > mu)
            assert len(pairs) == expected
            for p in pairs:
                assert {p.winner.list.mode, p.loser.list.mode} == \
                    {"greedy", "sampled"}
                assert p.winner.reward - p.loser.reward > mu
        # worked fixture: greedy 0.50 against samples 0.65 / 0.55 / 0.30
        fixture = [_rewarded(0.50, "greedy", [0]),
                   _rewarded(0.65, "sampled", [1]),
                   _rewarded(0.55, "sampled", [2]),
                   _rewarded(0.30, "sampled", [3])]
        pairs = build_us3_pairs(fixture, 0.1)
        assert len(pairs) == 2
        assert {round(p.gap, 6) for p in pairs} == {0.15, 0.2}

    _check("acceptance 5 (pair selection rule on randomized batches)", body)


# ---------------------------------------------------------------------------
# 6. list-comprehensiveness metric is self-normalizing


def test_acceptance_ncom_self_normalization():
    def body():
        rng = random.Random(606)
        vocab = ["ash", "bay", "cod", "dew", "elm", "fog"]
        for _ in range(100):
            n_sub = rng.randint(1, 3)
            subs = [" ".join(rng.choices(vocab, k=rng.randint(2, 5)))
                    for _ in range(n_sub)]
            # guarantee nonzero coverage: one doc repeats a sub-answer
            texts = [subs[0]] + [" ".join(rng.choices(vocab, k=4))
                                 for _ in range(rng.randint(1, 5))]
            k = rng.randint(1, len(texts))
            target = build_silver_list(make_pool(texts), PhiStore(subs), k)
            silver_texts = [texts[i] for i in target.docids]
            assert ncom(silver_texts, silver_texts, PhiStore(subs)) == 1.0
            disjoint = ["zzz qqq xxx"] * k
            assert ncom(disjoint, silver_texts, PhiStore(subs)) == 0.0

    _check("acceptance 6 (list-coverage metric self-normalization)", body)


# ---------------------------------------------------------------------------
# 7. rank fusion matches brute-force score summation


def test_acceptance_rank_fusion_oracle():
    def body():
        rng = random.Random(707)
        doc_ids = [f"d{i:02d}" for i in range(15)]
        for _ in range(100):
            lists = []
            for _ in range(rng.randint(1, 5)):
                size = rng.randint(1, len(doc_ids))
                lists.append(rng.sample(doc_ids, size))
            k_rrf = rng.choice([10.0, 60.0, 100.0])
            scores: dict[str, float] = {}
            for lst in lists:
                for pos, d in enumerate(lst, start=1):
                    scores[d] = scores.get(d, 0.0) + 1.0 / (k_rrf + pos)
            expected = sorted(scores, key=lambda d: (-scores[d], d))
            fused = rrf_fuse(lists, k_rrf=k_rrf)
            assert fused == expected
            for d in fused:
                assert abs(scores[d] - scores[d]) <= 1e-12
            shuffled = lists[:]
            rng.shuffle(shuffled)
            assert rrf_fuse(shuffled, k_rrf=k_rrf) == fused
        # hand value: rank 1 in one list, rank 3 in another, k_rrf=60
        fused = rrf_fuse([["top", "x", "y"], ["x", "y", "top"]], k_rrf=60.0)
        top_score = 1 / 61 + 1 / 63
        x_score = 1 / 62 + 1 / 61
        assert abs(top_score - (1 / 61 + 1 / 63)) <= 1e-12
        assert fused[0] == "x" and x_score > top_score

    _check("acceptance 7 (rank-fusion brute-force oracle, 100 fixtures)", body)


# ---------------------------------------------------------------------------
# 8 & 9. end-to-end directional win and determinism on the shipped fixture


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory, synthetic_paths):
    dataset, corpus = synthetic_paths
    config = RunConfig()
    dirs = []
    reports = []
    start = time.perf_counter()
    for name in ("run_a", "run_b"):
        out = str(tmp_path_factory.mktemp(name))
        reports.append(run_pipeline(config, dataset, corpus, out))
        dirs.append(out)
    elapsed = time.perf_counter() - start
    return dirs, reports, elapsed


def test_acceptance_directional_ranking_win(two_runs):
    def body():
        _, reports, elapsed = two_runs
        means = reports[0]["means"]
        ranked = means["ranked"]
        for baseline in ("no_ranker", "rrf"):
            other = means[baseline]
            assert ranked["cr2"] + ranked["crl"] > other["cr2"] + other["crl"], \
                baseline
            assert ranked["ncom"] > other["ncom"], baseline
        assert elapsed / 2 < 60.0  # per-run budget

    _check("acceptance 8 (end-to-end directional win on shipped fixture)", body)


def test_acceptance_determinism(two_runs):
    def body():
        import filecmp
        import os
        (dir_a, dir_b), reports, _ = two_runs
        assert reports[0] == reports[1]
        names = sorted(os.listdir(dir_a))
        assert names == sorted(os.listdir(dir_b))
        for name in names:
            assert filecmp.cmp(os.path.join(dir_a, name),
                               os.path.join(dir_b, name),
                               shallow=False), name

    _check("acceptance 9 (two identical runs, byte-identical artifacts)", body)
