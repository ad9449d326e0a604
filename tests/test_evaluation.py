import math
import random

import pytest

from conftest import make_pool
from facetrank.evaluation import (com_score, evaluate_response, label_relevance,
                                  ncom, ranking_metrics, rrf_fuse)
from facetrank.silver import build_silver_list
from facetrank.text_metrics import PhiStore, phi, rouge, tokenize, unigram_f1


def test_evaluate_response_perfect():
    ans = "the full answer text"
    m = evaluate_response(ans, ans, [ans])
    assert all(m[k] == 1.0 for k in ("f1", "r2", "rl", "cr2", "crl"))


def test_evaluate_response_empty():
    m = evaluate_response("", "answer here", ["answer here"])
    assert all(v == 0.0 for v in m.values())


def test_evaluate_response_rejects_degenerate_sub_answers():
    with pytest.raises(ValueError, match="degenerate sub-answers"):
        evaluate_response("some response", "an answer", ["...", "!!!", "?"])


def test_evaluate_response_matches_bruteforce():
    subs = ["alpha beta gamma", "delta eps"]
    answer = " ".join(subs)
    resp = "alpha beta zeta delta"
    m = evaluate_response(resp, answer, subs)
    rt, at = tokenize(resp), tokenize(answer)
    counts = [len(tokenize(a)) for a in subs]
    total = sum(counts)
    cr2 = sum((c / total) * rouge(rt, tokenize(a), "bigram").f1
              for c, a in zip(counts, subs))
    crl = sum((c / total) * rouge(rt, tokenize(a), "lcs").f1
              for c, a in zip(counts, subs))
    assert m["f1"] == unigram_f1(rt, at).f1
    assert m["r2"] == rouge(rt, at, "bigram").f1
    assert m["rl"] == rouge(rt, at, "lcs").f1
    assert m["cr2"] == cr2
    assert m["crl"] == crl


def test_label_relevance_rules():
    answer = "solar energy is renewable"
    pool = make_pool([answer, "totally unrelated words"])
    relevant = label_relevance(pool, answer)
    assert relevant == {"d0"}


def test_label_relevance_strict_threshold():
    # single shared token: rouge-2 is 0, rouge-L is 1, phi exactly 0.5,
    # and "higher than" is strict, so the doc is NOT relevant
    one_token = make_pool(["greetings"])
    assert phi("greetings", "greetings") == pytest.approx(0.5)
    assert label_relevance(one_token, "greetings") == set()


def test_label_relevance_equals_per_document_phi_on_random_pools():
    rng = random.Random(7)
    vocab = ["w%d" % i for i in range(5)]
    for _ in range(40):
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 12)))
                 for _ in range(rng.randint(1, 10))]
        answer = " ".join(rng.choices(vocab, k=rng.randint(1, 12)))
        pool = make_pool(texts)
        phis = [phi(t, answer) for t in texts]
        # thresholds equal to a document's phi probe the strict rule
        for threshold in (0.0, 0.5, 1.0, rng.random(), rng.choice(phis)):
            expected = {f"d{i}" for i, p in enumerate(phis) if p > threshold}
            assert label_relevance(pool, answer, threshold) == expected


def test_ranking_metrics_perfect():
    m = ranking_metrics(["a", "b"], {"a", "b"}, [1])
    assert m["map"] == 1.0
    assert m["ndcg@1"] == 1.0
    assert m["no_relevant"] == 0.0


def test_ranking_metrics_derived_ndcg():
    m = ranking_metrics(["r1", "x", "r2"], {"r1", "r2"}, [3])
    expected = (1 + 1 / math.log2(4)) / (1 + 1 / math.log2(3))
    assert m["ndcg@3"] == pytest.approx(expected, abs=1e-4)
    assert m["ndcg@3"] == pytest.approx(0.9198, abs=1e-4)


def test_ranking_metrics_map_counts_missing_relevant():
    # 2 of 3 relevant retrieved: AP = (1/1 + 2/2) / 3
    m = ranking_metrics(["r1", "r2"], {"r1", "r2", "r3"}, [1])
    assert m["map"] == pytest.approx(2 / 3)


def test_ranking_metrics_no_relevant():
    m = ranking_metrics(["a", "b"], set(), [1, 3])
    assert m["map"] == 0.0 and m["ndcg@1"] == 0.0 and m["no_relevant"] == 1.0


def test_ranking_metrics_cutoff_validation():
    with pytest.raises(ValueError):
        ranking_metrics(["a"], {"a"}, [0])


def test_ncom_self_normalization():
    subs = ["alpha beta gamma", "delta eps zeta"]
    pool = make_pool(["alpha beta gamma", "delta eps zeta", "alpha delta",
                      "beta eps", "unrelated stuff"])
    silver = build_silver_list(pool, subs, 3)
    silver_texts = [pool.candidates[i].doc.text for i in silver.docids]
    assert ncom(silver_texts, silver_texts, subs) == 1.0


def test_ncom_disjoint_list_is_zero():
    subs = ["alpha beta", "gamma delta"]
    pool = make_pool(["alpha beta", "gamma delta", "xx yy", "zz ww"])
    silver = build_silver_list(pool, subs, 2)
    silver_texts = [pool.candidates[i].doc.text for i in silver.docids]
    assert ncom(["xx yy", "zz ww"], silver_texts, subs) == 0.0


def test_ncom_zero_silver_defined_as_zero():
    assert ncom(["xx"], ["yy"], ["aa bb"]) == 0.0


def test_ncom_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        ncom(["a"], ["b", "c"], ["x"])


def oracle_com(lst, subs):
    """List coverage recomputing phi for every prefix."""
    total = 0.0
    for t, doc in enumerate(lst):
        prev = lst[:t]
        cov = [max((phi(d, a) for d in prev), default=0.0) for a in subs]
        s = sum(cov)
        w = [1.0] * len(subs) if s == 0 else [1 - c / s for c in cov]
        total += sum(wi * phi(doc, a) for wi, a in zip(w, subs))
    return total


def test_ncom_matches_independent_recomputation():
    subs = ["alpha beta gamma", "delta eps"]
    texts = ["alpha beta delta", "gamma eps zeta", "alpha delta eps"]
    silver_texts = [texts[2], texts[1], texts[0]]
    got = ncom(texts, silver_texts, subs)
    assert got == oracle_com(texts, subs) / oracle_com(silver_texts, subs)
    assert com_score(texts, subs) == oracle_com(texts, subs)


def test_com_score_equals_oracle_on_random_lists():
    rng = random.Random(5)
    vocab = ["w%d" % i for i in range(6)]
    for _ in range(40):
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 60)))
                 for _ in range(rng.randint(0, 12))]
        subs = [" ".join(rng.choices(vocab, k=rng.randint(0, 10)))
                for _ in range(rng.randint(1, 4))]
        assert com_score(texts, subs) == oracle_com(texts, subs)


def test_shared_store_equals_throwaway_stores():
    rng = random.Random(17)
    vocab = ["w%d" % i for i in range(6)]
    for _ in range(30):
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 40)))
                 for _ in range(rng.randint(3, 10))]
        texts += rng.choices(texts, k=2)  # the same text at two pool positions
        subs = [" ".join(rng.choices(vocab, k=rng.randint(1, 8)))
                for _ in range(rng.randint(1, 4))]
        answer = " ".join(subs)
        pool, k = make_pool(texts), rng.randint(1, 3)
        store = PhiStore(subs + [answer])
        silver = build_silver_list(pool, subs, k, store)
        assert silver == build_silver_list(pool, subs, k)
        threshold = rng.random() / 2
        assert label_relevance(pool, answer, threshold, store) == \
            label_relevance(pool, answer, threshold)
        silver_texts = [texts[i] for i in silver.docids]
        other = rng.sample(texts + ["w1 w2 w3 w9"], k)
        assert ncom(other, silver_texts, subs, store) == ncom(other, silver_texts, subs)


def test_rrf_hand_values():
    fused_scores = {}
    lists = [["d", "x", "y"], ["a", "b", "d"]]
    for lst in lists:
        for r, doc in enumerate(lst, start=1):
            fused_scores[doc] = fused_scores.get(doc, 0.0) + 1 / (60 + r)
    assert fused_scores["d"] == pytest.approx(1 / 61 + 1 / 63, abs=1e-12)
    fused = rrf_fuse(lists)
    assert fused[0] == "d"


def test_rrf_single_list_rank_one():
    out = rrf_fuse([["only"]])
    assert out == ["only"]


def test_rrf_identical_lists_preserve_order():
    lst = ["a", "b", "c"]
    assert rrf_fuse([lst, lst, lst]) == lst


def test_rrf_permutation_invariance():
    rng = random.Random(3)
    lists = [["a", "b", "c"], ["c", "d"], ["b", "a", "e"]]
    base = rrf_fuse(lists)
    for _ in range(5):
        shuffled = lists[:]
        rng.shuffle(shuffled)
        assert rrf_fuse(shuffled) == base


def test_rrf_truncation_and_validation():
    assert rrf_fuse([["a", "b", "c"]], top=2) == ["a", "b"]
    with pytest.raises(ValueError):
        rrf_fuse([["a"]], k_rrf=0)


def brute_rrf(lists, k_rrf):
    scores = {}
    for lst in lists:
        for r, d in enumerate(lst, start=1):
            scores[d] = scores.get(d, 0.0) + 1 / (k_rrf + r)
    return sorted(scores, key=lambda d: (-scores[d], d))


def test_rrf_matches_bruteforce_random():
    rng = random.Random(11)
    for _ in range(50):
        docs = [f"d{i}" for i in range(rng.randint(1, 12))]
        lists = []
        for _ in range(rng.randint(1, 4)):
            sample = rng.sample(docs, rng.randint(1, len(docs)))
            lists.append(sample)
        k_rrf = rng.choice([10.0, 60.0, 100.0])
        assert rrf_fuse(lists, k_rrf=k_rrf) == brute_rrf(lists, k_rrf)
