import math
import random
import re

import pytest

from conftest import UniformBackend, make_pool
from facetrank.preferences import (OracleGenerator, PreferencePair, RewardedList,
                                   build_us3_pairs, dpo_loss_value,
                                   generate_rewarded_lists, oracle_generate,
                                   random_pairs, reward)
from facetrank.ranker import RankerConfig, RankingList
from facetrank.text_metrics import com_rouge, phi, tokenize, unigram_f1


def rewarded(value, mode):
    return RewardedList(RankingList([0], [0.0], mode), value)


def test_reward_maximal_and_zero():
    assert reward("the answer text", "the answer text",
                  ["the answer text"]) == pytest.approx(2.0)
    assert reward("xx yy", "aa bb", ["aa bb"]) == 0.0
    assert reward("", "aa bb", ["aa bb"]) == 0.0


def test_reward_requires_answer():
    with pytest.raises(ValueError):
        reward("resp", "", ["sub"])


def test_reward_matches_independent_recomputation():
    answer = "alpha beta gamma delta"
    subs = ["alpha beta", "gamma delta"]
    resp = "alpha beta"
    assert reward(resp, answer, subs) == \
        pytest.approx(phi(resp, answer) + com_rouge(resp, subs))


def test_oracle_generate_single_sentence():
    assert oracle_generate("q", ["only sentence here."], 1) == "only sentence here."


def test_oracle_generate_exhausts_all_sentences():
    subs = ["first sub answer", "second sub answer"]
    out = oracle_generate("unrelated", [f"{subs[0]}. {subs[1]}."], 10)
    for s in subs:
        assert s in out


def test_oracle_generate_deterministic():
    docs = ["alpha beta. gamma delta.", "eps zeta."]
    assert oracle_generate("alpha", docs, 2) == oracle_generate("alpha", docs, 2)


def test_oracle_generate_prefers_query_coverage():
    out = oracle_generate("zebra stripes", ["nothing relevant here.",
                                            "zebra stripes explained."], 1)
    assert out == "zebra stripes explained."


def test_oracle_generate_empty_docs():
    assert oracle_generate("q", ["...", ""], 3) == ""
    with pytest.raises(ValueError):
        oracle_generate("q", ["text."], 0)


def list_oracle_generate(query, ranked_docs, budget):
    """oracle_generate scoring every sentence by unigram_f1 on token lists."""
    sentences = []
    for doc in ranked_docs:
        for raw in re.split(r"[.!?]+", doc):
            toks = tokenize(raw)
            if toks:
                sentences.append((raw.strip(), toks))
    if not sentences:
        return ""
    query_tokens = tokenize(query)
    picked, covered = [], set()
    for _ in range(min(budget, len(sentences))):
        target = [t for t in query_tokens if t not in covered]
        best, best_score = None, -1.0
        for idx, (_text, toks) in enumerate(sentences):
            if idx in picked:
                continue
            score = unigram_f1(toks, target).f1 if target else 0.0
            if score > best_score:
                best, best_score = idx, score
        picked.append(best)
        covered.update(sentences[best][1])
    return ". ".join(sentences[i][0] for i in picked) + "."


def test_oracle_generate_equals_list_oracle():
    rng = random.Random(17)
    words = ["w%d" % i for i in range(8)]
    for _ in range(300):
        docs = [" ".join(rng.choice(words + [".", "!", "?.", "W3"])
                         for _ in range(rng.randint(0, 25)))
                for _ in range(rng.randint(0, 5))]
        query = " ".join(rng.choices(words, k=rng.randint(0, 6)))
        budget = rng.randint(1, 6)
        assert oracle_generate(query, docs, budget) == \
            list_oracle_generate(query, docs, budget)


def test_us3_worked_fixture():
    lists = [rewarded(0.50, "greedy"), rewarded(0.65, "sampled"),
             rewarded(0.55, "sampled"), rewarded(0.30, "sampled")]
    pairs = build_us3_pairs(lists, mu=0.1)
    assert len(pairs) == 2
    assert pairs[0].winner.reward == 0.65 and pairs[0].loser.reward == 0.50
    assert pairs[1].winner.reward == 0.50 and pairs[1].loser.reward == 0.30
    for p in pairs:
        assert p.gap > 0.1
        assert {p.winner.list.mode, p.loser.list.mode} == {"greedy", "sampled"}


def test_us3_all_within_mu():
    lists = [rewarded(0.5, "greedy"), rewarded(0.55, "sampled"),
             rewarded(0.45, "sampled")]
    assert build_us3_pairs(lists, mu=0.1) == []


def test_us3_mu_zero_strict():
    lists = [rewarded(0.5, "greedy"), rewarded(0.6, "sampled"),
             rewarded(0.5, "sampled")]
    pairs = build_us3_pairs(lists, mu=0.0)
    assert len(pairs) == 1
    assert pairs[0].winner.reward == 0.6


def test_us3_unilaterality_enforced():
    with pytest.raises(ValueError, match="unilaterality"):
        build_us3_pairs([rewarded(0.5, "sampled")], 0.1)
    with pytest.raises(ValueError, match="unilaterality"):
        build_us3_pairs([rewarded(0.5, "greedy"), rewarded(0.6, "greedy")], 0.1)


def test_us3_random_batches_respect_rules():
    rng = random.Random(99)
    for _ in range(50):
        mu = rng.uniform(0, 0.3)
        lists = [rewarded(rng.uniform(0, 2), "greedy")]
        lists += [rewarded(rng.uniform(0, 2), "sampled")
                  for _ in range(rng.randint(1, 6))]
        for p in build_us3_pairs(lists, mu):
            assert p.gap > mu
            assert p.winner.reward > p.loser.reward
            provs = sorted((p.winner.list.mode, p.loser.list.mode))
            assert provs == ["greedy", "sampled"]


def test_us3_gap_is_exact_reward_difference():
    rng = random.Random(17)
    for _ in range(50):
        greedy = rewarded(rng.uniform(0, 2), "greedy")
        lists = [greedy] + [rewarded(rng.uniform(0, 2), "sampled")
                            for _ in range(rng.randint(1, 6))]
        for p in build_us3_pairs(lists, 0.0):
            sampled = p.loser if p.winner is greedy else p.winner
            assert p.gap == abs(sampled.reward - greedy.reward)


def random_lists(rng, n):
    return [rewarded(rng.uniform(0, 2), "greedy")] + \
        [rewarded(rng.uniform(0, 2), "sampled") for _ in range(n - 1)]


def test_random_pairs_same_seed_same_pairs():
    lists = random_lists(random.Random(3), 7)
    pairs = random_pairs(lists, 11)
    assert pairs and pairs == random_pairs(lists, 11)
    # the draws are those of sampling two positions from a Random(seed)
    rng, expected = random.Random(11), []
    for _ in range(len(lists) - 1):
        i, j = rng.sample(range(len(lists)), 2)
        expected.append(tuple(sorted((lists[i], lists[j]), key=lambda l: -l.reward)))
    assert [(p.winner, p.loser) for p in pairs] == expected


def test_random_pairs_skip_equal_rewards():
    lists = [rewarded(0.5, "greedy"), rewarded(0.5, "sampled"), rewarded(0.5, "sampled")]
    assert random_pairs(lists, 0) == []


def test_random_pairs_rules():
    rng = random.Random(23)
    for seed in range(50):
        lists = random_lists(rng, rng.randint(2, 7))
        pairs = random_pairs(lists, seed)
        assert len(pairs) <= len(lists) - 1
        for p in pairs:
            assert p.winner.reward > p.loser.reward
            assert p.gap == p.winner.reward - p.loser.reward


def test_dpo_symmetric_inputs():
    assert dpo_loss_value(-1.0, -1.0, -2.0, -2.0, 0.1) == \
        pytest.approx(math.log(2), abs=1e-12)


def test_dpo_derived_fixture():
    # beta=1 and a bracketed margin of ln 3 gives -log(3/4)
    lp_w, lp_l = -1.0, -1.0 - math.log(3)
    assert dpo_loss_value(lp_w, lp_l, -1.0, -1.0, 1.0) == \
        pytest.approx(math.log(4 / 3), abs=1e-9)


def test_dpo_monotone_in_winner_logprob():
    base = dpo_loss_value(-2.0, -1.0, -1.5, -1.5, 0.5)
    better = dpo_loss_value(-1.0, -1.0, -1.5, -1.5, 0.5)
    assert better < base


def test_dpo_swap_identity():
    rng = random.Random(7)
    for _ in range(100):
        lps = [rng.uniform(-10, 0) for _ in range(4)]
        beta = rng.uniform(0.05, 2.0)
        loss = dpo_loss_value(*lps, beta)
        swapped = dpo_loss_value(lps[1], lps[0], lps[3], lps[2], beta)
        assert swapped == pytest.approx(-math.log(-math.expm1(-loss)), abs=1e-9)


def test_dpo_input_validation():
    with pytest.raises(ValueError):
        dpo_loss_value(float("nan"), -1.0, -1.0, -1.0, 0.1)
    with pytest.raises(ValueError):
        dpo_loss_value(-1.0, -1.0, -1.0, -1.0, 0.0)


def test_generate_rewarded_lists_counting_and_determinism():
    pool = make_pool(["aa bb cc", "dd ee ff", "gg hh ii"])
    cfg = RankerConfig(k=2, tau=1.0, seed=5)
    gen = OracleGenerator(budget=2)
    out1 = generate_rewarded_lists(pool, cfg, UniformBackend(3), gen,
                                   "aa bb cc dd ee ff", ["aa bb cc", "dd ee ff"],
                                   num_samples=3)
    assert len(out1) == 4
    assert sum(1 for l in out1 if l.list.mode == "greedy") == 1
    out2 = generate_rewarded_lists(pool, cfg, UniformBackend(3), gen,
                                   "aa bb cc dd ee ff", ["aa bb cc", "dd ee ff"],
                                   num_samples=3)
    assert [l.list.docids for l in out1] == [l.list.docids for l in out2]
    assert [l.reward for l in out1] == [l.reward for l in out2]


def test_generate_rewarded_lists_oracle_reaches_max_reward():
    # pool doc equals the (single) sub-answer: the extractive generator
    # reproduces the answer exactly, so the greedy list's reward is 2
    answer = "solar power converts sunlight into electricity"
    pool = make_pool([answer])
    cfg = RankerConfig(k=1, tau=1.0)
    out = generate_rewarded_lists(pool, cfg, UniformBackend(1),
                                  OracleGenerator(budget=1),
                                  answer, [answer], num_samples=1)
    greedy = next(l for l in out if l.list.mode == "greedy")
    assert greedy.reward == pytest.approx(2.0)


def test_generate_rewarded_lists_validation():
    pool = make_pool(["x"])
    with pytest.raises(ValueError):
        generate_rewarded_lists(pool, RankerConfig(k=1), UniformBackend(1),
                                OracleGenerator(), "a", ["a"], num_samples=0)


def test_pair_invariants_on_serialized_form():
    lists = [rewarded(1.2, "greedy"), rewarded(0.4, "sampled"),
             rewarded(1.9, "sampled")]
    pairs = build_us3_pairs(lists, mu=0.1)
    for p in pairs:
        assert isinstance(p, PreferencePair)
        assert p.gap == pytest.approx(p.winner.reward - p.loser.reward)
        assert p.gap > 0.1
