import random

import pytest

from conftest import make_pool
from facetrank.silver import aspect_weights, build_silver_list, coverage_gain
from facetrank.text_metrics import phi


def test_aspect_weights_no_selection():
    assert aspect_weights([], ["ans one", "ans two"]) == [1.0, 1.0]


def test_aspect_weights_normalization_arithmetic():
    # derive the coverage vector with phi, then check the 1 - Norm step
    doc = "alpha beta gamma"
    subs = ["alpha beta gamma", "alpha delta"]
    c = [phi(doc, a) for a in subs]
    w = aspect_weights([doc], subs)
    total = sum(c)
    assert w == pytest.approx([1 - c[0] / total, 1 - c[1] / total])
    assert all(0 <= wi <= 1 for wi in w)


def test_aspect_weights_full_single_coverage():
    # one doc fully covering aspect 1 only -> w = (0, 1)
    assert aspect_weights(["red fox jumps"],
                          ["red fox jumps", "blue whale swims"]) == [0.0, 1.0]


def test_aspect_weights_zero_coverage_convention():
    assert aspect_weights(["nothing shared"], ["aaa bbb", "ccc ddd"]) == [1.0, 1.0]


def test_aspect_weights_empty_sub_answers():
    with pytest.raises(ValueError):
        aspect_weights([], [])


def test_coverage_gain_arithmetic():
    subs = ["x1 x2 x3", "y1 y2 y3"]
    doc = "x1 x2 z"
    w = [0.25, 0.75]
    expected = 0.25 * phi(doc, subs[0]) + 0.75 * phi(doc, subs[1])
    assert coverage_gain(doc, w, subs) == pytest.approx(expected)


def test_coverage_gain_zero_weights_and_disjoint():
    subs = ["a b", "c d"]
    assert coverage_gain("a b", [0.0, 0.0], subs) == 0.0
    assert coverage_gain("zz yy", [1.0, 1.0], subs) == 0.0


def test_coverage_gain_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        coverage_gain("x", [1.0], ["a", "b"])


def prefix_weights(pool, target, t, subs):
    """The aspect weights the silver list's step t read: those of its first
    t documents."""
    return aspect_weights([pool.candidates[i].doc.text for i in target.docids[:t]], subs)


def test_build_silver_pool_of_one():
    subs = ["alpha beta", "gamma delta"]
    pool = make_pool(["alpha beta something"])
    target = build_silver_list(pool, subs, 1)
    assert target.docids == [0]
    expected = sum(phi(pool.candidates[0].doc.text, a) for a in subs)
    assert target.step_utilities[0] == pytest.approx(expected)
    assert prefix_weights(pool, target, 0, subs) == [1.0, 1.0]


def test_build_silver_diversifies_across_aspects():
    # d0 covers sub-answer 1 fully, d1 covers sub-answer 2 fully, d2 covers
    # both partially; step 1 takes d0 (tie with d1 at 1.0 broken by index),
    # step 2 shifts all weight to sub-answer 2 and takes d1
    a1 = "alpha beta gamma"
    a2 = "delta eps zeta"
    pool = make_pool([a1, a2, "alpha beta delta eps"])
    both = pool.candidates[2].doc.text
    assert phi(both, a1) + phi(both, a2) < 1.0 + phi(a1, a2) + 1e-9
    target = build_silver_list(pool, [a1, a2], 2)
    assert target.docids == [0, 1]
    assert prefix_weights(pool, target, 1, [a1, a2]) == [0.0, 1.0]
    assert target.step_utilities == pytest.approx([1.0, 1.0])


def test_build_silver_all_disjoint_falls_back_to_pool_order():
    pool = make_pool(["qq ww", "ee rr", "tt yy"])
    target = build_silver_list(pool, ["zz xx"], 3)
    assert target.docids == [0, 1, 2]
    assert target.step_utilities == [0.0, 0.0, 0.0]


def test_build_silver_k_exceeds_pool():
    pool = make_pool(["a b"])
    with pytest.raises(ValueError, match="exceeds pool"):
        build_silver_list(pool, ["a"], 2)


def random_instance(rng):
    vocab = ["w%d" % i for i in range(12)]
    n_docs = rng.randint(2, 8)
    n_subs = rng.randint(1, 4)
    texts = [" ".join(rng.choices(vocab, k=rng.randint(1, 8))) for _ in range(n_docs)]
    subs = [" ".join(rng.choices(vocab, k=rng.randint(1, 6))) for _ in range(n_subs)]
    k = rng.randint(1, min(3, n_docs))
    return texts, subs, k


def oracle_step(texts, subs, chosen):
    """Recompute the greedy step from scratch: weights then argmax."""
    cov = [max((phi(texts[i], a) for i in chosen), default=0.0) for a in subs]
    s = sum(cov)
    w = [1.0] * len(subs) if s == 0 else [1 - c / s for c in cov]
    best, best_gain = None, -1.0
    for i in range(len(texts)):
        if i in chosen:
            continue
        gain = sum(wi * phi(texts[i], a) for wi, a in zip(w, subs))
        if gain > best_gain:
            best, best_gain = i, gain
    return best, best_gain, w


def test_greedy_certificate_random_instances():
    rng = random.Random(1234)
    for _ in range(60):
        texts, subs, k = random_instance(rng)
        pool = make_pool(texts)
        target = build_silver_list(pool, subs, k)
        chosen = []
        for t in range(k):
            best, gain, w = oracle_step(texts, subs, chosen)
            assert target.docids[t] == best
            assert target.step_utilities[t] == pytest.approx(gain, abs=1e-12)
            weights = prefix_weights(pool, target, t, subs)
            assert weights == pytest.approx(w, abs=1e-12)
            assert all(0 <= wi <= 1 for wi in weights)
            chosen.append(best)
        assert len(set(target.docids)) == k
        assert all(u >= 0 for u in target.step_utilities)


def reference_greedy(texts, subs, k):
    """The greedy loop that recomputes phi at every step."""
    docids, utilities = [], []
    remaining = list(range(len(texts)))
    for _ in range(k):
        w = aspect_weights([texts[i] for i in docids], subs)
        best, best_gain = None, -1.0
        for i in remaining:
            gain = coverage_gain(texts[i], w, subs)
            if gain > best_gain:
                best, best_gain = i, gain
        docids.append(best)
        utilities.append(best_gain)
        remaining.remove(best)
    return docids, utilities


def test_build_silver_equals_reference_greedy():
    rng = random.Random(99)
    vocab = ["w%d" % i for i in range(6)]
    for _ in range(40):
        n_docs = rng.randint(1, 30)
        texts = [" ".join(rng.choices(vocab, k=rng.randint(0, 80))) for _ in range(n_docs)]
        subs = [" ".join(rng.choices(vocab, k=rng.randint(0, 12)))
                for _ in range(rng.randint(1, 5))]
        k = rng.randint(1, n_docs)
        target = build_silver_list(make_pool(texts), subs, k)
        assert (target.docids, target.step_utilities) == reference_greedy(texts, subs, k)
