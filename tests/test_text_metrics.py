import math
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from facetrank.text_metrics import (_TOKEN_RE, ZERO_SCORE, OverlapScore, PhiStore, Profile,
                                    clipped_overlap, com_rouge, lcs_length, phi,
                                    phi_profiles, rouge, rouge2_f1, rougel_f1,
                                    tokenize, unigram_f1)

tokens = st.lists(st.sampled_from("abcdefgh"), max_size=10)


def brute_bigram_f1(cand, ref):
    """Independent clipped bigram-overlap oracle."""
    cb = Counter(zip(cand, cand[1:]))
    rb = Counter(zip(ref, ref[1:]))
    nc, nr = sum(cb.values()), sum(rb.values())
    if nc == 0 or nr == 0:
        return 0.0
    overlap = sum(min(cb[g], rb[g]) for g in cb)
    p, r = overlap / nc, overlap / nr
    return 2 * p * r / (p + r) if p + r else 0.0


def brute_lcs(a, b):
    """Memoized-recursion LCS oracle, independent of the DP in the package."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def dp_lcs(a, b):
    """Single-row dynamic-programming LCS length, O(len(a) * len(b))."""
    if not a or not b:
        return 0
    row = [0] * (len(b) + 1)
    for x in a:
        prev = 0
        for j, y in enumerate(b, start=1):
            cur = row[j]
            row[j] = prev + 1 if x == y else max(row[j], row[j - 1])
            prev = cur
    return row[-1]


def string_clipped_overlap(cand, ref):
    """The string path before profiles: a Counter intersection per pair."""
    if not cand or not ref:
        return ZERO_SCORE
    overlap = sum((Counter(cand) & Counter(ref)).values())
    p = overlap / len(cand)
    r = overlap / len(ref)
    return OverlapScore(p, r, 2.0 * p * r / (p + r) if p + r > 0 else 0.0)


def string_lcs_length(a, b):
    """The string path before profiles: bit-parallel LCS with the masks of
    the shorter sequence rebuilt per pair, stepping over the longer one."""
    if not a or not b:
        return 0
    if len(a) > len(b):
        a, b = b, a
    masks = {}
    for i, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for y in b:
        m = masks.get(y)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(a) - bin(v).count("1")


def string_rouge(cand, ref, variant):
    if variant == "bigram":
        return string_clipped_overlap(list(zip(cand, cand[1:])), list(zip(ref, ref[1:])))
    if not cand or not ref:
        return ZERO_SCORE
    lcs = string_lcs_length(cand, ref)
    p, r = lcs / len(cand), lcs / len(ref)
    return OverlapScore(p, r, 2.0 * p * r / (p + r) if p + r > 0 else 0.0)


def string_phi_tokens(cand, ref):
    return (string_rouge(cand, ref, "bigram").f1 + string_rouge(cand, ref, "lcs").f1) / 2.0


def test_tokenize_rule():
    assert tokenize("The cat, sat!") == ["the", "cat", "sat"]
    assert tokenize("") == []
    assert tokenize("a-b  C") == ["a", "b", "c"]


def test_tokenize_no_empty_tokens_and_pure():
    text = "..some--WEIRD   input!!"
    out = tokenize(text)
    assert all(out)
    assert out == tokenize(text)


# every ASCII character, plus letters whose lowercase is ASCII ("İ", the
# Kelvin sign) or that stay outside it ("é", "ß")
tokenizer_text = st.text(alphabet=[chr(c) for c in range(128)] + ["İ", "K", "é", "ß"])


@given(tokenizer_text)
@example("")
@example(".,;:!?-_()[]{}'\"/\\@#$%^&*+=<>|~`")
@example("a\tb\nc\rd\x0be\x0cf\x1cg\x1fh\x7fi\x00j")
@example("0 12 345 6789 007")
@example("İstanbul K")
@example("Ünïcode ĞUESS ǅ ﬁ Ⅻ ①")
def test_tokenize_equals_regex(text):
    assert tokenize(text) == _TOKEN_RE.findall(text.lower())


def test_tokenize_non_ascii_examples():
    assert tokenize("İstanbul K") == ["i", "stanbul", "k"]
    assert tokenize("Crème BRÛLÉE") == ["cr", "me", "br", "l", "e"]
    assert tokenize("Tab\there, NEW\nline 42") == ["tab", "here", "new", "line", "42"]


store_texts = st.lists(st.text(alphabet="ab cd.", max_size=30), max_size=6)


@given(store_texts, st.lists(st.text(alphabet="ab cd.", max_size=20), min_size=1,
                             max_size=4))
@example(["a b", "a b", "c"], ["a b", "d"])
def test_phi_store_rows_equal_phi(texts, refs):
    store = PhiStore(refs)
    assert store.rows(texts) == [[phi(t, r) for r in refs] for t in texts]
    # a second call on the same store: other texts, some seen, some not,
    # duplicated
    more = texts[::-1] + ["c d a", "a b"] + texts[:1]
    assert store.rows(more) == [[phi(t, r) for r in refs] for t in more]


def test_phi_store_profiles_each_text_once(monkeypatch):
    store = PhiStore(["a b", "c d"])
    built = []
    init = Profile.__init__

    def counted(self, tokens):
        built.append(tokens)
        init(self, tokens)
    monkeypatch.setattr(Profile, "__init__", counted)
    first = store.rows(["a b c", "x y", "a b c"])
    assert len(built) == 2 + 2  # two distinct texts, two references
    built.clear()
    assert store.rows(["x y", "a b c"]) == [first[1], first[0]]
    assert built == []


def test_rouge_bigram_examples():
    assert rouge(list("abcd"), list("abcd"), "bigram").f1 == 1.0
    score = rouge(list("abcd"), list("abxd"), "bigram")
    assert score.precision == score.recall == pytest.approx(1 / 3)
    assert score.f1 == pytest.approx(1 / 3)


def test_rouge_lcs_example():
    score = rouge(list("abcd"), list("acbd"), "lcs")
    assert score.precision == score.recall == score.f1 == pytest.approx(3 / 4)


def test_rouge_empty_sides():
    assert rouge([], list("ab"), "bigram").f1 == 0.0
    assert rouge(list("ab"), [], "lcs").f1 == 0.0


def test_rouge_unknown_variant():
    with pytest.raises(ValueError):
        rouge(["a"], ["a"], "trigram")


def test_unigram_f1_examples():
    assert unigram_f1(list("abc"), list("abc")).f1 == 1.0
    assert unigram_f1(list("abc"), list("bcd")).f1 == pytest.approx(2 / 3)
    assert unigram_f1([], ["a"]).f1 == 0.0


def test_phi_examples():
    assert phi("same text here", "same text here") == 1.0
    assert phi("a b c d", "a b x d") == pytest.approx(13 / 24)
    assert phi("anything", "") == 0.0


def test_com_rouge_examples():
    assert com_rouge("x y z", ["x y z"]) == pytest.approx(1.0)
    # 3-token sub-answer fully covered, 1-token disjoint one not
    assert com_rouge("x y z", ["x y z", "q"]) == pytest.approx(0.75)
    assert com_rouge("foo bar", ["baz qux"]) == 0.0


def test_com_rouge_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        com_rouge("x", ["", "..."])
    with pytest.raises(ValueError):
        com_rouge("x", [])


@given(tokens, tokens)
def test_bigram_f1_matches_bruteforce(cand, ref):
    score = rouge(cand, ref, "bigram")
    assert score.f1 == pytest.approx(brute_bigram_f1(cand, ref), abs=1e-12)


@given(tokens, tokens)
def test_lcs_matches_bruteforce(cand, ref):
    score = rouge(cand, ref, "lcs")
    if not cand or not ref:
        assert score.f1 == 0.0
    else:
        lcs = brute_lcs(tuple(cand), tuple(ref))
        assert score.precision == pytest.approx(lcs / len(cand))
        assert score.recall == pytest.approx(lcs / len(ref))


def small_alphabet_tokens(alphabet):
    return st.integers(0, 200).flatmap(
        lambda n: st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))


# 2-4 symbols and lengths drawn uniformly up to 200: heavy repetition, and
# masks that span several 64-bit words on either side
small_alphabet_pairs = st.sampled_from(["ab", "abc", "abcd"]).flatmap(
    lambda alphabet: st.tuples(small_alphabet_tokens(alphabet),
                               small_alphabet_tokens(alphabet)))


@settings(deadline=None)
@given(small_alphabet_pairs)
@example((list("ab" * 100), list("ba" * 40)))
@example((list("abc" * 5), list("cab" * 60)))
@example((list("abc" * 60), list("cba" * 30)))
@example(([], list("abc")))
@example((list("abc"), []))
def test_bit_parallel_lcs_matches_dp(pair):
    a, b = pair
    assert lcs_length(Profile(a), Profile(b)) == dp_lcs(a, b)
    assert lcs_length(Profile(b), Profile(a)) == dp_lcs(a, b)


@settings(deadline=None)
@given(small_alphabet_pairs)
@example(([], []))
@example(([], ["a"]))
@example((["a"], ["a"]))
@example((["a"], list("ab" * 40)))
@example((list("aab" * 30), list("abb" * 25)))
@example((list("ab" * 100), list("ba" * 40)))
def test_profile_kernel_equals_string_oracles(pair):
    a, b = pair
    pa, pb = Profile(a), Profile(b)
    for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa)):
        assert lcs_length(px, py) == string_lcs_length(x, y)
        assert clipped_overlap(Counter(x), Counter(y)) == \
            sum((Counter(x) & Counter(y)).values())
        assert rouge(x, y, "bigram") == string_rouge(x, y, "bigram")
        assert rouge(x, y, "lcs") == string_rouge(x, y, "lcs")
        assert unigram_f1(x, y) == string_clipped_overlap(x, y)
        assert rouge2_f1(px, py) == string_rouge(x, y, "bigram").f1
        assert rougel_f1(px, py) == string_rouge(x, y, "lcs").f1
        assert phi_profiles(px, py) == string_phi_tokens(x, y)


texts = st.lists(st.text(alphabet="ab cd.", max_size=30), max_size=4)


@given(texts, texts)
def test_phi_matrix_equals_phi(cands, refs):
    out = PhiStore(refs).rows(cands)
    assert out == [[phi(c, r) for r in refs] for c in cands]


@given(tokens, tokens)
def test_score_bounds_and_f1_zero_iff(cand, ref):
    for variant in ("bigram", "lcs"):
        s = rouge(cand, ref, variant)
        assert 0 <= s.precision <= 1 and 0 <= s.recall <= 1 and 0 <= s.f1 <= 1
        assert (s.f1 == 0) == (s.precision * s.recall == 0)


@given(st.lists(st.text(alphabet="abc xyz", min_size=1), min_size=1, max_size=5))
def test_com_rouge_weights_sum_to_one(sub_answers):
    counts = [len(tokenize(a)) for a in sub_answers]
    total = sum(counts)
    if total == 0:
        return
    weights = [c / total for c in counts]
    assert math.isclose(sum(weights), 1.0, abs_tol=1e-9)
    # response equal to the concatenation bounds the score by 1
    resp = " ".join(sub_answers)
    assert 0 <= com_rouge(resp, sub_answers) <= 1 + 1e-12
