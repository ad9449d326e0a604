"""Deterministic tokenization and overlap metrics.

Everything downstream (retrieval, silver-list construction, rewards,
evaluation) funnels through these functions, so they are kept pure and
dependency-free.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# ASCII text: A-Z to lowercase, a-z and 0-9 kept, every other character a space
_ASCII_TABLE = {c: (c + 32 if 65 <= c <= 90 else c if chr(c).isalnum() else 32)
                for c in range(128)}


@dataclass(frozen=True)
class OverlapScore:
    precision: float
    recall: float
    f1: float


ZERO_SCORE = OverlapScore(0.0, 0.0, 0.0)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on maximal runs of non-alphanumeric characters.

    ASCII text takes a table translation and a split. Other text keeps the
    regex: lowering some non-ASCII letters ("İ", the Kelvin sign) yields
    ASCII ones.
    """
    if text.isascii():
        return text.translate(_ASCII_TABLE).split()
    return _TOKEN_RE.findall(text.lower())


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def _score(overlap: int, n_cand: int, n_ref: int) -> OverlapScore:
    if n_cand < 1 or n_ref < 1:
        return ZERO_SCORE
    p = overlap / n_cand
    r = overlap / n_ref
    return OverlapScore(p, r, _f1(p, r))


def f1_of(overlap: int, n_cand: int, n_ref: int) -> float:
    """F1 of overlap / n_cand and overlap / n_ref; 0.0 when a side is empty."""
    if n_cand < 1 or n_ref < 1:
        return 0.0
    return _f1(overlap / n_cand, overlap / n_ref)


def clipped_overlap(a: dict, b: dict) -> int:
    """Sum over keys of min(a[key], b[key]), looking the smaller table up in the larger."""
    if len(a) > len(b):
        a, b = b, a
    get = b.get
    total = 0
    for key, n in a.items():
        m = get(key)
        if m:
            total += n if n < m else m
    return total


class Profile:
    """One text's tokens, bigram counts and LCS match masks.

    Bit i of masks[x] is set where tokens[i] == x: the match table (Peq) of
    the bit-parallel LCS. A profile is built once per text and scored
    against many others. The scores read only which tokens are equal, so
    any hashable tokens will do, as long as both sides use the same ones.
    """

    __slots__ = ("tokens", "bigrams", "masks")

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.bigrams = Counter(zip(tokens, tokens[1:]))
        masks: dict = {}
        for i, x in enumerate(tokens):
            masks[x] = masks.get(x, 0) | 1 << i
        self.masks = masks


def profile(text: str) -> Profile:
    return Profile(tokenize(text))


def lcs_length(a: Profile, b: Profile) -> int:
    """LCS length by the bit-parallel row update (Allison & Dix 1986; Hyyro 2004).

    Bit i of v is 0 where the LCS of the prefix of the shorter sequence seen
    so far with the longer one's tokens[:i + 1] is longer than with
    tokens[:i]. The masks of the longer sequence are read and the shorter one
    is stepped over; a token absent from the longer sequence has u = 0 and
    leaves v unchanged, so it is skipped.
    """
    if len(a.tokens) < len(b.tokens):
        a, b = b, a
    if not b.tokens:
        return 0
    masks = a.masks
    full = (1 << len(a.tokens)) - 1
    v = full
    for y in b.tokens:
        m = masks.get(y)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(a.tokens) - v.bit_count()


def rouge2_f1(cand: Profile, ref: Profile) -> float:
    """Rouge-2 F1: clipped bigram overlap."""
    return f1_of(clipped_overlap(cand.bigrams, ref.bigrams),
                 len(cand.tokens) - 1, len(ref.tokens) - 1)


def rougel_f1(cand: Profile, ref: Profile) -> float:
    """Rouge-L F1: longest common subsequence."""
    return f1_of(lcs_length(cand, ref), len(cand.tokens), len(ref.tokens))


def phi_profiles(cand: Profile, ref: Profile) -> float:
    """phi on two profiles: mean of Rouge-2 F1 and Rouge-L F1."""
    return (rouge2_f1(cand, ref) + rougel_f1(cand, ref)) / 2.0


def rouge(candidate: list[str], reference: list[str], variant: str) -> OverlapScore:
    """Rouge score between token sequences.

    variant "bigram": clipped bigram overlap (Rouge-2).
    variant "lcs": longest-common-subsequence precision/recall (Rouge-L).
    An empty side yields an all-zero score.
    """
    if variant == "bigram":
        return _score(clipped_overlap(Profile(candidate).bigrams, Profile(reference).bigrams),
                      len(candidate) - 1, len(reference) - 1)
    if variant == "lcs":
        return _score(lcs_length(Profile(candidate), Profile(reference)),
                      len(candidate), len(reference))
    raise ValueError(f"unknown rouge variant: {variant!r}")


def unigram_f1(candidate: list[str], reference: list[str]) -> OverlapScore:
    """Clipped unigram overlap precision/recall/F1."""
    return _score(clipped_overlap(Counter(candidate), Counter(reference)),
                  len(candidate), len(reference))


def phi(candidate_text: str, reference_text: str) -> float:
    """Coverage score: mean of Rouge-2 F1 and Rouge-L F1 on tokenized inputs."""
    return phi_profiles(profile(candidate_text), profile(reference_text))


class PhiStore:
    """phi of texts against a fixed tuple of references, kept as floats.

    The first time a text is asked for it is profiled once and its whole
    row, phi against every reference, is kept under the text itself; the
    reference profiles are built for that call and dropped. Columns are
    read by reference text.
    """

    def __init__(self, references):
        self.references = tuple(references)
        self._column = {r: j for j, r in enumerate(self.references)}
        self._rows: dict[str, tuple[float, ...]] = {}

    def rows(self, texts, references=None) -> list[list[float]]:
        """out[i][j] == phi(texts[i], references[j]); all references by default.

        Raises ValueError for a reference the store was not made with.
        """
        try:
            cols = ([self._column[r] for r in references] if references is not None
                    else range(len(self.references)))
        except KeyError as err:
            raise ValueError(f"unknown reference: {err.args[0]!r}") from None
        rows = self._rows
        new = [t for t in dict.fromkeys(texts) if t not in rows]
        if new:
            refs = [profile(r) for r in self.references]
            for text in new:
                cand = profile(text)
                rows[text] = tuple([phi_profiles(cand, ref) for ref in refs])
        return [[row[j] for j in cols] for row in map(rows.__getitem__, texts)]


def length_weighted(score, response: Profile, sub_answers: list[Profile]) -> float:
    """Sum of score(response, sub-answer), each sub-answer weighted by its
    token count over all of theirs, so the weights sum to 1.

    Raises ValueError when the sub-answers hold no token.
    """
    total = sum(len(ref.tokens) for ref in sub_answers)
    if total == 0:
        raise ValueError("degenerate sub-answers")
    return sum((len(ref.tokens) / total) * score(response, ref) for ref in sub_answers)


def com_rouge(response: str, sub_answers: list[str]) -> float:
    """Length-weighted phi coverage of a response over sub-answers."""
    return length_weighted(phi_profiles, profile(response),
                           [profile(a) for a in sub_answers])
