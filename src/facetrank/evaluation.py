"""Response metrics, ranking metrics, list comprehensiveness, and RRF.

Response metrics compare a generated answer against the gold answer and
sub-answers; ranking metrics use binary relevance labels: a document is
relevant when it covers some sub-answer past a threshold. Relevance and
comprehensiveness read the sub-answers, and their phi, from one `PhiStore`.
"""

from __future__ import annotations

import math

from .corpus import Document
from .silver import Coverage
from .text_metrics import (PhiStore, length_weighted, profile, rouge2_f1, rougel_f1,
                           unigram_f1)


def evaluate_response(response: str, answer: str, sub_answers: list[str]) -> dict[str, float]:
    """F1 / R2 / RL against the answer, CR2 / CRL against the sub-answers.

    Raises ValueError when the sub-answers hold no token.
    """
    resp = profile(response)
    ans = profile(answer)
    refs = [profile(a) for a in sub_answers]
    return {
        "f1": unigram_f1(resp.tokens, ans.tokens).f1,
        "r2": rouge2_f1(resp, ans),
        "rl": rougel_f1(resp, ans),
        "cr2": length_weighted(rouge2_f1, resp, refs),
        "crl": length_weighted(rougel_f1, resp, refs),
    }


def label_relevance(docs: list[Document], store: PhiStore,
                    threshold: float = 0.5) -> set[str]:
    """Doc ids whose coverage of some reference of `store`, some sub-answer,
    strictly exceeds threshold."""
    if not 0 <= threshold <= 1:
        raise ValueError("threshold must lie in [0, 1]")
    rows = store.rows([d.text for d in docs])
    return {d.doc_id for d, row in zip(docs, rows) if any(c > threshold for c in row)}


def ranking_metrics(ranked_docids: list[str], relevant: set[str],
                    cutoffs: list[int]) -> dict[str, float]:
    """Binary-gain MAP and NDCG@k; zero (flagged) when nothing is relevant.
    A repeated document is a hit at its first position only, as in trec_eval."""
    if any(c < 1 for c in cutoffs):
        raise ValueError("cutoffs must be positive")
    out: dict[str, float] = {}
    n_rel = len(relevant)
    out["no_relevant"] = float(n_rel == 0)
    hits = [1.0 if d in relevant and ranked_docids.index(d) == pos else 0.0
            for pos, d in enumerate(ranked_docids)]
    if n_rel == 0:
        out["map"] = 0.0
        for c in cutoffs:
            out[f"ndcg@{c}"] = 0.0
        return out
    # MAP with denominator = total relevant count
    ap, seen = 0.0, 0
    for pos, h in enumerate(hits, start=1):
        if h:
            seen += 1
            ap += seen / pos
    out["map"] = ap / n_rel
    for c in cutoffs:
        dcg = sum(h / math.log2(pos + 1) for pos, h in enumerate(hits[:c], start=1))
        ideal_hits = min(c, n_rel)
        idcg = sum(1.0 / math.log2(pos + 1) for pos in range(1, ideal_hits + 1))
        out[f"ndcg@{c}"] = dcg / idcg if idcg > 0 else 0.0
    return out


def com_score(doc_texts: list[str], store: PhiStore) -> float:
    """Cumulative weighted coverage of an ordered list of documents against
    the store's references, the sub-answers."""
    state = Coverage([0.0] * len(store.references))
    total = 0.0
    for row in store.rows(doc_texts):
        total += state.gain(row)
        state = state.plus(row)
    return total


def ncom(ranked_doc_texts: list[str], silver_doc_texts: list[str],
         store: PhiStore) -> float:
    """Comprehensiveness of a list, normalized by the silver list's.

    Both lists must have the same length (the silver k). A zero silver
    score defines NCOM as 0.
    """
    if len(ranked_doc_texts) != len(silver_doc_texts):
        raise ValueError("list length does not match silver k")
    denom = com_score(silver_doc_texts, store)
    if denom == 0:
        return 0.0
    return com_score(ranked_doc_texts, store) / denom


def rrf_fuse(per_aspect_lists: list[list[str]], k_rrf: float = 60.0,
             top: int | None = None) -> list[str]:
    """Reciprocal rank fusion: score(d) = sum over lists of 1/(k + rank)."""
    if k_rrf <= 0:
        raise ValueError("k_rrf must be positive")
    scores: dict[str, float] = {}
    for lst in per_aspect_lists:
        for rank_pos, doc_id in enumerate(lst, start=1):
            scores[doc_id] = scores.get(doc_id, 0.0) + 1.0 / (k_rrf + rank_pos)
    fused = sorted(scores, key=lambda d: (-scores[d], d))
    return fused if top is None else fused[:top]
