"""Per-aspect retrieval and candidate-pool merging.

Each aspect is retrieved by concatenating it to the original query. The
merge deduplicates across per-aspect lists with a rank-interleaved
round-robin so a capacity cut keeps per-aspect balance; each surviving
candidate remembers which aspects retrieved it and at what rank.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Document, InvertedIndex, retrieve


@dataclass
class Candidate:
    doc: Document
    best_rank: dict[int, int]  # aspect index -> 1-based retrieval rank


@dataclass
class CandidatePool:
    query: str
    aspects: tuple[str, ...]  # aspect texts, in aspect-index order
    candidates: list[Candidate]  # in admission order


def retrieve_per_aspect(index: InvertedIndex, query: str, aspects: tuple[str, ...],
                        n: int) -> list[list[tuple[str, float]]]:
    """Retrieve top-n documents for every "query aspect" concatenation."""
    return [retrieve(index, f"{query} {a}", n) for a in aspects]


def merge_pool(query: str, aspects: tuple[str, ...],
               per_aspect_lists: list[list[tuple[str, float]]],
               capacity: int, documents: dict[str, Document]) -> CandidatePool:
    """Deduplicating interleaved merge of per-aspect retrieval lists.

    Rank positions are visited in order and, within a position, aspect
    lists in aspect order. The first occurrence of a doc_id admits it (up
    to `capacity` admissions); later occurrences only extend its aspect
    associations.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    admitted: dict[str, Candidate] = {}
    max_len = max((len(lst) for lst in per_aspect_lists), default=0)
    for pos in range(max_len):
        for aspect_idx, lst in enumerate(per_aspect_lists):
            if pos >= len(lst):
                continue
            doc_id, _score = lst[pos]
            cand = admitted.get(doc_id)
            if cand is None:
                if len(admitted) >= capacity:
                    continue
                admitted[doc_id] = Candidate(documents[doc_id], {aspect_idx: pos + 1})
            elif aspect_idx not in cand.best_rank:
                cand.best_rank[aspect_idx] = pos + 1
    return CandidatePool(query, aspects, list(admitted.values()))


def pool_to_dict(query_id: str, pool: CandidatePool) -> dict:
    """Serializable cache form of a pool (doc texts live in the corpus).

    Each candidate also records its list position (`pool_index`) and the
    ascending indices of the aspects that retrieved it (`aspect_set`).
    """
    return {
        "query_id": query_id,
        "aspects": list(pool.aspects),
        "candidates": [
            {
                "pool_index": i,
                "doc_id": c.doc.doc_id,
                "aspect_set": sorted(c.best_rank),
                "best_rank": {str(k): v for k, v in sorted(c.best_rank.items())},
            }
            for i, c in enumerate(pool.candidates)
        ],
    }


def pool_from_dict(obj: dict, query: str,
                   documents: dict[str, Document]) -> CandidatePool:
    candidates = [
        Candidate(documents[c["doc_id"]],
                  {int(k): v for k, v in c["best_rank"].items()})
        for c in obj["candidates"]
    ]
    return CandidatePool(query, tuple(obj["aspects"]), candidates)
