import pytest

from facetrank.corpus import Document, build_index
from facetrank.pool import merge_pool, pool_from_dict, pool_to_dict, retrieve_per_aspect


def doc_map(*ids):
    return {i: Document(i, "", f"text of {i}") for i in ids}


def aspects(n):
    return tuple(f"aspect{i}" for i in range(n))


def as_lists(*id_lists):
    return [[(d, 1.0 / (r + 1)) for r, d in enumerate(ids)] for ids in id_lists]


def test_merge_dedups_and_collects_aspects():
    lists = as_lists(["d", "x"], ["y"], ["d", "z"])
    pool = merge_pool("q", aspects(3), lists, 10, doc_map("d", "x", "y", "z"))
    first = pool.candidates[0]
    assert first.doc.doc_id == "d"
    assert pool_to_dict("qid", pool)["candidates"][0]["aspect_set"] == [0, 2]
    assert first.best_rank == {0: 1, 2: 1}


def test_merge_interleave_order_and_capacity():
    lists = as_lists(["a", "b", "c"], ["x", "y", "z"])
    pool = merge_pool("q", aspects(2), lists, 4, doc_map("a", "b", "c", "x", "y", "z"))
    assert [c.doc.doc_id for c in pool.candidates] == ["a", "x", "b", "y"]
    assert [c["pool_index"] for c in pool_to_dict("qid", pool)["candidates"]] == \
        [0, 1, 2, 3]


def test_merge_single_list_preserves_order():
    lists = as_lists(["p", "q", "r"])
    pool = merge_pool("q", aspects(1), lists, 10, doc_map("p", "q", "r"))
    assert [c.doc.doc_id for c in pool.candidates] == ["p", "q", "r"]


def test_merge_empty_lists_yield_empty_pool():
    pool = merge_pool("q", aspects(2), [[], []], 5, {})
    assert pool.candidates == []


def test_merge_pool_size_invariant():
    lists = as_lists(["a", "b"], ["b", "c"], ["c", "a"])
    pool = merge_pool("q", aspects(3), lists, 2, doc_map("a", "b", "c"))
    assert len(pool.candidates) == 2
    # dropped docs may still be referenced by admitted candidates' aspect sets
    for cand in pool.candidates:
        for aspect_idx, rank in cand.best_rank.items():
            assert lists[aspect_idx][rank - 1][0] == cand.doc.doc_id


def test_merge_aspect_set_updated_beyond_capacity():
    # doc "a" admitted from list 0; its later occurrence in list 1 must still
    # be recorded even after the pool is full
    lists = as_lists(["a", "b"], ["c", "a"])
    pool = merge_pool("q", aspects(2), lists, 2, doc_map("a", "b", "c"))
    by_id = {c["doc_id"]: c for c in pool_to_dict("qid", pool)["candidates"]}
    assert by_id["a"]["aspect_set"] == [0, 1]
    assert by_id["a"]["best_rank"] == {"0": 1, "1": 2}


def test_merge_determinism():
    lists = as_lists(["a", "b", "c"], ["b", "d"], ["e"])
    dm = doc_map("a", "b", "c", "d", "e")
    p1 = merge_pool("q", aspects(3), lists, 4, dm)
    p2 = merge_pool("q", aspects(3), lists, 4, dm)
    assert pool_to_dict("qid", p1) == pool_to_dict("qid", p2)


def test_merge_capacity_validation():
    with pytest.raises(ValueError):
        merge_pool("q", aspects(1), [[]], 0, {})


def test_retrieve_per_aspect_concatenates_with_space():
    docs = [Document("d0", "", "blue whale ocean"), Document("d1", "", "red fox forest")]
    index = build_index(docs)
    asp = ("ocean", "forest")
    lists = retrieve_per_aspect(index, "animal", asp, 50)
    assert len(lists) == 2
    assert lists[0][0][0] == "d0"
    assert lists[1][0][0] == "d1"


def test_retrieve_per_aspect_empty_list_for_unmatched_aspect():
    index = build_index([Document("d0", "", "alpha beta")])
    asp = ("nomatch",)
    assert retrieve_per_aspect(index, "zzz", asp, 5) == [[]]


def test_pool_serialization_roundtrip():
    lists = as_lists(["a", "b"], ["b", "c"])
    dm = doc_map("a", "b", "c")
    pool = merge_pool("the query", aspects(2), lists, 10, dm)
    obj = pool_to_dict("q1", pool)
    assert obj["query_id"] == "q1"
    restored = pool_from_dict(obj, "the query", dm)
    assert restored.aspects == pool.aspects == ("aspect0", "aspect1")
    assert [c.doc.doc_id for c in restored.candidates] == \
        [c.doc.doc_id for c in pool.candidates]
    assert [c.best_rank for c in restored.candidates] == \
        [c.best_rank for c in pool.candidates]
    assert pool_to_dict("q1", restored) == obj
