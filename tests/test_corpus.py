import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from facetrank.corpus import Document, build_index, load_corpus, retrieve
from facetrank.pipeline import load_config, run_stage
from facetrank.text_metrics import tokenize


def docs(*texts):
    return [Document(f"d{i}", "", t) for i, t in enumerate(texts)]


def test_build_index_counts():
    index = build_index(docs("a b", "b c", "d e"))
    assert index.doc_count == 3
    assert set(index.terms) == {"a", "b", "c", "d", "e"}


@pytest.mark.parametrize("ids,repeated", [
    (("d1", "d1"), "d1"),
    (("d1", "d0", "d1"), "d1"),
    (("d0", "d9", "d1", "d9"), "d9"),
], ids=["adjacent", "apart", "sorts-last"])
def test_build_index_duplicate_id(ids, repeated):
    bad = [Document(d, "", "x") for d in ids]
    with pytest.raises(ValueError, match=f"^duplicate doc_id {repeated}$"):
        build_index(bad)


def test_empty_document_is_reported_before_a_repeated_id(tmp_path, synthetic_paths):
    """build_index reads every document before it sorts their ids, so an
    empty document is its error; a pipeline run parses the corpus with
    load_corpus first, which rejects the repeated id."""
    lines = [{"doc_id": "d1", "text": "x"}, {"doc_id": "d1", "text": "y"},
             {"doc_id": "d0", "text": "!!!"}]
    with pytest.raises(ValueError, match="^document d0 tokenizes to empty$"):
        build_index([Document(o["doc_id"], "", o["text"]) for o in lines])
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(o) + "\n" for o in lines))
    with pytest.raises(ValueError, match="duplicate doc_id d1 at lines 1 and 2$"):
        run_stage("index", load_config(None), synthetic_paths[0], str(path),
                  str(tmp_path / "run"))


def test_build_index_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        build_index([])


def test_avg_doc_length_single_doc():
    index = build_index(docs("one two three four"))
    assert index.avg_doc_length == 4


def test_avg_doc_length_is_mean():
    documents = docs("a b", "a b c d")
    index = build_index(documents)
    _postings, doc_lengths = dict_build_index(documents)
    assert math.isclose(index.avg_doc_length,
                        sum(doc_lengths.values()) / index.doc_count,
                        abs_tol=1e-9)


def test_title_is_indexed():
    index = build_index([Document("d0", "tiger", "stripes")])
    assert "tiger" in index.terms


def test_load_corpus_reads_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "d0", "title": "t", "text": "x"}\n\n  \n'
                    '{"doc_id": "d1", "text": "y"}\n')
    assert list(load_corpus(str(path)).items()) == [("d0", Document("d0", "t", "x")),
                                                    ("d1", Document("d1", "", "y"))]


@pytest.mark.parametrize("line,error", [
    ('{"doc_id":"d","text":"x"} junk', json.JSONDecodeError),
    ('{"doc_id":"d","text":"x"}{}', json.JSONDecodeError),
    ('{"doc_id":"d"', json.JSONDecodeError),
    ('{"doc_id":"d","title":"t"}', KeyError),
    ('{"doc_id":5,"text":"x"}', ValueError),
    ('{"doc_id":"d","text":5}', ValueError),
    ('{"doc_id":"d","title":null,"text":"x"}', ValueError),
    ('["d","t","x"]', ValueError),
])
def test_load_corpus_rejects_bad_lines(tmp_path, line, error):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "ok", "text": "fine"}\n' + line + "\n")
    with pytest.raises(error):
        load_corpus(str(path))


@pytest.mark.parametrize("field,line", [
    ("doc_id", '{"title":"t","text":"x"}'),
    ("text", '{"doc_id":"d","title":"t"}'),
])
def test_load_corpus_names_missing_field(tmp_path, field, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "ok", "text": "fine"}\n' + line + "\n")
    with pytest.raises(KeyError, match=f"{re.escape(str(path))}: document at line 2 "
                                       f"missing field '{field}'"):
        load_corpus(str(path))


def test_load_corpus_rejects_duplicate_doc_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "a", "text": "x"}\n\n{"doc_id": "b", "text": "y"}\n'
                    '{"doc_id": "a", "text": "z"}\n')
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: duplicate doc_id a "
                                         "at lines 1 and 4$"):
        load_corpus(str(path))


@pytest.mark.parametrize("field,line", [
    ("doc_id", '{"doc_id":5,"text":"x"}'),
    ("title", '{"doc_id":"d","title":["t"],"text":"x"}'),
    ("text", '{"doc_id":"d","title":"t","text":null}'),
])
def test_load_corpus_names_field_of_wrong_type(tmp_path, field, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"doc_id": "ok", "text": "fine"}\n' + line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: document at line 2: "
                                         f"{field} must be a string$"):
        load_corpus(str(path))


def test_unique_term_ranks_its_doc_first():
    index = build_index(docs("apple fruit", "zebra animal", "apple tree"))
    ranked = retrieve(index, "zebra", 3)
    assert ranked[0][0] == "d1"
    assert len(ranked) == 1


def test_no_match_returns_empty():
    index = build_index(docs("a b", "c d"))
    assert retrieve(index, "zzz", 5) == []


def test_n_larger_than_corpus_no_padding():
    index = build_index(docs("common x", "common y"))
    assert len(retrieve(index, "common", 50)) == 2


def test_empty_query_error():
    index = build_index(docs("a b"))
    with pytest.raises(ValueError, match="empty query"):
        retrieve(index, "!!!", 3)


def test_scores_positive_and_deterministic():
    index = build_index(docs("a b c", "a a b", "c d"))
    out1 = retrieve(index, "a c", 10)
    out2 = retrieve(index, "a c", 10)
    assert out1 == out2
    assert all(s > 0 and math.isfinite(s) for _, s in out1)


def brute_bm25(documents, query, k1=1.2, b=0.75):
    """Full-scan BM25 oracle over raw documents."""
    toks = [tokenize(d.title + " " + d.text) for d in documents]
    n = len(documents)
    avgdl = sum(len(t) for t in toks) / n
    q = tokenize(query)
    out = []
    for d, dt in zip(documents, toks):
        score = 0.0
        matched = False
        for term in q:
            tf = dt.count(term)
            if tf == 0:
                continue
            matched = True
            df = sum(1 for other in toks if term in other)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(dt) / avgdl))
        if matched:
            out.append((d.doc_id, score))
    out.sort(key=lambda kv: (-kv[1], kv[0]))
    return out


corpus_strategy = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8).map(" ".join),
    min_size=1, max_size=20,
)


@settings(max_examples=50, deadline=None)
@given(corpus_strategy, st.lists(st.sampled_from("abcdef"), min_size=1, max_size=3))
def test_retrieve_matches_fullscan_oracle(texts, query_tokens):
    documents = docs(*texts)
    index = build_index(documents)
    query = " ".join(query_tokens)
    expected = brute_bm25(documents, query)
    got = retrieve(index, query, len(texts))
    assert [d for d, _ in got] == [d for d, _ in expected]
    for (_, s1), (_, s2) in zip(got, expected):
        assert s1 == pytest.approx(s2, abs=1e-9)


def dict_build_index(documents):
    """The dict-of-postings index build_index replaced: term -> [(doc_id, tf)]
    in corpus order, plus doc_id -> length."""
    postings, doc_lengths = {}, {}
    for doc in documents:
        tokens = tokenize(doc.title + " " + doc.text)
        doc_lengths[doc.doc_id] = len(tokens)
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, []).append((doc.doc_id, tf))
    return postings, doc_lengths


def assert_same_index(got, want):
    for name in ("indptr", "doc_pos", "tf", "norm", "rank"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.terms == want.terms
    assert got.doc_ids == want.doc_ids
    assert got.avg_doc_length == want.avg_doc_length


def test_build_index_reads_a_one_shot_iterator(synthetic_paths):
    documents = list(load_corpus(synthetic_paths[1]).values())
    assert_same_index(build_index(iter(documents)), build_index(documents))


@settings(max_examples=100, deadline=None)
@given(corpus_strategy)
def test_one_shot_index_equals_dict_oracle(texts):
    documents = docs(*texts)
    index = build_index(iter(documents))
    assert_same_index(index, build_index(documents))
    postings, doc_lengths = dict_build_index(documents)
    assert {term: [(index.doc_ids[p], tf) for p, tf in zip(
                index.doc_pos[index.indptr[t]:index.indptr[t + 1]].tolist(),
                index.tf[index.indptr[t]:index.indptr[t + 1]].tolist())]
            for term, t in index.terms.items()} == postings
    assert index.doc_ids == list(doc_lengths)
    assert [index.doc_ids[i] for i in np.argsort(index.rank)] == sorted(index.doc_ids)


def dict_retrieve(oracle, query, n, k1, b):
    """The scalar BM25 loop retrieve() replaced, over dict_build_index's
    postings: a score dict per query, sorted by (-score, doc_id)."""
    postings, doc_lengths = oracle
    count = len(doc_lengths)
    avg = sum(doc_lengths.values()) / count
    scores = {}
    for term in tokenize(query):
        if term not in postings:
            continue
        df = len(postings[term])
        idf = math.log1p((count - df + 0.5) / (df + 0.5))
        for doc_id, tf in postings[term]:
            dl = doc_lengths[doc_id]
            denom = tf + k1 * (1 - b + b * dl / avg)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (k1 + 1) / denom
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:n]


@st.composite
def index_and_queries(draw):
    # few symbols and short documents make repeated texts, hence tied
    # scores; doc ids are numbered in a shuffled order, so corpus order,
    # numeric order and string order ("d10" < "d2") all differ
    texts = draw(st.lists(
        st.lists(st.sampled_from("abcd"), min_size=1, max_size=6).map(" ".join),
        min_size=1, max_size=25))
    numbers = draw(st.permutations(range(len(texts))))
    documents = [Document(f"d{i}", "", t) for i, t in zip(numbers, texts)]
    k1 = draw(st.sampled_from([1.2, 0.0, 0.5, 2.0]) | st.floats(0.01, 3.0))
    b = draw(st.sampled_from([0.75, 0.0, 1.0]) | st.floats(0.0, 1.0))
    # "x" and "y" never occur in the corpus; a token can repeat in a query
    queries = draw(st.lists(
        st.lists(st.sampled_from("abcdxy"), min_size=1, max_size=5).map(" ".join),
        min_size=1, max_size=4))
    n = draw(st.integers(1, 30))
    return build_index(documents, k1=k1, b=b), dict_build_index(documents), queries, n


@settings(max_examples=300, deadline=None)
@given(index_and_queries())
def test_retrieve_equals_dict_oracle(case):
    index, oracle, queries, n = case
    postings, _ = oracle
    assert set(index.terms) == set(postings)
    for term, t in index.terms.items():
        assert index.indptr[t + 1] - index.indptr[t] == len(postings[term])
    for query in queries:
        assert retrieve(index, query, n) == dict_retrieve(oracle, query, n,
                                                          index.k1, index.b)


def test_retrieve_breaks_ties_by_doc_id_string():
    index = build_index([Document(d, "", "same text") for d in ("d2", "d10", "d1")])
    assert [d for d, _ in retrieve(index, "text", 3)] == ["d1", "d10", "d2"]
