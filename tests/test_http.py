"""Fault injection for the HTTP clients against a local server on 127.0.0.1.

Each test scripts the server's replies, one per request (or as a function
of the request's payload), and checks what the client returns or raises
and how many attempts it made.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import sleep

import pytest

from facetrank.aspects import (EXPLORER_PROMPT, HttpLlmClient, RemoteError, SubAspectList,
                               format_target, post_json)
from facetrank.pipeline import STAGES, RunConfig, _make_backend, load_dataset, run_stage
from facetrank.preferences import HttpGenerator
from facetrank.ranker import RemoteBackend
from conftest import make_pool


def reply(obj=None, status=200, delay=0.0, body=None):
    return delay, status, json.dumps(obj).encode() if body is None else body


class _Server(ThreadingHTTPServer):
    daemon_threads = False  # server_close() joins handlers still sleeping

    def handle_error(self, request, client_address):
        pass  # a client that timed out has closed the connection


@pytest.fixture
def server(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    script, received = [], []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            received.append(payload)
            delay, status, body = httpd.respond(payload)
            sleep(delay)
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    httpd = _Server(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.02})
    thread.start()
    httpd.url = f"http://127.0.0.1:{httpd.server_address[1]}/"
    httpd.script, httpd.received = script, received
    httpd.respond = lambda payload: script.pop(0)
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _llm(url, retries):
    return HttpLlmClient(url, timeout=5, retries=retries).complete("p", 7)


def _generator(url, retries):
    return HttpGenerator(url, timeout=5, retries=retries).generate("q", ["d"])


def _backend(url, retries):
    backend = RemoteBackend(url, "q", ("a",), ["x", "y"], timeout=5,
                            retries=retries)
    return list(backend.step_scores([1]))


CLIENTS = {"llm": (_llm, "out"), "generator": (_generator, "out"),
           "backend": (_backend, [0.5, 1.5])}


@pytest.mark.parametrize("client", sorted(CLIENTS))
def test_5xx_then_success(server, client):
    call, expected = CLIENTS[client]
    payload = {"text": "out", "scores": [0.5, 1.5]}
    server.script += [reply({}, status=503), reply(payload)]
    assert call(server.url, retries=1) == expected
    assert len(server.received) == 2
    assert server.received[0] == server.received[1]


@pytest.mark.parametrize("client", sorted(CLIENTS))
def test_5xx_on_every_attempt(server, client):
    call, _ = CLIENTS[client]
    server.script += [reply({}, status=500)] * 3
    with pytest.raises(RemoteError, match="after 3 attempts"):
        call(server.url, retries=2)
    assert len(server.received) == 3


def test_timeout_is_retried(server):
    server.script += [reply({"ok": 1}, delay=0.5)] * 2
    with pytest.raises(RuntimeError, match="after 2 attempts"):
        post_json(server.url, {"q": 1}, timeout=0.1, retries=1, key="ok", kind=int)
    assert len(server.received) == 2


def test_bad_json_is_retried(server):
    server.script += [reply(body=b"not json"), reply({"ok": 1})]
    assert post_json(server.url, {"q": 1}, timeout=5, retries=1, key="ok", kind=int) == 1
    server.script += [reply(body=b"{truncated")] * 2
    with pytest.raises(RuntimeError, match="after 2 attempts"):
        post_json(server.url, {"q": 1}, timeout=5, retries=1, key="ok", kind=int)
    assert len(server.received) == 4


# client -> the reply key it reads
REPLY_KEYS = {"llm": "text", "generator": "text", "backend": "scores"}


@pytest.mark.parametrize("body", [{}, [], {"text": None, "scores": None}],
                         ids=["empty", "list", "null"])
@pytest.mark.parametrize("client", sorted(CLIENTS))
def test_reply_without_its_key_is_retried(server, client, body):
    call, _ = CLIENTS[client]
    server.script += [reply(body)] * 3
    with pytest.raises(RemoteError, match=f"after 3 attempts: .*'{REPLY_KEYS[client]}'"):
        call(server.url, retries=2)
    assert len(server.received) == 3


def test_wrong_score_count_is_not_retried(server):
    server.script += [reply({"scores": [0.5]})]
    backend = RemoteBackend(server.url, "q", ("a",), ["x", "y"],
                            timeout=5, retries=3)
    with pytest.raises(ValueError, match="wrong score count"):
        backend.step_scores([])
    assert len(server.received) == 1


@pytest.mark.parametrize("scores", [[None, None], [float("nan"), 0.5], ["1.5", 0.5],
                                    [True, 0.5], [10**400, 0.5]],
                         ids=["null", "nan", "string", "bool", "huge-int"])
def test_score_that_is_not_a_finite_number_is_not_retried(server, scores):
    server.script += [reply({"scores": scores})]
    backend = RemoteBackend(server.url, "q", ("a",), ["x", "y"],
                            timeout=5, retries=3)
    with pytest.raises(ValueError, match="not a finite number"):
        backend.step_scores([])
    assert len(server.received) == 1


def test_remote_backend_takes_configured_retries():
    config = RunConfig(scorer_endpoint="http://127.0.0.1:9/", retries=4, timeout=2.0)
    backend = _make_backend(config, make_pool(["x", "y"]))
    assert (backend.retries, backend.timeout) == (4, 2.0)


def _question(payload):
    """The question a pipeline request is about: the explorer is sent a
    prompt, the scorer and the generator the query."""
    if "prompt" in payload:
        return payload["prompt"].removeprefix(EXPLORER_PROMPT.format(query=""))
    return payload["query"]


def _serve(server, records, fails, failure=reply({}, status=500)):
    """Answer every endpoint the pipeline calls; fails(question) picks the
    requests that get `failure`. The explorer answers a record's gold aspects."""
    aspects = {r.question: format_target(SubAspectList(r.sub_aspects)) for r in records}

    def respond(payload):
        if fails(_question(payload)):
            return failure
        if "prompt" in payload:
            return reply({"text": aspects[_question(payload)]})
        if "candidates" in payload:
            return reply({"scores": [0.0] * len(payload["candidates"])})
        return reply({"text": " ".join(payload["documents"])[:200]})
    server.respond = respond


def _written_ids(tmp_path, stage):
    if stage == "eval":
        with open(tmp_path / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        return set(report["per_query"]), report["skipped"]
    with open(tmp_path / f"{stage}.jsonl", encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh][1:]
    return {r.get("query_id", r.get("id")) for r in rows}, None


# stage -> the config of the endpoint it calls
REMOTE_STAGES = {
    "aspects": lambda url: {"aspect_mode": "predicted", "explorer_endpoint": url},
    "rank": lambda url: {"scorer_endpoint": url},
    "pairs": lambda url: {"scorer_endpoint": url},
    "eval": lambda url: {"generator_endpoint": url},
}


@pytest.mark.parametrize("stage", sorted(REMOTE_STAGES))
def test_remote_failure_is_that_querys_failure(server, tmp_path, synthetic_paths, stage):
    dataset, corpus = synthetic_paths
    config = RunConfig(n_per_aspect=10, pool_capacity=12, k=3, num_samples=2,
                       retries=0, timeout=5, **REMOTE_STAGES[stage](server.url))
    records = load_dataset(dataset)
    failing = records[1]
    out = str(tmp_path)
    _serve(server, records, lambda question: False)
    for upstream in STAGES[:STAGES.index(stage)]:
        run_stage(upstream, config, dataset, corpus, out)
    _serve(server, records, lambda question: question == failing.question)
    stats = run_stage(stage, config, dataset, corpus, out)
    assert [f["id"] for f in stats["failures"]] == [failing.id]
    assert "failed after 1 attempts" in stats["failures"][0]["error"]
    written, skipped = _written_ids(tmp_path, stage)
    assert written == {r.id for r in records} - {failing.id}
    assert skipped in (None, [failing.id])


@pytest.mark.parametrize("stage", sorted(REMOTE_STAGES))
def test_malformed_reply_is_that_querys_failure(server, tmp_path, synthetic_paths, stage):
    dataset, corpus = synthetic_paths
    config = RunConfig(n_per_aspect=10, pool_capacity=12, k=3, num_samples=2,
                       retries=0, timeout=5, **REMOTE_STAGES[stage](server.url))
    records = load_dataset(dataset)
    failing = records[1]
    out = str(tmp_path)
    _serve(server, records, lambda question: False)
    for upstream in STAGES[:STAGES.index(stage)]:
        run_stage(upstream, config, dataset, corpus, out)
    _serve(server, records, lambda question: question == failing.question, reply({}))
    stats = run_stage(stage, config, dataset, corpus, out)
    assert [f["id"] for f in stats["failures"]] == [failing.id]
    key = "scores" if stage in ("rank", "pairs") else "text"
    assert "failed after 1 attempts: reply holds no" in stats["failures"][0]["error"]
    assert repr(key) in stats["failures"][0]["error"]
    written, _ = _written_ids(tmp_path, stage)
    assert written == {r.id for r in records} - {failing.id}


def test_explorer_failure_fails_the_query_in_every_later_stage(server, tmp_path,
                                                              synthetic_paths):
    dataset, corpus = synthetic_paths
    config = RunConfig(n_per_aspect=10, pool_capacity=12, k=3, num_samples=2,
                       aspect_mode="predicted", explorer_endpoint=server.url,
                       retries=0, timeout=5)
    records = load_dataset(dataset)
    failing = records[1]
    _serve(server, records, lambda question: question == failing.question)
    out = str(tmp_path)
    run_stage("index", config, dataset, corpus, out)
    assert [f["id"] for f in run_stage("aspects", config, dataset, corpus, out)["failures"]] \
        == [failing.id]
    upstream = {"retrieve": "aspects", "pool": "aspects", "silver": "pool",
                "rank": "pool", "pairs": "pool", "eval": "pool"}
    for stage in STAGES[STAGES.index("retrieve"):]:
        stats = run_stage(stage, config, dataset, corpus, out)
        assert stats["failures"] == [{
            "id": failing.id,
            "error": f"failed upstream: no {upstream[stage]} row for {failing.id}"}]
        written, skipped = _written_ids(tmp_path, stage)
        assert written == {r.id for r in records} - {failing.id}
    assert skipped == [failing.id]


def test_generator_failure_on_second_system_leaves_no_eval_row(server, tmp_path,
                                                               synthetic_paths):
    dataset, corpus = synthetic_paths
    config = RunConfig(n_per_aspect=10, pool_capacity=12, k=3, num_samples=2,
                       generator_endpoint=server.url, retries=0, timeout=5)
    records = load_dataset(dataset)
    failing = records[1]
    out = str(tmp_path)
    for stage in STAGES[:STAGES.index("rank") + 1]:
        run_stage(stage, config, dataset, corpus, out)  # no stage so far generates
    calls = []

    def fails(question):  # the failing query's first system succeeds
        calls.append(question)
        return question == failing.question and calls.count(question) > 1
    _serve(server, records, fails)
    stats = run_stage("eval", config, dataset, corpus, out)
    assert calls.count(failing.question) == 2
    assert [f["id"] for f in stats["failures"]] == [failing.id]
    assert "failed after 1 attempts" in stats["failures"][0]["error"]
    assert failing.id not in stats["report"]["per_query"]
    assert stats["report"]["num_queries"] == len(records) - 1
    assert _written_ids(tmp_path, "eval") == ({r.id for r in records} - {failing.id},
                                             [failing.id])


@pytest.mark.parametrize("stage", ["rank", "pairs"])
def test_null_scores_are_that_querys_failure(server, tmp_path, synthetic_paths, stage):
    dataset, corpus = synthetic_paths
    config = RunConfig(n_per_aspect=10, pool_capacity=12, k=3, num_samples=2,
                       scorer_endpoint=server.url, retries=0, timeout=5)
    records = load_dataset(dataset)
    failing = records[1]
    out = str(tmp_path)
    for upstream in STAGES[:STAGES.index(stage)]:
        run_stage(upstream, config, dataset, corpus, out)
    _serve(server, records, lambda question: False)
    serve = server.respond
    server.respond = lambda payload: (
        reply({"scores": [None] * len(payload["candidates"])})
        if _question(payload) == failing.question else serve(payload))
    stats = run_stage(stage, config, dataset, corpus, out)
    assert stats["failures"] == [{"id": failing.id, "error": "remote backend returned "
                                  "a score that is not a finite number"}]
    assert "NaN" not in (tmp_path / f"{stage}.jsonl").read_text(encoding="utf-8")
    written, _ = _written_ids(tmp_path, stage)
    assert written == {r.id for r in records} - {failing.id}
