"""Sub-aspect prediction and parsing.

Aspects travel as bracket-delimited strings ("[history][impact]") between
the explorer model and the rest of the pipeline. Brackets are reserved
characters inside aspect text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class SubAspectList:
    aspects: tuple[str, ...]
    source: str = "predicted"  # predicted | gold | fallback

    def __post_init__(self):
        if not self.aspects:
            raise ValueError("aspect list is empty")
        if any(not a.strip() for a in self.aspects):
            raise ValueError("empty aspect string")


EXPLORER_PROMPT = "List the sub-aspects of the question: {query}"

_SEGMENT = re.compile(r"\[([^][]*)\]")  # one segment, no bracket inside
_BRACKET = re.compile(r"[][]")


def format_target(aspects: SubAspectList) -> str:
    """Serialize aspects as the explorer's SFT target string."""
    if any(_BRACKET.search(a) for a in aspects.aspects):
        raise ValueError("aspect contains bracket")
    return "".join(f"[{a}]" for a in aspects.aspects)


def parse_aspects(raw: str) -> SubAspectList:
    """Extract bracketed segments, in order.

    Whitespace inside segments is trimmed and empty segments dropped.
    Text outside brackets is ignored; a bracket left once every segment is
    removed (unbalanced or nested) is rejected.
    """
    if _BRACKET.search(_SEGMENT.sub("", raw)):
        raise ValueError("malformed aspect string")
    aspects = tuple(s.strip() for s in _SEGMENT.findall(raw) if s.strip())
    if not aspects:
        raise ValueError("no aspects parsed")
    return SubAspectList(aspects, source="predicted")


def predict_aspects(query: str, client, max_tokens: int = 256) -> SubAspectList:
    """Ask an LLM client for the query's sub-aspects, prompted by EXPLORER_PROMPT.

    The client contract is ``complete(prompt: str, max_tokens: int) -> str``.
    One retry on unparseable output, then fall back to the query itself as
    a single aspect.
    """
    rendered = EXPLORER_PROMPT.format(query=query)
    for _ in range(2):
        completion = client.complete(rendered, max_tokens)
        try:
            return parse_aspects(completion)
        except ValueError:
            continue
    return SubAspectList((query,), source="fallback")


class RemoteError(RuntimeError):
    """A remote call that failed on every attempt."""


def post_json(endpoint: str, payload: dict, timeout: float, retries: int,
              key: str, kind: type):
    """POST a JSON payload and return reply[key], a `kind`.

    A transport error, an HTTP error status, a timeout, a reply that is not
    JSON, or one that is not a JSON object holding a `kind` under `key` is a
    failed attempt and is retried; after retries + 1 failed attempts
    RemoteError is raised, chained to the last error.
    """
    import requests

    last_err = None
    for _ in range(retries + 1):
        try:
            resp = requests.post(endpoint, json=payload, timeout=timeout)
            resp.raise_for_status()
            reply = resp.json()
        except requests.RequestException as err:
            last_err = err
            continue
        value = reply.get(key) if isinstance(reply, dict) else None
        if isinstance(value, kind):
            return value
        last_err = ValueError(f"reply holds no {kind.__name__} under {key!r}")
    raise RemoteError(f"POST {endpoint} failed after {retries + 1} attempts: "
                       f"{last_err}") from last_err


@dataclass
class HttpLlmClient:
    """Minimal HTTP completion client: {"prompt", "max_tokens"} -> {"text"}."""

    endpoint: str
    timeout: float = 30.0
    retries: int = 1

    def complete(self, prompt: str, max_tokens: int) -> str:
        return post_json(self.endpoint, {"prompt": prompt, "max_tokens": max_tokens},
                         self.timeout, self.retries, "text", str)
