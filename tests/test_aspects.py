import pytest
from hypothesis import given, strategies as st

from facetrank.aspects import SubAspectList, format_target, parse_aspects, predict_aspects


def aspects(*names, source="predicted"):
    return SubAspectList(tuple(names), source=source)


def test_format_target_examples():
    assert format_target(aspects("history", "impact")) == "[history][impact]"
    assert format_target(aspects("a")) == "[a]"
    assert format_target(aspects('ori"gin')) == '[ori"gin]'


def test_format_target_rejects_brackets():
    with pytest.raises(ValueError, match="bracket"):
        format_target(aspects("bad[one"))


def test_parse_aspects_examples():
    got = parse_aspects("[origins][characteristics][evolution]")
    assert got.aspects == ("origins", "characteristics", "evolution")
    assert got.source == "predicted"
    assert parse_aspects("[a][ ]").aspects == ("a",)
    with pytest.raises(ValueError, match="malformed"):
        parse_aspects("a][b")


def test_parse_aspects_errors():
    with pytest.raises(ValueError, match="no aspects parsed"):
        parse_aspects("garbage with no brackets")
    with pytest.raises(ValueError, match="malformed"):
        parse_aspects("[unclosed")
    with pytest.raises(ValueError, match="malformed"):
        parse_aspects("[nested[x]]")


def scan_aspects(raw):
    """The character-by-character bracket scanner the grammar replaced: the
    top-level segments, or the ValueError message it raises."""
    segments = []
    current = None
    for ch in raw:
        if ch == "[":
            if current is not None:
                raise ValueError("malformed aspect string")
            current = []
        elif ch == "]":
            if current is None:
                raise ValueError("malformed aspect string")
            segments.append("".join(current).strip())
            current = None
        elif current is not None:
            current.append(ch)
    if current is not None:
        raise ValueError("malformed aspect string")
    aspects = tuple(s for s in segments if s)
    if not aspects:
        raise ValueError("no aspects parsed")
    return aspects


def outcome(parse, raw):
    """The aspects parse returns for raw, or the message of its ValueError."""
    try:
        return ("aspects", parse(raw))
    except ValueError as err:
        return ("error", str(err))


def parsed(raw):
    return parse_aspects(raw).aspects


MALFORMED = ("error", "malformed aspect string")


@pytest.mark.parametrize("raw, expected", [
    ("][", MALFORMED),
    ("[a]]", MALFORMED),
    ("[[a]]", MALFORMED),
    ("[a][", MALFORMED),
    ("[]", ("error", "no aspects parsed")),
    ("[ ][\t]", ("error", "no aspects parsed")),
    ("lead [one] mid [two] tail", ("aspects", ("one", "two"))),
    ("[first\nsecond]\n[\tb ]", ("aspects", ("first\nsecond", "b"))),
])
def test_parse_aspects_cases_agree_with_scanner(raw, expected):
    assert outcome(parsed, raw) == outcome(scan_aspects, raw) == expected


@given(st.text(alphabet="[]abAB \t\n", max_size=24))
def test_parse_aspects_equals_scanner(raw):
    assert outcome(parsed, raw) == outcome(scan_aspects, raw)


aspect_text = st.text(
    alphabet=st.characters(blacklist_characters="[]", blacklist_categories=("Cs",)),
    min_size=1,
).filter(lambda s: s.strip() and s.strip() == s)


@given(st.lists(aspect_text, min_size=1, max_size=6))
def test_format_parse_roundtrip(names):
    target = format_target(aspects(*names))
    assert parse_aspects(target).aspects == tuple(names)


class StubClient:
    def __init__(self, *responses):
        self.responses = list(responses)
        self.prompts = []

    def complete(self, prompt, max_tokens):
        self.prompts.append(prompt)
        return self.responses.pop(0)


def test_predict_aspects_parses_completion():
    client = StubClient("[x][y]")
    got = predict_aspects("who is x", client)
    assert got.aspects == ("x", "y")
    assert got.source == "predicted"
    assert client.prompts == ["List the sub-aspects of the question: who is x"]


def test_predict_aspects_fallback_after_retry():
    got = predict_aspects("who is x", StubClient("garbage", "garbage"))
    assert got.aspects == ("who is x",)
    assert got.source == "fallback"


def test_predict_aspects_retry_succeeds():
    got = predict_aspects("q", StubClient("junk", "[fine]"))
    assert got.aspects == ("fine",)


def test_predict_aspects_transport_error_propagates():
    class FailingClient:
        def complete(self, prompt, max_tokens):
            raise RuntimeError("connection refused")

    with pytest.raises(RuntimeError, match="connection refused"):
        predict_aspects("q", FailingClient())


def test_sub_aspect_list_validation():
    with pytest.raises(ValueError):
        SubAspectList(())
    with pytest.raises(ValueError):
        SubAspectList(("ok", "  "))
