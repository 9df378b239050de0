"""Reusing the Rule of an unchanged rule line never changes a result: a reload
that is given the previous repository, and a decode that is given the map of
the previous RULESET, return exactly what a cold load or decode returns, and
each map holds exactly the current file's or frame's rule lines."""

import pytest
from hypothesis import given, strategies as st

from conftest import counting_parses
from dacs import wire
from dacs.rules import format_rule, parse_rule
from dacs.server import Repository, RepositoryError, load_repository
from dacs.wire import WireError, decode

RULES = [
    "block|a.example:80",
    "rewrite|a.example:80|127.0.0.1:3000",  # the key of the line above
    "block|*:25",
    "rewrite|*:25|localhost:2525",
    "block|b.example:443",
    "rewrite|wwwserver:80|10.0.0.9:8080",
    "block|c:1",
    "block|c:65535",
] + [f"block|h{i}.example:80" for i in range(12)]
REFUSED = ["block|a.example:0", "block|a.example:65536", "rewrite|a:80|a.example:1", "blocked|a:80"]
HEADERS = ["[user u1]", "[user u2]", "[client 10.0.0.1]", "[client 10.0.0.2]"]
OTHER = ["# note", "", "u1=G", "[groups]", "[user bad|name]", "[client 300.1.1.1]"]

# an edit mostly keeps to good lines, so that many edited files still load
EDIT_LINE = st.sampled_from(RULES * 3 + HEADERS * 6 + REFUSED + OTHER)
OPS = st.sampled_from(["keep"] * 4 + ["change", "delete", "insert"])


POLICY = ["[policy]", "priority=user"]


@st.composite
def repository_texts(draw):
    """The sections of a repository that loads: distinct keys in each."""
    lines = []
    for header in draw(st.lists(st.sampled_from(HEADERS), min_size=1, unique=True)):
        lines.append(header)
        lines += draw(st.lists(st.sampled_from(RULES), unique_by=lambda line: parse_rule(line).match))
    return lines


@st.composite
def edited(draw, lines):
    """Keep, change, delete and insert lines, then move one line anywhere
    below the first header."""
    out = lines[:1]
    for line in lines[1:]:
        op = draw(OPS)
        if op == "keep":
            out.append(line)
        elif op == "change":
            out.append(draw(EDIT_LINE))
        elif op == "insert":
            out += [line, draw(EDIT_LINE)]
    if len(out) > 1 and draw(st.booleans()):
        moved = out.pop(draw(st.integers(1, len(out) - 1)))
        out.insert(draw(st.integers(1, len(out))), moved)
    return out


@st.composite
def edits(draw):
    before = draw(repository_texts())
    return before, draw(edited(before))


@pytest.fixture(scope="module")
def repo_file(tmp_path_factory):
    return tmp_path_factory.mktemp("cutoff") / "repo.conf"


def load(path, sections, previous=None):
    """The loaded repository, or the refusal's type and text (with its line)."""
    path.write_text("\n".join(POLICY + sections) + "\n", encoding="utf-8")
    try:
        return load_repository(path, previous)
    except RepositoryError as exc:
        return type(exc), str(exc)


def rule_lines(lines):
    return {line.strip() for line in lines if "|" in line and not line.startswith(("[", "#"))}


@given(edits())
def test_a_reload_with_the_previous_repository_equals_a_cold_load(repo_file, edit):
    before_lines, after_lines = edit
    before = load(repo_file, before_lines)
    assert isinstance(before, Repository)
    assert set(before.rule_lines) == rule_lines(before_lines)
    known = dict(before.rule_lines)
    warm = load(repo_file, after_lines, previous=before)
    cold = load(repo_file, after_lines)
    assert warm == cold
    assert before.rule_lines == known  # the previous map is only read
    if isinstance(warm, Repository):
        assert warm.rule_lines == cold.rule_lines
        assert set(warm.rule_lines) == rule_lines(after_lines)
        for line, rule in warm.rule_lines.items():
            if line in known:
                assert rule is known[line]


# --- decode ---------------------------------------------------------------------

CORRUPTIONS = ["none"] * 4 + ["field", "version", "cr", "utf8", "refused", "truncated"]


def ruleset_frame(version, lines, corruption="none"):
    """A RULESET frame built by hand, so it may carry what encode refuses."""
    fields = [f"version={version}"] + [f"rule={line}" for line in lines]
    if corruption == "field":
        fields.append("rules=block|a:80")
    elif corruption == "version":
        fields[0] = "version=-1"
    elif corruption == "cr":
        fields[-1] += "\r"
    elif corruption == "refused":
        fields.append("rule=block|a:0")
    payload = ("RULESET\n" + "\n".join(fields) + "\n").encode("utf-8")
    if corruption == "utf8":
        payload = payload[:-1] + b"\xff\n"
    frame = b"L:%d\n%s" % (len(payload), payload)
    return frame[:-1] if corruption == "truncated" else frame


FRAME_LINES = st.lists(st.sampled_from(RULES + REFUSED[:1]), max_size=12)


def decoded(frame, rule_lines=None):
    try:
        return decode(frame, rule_lines)
    except WireError as exc:
        return type(exc), str(exc)


@given(FRAME_LINES, FRAME_LINES, st.sampled_from(CORRUPTIONS), st.sampled_from(CORRUPTIONS))
def test_a_decode_with_a_warm_map_equals_a_cold_decode(first, second, bad_first, bad_second):
    known = {}
    warmed = decoded(ruleset_frame(1, first, bad_first), known)
    if isinstance(warmed, tuple) and isinstance(warmed[0], wire.RuleSetMsg):
        assert set(known) == {f"rule={line}" for line in first}
    else:
        assert known == {}
    before = dict(known)
    frame = ruleset_frame(2, second, bad_second)
    warm = decoded(frame, known)
    assert warm == decoded(frame)
    if isinstance(warm, tuple) and isinstance(warm[0], wire.RuleSetMsg):
        assert set(known) == {f"rule={line}" for line in second}
        assert [format_rule(rule) for rule in warm[0].rules] == second
        for line, rule in known.items():
            if line in before:
                assert rule is before[line]
    else:  # malformed, or not complete yet
        assert known == before
        assert all(known[line] is rule for line, rule in before.items())


def test_a_frame_that_is_not_a_rule_set_leaves_the_map_as_it_was():
    known = {}
    decode(ruleset_frame(1, RULES[:3]), known)
    before = dict(known)
    for msg in (wire.PushNotice(), wire.Ack(1), wire.ErrorMsg("x", "y")):
        decode(wire.encode(msg), known)
        assert known == before


def test_a_decode_parses_only_the_rule_lines_the_last_rule_set_did_not_hold(monkeypatch):
    lines = [f"block|h{i}.example:80" for i in range(100)]
    known = {}
    decode(ruleset_frame(1, lines), known)
    edited_lines = lines[:40] + ["block|new.example:80", "rewrite|h9.example:81|10.0.0.1:9"] + lines[41:]
    calls = counting_parses(monkeypatch, wire)
    msg, _ = decode(ruleset_frame(2, edited_lines), known)
    assert calls[0] == 2
    assert len(msg.rules) == 101
    assert set(known) == {f"rule={line}" for line in edited_lines}
    decode(ruleset_frame(3, edited_lines), {})
    assert calls[0] == 2 + 101  # a fresh map parses every line
