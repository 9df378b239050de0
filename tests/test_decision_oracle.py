"""End to end, what an agent decides for a destination is what the repository
file says for that user at that client.

A Hypothesis property writes repository text, then runs the real path, from
`load_repository` through `compose_login_rules`, `wire.encode`, `wire.decode`
and `RuleSet` to `decide`, for every user and client it names (and one it
does not). On every probe destination the decision must equal what a small
reference interpreter, written here, reads from the same text: the exact
host's key governs if either side has a rule for it, else the port's `*`
key, else the connection passes; where both sides hold the governing key,
the policy picks the side.
"""

import pytest
from hypothesis import given, strategies as st

from dacs import wire
from dacs.rules import Block, Destination, Pass, Rewrite, RuleSet, decide
from dacs.server import compose_login_rules, load_repository

USERS = ["alice", "bob"]
CLIENTS = ["10.0.0.1", "10.0.0.2"]
HOSTS = ["a", "b", "10.9.9.9", "*"]
PORTS = [25, 80]
TARGETS = ["127.0.0.1:9000", "127.0.0.1:9001", "localhost:2525", "10.0.0.9:80"]
# a host and a port no rule names, and `*` as a destination host
PROBES = [(host, port) for host in HOSTS + ["zzz"] for port in PORTS + [443]]

ACTIONS = st.one_of(st.just("block"), st.sampled_from(TARGETS))
KEYS = st.tuples(st.sampled_from(HOSTS), st.sampled_from(PORTS))


def rule_line(key, action):
    host, port = key
    return f"block|{host}:{port}" if action == "block" else f"rewrite|{host}:{port}|{action}"


@st.composite
def repositories(draw):
    """Repository text: both policies, each subject's rules under one or more
    headers (a repeated header continues its section), sections in any order,
    with comments, blank lines, edge whitespace and a [groups] section."""
    chunks = []
    for kind, names in (("user", USERS), ("client", CLIENTS)):
        for name in draw(st.lists(st.sampled_from(names), unique=True)):
            rules = draw(st.dictionaries(KEYS, ACTIONS, max_size=6))
            lines = [rule_line(key, action) for key, action in rules.items()]
            cuts = sorted(draw(st.lists(st.integers(0, len(lines)), max_size=2)))
            for start, end in zip([0] + cuts, cuts + [len(lines)]):
                chunks.append([f"[{kind} {name}]"] + lines[start:end])
    chunks = draw(st.permutations(chunks))
    policy = draw(st.sampled_from(["user", "client"]))
    chunks.insert(draw(st.integers(0, len(chunks))), ["[policy]", f"priority={policy}"])
    if draw(st.booleans()):
        chunks.append(["[groups]", "alice=G1,G2"])
    lines = [line for chunk in chunks for line in chunk]
    pad = draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=len(lines), max_size=len(lines)))
    noise = draw(st.sampled_from(["", "# a comment", "   "]))
    return "\n".join([noise] + [p + line + p for p, line in zip(pad, lines)]) + "\n"


# --- reference interpreter ----------------------------------------------------


def reference(text):
    """(policy, {("user"|"client", name): {(host, port): action}}) read from
    the text, where an action is "block" or the rewrite target "ip:port"."""
    policy, section, rules = None, None, {}
    for raw in text.split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            words = line[1:-1].split()
            section = (words[0], words[1]) if len(words) == 2 else None
            continue
        if line.startswith("priority="):
            policy = line.split("=")[1]
        elif section is not None:
            verb, match, *target = line.split("|")
            host, port = match.split(":")
            rules.setdefault(section, {})[host, int(port)] = target[0] if target else verb
    return policy, rules


def reference_decide(policy, rules, user, client, dst):
    user_side = rules.get(("user", user), {})
    client_side = rules.get(("client", client), {})
    for key in (dst, ("*", dst[1])):
        sides = {"user": user_side.get(key), "client": client_side.get(key)}
        present = [action for action in sides.values() if action is not None]
        if len(present) == 2:
            return sides[policy]
        if present:
            return present[0]
    return "pass"


def as_reference(decision):
    if isinstance(decision, Pass):
        return "pass"
    if isinstance(decision, Block):
        return "block"
    assert isinstance(decision, Rewrite)
    return f"{decision.new_dst.host}:{decision.new_dst.port}"


# --- the property -------------------------------------------------------------


@pytest.fixture(scope="module")
def repo_file(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "repo.conf"


@given(repositories())
def test_an_agents_decision_is_what_the_repository_says(repo_file, text):
    repo_file.write_text(text, encoding="utf-8")
    repo = load_repository(repo_file)
    policy, rules = reference(text)
    for user in USERS + ["nobody"]:
        for client in CLIENTS:
            sent = compose_login_rules(repo, user, client, version=7)
            frame = wire.encode(wire.RuleSetMsg(sent.version, sent.rules))
            received, rest = wire.decode(frame)
            assert rest == b""
            installed = RuleSet(received.version, received.rules)
            for host, port in PROBES:
                got = as_reference(decide(installed, Destination(host, port)))
                assert got == reference_decide(policy, rules, user, client, (host, port)), (
                    user, client, host, port
                )
