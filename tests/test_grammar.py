"""The rule-line grammar and the IPv4 literal check accept exactly the
languages of reference implementations written here, independently of the
implementation: a structural parser (split, partition, a port pattern and
`ipaddress`) for rule lines, and `ipaddress.IPv4Address` for IPv4 text."""

import ipaddress
import re

from hypothesis import given, strategies as st

from dacs.rules import (
    Block,
    Destination,
    MatchKey,
    Rewrite,
    Rule,
    RuleSyntaxError,
    is_ipv4,
    parse_rule,
)

# --- references --------------------------------------------------------------

_REF_PORT = re.compile(r"[1-9][0-9]{0,4}\Z")


def ref_is_ipv4(text: str) -> bool:
    try:
        ipaddress.IPv4Address(text)
    except ValueError:
        return False
    return True


def _ref_hostport(field: str) -> tuple[str, int] | None:
    host, sep, port_text = field.partition(":")
    if not sep or not host or any(c.isspace() for c in host):
        return None
    if not _REF_PORT.match(port_text) or int(port_text) > 65535:
        return None
    return host, int(port_text)


def ref_parse_rule(line: str) -> Rule | None:
    """The rule the line stands for, or None when it is not a rule line."""
    parts = line.split("|")
    fields = [_ref_hostport(part) for part in parts[1:]]
    if None in fields:
        return None
    if parts[0] == "block" and len(fields) == 1:
        return Rule(MatchKey(*fields[0]), Block())
    if parts[0] == "rewrite" and len(fields) == 2:
        (mhost, mport), (thost, tport) = fields
        if thost != "localhost" and not ref_is_ipv4(thost):
            return None
        return Rule(MatchKey(mhost, mport), Rewrite(Destination(thost, tport)))
    return None


# --- strategies --------------------------------------------------------------

# separators, unicode whitespace, a non-ASCII letter and digit, odd numbers
ODD = [":", "|", "*", ".", " ", "\t", "\n", "\r", "\x0b", "\x1c", "\x85", "\xa0", "\u2028",
       "\u3000", "é", "١", "+", "-", "01", "007", "256", "65536", "99999", "block", "rewrite"]
HOSTS = ["*", "h", "wwwserver", "mail-host", "localhost", "127.0.0.1", "é.example", "**", "",
         "10.0.0.256", "01.2.3.4"]
TARGETS = ["localhost", "127.0.0.1", "10.0.0.9", "255.255.255.255", "0.0.0.0", "1.2.3",
           "1.2.3.4.5", "256.1.1.1", "01.2.3.4", "*", "wwwserver", "١.2.3.4", ""]
PORTS = st.one_of(
    st.sampled_from(["1", "80", "65535"]),
    st.integers(1, 65535).map(str),
    st.sampled_from(["0", "01", "65536", "99999", "100000", "+80", "", "١", "8 0"]),
)


def hostport(hosts):
    return st.builds(lambda h, p: f"{h}:{p}", st.sampled_from(hosts), PORTS)


# grammar lines, each perhaps with one odd fragment spliced in somewhere
LINES = st.builds(
    lambda line, odd, at: line[:at] + odd + line[at:] if odd else line,
    st.one_of(
        st.builds("block|{}".format, hostport(HOSTS)),
        st.builds("rewrite|{}|{}".format, hostport(HOSTS), hostport(TARGETS)),
    ),
    st.sampled_from([""] * len(ODD) + ODD),
    st.integers(0, 40),
)
FRAGMENTS = st.lists(st.sampled_from(ODD + HOSTS + TARGETS + ["block|", "rewrite|"]), max_size=8)
ODD_TEXT = st.one_of(FRAGMENTS.map("".join), st.text())

OCTETS = ["0", "1", "9", "00", "01", "10", "99", "100", "199", "200", "249", "250", "255", "256",
          "300", "1000", "", "١", " ", "\n", "+1", "a"]
IPV4_TEXT = st.one_of(
    st.lists(st.integers(0, 255).map(str), min_size=4, max_size=4).map(".".join),
    st.lists(st.sampled_from(OCTETS), min_size=3, max_size=5).map(".".join),
    st.lists(st.sampled_from(OCTETS + ["."]), max_size=9).map("".join),
    st.text(),
)


# --- properties --------------------------------------------------------------


def parsed(line: str) -> Rule | None:
    try:
        return parse_rule(line)
    except RuleSyntaxError:
        return None


@given(LINES)
def test_parse_rule_agrees_with_the_reference_near_the_grammar(line):
    assert parsed(line) == ref_parse_rule(line)


@given(ODD_TEXT)
def test_parse_rule_agrees_with_the_reference_on_odd_text(line):
    assert parsed(line) == ref_parse_rule(line)


@given(IPV4_TEXT)
def test_is_ipv4_accepts_exactly_what_ipaddress_accepts(text):
    assert is_ipv4(text) == ref_is_ipv4(text)
