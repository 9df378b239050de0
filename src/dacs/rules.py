"""Rule model: destinations, match keys, rewrite/block actions, destination
matching, and the user-vs-client merge that builds an installed rule set.

The rule text grammar is shared by the repository file, the wire protocol,
and the provisioner, and `RULE_LINE` is its one definition:

    rewrite|<match_host>:<match_port>|<new_ip>:<new_port>
    block|<match_host>:<match_port>

A host holds no whitespace, '|' or ':'; `<match_host>` may be the wildcard
`*`; `<new_ip>` is `localhost` or a dotted-quad IPv4 literal; a port is
canonical decimal (no sign, no leading zeros) in 1..65535.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import NoReturn

PORT_MAX = 65535
WILDCARD = "*"

# canonical decimal port text (no sign, no leading zeros); range-checked after
_PORT = r"[1-9][0-9]{0,4}"
_PORT_RE = re.compile(_PORT)
# a decimal octet 0..255 in ASCII digits, without leading zeros
_OCTET = r"(?:25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9]?[0-9])"
_IPV4 = rf"{_OCTET}(?:\.{_OCTET}){{3}}"
_IPV4_RE = re.compile(_IPV4)
# regex \s is exactly str.isspace, so a host may be `*` or non-ASCII
_HOST = r"[^\s|:]+"
_HOST_RE = re.compile(_HOST)
_TARGET = rf"localhost|{_IPV4}"
_TARGET_RE = re.compile(_TARGET)

# The rule line: groups 1-2 are a block's host and port, groups 3-6 a
# rewrite's match host and port and target host and port.
RULE_LINE = re.compile(
    rf"block\|({_HOST}):({_PORT})"
    rf"|rewrite\|({_HOST}):({_PORT})\|({_TARGET}):({_PORT})"
)


class RuleSyntaxError(ValueError):
    """A line that does not follow the rule text grammar."""


class DuplicateMatchKey(ValueError):
    """Two rules in one list share a match key; the source is malformed."""


def is_ipv4(text: str) -> bool:
    """True for a dotted-quad IPv4 literal (four decimal octets)."""
    return _IPV4_RE.fullmatch(text) is not None


@dataclass(frozen=True)
class Destination:
    """A concrete (host, port) a client application addresses."""

    host: str
    port: int


@dataclass(frozen=True)
class MatchKey:
    """What one rule matches: exact host or `*`; the port is always exact."""

    host: str
    port: int


@dataclass(frozen=True)
class Rewrite:
    """Redirect the connection to new_dst. The result is final (no chaining)."""

    new_dst: Destination


@dataclass(frozen=True)
class Block:
    """Refuse the connection; nothing is sent toward the destination."""


@dataclass(frozen=True)
class Pass:
    """No rule matched; connect to the requested destination unchanged."""


# A rule carries Rewrite | Block; a decision adds Pass for "no rule matched".
RuleAction = Rewrite | Block
Decision = Pass | Rewrite | Block


@dataclass(frozen=True)
class Rule:
    """One rule line: the form held by the repository, carried on the wire and
    installed on agents."""

    match: MatchKey
    action: RuleAction


class PriorityPolicy(enum.Enum):
    """Whose rule wins when a user rule and a client rule share a match key."""

    USER = "user"
    CLIENT = "client"


@dataclass(frozen=True)
class RuleSet:
    """Versioned rule collection; match keys are unique within the set."""

    version: int
    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if self.version < 0:
            raise ValueError("rule set version must be >= 0")
        object.__setattr__(self, "rules", tuple(self.rules))
        seen = set()
        for rule in self.rules:
            if rule.match in seen:
                raise DuplicateMatchKey(format_match(rule.match))
            seen.add(rule.match)


def _name_violations(name: str, what: str, separators: str) -> list[str]:
    if not name:
        return [f"empty {what}"]
    problems = [f"whitespace in {what}"] if any(c.isspace() for c in name) else []
    return problems + [f"'{c}' in {what}" for c in separators if c in name]


def user_name_violations(name: str) -> list[str]:
    """Name every lexical problem of a user name; an empty list means valid.
    Whitespace, '|' and '=' would break the repository and wire grammars."""
    return _name_violations(name, "user name", "|=")


def group_name_violations(name: str) -> list[str]:
    """Name every lexical problem of a group name; an empty list means valid.
    A group name also appears in comma-separated lists, so ',' is excluded."""
    return _name_violations(name, "group name", "|=,")


def format_match(key: MatchKey) -> str:
    return f"{key.host}:{key.port}"


def format_rule(rule: Rule) -> str:
    """Render match+action as one grammar line."""
    if isinstance(rule.action, Block):
        return f"block|{rule.match.host}:{rule.match.port}"
    dst = rule.action.new_dst
    return f"rewrite|{rule.match.host}:{rule.match.port}|{dst.host}:{dst.port}"


def _refuse(line: str) -> NoReturn:
    """Raise RuleSyntaxError naming what keeps a line out of RULE_LINE. It
    words the error from the sub-patterns RULE_LINE is built from; the
    language parse_rule accepts is the pattern's alone."""
    verb, *fields = line.split("|")
    hosts = {"block": (_HOST_RE,), "rewrite": (_HOST_RE, _TARGET_RE)}.get(verb)
    if hosts is None:
        raise RuleSyntaxError(f"unknown rule verb in {line!r}")
    if len(fields) != len(hosts):
        raise RuleSyntaxError(f"{verb} takes exactly {len(hosts)} field(s): {line!r}")
    for field, host_re, what in zip(fields, hosts, ("match", "rewrite target")):
        host, sep, port = field.partition(":")
        if not sep:
            raise RuleSyntaxError(f"missing ':' in {what} {field!r}")
        if not host_re.fullmatch(host):
            raise RuleSyntaxError(f"bad host in {what} {field!r}")
        if not _PORT_RE.fullmatch(port) or int(port) > PORT_MAX:
            raise RuleSyntaxError(f"bad port in {what} {field!r}")
    raise RuleSyntaxError(f"not a rule line: {line!r}")


def parse_rule(line: str) -> Rule:
    """Parse one rule-grammar line; raises RuleSyntaxError on any deviation."""
    m = RULE_LINE.fullmatch(line)
    if m is not None:
        host, port, mhost, mport, thost, tport = m.groups()
        if host is not None:
            port = int(port)
            if port <= PORT_MAX:
                return Rule(MatchKey(host, port), Block())
        else:
            mport, tport = int(mport), int(tport)
            if mport <= PORT_MAX and tport <= PORT_MAX:
                return Rule(MatchKey(mhost, mport), Rewrite(Destination(thost, tport)))
    _refuse(line)


def decide(rules: RuleSet, dst: Destination) -> Decision:
    """Match dst against the set. Exact host beats wildcard at the same port;
    no matching rule means Pass. A Rewrite result is never re-matched."""
    wildcard_action: Decision | None = None
    for rule in rules.rules:
        if rule.match.port != dst.port:
            continue
        if rule.match.host == dst.host:
            return rule.action
        if rule.match.host == WILDCARD:
            wildcard_action = rule.action
    return wildcard_action if wildcard_action is not None else Pass()


def merge_rules(
    user_rules: list[Rule], client_rules: list[Rule], policy: PriorityPolicy, *, version: int = 0
) -> RuleSet:
    """Fold a user's and a client's rules into one installed set.

    Rules conflict exactly when their match keys are equal. The conflicting
    position keeps the user's action under USER priority and the client's
    under CLIENT priority; identical rules collapse to one copy regardless.
    Output order: user-side keys in input order, then client-only keys in
    input order. The set holds the input rules themselves, so it does not
    tell where a rule came from. A side that repeats a match key raises
    DuplicateMatchKey.
    """
    user_keys = {rule.match for rule in user_rules}
    if len(user_keys) < len(user_rules):
        raise DuplicateMatchKey("user rules repeat a match key")
    client_index = {rule.match: rule for rule in client_rules}
    if len(client_index) < len(client_rules):
        raise DuplicateMatchKey("client rules repeat a match key")
    merged: list[Rule] = []
    for rule in user_rules:
        other = client_index.get(rule.match)
        if other is None or other.action == rule.action or policy is PriorityPolicy.USER:
            merged.append(rule)
        else:
            merged.append(other)
    merged += [rule for rule in client_rules if rule.match not in user_keys]
    return RuleSet(version=version, rules=tuple(merged))
