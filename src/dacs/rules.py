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

PORT_MIN = 1
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

# The rule line: groups 1-2 are a block's host and port, groups 3-6 a
# rewrite's match host and port and target host and port.
RULE_LINE = re.compile(
    rf"block\|({_HOST}):({_PORT})"
    rf"|rewrite\|({_HOST}):({_PORT})\|(localhost|{_IPV4}):({_PORT})"
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
class User:
    name: str


@dataclass(frozen=True)
class Client:
    ip: str


Subject = User | Client


@dataclass(frozen=True)
class Rule:
    """A subject-free rule: the form carried on the wire and installed on agents."""

    match: MatchKey
    action: RuleAction


@dataclass(frozen=True)
class DacsRule:
    """A repository entry: a rule attributed to a user or to a client IP."""

    subject: Subject
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


def _host_violations(host: str, *, wildcard_ok: bool = False) -> list[str]:
    if type(host) is not str:
        return ["host is not a string"]
    if host == WILDCARD:
        return [] if wildcard_ok else ["wildcard host not allowed here"]
    if not host:
        return ["empty host"]
    problems = []
    if any(c.isspace() for c in host):
        problems.append("whitespace in host")
    if "|" in host:
        problems.append("'|' in host")
    if ":" in host:
        problems.append("':' in host")
    return problems


def _port_ok(port: object) -> bool:
    # a bool is an int, but would not format as a port
    return type(port) is int and PORT_MIN <= port <= PORT_MAX


def _core_violations(match: MatchKey, action: RuleAction) -> list[str]:
    """Invariant checks shared by Rule and DacsRule (everything but the subject).

    A rule that passes formats to a line that parse_rule maps back to it."""
    problems = [f"match host: {p}" for p in _host_violations(match.host, wildcard_ok=True)]
    if not _port_ok(match.port):
        problems.append("match port out of range")
    if isinstance(action, Rewrite):
        dst = action.new_dst
        problems += [f"rewrite target: {p}" for p in _host_violations(dst.host)]
        if dst.host != "localhost" and not is_ipv4(dst.host):
            problems.append("rewrite target host must be an IPv4 literal or localhost")
        if not _port_ok(dst.port):
            problems.append("rewrite target port out of range")
    elif not isinstance(action, Block):
        problems.append("unknown action kind")
    return problems


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


def subject_violations(subject: Subject) -> list[str]:
    """Name every violated invariant of a rule subject (user name or client IP)."""
    if isinstance(subject, User):
        return user_name_violations(subject.name)
    if isinstance(subject, Client):
        return [] if is_ipv4(subject.ip) else ["client ip is not a dotted-quad IPv4 literal"]
    return ["unknown subject kind"]


def validate_rule(rule: DacsRule) -> list[str]:
    """Name every violated invariant; an empty list means the rule is valid."""
    return subject_violations(rule.subject) + _core_violations(rule.match, rule.action)


def format_match(key: MatchKey) -> str:
    return f"{key.host}:{key.port}"


def format_rule(rule: Rule | DacsRule) -> str:
    """Render match+action as one grammar line (any subject is not serialized)."""
    if isinstance(rule.action, Block):
        return f"block|{rule.match.host}:{rule.match.port}"
    dst = rule.action.new_dst
    return f"rewrite|{rule.match.host}:{rule.match.port}|{dst.host}:{dst.port}"


def _parse_hostport(field: str, what: str) -> tuple[str, int]:
    host, sep, port_text = field.partition(":")
    if not sep:
        raise RuleSyntaxError(f"missing ':' in {what} {field!r}")
    if not _PORT_RE.fullmatch(port_text) or int(port_text) > PORT_MAX:
        raise RuleSyntaxError(f"bad port in {what} {field!r}")
    return host, int(port_text)


def _refuse(line: str) -> NoReturn:
    """Raise RuleSyntaxError naming what keeps a line out of RULE_LINE. This
    only words the error: the language parse_rule accepts is the pattern's."""
    verb, *fields = line.split("|")
    if verb == "block" and len(fields) != 1:
        raise RuleSyntaxError(f"block takes exactly one field: {line!r}")
    if verb == "rewrite" and len(fields) != 2:
        raise RuleSyntaxError(f"rewrite takes exactly two fields: {line!r}")
    if verb not in ("block", "rewrite"):
        raise RuleSyntaxError(f"unknown rule verb in {line!r}")
    match = MatchKey(*_parse_hostport(fields[0], "match"))
    action = Block()
    if verb == "rewrite":
        action = Rewrite(Destination(*_parse_hostport(fields[1], "rewrite target")))
    problems = _core_violations(match, action) or ["not a rule line"]
    raise RuleSyntaxError(f"{line!r}: " + "; ".join(problems))


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


def _index_by_match(entries, side: str) -> dict[MatchKey, DacsRule]:
    index: dict[MatchKey, DacsRule] = {}
    for entry in entries:
        if entry.match in index:
            raise DuplicateMatchKey(f"{side} rules repeat {format_match(entry.match)}")
        index[entry.match] = entry
    return index


def merge_rules(user_rules, client_rules, policy: PriorityPolicy, *, version: int = 0) -> RuleSet:
    """Fold a user's and a client's rules into one installed set.

    Rules conflict exactly when their match keys are equal. The conflicting
    position keeps the user's action under USER priority and the client's
    under CLIENT priority; identical rules collapse to one copy regardless.
    Output order: user-side keys in input order, then client-only keys in
    input order. Subjects are erased: the installed set does not distinguish
    where a rule came from.
    """
    user_index = _index_by_match(user_rules, "user")
    client_index = _index_by_match(client_rules, "client")
    merged: list[Rule] = []
    for entry in user_rules:
        other = client_index.get(entry.match)
        if other is None or other.action == entry.action or policy is PriorityPolicy.USER:
            merged.append(Rule(entry.match, entry.action))
        else:
            merged.append(Rule(entry.match, other.action))
    for entry in client_rules:
        if entry.match not in user_index:
            merged.append(Rule(entry.match, entry.action))
    return RuleSet(version=version, rules=tuple(merged))
