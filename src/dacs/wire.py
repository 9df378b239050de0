"""Framed text protocol between the rule server, client agents, and the web tier.

A frame is `L:` + ASCII decimal payload byte length + LF + payload. The
payload is a verb line followed by `key=value` lines in a fixed per-verb
order, every line LF-terminated. Encoding is canonical: equal messages
always produce byte-identical frames.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass

from .rules import (
    Rule,
    RuleSyntaxError,
    group_name_violations,
    is_ipv4,
    parse_rule,
    user_name_violations,
)
from .util import shut_and_close

FRAME_LIMIT = 1_048_576  # max payload bytes
_HEADER_MAX = len(b"L:1048576\n")


class WireError(Exception):
    """Base for every codec error."""


class MalformedFrame(WireError):
    pass


class UnknownVerb(WireError):
    pass


class MissingField(WireError):
    pass


class OversizeFrame(WireError):
    pass


class FieldTooLong(WireError):
    """Encode-side: the message does not fit in one frame."""


class IllegalCharacter(WireError):
    """Encode-side: a field violates its lexical constraints."""


@dataclass(frozen=True)
class Login:
    user: str
    client_ip: str


@dataclass(frozen=True)
class RuleSetMsg:
    version: int
    rules: tuple[Rule, ...]  # in installed order


@dataclass(frozen=True)
class PushNotice:
    """Server to client: re-apply the rule set that follows."""


@dataclass(frozen=True)
class IdentityNotice:
    user: str
    client_ip: str
    groups: tuple[str, ...]


@dataclass(frozen=True)
class Ack:
    ref_version: int


@dataclass(frozen=True)
class ErrorMsg:
    code: str
    detail: str


Message = Login | RuleSetMsg | PushNotice | IdentityNotice | Ack | ErrorMsg


def _checked(value: str, problems: list[str]) -> str:
    if problems:
        raise IllegalCharacter(f"{value!r}: " + "; ".join(problems))
    return value


def _check_user(name: str) -> str:
    return _checked(name, user_name_violations(name))


def _check_ip(ip: str) -> str:
    if not is_ipv4(ip):
        raise IllegalCharacter(f"not a dotted-quad IPv4 literal: {ip!r}")
    return ip


def _check_group(name: str) -> str:
    return _checked(name, group_name_violations(name))


def _check_version(value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise IllegalCharacter(f"version must be an integer >= 0, got {value!r}")
    return value


def _check_code(code: str) -> str:
    if not code:
        raise IllegalCharacter("empty error code")
    if any(c.isspace() for c in code) or "=" in code:
        raise IllegalCharacter(f"illegal character in error code {code!r}")
    return code


def _check_detail(detail: str) -> str:
    if "\n" in detail or "\r" in detail:
        raise IllegalCharacter("line break in error detail")
    return detail


def _payload(msg: Message) -> str:
    if isinstance(msg, Login):
        return "LOGIN\nuser=%s\nclient_ip=%s\n" % (
            _check_user(msg.user),
            _check_ip(msg.client_ip),
        )
    if isinstance(msg, RuleSetMsg):
        lines = ["RULESET", "version=%d" % _check_version(msg.version)]
        try:
            # each Rule formats and checks its line once, on first use
            lines += ["rule=" + rule.line for rule in msg.rules]
        except RuleSyntaxError as exc:
            raise IllegalCharacter(str(exc)) from None
        return "\n".join(lines) + "\n"
    if isinstance(msg, PushNotice):
        return "PUSH\n"
    if isinstance(msg, IdentityNotice):
        groups = ",".join(_check_group(g) for g in msg.groups)
        return "IDENTITY\nuser=%s\nclient_ip=%s\ngroups=%s\n" % (
            _check_user(msg.user),
            _check_ip(msg.client_ip),
            groups,
        )
    if isinstance(msg, Ack):
        return "ACK\nref_version=%d\n" % _check_version(msg.ref_version)
    if isinstance(msg, ErrorMsg):
        return "ERROR\ncode=%s\ndetail=%s\n" % (
            _check_code(msg.code),
            _check_detail(msg.detail),
        )
    raise TypeError(f"not a wire message: {msg!r}")


def encode(msg: Message) -> bytes:
    """Encode one message as its unique canonical frame."""
    payload = _payload(msg).encode("utf-8")
    if len(payload) > FRAME_LIMIT:
        raise FieldTooLong(f"payload of {len(payload)} bytes exceeds {FRAME_LIMIT}")
    return b"L:%d\n%s" % (len(payload), payload)


def _take(fields: list[str], index: int, key: str, verb: str) -> str:
    if index >= len(fields):
        raise MissingField(f"{verb}: missing {key}")
    name, sep, value = fields[index].partition("=")
    if not sep or name != key:
        raise MissingField(f"{verb}: expected {key}, got {fields[index]!r}")
    return value


def _no_more(fields: list[str], index: int, verb: str) -> None:
    if index < len(fields):
        raise MalformedFrame(f"{verb}: unexpected extra line {fields[index]!r}")


def _as_version(value: str, verb: str) -> int:
    if not value.isascii() or not value.isdigit():
        raise MalformedFrame(f"{verb}: bad version {value!r}")
    return int(value)


def _parse_payload(payload: bytes, rule_lines: dict[str, Rule] | None) -> Message:
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedFrame("payload is not UTF-8") from None
    if not text.endswith("\n"):
        raise MalformedFrame("payload must end with LF")
    if "\r" in text:
        raise MalformedFrame("CR is never part of a frame")
    lines = text[:-1].split("\n")
    verb, fields = lines[0], lines[1:]

    if verb == "LOGIN":
        user = _take(fields, 0, "user", verb)
        client_ip = _take(fields, 1, "client_ip", verb)
        _no_more(fields, 2, verb)
        return Login(_decoded(_check_user, user), _decoded(_check_ip, client_ip))
    if verb == "RULESET":
        version = _as_version(_take(fields, 0, "version", verb), verb)
        known = rule_lines if rule_lines is not None else {}
        decoded: dict[str, Rule] = {}
        rules = []
        for field in fields[1:]:
            rule = known.get(field)
            if rule is None:
                name, sep, value = field.partition("=")
                if not sep or name != "rule":
                    raise MalformedFrame(f"{verb}: expected rule=, got {field!r}")
                try:
                    rule = parse_rule(value)
                except RuleSyntaxError as exc:
                    raise MalformedFrame(f"{verb}: bad rule line: {exc}") from None
            decoded[field] = rule
            rules.append(rule)
        if rule_lines is not None:
            rule_lines.clear()
            rule_lines.update(decoded)
        return RuleSetMsg(version, tuple(rules))
    if verb == "PUSH":
        _no_more(fields, 0, verb)
        return PushNotice()
    if verb == "IDENTITY":
        user = _take(fields, 0, "user", verb)
        client_ip = _take(fields, 1, "client_ip", verb)
        raw_groups = _take(fields, 2, "groups", verb)
        _no_more(fields, 3, verb)
        groups = tuple(_decoded(_check_group, g) for g in raw_groups.split(",")) if raw_groups else ()
        return IdentityNotice(_decoded(_check_user, user), _decoded(_check_ip, client_ip), groups)
    if verb == "ACK":
        ref = _as_version(_take(fields, 0, "ref_version", verb), verb)
        _no_more(fields, 1, verb)
        return Ack(ref)
    if verb == "ERROR":
        code = _take(fields, 0, "code", verb)
        detail = _take(fields, 1, "detail", verb)
        _no_more(fields, 2, verb)
        return ErrorMsg(_decoded(_check_code, code), detail)
    raise UnknownVerb(repr(verb))


def _decoded(check, value: str) -> str:
    """Apply an encode-side field check to a received field."""
    try:
        return check(value)
    except IllegalCharacter as exc:
        raise MalformedFrame(str(exc)) from None


def decode(data: bytes, rule_lines: dict[str, Rule] | None = None) -> tuple[Message, bytes] | None:
    """Decode one complete frame from the front of `data`.

    Returns (message, untouched suffix), or None when more bytes are needed.
    Never reads past the first frame.

    `rule_lines` maps the `rule=` lines of the last RULESET decoded to their
    Rules. A line found there is not parsed again, and a RULESET that
    decodes replaces the map's contents with its own lines; any other frame,
    or one that fails, leaves the map as it was.
    """
    if not data:
        return None
    if not b"L:".startswith(data[:2]):
        raise MalformedFrame("frame must start with 'L:'")
    newline = data.find(b"\n", 2, _HEADER_MAX + 1)
    if newline < 0:
        if len(data) > _HEADER_MAX:
            raise MalformedFrame("length header too long")
        if len(data) > 2 and not data[2:].isdigit():
            raise MalformedFrame("non-decimal frame length")
        return None
    digits = data[2:newline]
    if not digits.isdigit():
        raise MalformedFrame("non-decimal frame length")
    length = int(digits)
    if length > FRAME_LIMIT:
        raise OversizeFrame(str(length))
    end = newline + 1 + length
    if len(data) < end:
        return None
    return _parse_payload(data[newline + 1 : end], rule_lines), bytes(data[end:])


class MessageStream:
    """One framed-message connection; owns the reassembly buffer for a socket,
    and the line -> Rule map of the last rule set it received."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buf = b""
        self._rule_lines: dict[str, Rule] = {}

    def send(self, msg: Message) -> None:
        self.sock.sendall(encode(msg))

    def recv(self) -> Message | None:
        """Next message, or None on orderly EOF between frames."""
        while True:
            got = decode(self._buf, self._rule_lines)
            if got is not None:
                msg, self._buf = got
                return msg
            chunk = self.sock.recv(65536)
            if not chunk:
                if self._buf:
                    raise MalformedFrame("connection closed mid-frame")
                return None
            self._buf += chunk

    def close(self) -> None:
        shut_and_close(self.sock)
