"""Wire codec: frozen golden vectors, round trips, pipelining, and fuzzing.

Golden frame lengths were verified independently by summing the byte length
of each LF-terminated payload line before freezing (the canonical LOGIN
example payload is 40 bytes).
"""

import random
import string

import pytest
from hypothesis import given, strategies as st

from dacs import rules as rules_module, wire
from dacs.rules import Block, Destination, MatchKey, Rewrite, Rule, RuleSyntaxError, format_rule, parse_rule
from dacs.wire import (
    Ack,
    ErrorMsg,
    FieldTooLong,
    IdentityNotice,
    IllegalCharacter,
    Login,
    MalformedFrame,
    MissingField,
    OversizeFrame,
    PushNotice,
    RuleSetMsg,
    UnknownVerb,
    WireError,
    decode,
    encode,
)

GOLDEN = [
    (
        Login("userA", "192.168.10.5"),
        b"L:40\nLOGIN\nuser=userA\nclient_ip=192.168.10.5\n",
    ),
    (
        Login("op", "10.0.0.7"),
        b"L:33\nLOGIN\nuser=op\nclient_ip=10.0.0.7\n",
    ),
    (
        RuleSetMsg(1, (Rule(MatchKey("wwwserver", 80), Rewrite(Destination("192.168.1.1", 3000))),)),
        b"L:61\nRULESET\nversion=1\nrule=rewrite|wwwserver:80|192.168.1.1:3000\n",
    ),
    (
        RuleSetMsg(0, ()),
        b"L:18\nRULESET\nversion=0\n",
    ),
    (
        RuleSetMsg(12, (
            Rule(MatchKey("wwwserver", 80), Rewrite(Destination("192.168.1.1", 3002))),
            Rule(MatchKey("*", 25), Block()),
        )),
        b"L:78\nRULESET\nversion=12\nrule=rewrite|wwwserver:80|192.168.1.1:3002\nrule=block|*:25\n",
    ),
    (
        PushNotice(),
        b"L:5\nPUSH\n",
    ),
    (
        IdentityNotice("userA", "192.168.10.5", ("GroupA",)),
        b"L:57\nIDENTITY\nuser=userA\nclient_ip=192.168.10.5\ngroups=GroupA\n",
    ),
    (
        IdentityNotice("userB", "10.0.0.2", ("GroupB", "GroupC")),
        b"L:60\nIDENTITY\nuser=userB\nclient_ip=10.0.0.2\ngroups=GroupB,GroupC\n",
    ),
    (
        Ack(0),
        b"L:18\nACK\nref_version=0\n",
    ),
    (
        ErrorMsg("reload-error", "line 3: unknown section"),
        b"L:55\nERROR\ncode=reload-error\ndetail=line 3: unknown section\n",
    ),
]


def golden_id(value) -> str:
    """Show a rule set's rules as grammar lines, as its frame carries them."""
    if isinstance(value, RuleSetMsg):
        rules = tuple(format_rule(rule) for rule in value.rules)
        return f"RuleSetMsg(version={value.version}, rules={rules!r})"[:48]
    return repr(value)[:48]


@pytest.mark.parametrize("msg, frame", GOLDEN, ids=golden_id)
def test_golden_encode(msg, frame):
    if isinstance(frame, bytes):
        assert encode(msg) == frame


@pytest.mark.parametrize("msg, frame", GOLDEN, ids=golden_id)
def test_golden_decode_and_reencode(msg, frame):
    decoded, rest = decode(frame)
    assert decoded == msg
    assert rest == b""
    assert encode(decoded) == frame


def test_all_six_kinds_covered():
    kinds = {type(m) for m, _ in GOLDEN}
    assert kinds == {Login, RuleSetMsg, PushNotice, IdentityNotice, Ack, ErrorMsg}


# --- round trips ----------------------------------------------------------


def random_message(rng: random.Random) -> wire.Message:
    name = "".join(rng.choices(string.ascii_letters + string.digits + "_-.", k=rng.randrange(1, 12)))
    ip = ".".join(str(rng.randrange(0, 256)) for _ in range(4))
    kind = rng.randrange(6)
    if kind == 0:
        return Login(name, ip)
    if kind == 1:
        rules = []
        used = set()
        for _ in range(rng.randrange(0, 5)):
            match = MatchKey(rng.choice(["wwwserver", "mail-host", "*", "10.4.5.6"]), rng.randrange(1, 65536))
            if match in used:
                continue
            used.add(match)
            if rng.random() < 0.5:
                rules.append(Rule(match, Block()))
            else:
                rules.append(Rule(match, Rewrite(Destination("127.0.0.1", rng.randrange(1, 65536)))))
        return RuleSetMsg(rng.randrange(0, 10_000), tuple(rules))
    if kind == 2:
        return PushNotice()
    if kind == 3:
        groups = tuple(f"Group{c}" for c in rng.sample(string.ascii_uppercase, rng.randrange(0, 4)))
        return IdentityNotice(name, ip, groups)
    if kind == 4:
        return Ack(rng.randrange(0, 1_000_000))
    return ErrorMsg("err-" + str(rng.randrange(10)), "detail with spaces = and | chars")


def test_round_trip_200_random_messages_pipelined():
    rng = random.Random(4242)
    messages = [random_message(rng) for _ in range(200)]
    blob = b"".join(encode(m) for m in messages)
    out = []
    while blob:
        got = decode(blob)
        assert got is not None
        msg, blob = got
        out.append(msg)
    assert out == messages


def test_encode_is_canonical():
    a = IdentityNotice("u", "1.2.3.4", ("G1", "G2"))
    b = IdentityNotice("u", "1.2.3.4", ("G1", "G2"))
    assert encode(a) == encode(b)


def test_decode_never_reads_past_one_frame():
    tail = b"L:5\nPUSH\n" + b"garbage that is not a frame"
    msg, rest = decode(encode(Ack(3)) + tail)
    assert msg == Ack(3)
    assert rest == tail


# --- encode-side errors ----------------------------------------------------


@pytest.mark.parametrize(
    "msg",
    [
        Login("user A", "1.2.3.4"),
        Login("user|A", "1.2.3.4"),
        Login("user=A", "1.2.3.4"),
        Login("", "1.2.3.4"),
        Login("u", "not-an-ip"),
        Login("u", "1.2.3.4.5"),
        IdentityNotice("u", "1.2.3.4", ("Group,A",)),
        IdentityNotice("u", "1.2.3.4", ("",)),
        ErrorMsg("", "d"),
        ErrorMsg("has space", "d"),
        ErrorMsg("c", "line\nbreak"),
        Ack(-1),
        RuleSetMsg(1, (Rule(MatchKey("has space", 80), Block()),)),
        RuleSetMsg(1, (Rule(MatchKey("h", 0), Block()),)),
        RuleSetMsg(1, (Rule(MatchKey("h", 80), Rewrite(Destination("name.example", 80))),)),
        RuleSetMsg(1, (Rule(MatchKey("h", 80), Rewrite(Destination("10.0.0.1", 70000))),)),
        RuleSetMsg(1, (Rule(MatchKey("h:h", 80), Block()),)),
        RuleSetMsg(1, (Rule(MatchKey("", 80), Block()),)),
    ],
)
def test_encode_rejects_illegal_fields(msg):
    with pytest.raises(IllegalCharacter):
        encode(msg)


# a plausible host with at most one odd character at either end
HOSTS = st.builds(
    lambda host, odd, at_end: host + odd if at_end else odd + host,
    st.sampled_from(["", "*", "wwwserver", "localhost", "127.0.0.1", "10.0.0.256", "1.2.3"]),
    st.sampled_from(["", ":", "|", " ", "\n", "=", "*", "é"]),
    st.booleans(),
)
PORTS = st.one_of(st.integers(1, 65535), st.sampled_from([0, 65536, -1, True]))
RULES = st.builds(
    Rule,
    st.builds(MatchKey, HOSTS, PORTS),
    st.one_of(st.just(Block()), st.builds(Rewrite, st.builds(Destination, HOSTS, PORTS))),
)


@given(RULES)
def test_encode_accepts_a_rule_exactly_when_its_line_parses_back_to_it(rule):
    try:
        expected = parse_rule(format_rule(rule)) == rule
    except RuleSyntaxError:
        expected = False
    msg = RuleSetMsg(3, (rule,))
    try:
        frame = encode(msg)
    except IllegalCharacter:
        assert not expected
    else:
        assert expected
        assert decode(frame) == (msg, b"")


def test_encode_checks_each_rule_without_parsing(monkeypatch):
    calls = []

    def counting(name, func):
        def wrapper(*args):
            calls.append(name)
            return func(*args)
        return wrapper

    for module in (rules_module, wire):
        monkeypatch.setattr(module, "parse_rule", counting("parse_rule", module.parse_rule))
    msg = RuleSetMsg(1, tuple(
        Rule(MatchKey(f"h{i}", 80), Rewrite(Destination("127.0.0.1", 1000 + i)) if i % 2 else Block())
        for i in range(40)
    ))
    frame = encode(msg)
    assert calls == []
    assert decode(frame) == (msg, b"")


def test_encode_rejects_oversized_payload():
    rules = tuple(Rule(MatchKey(f"h{i}", 80), Block()) for i in range(90_000))
    with pytest.raises(FieldTooLong):
        encode(RuleSetMsg(1, rules))


# --- decode-side errors -----------------------------------------------------


def test_incomplete_inputs_return_none():
    frame = encode(Login("userA", "192.168.10.5"))
    for cut in range(len(frame)):
        assert decode(frame[:cut]) is None
    assert decode(b"") is None
    assert decode(b"L") is None
    assert decode(b"L:") is None
    assert decode(b"L:4") is None


@pytest.mark.parametrize(
    "data, kind",
    [
        (b"L:abc\nxxxx", MalformedFrame),
        (b"X:5\nPUSH\n", MalformedFrame),
        (b"L:\nPUSH\n", MalformedFrame),
        (b"L:5 \nPUSH\n", MalformedFrame),
        (b"L:123456789012\n", MalformedFrame),  # header longer than any valid one
        (b"L:99999999\n", OversizeFrame),
        (b"L:2000000\n", OversizeFrame),
        (b"L:1048577\n", OversizeFrame),
        (b"L:6\nNOPE!\n", UnknownVerb),
        (b"L:7\nLOGIN\n\n", MissingField),
        (b"L:17\nLOGIN\nuser=good\n\n", MissingField),
        (b"L:12\nACK\nwrong=1\n", MissingField),
        (b"L:21\nACK\nref_version=1\nx=\n", MalformedFrame),
        (b"L:20\nACK\nref_version=1.5\n", MalformedFrame),
        (b"L:19\nACK\nref_version=-1\n", MalformedFrame),
        (b"L:18\nACK\nref_version=00", MalformedFrame),  # payload must end with LF
        (b"L:18\nACK\rref_version=0\n", MalformedFrame),
        (b"L:28\nRULESET\nversion=1\nrule=junk\n", MalformedFrame),
        (b"L:33\nLOGIN\nuser=a b\nclient_ip=1.2.3.4\n", MalformedFrame),
        (b"L:24\nLOGIN\nuser=a\nclient_ipX\n", MissingField),  # no '=' on second line
        (b"L:4\n\xff\xfe\xfd\n", MalformedFrame),
    ],
)
def test_decode_error_kinds(data, kind):
    with pytest.raises(kind):
        decode(data)


def test_message_stream_over_socketpair():
    import socket

    left, right = socket.socketpair()
    sender, receiver = wire.MessageStream(left), wire.MessageStream(right)
    sender.send(Login("userA", "10.0.0.1"))
    sender.send(Ack(4))
    assert receiver.recv() == Login("userA", "10.0.0.1")
    assert receiver.recv() == Ack(4)
    left.close()
    assert receiver.recv() is None  # orderly EOF between frames
    right.close()


def test_message_stream_eof_mid_frame_is_an_error():
    import socket

    left, right = socket.socketpair()
    receiver = wire.MessageStream(right)
    left.sendall(encode(Ack(9))[:-3])
    left.close()
    with pytest.raises(MalformedFrame):
        receiver.recv()
    right.close()


def test_fuzz_decode_terminates_with_specified_outcomes():
    rng = random.Random(1234)
    interesting = [b"L:", b"\n", b"LOGIN", b"user=", b"=", b"L:5\nPUSH\n", b"|", b"\x00"]
    for i in range(10_000):
        if i % 3 == 0:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
        else:
            data = b"".join(rng.choice(interesting) for _ in range(rng.randrange(1, 8)))
        try:
            got = decode(data)
        except (MalformedFrame, UnknownVerb, MissingField, OversizeFrame):
            continue
        except WireError as exc:  # pragma: no cover - would be a spec violation
            raise AssertionError(f"unexpected error kind {type(exc).__name__} for {data!r}")
        assert got is None or isinstance(got, tuple)
