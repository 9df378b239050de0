"""Secure channel and tunnel endpoints: fidelity, key handling, tampering,
selectivity, and the double-rewrite policy check against a pairing oracle."""

import os
import random
import socket
import threading

import pytest

from conftest import EchoServer, TapProxy
from dacs.rules import Block, Destination, MatchKey, Rewrite, Rule, RuleSet
from dacs.tunnel import (
    HandshakeError,
    KeyFileError,
    SecureChannel,
    TunnelClient,
    TunnelError,
    TunnelServer,
    TunnelSpec,
    establish_tunnel,
    load_key,
    server_tunnel_listener,
    tunnel_policy_check,
)

PSK = bytes(range(32))
OTHER_PSK = bytes(range(1, 33))


def oracle_policy_check(rules, tunnels):
    """Independent pairing check: classify every tunnel and every localhost
    rewrite by explicit case analysis; returns sets of offender labels."""
    offenders = set()
    rule_for = {}
    for rule in rules:
        rule_for[(rule.match.host, rule.match.port)] = rule
    ports = [t.local_port for t in tunnels]
    for t in tunnels:
        if ports.count(t.local_port) > 1:
            offenders.add(("dup-port", t.local_port))
        rule = rule_for.get((t.service_match.host, t.service_match.port))
        if rule is None:
            offenders.add(("orphan", t.service_match))
        elif isinstance(rule.action, Block):
            offenders.add(("blocked", t.service_match))
        elif not (
            rule.action.new_dst.host == "127.0.0.1"
            and rule.action.new_dst.port == t.local_port
        ):
            offenders.add(("mismatch", t.service_match))
    for rule in rules:
        if isinstance(rule.action, Rewrite) and rule.action.new_dst.host in ("127.0.0.1", "localhost"):
            if rule.action.new_dst.port not in set(ports):
                offenders.add(("dangling", rule.match))
    return offenders


def classify_report(problems):
    import re

    got = set()
    for line in problems:
        if line.startswith("duplicate tunnel local port "):
            got.add(("dup-port", int(line.rsplit(" ", 1)[1])))
        elif line.startswith("orphaned tunnel"):
            got.add(("orphan", _match_of(re.search(r"for (\S+):(\d+)$", line))))
        elif line.startswith("conflict"):
            got.add(("blocked", _match_of(re.search(r"conflict: (\S+):(\d+) is", line))))
        elif line.startswith("mismatched pair"):
            got.add(("mismatch", _match_of(re.search(r"tunnel for (\S+):(\d+) expects", line))))
        elif line.startswith("dangling localhost rewrite"):
            host, port = line.split("|")[1].rsplit(":", 1)
            got.add(("dangling", MatchKey(host, int(port))))
        else:
            raise AssertionError(f"unclassifiable report line {line!r}")
    return got


def _match_of(match):
    assert match is not None
    return MatchKey(match.group(1), int(match.group(2)))


# --- key files -------------------------------------------------------------


def test_load_key_raw_and_hex(tmp_path):
    raw = tmp_path / "raw.key"
    raw.write_bytes(PSK)
    assert load_key(raw) == PSK
    hexfile = tmp_path / "hex.key"
    hexfile.write_text(PSK.hex() + "\n")
    assert load_key(hexfile) == PSK
    bare_hex = tmp_path / "bare.key"
    bare_hex.write_text(PSK.hex())
    assert load_key(bare_hex) == PSK


@pytest.mark.parametrize("content", [b"", b"short", b"x" * 31, b"x" * 33, b"zz" * 32 + b"\n"])
def test_load_key_rejects_bad_files(tmp_path, content):
    path = tmp_path / "bad.key"
    path.write_bytes(content)
    with pytest.raises(KeyFileError):
        load_key(path)


# --- raw channel -------------------------------------------------------------


def _channel_pair(client_psk=PSK, server_psk=PSK):
    """Handshake a client/server channel pair over a socketpair-like link."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    results = {}

    def serve():
        conn, _ = listener.accept()
        try:
            results["server"] = SecureChannel.server(conn, server_psk)
        except HandshakeError as exc:
            results["server_error"] = exc
            conn.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    sock = socket.create_connection(listener.getsockname(), timeout=5)
    sock.settimeout(5)
    try:
        results["client"] = SecureChannel.client(sock, client_psk)
    except HandshakeError as exc:
        results["client_error"] = exc
        sock.close()
    thread.join(timeout=5)
    listener.close()
    return results


def test_channel_round_trip_and_chunking():
    pair = _channel_pair()
    client, server = pair["client"], pair["server"]
    payload = os.urandom(200_000)  # forces several records
    client.send(payload)
    got = b""
    while len(got) < len(payload):
        got += server.recv()
    assert got == payload
    server.send(b"reply")
    assert client.recv() == b"reply"
    client.close()
    server.close()


def test_wrong_psk_fails_handshake_both_sides():
    pair = _channel_pair(client_psk=PSK, server_psk=OTHER_PSK)
    assert "client" not in pair or "server" not in pair
    assert isinstance(pair.get("client_error") or pair.get("server_error"), HandshakeError)


def test_ciphertext_differs_from_plaintext():
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    tap = TapProxy(listener.getsockname())
    marker = b"M" * 64

    def serve():
        conn, _ = listener.accept()
        server = SecureChannel.server(conn, PSK)
        assert server.recv() == marker
        server.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    sock = socket.create_connection(tap.address, timeout=5)
    client = SecureChannel.client(sock, PSK)
    client.send(marker)
    thread.join(timeout=5)
    client.close()
    tap.close()
    listener.close()
    assert marker not in bytes(tap.captured)


# --- tunnel endpoints ---------------------------------------------------------


def _tunnel_pair(echo_address):
    server_end = server_tunnel_listener(
        Destination("127.0.0.1", 0), Destination(*echo_address), PSK
    )
    spec = TunnelSpec(
        service_match=MatchKey("svc", 9000),
        local_port=0,
        remote_endpoint=Destination(*server_end.address),
        key_id="test",
    )
    client_end = establish_tunnel(spec, PSK)
    return client_end, server_end


def test_echo_through_tunnel_is_bit_exact(echo_server):
    client_end, server_end = _tunnel_pair(echo_server.address)
    payload = os.urandom(262_144)
    with socket.create_connection(client_end.address, timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        got = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            got += chunk
    assert got == payload
    client_end.close()
    server_end.close()


def test_two_sessions_do_not_cross_talk(echo_server):
    client_end, server_end = _tunnel_pair(echo_server.address)
    payloads = {"a": b"AAAA" * 2048 + b"tag-a", "b": b"BBBB" * 2048 + b"tag-b"}
    results = {}

    def one(name):
        with socket.create_connection(client_end.address, timeout=5) as sock:
            sock.sendall(payloads[name])
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
            results[name] = data

    threads = [threading.Thread(target=one, args=(n,)) for n in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert results["a"] == payloads["a"]
    assert results["b"] == payloads["b"]
    assert b"tag-b" not in results["a"]
    client_end.close()
    server_end.close()


def test_plain_connection_to_tunnel_listener_is_rejected(echo_server):
    client_end, server_end = _tunnel_pair(echo_server.address)
    before = echo_server.accepted
    # no handshake: 16 junk "nonce" bytes plus one complete junk record, so
    # the listener's key confirmation fails immediately and closes us
    junk = b"x" * 16 + b"\x00\x20" + b"y" * 0x20
    with socket.create_connection(server_end.address, timeout=5) as sock:
        sock.sendall(junk)
        sock.settimeout(5)
        while True:  # drain the rejected handshake until EOF
            if not sock.recv(65536):
                break
    assert echo_server.accepted == before  # nothing reached the service
    client_end.close()
    server_end.close()


def test_flipped_ciphertext_bit_kills_session(echo_server):
    server_end = server_tunnel_listener(
        Destination("127.0.0.1", 0), Destination(*echo_server.address), PSK
    )
    tap = TapProxy(server_end.address)
    client_end = TunnelClient(0, Destination(*tap.address), PSK).start()

    # session 1, untampered: prove the path works
    with socket.create_connection(client_end.address, timeout=5) as sock:
        sock.sendall(b"hello")
        assert sock.recv(5) == b"hello"

    # session 2: corrupt one bit well past the handshake
    tap.mangle_at = len(bytes(tap.captured)) + 16 + 2 + 15 + 16 + 2 + 10
    marker = b"should never come back" * 100
    with socket.create_connection(client_end.address, timeout=5) as sock:
        sock.sendall(marker)
        sock.settimeout(3)
        received = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except socket.timeout:
            pass
    assert marker not in received
    assert received == b""  # nothing delivered from the corrupted session
    tap.close()
    client_end.close()
    server_end.close()


def test_selectivity_marker_visible_only_on_plain_service(echo_server):
    marker = os.urandom(32).hex().encode()  # 64 printable marker bytes
    # service X: tunneled. capture the agent<->server leg with a tap
    server_end = server_tunnel_listener(
        Destination("127.0.0.1", 0), Destination(*echo_server.address), PSK
    )
    tap_x = TapProxy(server_end.address)
    client_end = TunnelClient(0, Destination(*tap_x.address), PSK).start()
    with socket.create_connection(client_end.address, timeout=5) as sock:
        sock.sendall(marker)
        assert sock.recv(len(marker)) == marker
    # service Y: plain. same marker through a bare tap
    tap_y = TapProxy(echo_server.address)
    with socket.create_connection(tap_y.address, timeout=5) as sock:
        sock.sendall(marker)
        assert sock.recv(len(marker)) == marker
    assert marker not in bytes(tap_x.captured)
    assert marker in bytes(tap_y.captured)
    for closer in (tap_x, tap_y, client_end, server_end):
        closer.close()


# --- policy check -------------------------------------------------------------


def _spec(host, port, local_port):
    return TunnelSpec(MatchKey(host, port), local_port, Destination("10.0.0.8", 19000), "k")


def test_establish_tunnel_verifies_pairing_at_activation(echo_server):
    from dacs.tunnel import TunnelError

    spec = TunnelSpec(MatchKey("svc", 9000), 15000, Destination(*echo_server.address), "k")
    consistent = RuleSet(1, (Rule(MatchKey("svc", 9000), Rewrite(Destination("127.0.0.1", 15000))),))
    inconsistent = RuleSet(1, (Rule(MatchKey("svc", 9000), Rewrite(Destination("127.0.0.1", 15999))),))
    with pytest.raises(TunnelError):
        establish_tunnel(spec, PSK, control_rules=inconsistent)
    endpoint = establish_tunnel(spec, PSK, control_rules=consistent)
    endpoint.close()


def test_policy_check_consistent_pair_is_ok():
    rules = RuleSet(1, (Rule(MatchKey("svc", 9000), Rewrite(Destination("127.0.0.1", 15000))),))
    assert tunnel_policy_check(rules, [_spec("svc", 9000, 15000)]) == []


def test_policy_check_orphaned_tunnel():
    report = tunnel_policy_check(RuleSet(1, ()), [_spec("svc", 9000, 15000)])
    assert len(report) == 1 and "orphaned tunnel" in report[0]


def test_policy_check_dangling_rewrite():
    rules = RuleSet(1, (Rule(MatchKey("svc", 9000), Rewrite(Destination("127.0.0.1", 15000))),))
    report = tunnel_policy_check(rules, [])
    assert len(report) == 1 and "dangling localhost rewrite" in report[0]


def test_policy_check_block_conflict_is_reported_not_resolved():
    rules = RuleSet(1, (Rule(MatchKey("svc", 9000), Block()),))
    report = tunnel_policy_check(rules, [_spec("svc", 9000, 15000)])
    assert any("both tunneled and blocked" in line for line in report)


def test_tunneled_web_body_equals_direct_body(tmp_path):
    from dacs.experiment import materialize_sample_app
    from dacs.util import http_exchange
    from dacs.web import VHostBinding, VHostServer

    docroot = materialize_sample_app(tmp_path / "app")
    web = VHostServer([VHostBinding("127.0.0.1", 0, docroot)]).start()
    web_addr = ("127.0.0.1", web.bindings[0].port)

    def get_index(addr):
        with socket.create_connection(addr, timeout=5) as sock:
            status, _, body = http_exchange(sock, "GET", "/index.html", "wwwserver")
        assert status == 200
        return body

    direct_body = get_index(web_addr)
    server_end = server_tunnel_listener(Destination("127.0.0.1", 0), Destination(*web_addr), PSK)
    client_end = establish_tunnel(
        TunnelSpec(MatchKey("wwwserver", 80), 0, Destination(*server_end.address), "k"), PSK
    )
    tunneled_body = get_index(client_end.address)
    assert tunneled_body == direct_body
    client_end.close()
    server_end.close()
    web.stop()


def test_interception_resistance_only_agent_users_get_through():
    from dacs.agent import ConnectError, DacsAgent
    from dacs.util import free_port

    # hardened layout: the service listens only on the server's internal
    # address; its advertised plain port is blocked (nothing bound there)
    internal = EchoServer(host="127.0.0.2")
    plain_port = free_port()
    server_end = server_tunnel_listener(
        Destination("127.0.0.1", 0), Destination(*internal.address), PSK
    )
    local_port = free_port()
    client_end = TunnelClient(local_port, Destination(*server_end.address), PSK).start()

    # a client without the agent dials the advertised plain endpoint: refused
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", plain_port), timeout=1).close()

    # a client with the agent is rewritten into the tunnel and gets through
    agent = DacsAgent(("127.0.0.1", 1), "userA", "10.0.0.1")
    agent.install_ruleset(
        RuleSet(1, (Rule(MatchKey("svc", plain_port), Rewrite(Destination("127.0.0.1", local_port))),))
    )
    sock = agent.open_connection(Destination("svc", plain_port), timeout=5)
    sock.sendall(b"inside")
    assert sock.recv(6) == b"inside"
    sock.close()
    agent.close()
    client_end.close()
    server_end.close()
    internal.close()


def test_tunnel_client_closes_local_conn_when_remote_unreachable():
    from dacs.util import free_port

    dead_port = free_port()
    client_end = TunnelClient(0, Destination("127.0.0.1", dead_port), PSK).start()
    with socket.create_connection(client_end.address, timeout=5) as sock:
        sock.settimeout(5)
        assert sock.recv(1) == b""  # closed immediately, nothing relayed
    client_end.close()


def test_tunnel_endpoints_report_a_taken_port_as_tunnel_error():
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        with pytest.raises(TunnelError, match="cannot bind"):
            TunnelClient(port, Destination("127.0.0.1", 1), PSK)
        with pytest.raises(TunnelError, match="cannot bind"):
            TunnelServer(Destination("127.0.0.1", port), Destination("127.0.0.1", 1), PSK)


def test_sctl_cli_round_trip(tmp_path, echo_server):
    from conftest import spawn_cli
    from dacs.util import free_port, wait_for_port

    key_file = tmp_path / "psk.key"
    key_file.write_text(PSK.hex() + "\n")
    listen, local = free_port(), free_port()
    server_proc = spawn_cli([
        "dacs.tunnel", "server",
        "--listen", f"127.0.0.1:{listen}",
        "--forward", f"127.0.0.1:{echo_server.address[1]}",
        "--key", str(key_file),
    ])
    client_proc = spawn_cli([
        "dacs.tunnel", "client",
        "--local", str(local),
        "--remote", f"127.0.0.1:{listen}",
        "--key", str(key_file),
    ])
    try:
        assert wait_for_port("127.0.0.1", listen)
        assert wait_for_port("127.0.0.1", local)
        with socket.create_connection(("127.0.0.1", local), timeout=5) as sock:
            sock.sendall(b"cli tunnel payload")
            sock.shutdown(socket.SHUT_WR)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert data == b"cli tunnel payload"
    finally:
        for proc in (client_proc, server_proc):
            proc.terminate()
            proc.communicate(timeout=5)  # reaps it and closes its pipes


def test_policy_check_twenty_random_configs_match_oracle():
    rng = random.Random(2020)
    hosts = ["svc", "mail", "db"]
    for _ in range(20):
        rules = []
        used = set()
        for _ in range(rng.randrange(0, 5)):
            key = MatchKey(rng.choice(hosts), rng.choice([9000, 9100, 9200]))
            if key in used:
                continue
            used.add(key)
            roll = rng.random()
            if roll < 0.3:
                action = Block()
            elif roll < 0.8:
                action = Rewrite(Destination("127.0.0.1", rng.choice([15000, 15001, 15002])))
            else:
                action = Rewrite(Destination("10.9.9.9", 80))
            rules.append(Rule(key, action))
        tunnels = [
            _spec(rng.choice(hosts), rng.choice([9000, 9100, 9200]), rng.choice([15000, 15001, 15002]))
            for _ in range(rng.randrange(0, 4))
        ]
        ruleset = RuleSet(1, tuple(rules))
        got = classify_report(tunnel_policy_check(ruleset, tunnels))
        want = oracle_policy_check(ruleset.rules, tunnels)
        assert got == want
