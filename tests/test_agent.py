"""Agent control layer: installation, redirectors, dial decisions, blocking
silence, transparency, and snapshot atomicity under racing installs."""

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from conftest import TagServer, no_resource_warnings, port_refuses
from dacs import agent as agent_module, wire
from dacs.agent import BlockedError, ConnectError, DacsAgent, ProtocolError, VirtualDial
from dacs.rules import (
    Block,
    Destination,
    MatchKey,
    Pass,
    Rewrite,
    Rule,
    RuleSet,
)
from dacs.util import POOL


@pytest.fixture
def agent():
    instance = DacsAgent(("127.0.0.1", 1), "userA", "10.0.0.1")
    yield instance
    instance.close()


def ruleset(version, *rules):
    return RuleSet(version, tuple(rules))


def rewrite_to(addr):
    return Rewrite(Destination(addr[0], addr[1]))


def drain(sock):
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


# --- install / teardown -----------------------------------------------------


def test_install_creates_redirectors_for_concrete_rewrites_only(agent, echo_server):
    installed = agent.install_ruleset(ruleset(
        1,
        Rule(MatchKey("svc", 80), rewrite_to(echo_server.address)),
        Rule(MatchKey("*", 25), rewrite_to(echo_server.address)),
        Rule(MatchKey("bad", 53), Block()),
    ))
    assert set(installed.redirectors) == {MatchKey("svc", 80)}


def test_reinstall_same_rules_is_idempotent(agent, echo_server):
    rule = Rule(MatchKey("svc", 80), rewrite_to(echo_server.address))
    first = agent.install_ruleset(ruleset(1, rule))
    again = agent.install_ruleset(ruleset(2, rule))
    assert again.snapshot.version == 2
    assert again.redirectors[MatchKey("svc", 80)] is first.redirectors[MatchKey("svc", 80)]


def test_install_tears_down_removed_redirectors(agent, echo_server):
    installed = agent.install_ruleset(
        ruleset(1, Rule(MatchKey("svc", 80), rewrite_to(echo_server.address)))
    )
    port = installed.redirectors[MatchKey("svc", 80)].address[1]
    agent.install_ruleset(ruleset(2))
    assert agent.installed.redirectors == {}
    assert port_refuses(port)


def test_teardown_completeness_after_empty_install(agent, echo_server):
    keys = [MatchKey(f"svc{i}", 80 + i) for i in range(4)]
    installed = agent.install_ruleset(
        ruleset(1, *(Rule(k, rewrite_to(echo_server.address)) for k in keys))
    )
    ports = [r.address[1] for r in installed.redirectors.values()]
    assert len(ports) == 4
    agent.install_ruleset(ruleset(2))
    for port in ports:
        assert port_refuses(port)


def test_redirector_forwards_external_clients(agent, echo_server):
    installed = agent.install_ruleset(
        ruleset(1, Rule(MatchKey("svc", 80), rewrite_to(echo_server.address)))
    )
    addr = installed.redirectors[MatchKey("svc", 80)].address
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"through the side door")
        sock.shutdown(socket.SHUT_WR)
        assert drain(sock) == b"through the side door"


def test_redirected_session_closes_both_of_its_sockets(agent, echo_server):
    installed = agent.install_ruleset(
        ruleset(1, Rule(MatchKey("svc", 80), rewrite_to(echo_server.address)))
    )
    addr = installed.redirectors[MatchKey("svc", 80)].address
    busy_before, _ = POOL.counts()
    with no_resource_warnings():
        with socket.create_connection(addr, timeout=5) as sock:
            sock.sendall(b"one session")
            sock.shutdown(socket.SHUT_WR)
            assert drain(sock) == b"one session"
        deadline = time.monotonic() + 5
        while POOL.counts()[0] > busy_before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert POOL.counts()[0] <= busy_before  # the session's handler and relay ended


def test_redirected_session_relays_with_no_idle_deadline(agent, echo_server, monkeypatch):
    timeouts = []
    relay = agent_module.relay

    def recording_relay(a, b):
        timeouts.append((a.gettimeout(), b.gettimeout()))
        relay(a, b)

    monkeypatch.setattr(agent_module, "relay", recording_relay)
    installed = agent.install_ruleset(
        ruleset(1, Rule(MatchKey("svc", 80), rewrite_to(echo_server.address)))
    )
    with socket.create_connection(installed.redirectors[MatchKey("svc", 80)].address, timeout=5) as sock:
        sock.sendall(b"idle later")
        sock.shutdown(socket.SHUT_WR)
        assert drain(sock) == b"idle later"
    assert timeouts == [(None, None)]  # one per session


# --- dialing ------------------------------------------------------------------


def test_pass_dial_round_trips_unmodified(agent, echo_server):
    agent.install_ruleset(ruleset(1))
    payload = b"\x00\x01binary ok\xff" * 100
    sock = agent.open_connection(Destination(*echo_server.address))
    with sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        assert drain(sock) == payload
    dial = agent.dial_log[-1]
    assert dial.decision == Pass()
    assert dial.effective == Destination(*echo_server.address)


def test_rewrite_dial_reaches_standin(agent, echo_server):
    agent.install_ruleset(
        ruleset(3, Rule(MatchKey("wwwserver", 80), rewrite_to(echo_server.address)))
    )
    sock = agent.open_connection(Destination("wwwserver", 80))
    with sock:
        sock.sendall(b"ping")
        sock.shutdown(socket.SHUT_WR)
        assert drain(sock) == b"ping"
    dial = agent.dial_log[-1]
    assert dial.requested == Destination("wwwserver", 80)
    assert dial.effective == Destination(*echo_server.address)
    assert dial.version == 3


def test_blocked_dial_is_silent_at_the_wire(agent):
    canary = TagServer(b"should never be seen")
    agent.install_ruleset(ruleset(1, Rule(MatchKey(canary.address[0], canary.address[1]), Block())))
    for _ in range(25):
        with pytest.raises(BlockedError):
            agent.open_connection(Destination(*canary.address))
    assert canary.accepted == 0
    canary.close()


def test_dial_log_keeps_the_latest_dials_only(agent):
    agent.install_ruleset(ruleset(1, Rule(MatchKey("*", 9), Block())))
    for i in range(agent_module.DIAL_LOG_MAX + 1):
        with pytest.raises(BlockedError):
            agent.open_connection(Destination(f"h{i}", 9))
    assert len(agent.dial_log) == agent_module.DIAL_LOG_MAX
    assert agent.dial_log[0].requested == Destination("h1", 9)
    assert agent.dial_log[-1].requested == Destination(f"h{agent_module.DIAL_LOG_MAX}", 9)


def test_blocked_and_connect_errors_are_distinct(agent):
    agent.install_ruleset(ruleset(1, Rule(MatchKey("gone", 9), Block())))
    with pytest.raises(BlockedError):
        agent.open_connection(Destination("gone", 9))
    dead = socket.socket()
    dead.bind(("127.0.0.1", 0))
    dead_addr = dead.getsockname()
    dead.close()
    with pytest.raises(ConnectError):
        agent.open_connection(Destination(dead_addr[0], dead_addr[1]), timeout=1)


def test_preamble_prefixes_every_effective_stream(echo_server):
    agent = DacsAgent(("127.0.0.1", 1), "userA", "10.0.0.42", preamble=True)
    agent.install_ruleset(ruleset(1, Rule(MatchKey("svc", 80), rewrite_to(echo_server.address))))
    # rewrite dial
    sock = agent.open_connection(Destination("svc", 80))
    with sock:
        sock.sendall(b"app bytes")
        sock.shutdown(socket.SHUT_WR)
        assert drain(sock) == b"DACS1 10.0.0.42\napp bytes"
    # pass dial carries it too
    sock = agent.open_connection(Destination(*echo_server.address))
    with sock:
        sock.shutdown(socket.SHUT_WR)
        assert drain(sock) == b"DACS1 10.0.0.42\n"
    # and redirector-forwarded connections
    addr = agent.installed.redirectors[MatchKey("svc", 80)].address
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"ext")
        sock.shutdown(socket.SHUT_WR)
        assert drain(sock) == b"DACS1 10.0.0.42\next"
    agent.close()


def test_wildcard_block_with_exact_escape(agent, echo_server):
    agent.install_ruleset(ruleset(
        1,
        Rule(MatchKey("*", echo_server.address[1]), Block()),
        Rule(MatchKey("allowed", echo_server.address[1]), rewrite_to(echo_server.address)),
    ))
    sock = agent.open_connection(Destination("allowed", echo_server.address[1]))
    sock.close()
    with pytest.raises(BlockedError):
        agent.open_connection(Destination("other", echo_server.address[1]))


# --- snapshot atomicity ----------------------------------------------------------


def test_dials_race_one_install_without_torn_reads(agent):
    target_n = TagServer(b"N")
    target_n1 = TagServer(b"N1")
    match = MatchKey("svc", 80)
    agent.install_ruleset(ruleset(5, Rule(match, rewrite_to(target_n.address))))
    expected = {
        5: Destination(*target_n.address),
        6: Destination(*target_n1.address),
    }
    started = threading.Event()

    def dial(_):
        started.set()
        sock = agent.open_connection(Destination("svc", 80), timeout=5)
        tag = sock.recv(16)
        sock.close()
        return tag

    def installer():
        started.wait()
        agent.install_ruleset(ruleset(6, Rule(match, rewrite_to(target_n1.address))))

    flipper = threading.Thread(target=installer)
    with ThreadPoolExecutor(max_workers=16) as pool:
        futures = [pool.submit(dial, i) for i in range(200)]
        flipper.start()
        tags = [f.result() for f in futures]
    flipper.join()

    dials = [d for d in agent.dial_log if isinstance(d, VirtualDial)]
    assert len(dials) == 200
    assert {d.version for d in dials} <= {5, 6}
    for dial_record in dials:
        assert dial_record.effective == expected[dial_record.version]
    assert tags.count(b"N") + tags.count(b"N1") == 200
    target_n.close()
    target_n1.close()


# --- rule distribution ------------------------------------------------------------


def ruleset_frame(version, *lines):
    """A RULESET frame built by hand, so it may carry what encode refuses."""
    payload = f"RULESET\nversion={version}\n" + "".join(f"rule={line}\n" for line in lines)
    return b"L:%d\n%s" % (len(payload), payload.encode("ascii"))


@pytest.fixture
def rule_server():
    """A listening socket standing in for dacsd; the test speaks its side."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    yield listener
    listener.close()


def test_login_with_a_malformed_rule_line_raises_protocol_error(rule_server):
    client = DacsAgent(rule_server.getsockname(), "userA", "10.0.0.1")
    with ThreadPoolExecutor(1) as pool:
        login = pool.submit(client.login, 5)
        conn, _ = rule_server.accept()
        with conn:
            conn.settimeout(5)
            assert isinstance(wire.MessageStream(conn).recv(), wire.Login)
            conn.sendall(ruleset_frame(1, "block|h:80", "block|h:99999"))
            with pytest.raises(ProtocolError):
                login.result(timeout=5)
    assert client.installed.snapshot.version == 0
    client.close()


def test_pushed_duplicate_match_key_is_rejected_and_the_next_push_installs(rule_server, caplog):
    client = DacsAgent(rule_server.getsockname(), "userA", "10.0.0.1")
    push = wire.encode(wire.PushNotice())
    with ThreadPoolExecutor(1) as pool:
        login = pool.submit(client.login, 5)
        conn, _ = rule_server.accept()
        conn.settimeout(5)
        stream = wire.MessageStream(conn)
        assert isinstance(stream.recv(), wire.Login)
        conn.sendall(ruleset_frame(1, "block|h:80"))
        assert stream.recv() == wire.Ack(1)
        login.result(timeout=5)
    try:
        conn.sendall(push + ruleset_frame(2, "block|h:81", "rewrite|h:81|127.0.0.1:9"))
        deadline = time.monotonic() + 5
        while "pushed rule set rejected" not in caplog.text and time.monotonic() < deadline:
            time.sleep(0.01)
        assert "pushed rule set rejected" in caplog.text
        assert client.installed.snapshot == ruleset(1, Rule(MatchKey("h", 80), Block()))
        conn.sendall(push + ruleset_frame(3, "block|h:82"))
        assert stream.recv() == wire.Ack(3)  # version 2 was never acked
        assert client.installed.snapshot == ruleset(3, Rule(MatchKey("h", 82), Block()))
    finally:
        client.close()
        stream.close()


def test_login_parses_each_delivered_rule_once(tmp_path, monkeypatch):
    from dacs.server import DacsServer

    count = 40
    repo = tmp_path / "repo.conf"
    repo.write_text("[policy]\npriority=user\n[user userA]\n"
                    + "".join(f"block|h{i}.example:80\n" for i in range(count)))
    server = DacsServer(repo, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
    calls = {"wire": 0, "agent": 0}

    def counting(name, func):
        def wrapper(line):
            calls[name] += 1
            return func(line)
        return wrapper

    monkeypatch.setattr(wire, "parse_rule", counting("wire", wire.parse_rule))
    monkeypatch.setattr(agent_module, "parse_rule", counting("agent", agent_module.parse_rule))
    client = DacsAgent(server.listen_addr, "userA", "10.0.0.1")
    try:
        installed = client.login(timeout=5)
        assert len(installed.snapshot.rules) == count
        assert calls == {"wire": count, "agent": 0}
    finally:
        client.close()
        server.stop()


def test_status_reports_connected_until_the_server_stops(tmp_path):
    from dacs.server import DacsServer

    repo = tmp_path / "repo.conf"
    repo.write_text("[policy]\npriority=user\n[user userA]\nblock|h:80\n")
    server = DacsServer(repo, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
    client = DacsAgent(server.listen_addr, "userA", "10.0.0.1")
    try:
        assert client.status()["connected"] is False
        client.login(timeout=5)
        assert client.status()["connected"] is True
        server.stop()
        deadline = time.monotonic() + 5
        while client.status()["connected"] and time.monotonic() < deadline:
            time.sleep(0.01)
        assert client.status()["connected"] is False
    finally:
        client.close()
        server.stop()


def test_close_clears_connected_before_the_push_loop_has_ended(tmp_path, monkeypatch):
    from dacs.server import DacsServer

    repo = tmp_path / "repo.conf"
    repo.write_text("[policy]\npriority=user\n[user userA]\nblock|h:80\n")
    server = DacsServer(repo, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
    client = DacsAgent(server.listen_addr, "userA", "10.0.0.1")
    recv = wire.MessageStream.recv
    loop_reads = threading.Event()
    loop_may_end = threading.Event()

    def held_recv(stream):
        if stream is client._stream:
            loop_reads.set()
        try:
            return recv(stream)
        finally:  # the push loop notices the closed stream only once this is set
            if stream is client._stream and client._closed:
                loop_may_end.wait(10)

    monkeypatch.setattr(wire.MessageStream, "recv", held_recv)
    try:
        client.login(timeout=5)
        assert client.status()["connected"] is True
        assert loop_reads.wait(5)
        client.close()
        assert client.connected is False
        assert client.status()["connected"] is False
    finally:
        loop_may_end.set()
        client.close()
        server.stop()


def _with_a_repeated_key(monkeypatch):
    from dacs import server as server_module

    compose = server_module.compose_login_rules

    def compose_with_a_twin(repo, user, client_ip, version):
        composed = compose(repo, user, client_ip, version)
        twin = Rule(composed.rules[0].match, Block())
        return SimpleNamespace(version=version, rules=composed.rules + (twin,))

    monkeypatch.setattr(server_module, "compose_login_rules", compose_with_a_twin)


def _with_no_free_port(monkeypatch):
    def exhausted(target, preamble_ip):
        raise agent_module.PortExhausted("no port left")

    monkeypatch.setattr(agent_module, "Redirector", exhausted)


@pytest.mark.parametrize(
    "cause, error",
    [(_with_a_repeated_key, ProtocolError), (_with_no_free_port, agent_module.PortExhausted)],
    ids=["repeated-key", "port-exhausted"],
)
def test_a_login_that_fails_after_the_exchange_closes_its_session(tmp_path, monkeypatch, cause, error):
    from dacs.server import DacsServer

    repo = tmp_path / "repo.conf"
    repo.write_text("[policy]\npriority=user\n[user userA]\nrewrite|svc.example:80|127.0.0.1:9\n")
    server = DacsServer(repo, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
    cause(monkeypatch)
    client = DacsAgent(server.listen_addr, "userA", "10.0.0.1")
    try:
        with no_resource_warnings():
            with pytest.raises(error):
                client.login(timeout=5)
        deadline = time.monotonic() + 2
        while server.session_table() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.session_table() == {}
        assert client.installed.snapshot.version == 0
    finally:
        client.close()
        server.stop()


# --- control socket ---------------------------------------------------------------

CONTROL_CAP = 8 * 1024 * 1024  # bytes in one control request line


@pytest.fixture
def control(agent):
    listener = agent_module.AgentControl(agent, ("127.0.0.1", 0))
    yield listener.address
    listener.close()


def control_reply(sock):
    with sock.makefile("rb") as reader:
        return json.loads(reader.readline())


@pytest.mark.parametrize("request_line", [b'{"cmd": "dial"}\n', b"[1]\n"],
                         ids=["dial-without-host", "not-an-object"])
def test_a_malformed_control_request_gets_an_error_reply(control, request_line):
    with socket.create_connection(control, timeout=2) as sock:
        sock.sendall(request_line)
        reply = control_reply(sock)
    assert reply["ok"] is False
    assert reply["error"]


def test_a_control_request_over_the_cap_is_refused(control):
    def send_ignoring_reset(sock, data):
        try:
            sock.sendall(data)
        except OSError:  # the agent stops reading once the cap is passed
            pass

    with socket.create_connection(control, timeout=10) as sock:
        sender = threading.Thread(target=send_ignoring_reset,
                                  args=(sock, b"x" * (CONTROL_CAP + 256 * 1024)))
        sender.start()
        reply = control_reply(sock)
        sender.join(timeout=10)
    assert not sender.is_alive()
    assert reply == {"ok": False, "error": "control request too large"}


def test_a_control_request_ended_by_eof_instead_of_lf_is_answered(control):
    with socket.create_connection(control, timeout=10) as sock:
        sock.sendall(b'{"cmd": "status"}')
        sock.shutdown(socket.SHUT_WR)
        reply = control_reply(sock)
    assert reply["ok"] is True
    assert reply["user"] == "userA"


# --- agent CLI --------------------------------------------------------------------


def test_agent_cli_login_status_dial(tmp_path, echo_server):
    from conftest import spawn_cli
    from dacs.server import DacsServer
    from dacs.util import free_port, wait_for_port

    repo = tmp_path / "repo.conf"
    repo.write_text(
        "[policy]\npriority=user\n[user userA]\n"
        f"rewrite|wwwserver:80|127.0.0.1:{echo_server.address[1]}\n"
    )
    server = DacsServer(repo, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
    control = free_port()
    payload = tmp_path / "payload.bin"
    payload.write_bytes(b"cli dial payload")
    proc = spawn_cli([
        "dacs.agent", "login", "userA",
        "--server", f"127.0.0.1:{server.listen_addr[1]}",
        "--client-ip", "10.0.0.30",
        "--control", f"127.0.0.1:{control}",
    ])
    try:
        assert wait_for_port("127.0.0.1", control)
        status = spawn_cli(["dacs.agent", "status", "--control", f"127.0.0.1:{control}"])
        out, _ = status.communicate(timeout=15)
        assert status.returncode == 0
        assert b"user userA" in out
        assert b"connected yes" in out
        assert f"rewrite|wwwserver:80|127.0.0.1:{echo_server.address[1]}".encode() in out

        dial = spawn_cli([
            "dacs.agent", "dial", "wwwserver:80",
            "--send", str(payload),
            "--control", f"127.0.0.1:{control}",
        ])
        out, _ = dial.communicate(timeout=15)
        assert dial.returncode == 0
        assert out == b"cli dial payload"  # echoed through the rewrite
    finally:
        proc.terminate()
        proc.communicate(timeout=5)  # reaps it and closes its pipes
        server.stop()
