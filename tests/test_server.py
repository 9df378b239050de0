"""Repository loading, login composition, sessions, and push semantics."""

import socket
import statistics
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import no_resource_warnings, spawn_cli
from dacs import wire
from dacs import server as server_module
from dacs.agent import DacsAgent
from dacs.rules import (
    Block,
    Destination,
    MatchKey,
    Pass,
    PriorityPolicy,
    Rewrite,
    Rule,
    decide,
)
from dacs.server import (
    DacsServer,
    InvariantViolation,
    ReloadError,
    RepoParseError,
    compose_login_rules,
    get_groups,
    load_repository,
    push_command,
)
from dacs.web import IdentityRegistry, VHostServer
from dacs.wire import Login, MessageStream, PushNotice, RuleSetMsg, encode

REPO_ROOT = Path(__file__).resolve().parent.parent

MINIMAL = """\
[policy]
priority=user
[user userA]
rewrite|wwwserver:80|127.0.0.1:3000
"""

FULL = """\
# comment lines are ignored
[policy]
priority=user

[user userA]
rewrite|wwwserver:80|127.0.0.1:3000
block|*:25

[client 192.168.10.5]
block|*:25
rewrite|wwwserver:80|127.0.0.1:3002

[groups]
userA=GroupA
userB=GroupB,GroupC
loner=
"""


def write(tmp_path, text, name="repo.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


# --- loading ------------------------------------------------------------------


def test_load_minimal_repository(tmp_path):
    repo = load_repository(write(tmp_path, MINIMAL))
    assert repo.policy is PriorityPolicy.USER
    assert len(repo.user_rules["userA"]) == 1


def test_load_full_repository(tmp_path):
    repo = load_repository(write(tmp_path, FULL))
    assert len(repo.user_rules["userA"]) == 2
    assert len(repo.client_rules["192.168.10.5"]) == 2
    assert repo.groups == {"userA": ["GroupA"], "userB": ["GroupB", "GroupC"], "loner": []}


def test_checked_in_experiment_repository_loads():
    repo = load_repository(REPO_ROOT / "conf" / "experiment-repository.conf")
    assert sorted(repo.user_rules) == ["userA", "userB", "userC"]
    ports = [
        rule.action.new_dst.port
        for user in ("userA", "userB", "userC")
        for rule in repo.user_rules[user]
    ]
    assert ports == [3000, 3001, 3002]
    assert [repo.groups[u] for u in ("userA", "userB", "userC")] == [
        ["GroupA"], ["GroupB"], ["GroupC"],
    ]


def test_duplicate_match_key_in_one_section_rejected(tmp_path):
    text = MINIMAL + "rewrite|wwwserver:80|127.0.0.1:4000\n"
    with pytest.raises(InvariantViolation) as err:
        load_repository(write(tmp_path, text))
    assert str(err.value).startswith("line 5: duplicate match key for user userA")


def test_duplicate_match_key_under_repeated_header_rejected(tmp_path):
    text = MINIMAL + "[groups]\n[user userA]\nblock|*:25\nrewrite|wwwserver:80|127.0.0.1:4000\n"
    with pytest.raises(InvariantViolation) as err:
        load_repository(write(tmp_path, text))
    assert str(err.value).startswith("line 8: duplicate match key for user userA")


def test_bad_client_ip_reported_at_first_rule_line(tmp_path):
    text = "[policy]\npriority=user\n[client 300.1.1.1]\n# note\n\nblock|*:25\nblock|*:26\n"
    with pytest.raises(InvariantViolation) as err:
        load_repository(write(tmp_path, text))
    assert str(err.value).startswith("line 6: client ip is not")


@pytest.mark.parametrize("sections, rules_each", [(4, 50), (1, 20000)])
def test_load_checks_each_rule_once_and_each_subject_once(
    tmp_path, monkeypatch, sections, rules_each
):
    calls = {"parse": 0, "ipv4": 0}

    def counting(name, func):
        def wrapper(*args):
            calls[name] += 1
            return func(*args)
        return wrapper

    monkeypatch.setattr(server_module, "parse_rule", counting("parse", server_module.parse_rule))
    monkeypatch.setattr(server_module, "is_ipv4", counting("ipv4", server_module.is_ipv4))
    lines = ["[policy]", "priority=client"]
    for k in range(sections):
        lines.append(f"[client 10.0.0.{k + 1}]")
        lines += [f"block|h{i}.example:80" for i in range(rules_each)]
    repo = load_repository(write(tmp_path, "\n".join(lines) + "\n"))
    assert [len(r) for r in repo.client_rules.values()] == [rules_each] * sections
    assert calls == {"parse": sections * rules_each, "ipv4": sections}


def test_crlf_line_ends_still_load(tmp_path):
    path = tmp_path / "crlf.conf"
    path.write_bytes(FULL.replace("\n", "\r\n").encode("utf-8"))
    assert load_repository(path) == load_repository(write(tmp_path, FULL))


def test_a_byte_that_is_not_utf8_is_a_parse_error_at_its_line(tmp_path):
    path = tmp_path / "latin.conf"
    path.write_bytes(b"[policy]\npriority=user\n[user \xff]\nblock|*:25\n")
    with pytest.raises(RepoParseError) as err:
        load_repository(path)
    assert err.value.lineno == 3


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("[policy]\npriority=maybe\n", 2),
        ("[policy]\npriority=user\n[what]\n", 3),
        ("rewrite|w:80|127.0.0.1:1\n", 1),
        ("[policy]\npriority=user\npriority=client\n", 3),
        ("[policy]\npriority=user\n[user u]\nnot a rule\n", 4),
        ("[policy]\npriority=user\n[groups]\njust-a-name\n", 4),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, text, lineno):
    with pytest.raises(RepoParseError) as err:
        load_repository(write(tmp_path, text))
    assert err.value.lineno == lineno


@pytest.mark.parametrize(
    "text",
    [
        "[user u]\nblock|*:25\n",  # no policy section at all
        "[policy]\npriority=user\n[user bad|name]\nblock|*:25\n",
        "[policy]\npriority=user\n[client 300.1.1.1]\nblock|*:25\n",
        "[policy]\npriority=user\n[client not-an-ip]\nblock|*:25\n",
        "[policy]\npriority=user\n[groups]\nu=Group A\n",
        "[policy]\npriority=user\n[groups]\nu=G\nu=H\n",
        "[policy]\npriority=user\n[groups]\nbad name=G\n",
        "[policy]\npriority=user\n[groups]\nu=G,a\ra=H\n",  # a CR does not end a line
    ],
)
def test_invariant_violations(tmp_path, text):
    with pytest.raises(InvariantViolation):
        load_repository(write(tmp_path, text))


def test_failed_login_send_drops_the_session(tmp_path):
    server = DacsServer(write(tmp_path, MINIMAL), listen=("127.0.0.1", 0), control=("127.0.0.1", 0))
    ours, peer = socket.socketpair()
    peer.close()
    try:
        with pytest.raises(OSError):
            server.handle_login("u", "192.168.10.9", MessageStream(ours))
        assert server.session_table() == {}
        assert ours.fileno() == -1
    finally:
        server.stop()


def test_a_rule_set_too_large_for_one_frame_fails_the_login_like_a_send(tmp_path, monkeypatch):
    monkeypatch.setattr(wire, "FRAME_LIMIT", 8)
    server = DacsServer(write(tmp_path, MINIMAL), listen=("127.0.0.1", 0), control=("127.0.0.1", 0))
    ours, peer = socket.socketpair()
    try:
        with pytest.raises(OSError):
            server.handle_login("u", "192.168.10.9", MessageStream(ours))
        assert server.session_table() == {}
        assert ours.fileno() == -1
    finally:
        peer.close()
        server.stop()


def test_failed_push_send_drops_the_session(tmp_path):
    server = DacsServer(write(tmp_path, MINIMAL), listen=("127.0.0.1", 0), control=("127.0.0.1", 0))
    ours, peer = socket.socketpair()
    try:
        server.handle_login("u", "192.168.10.9", MessageStream(ours))
        assert server.session_table() == {"192.168.10.9": ("u", 1, -1)}
        peer.close()
        assert server.admin_push() == 0
        assert server.session_table() == {}
        assert ours.fileno() == -1
    finally:
        peer.close()
        server.stop()


def test_session_superseded_before_its_read_loop_ends_quietly(tmp_path, monkeypatch):
    server = DacsServer(write(tmp_path, MINIMAL), listen=("127.0.0.1", 0), control=("127.0.0.1", 0))
    first, first_peer = socket.socketpair()
    second, second_peer = socket.socketpair()
    login = server.handle_login

    def login_then_supersede(user, client_ip, stream):
        session = login(user, client_ip, stream)
        login("v", client_ip, MessageStream(second))
        return session

    monkeypatch.setattr(server, "handle_login", login_then_supersede)
    try:
        first_peer.sendall(encode(Login("u", "192.168.10.9")))
        server._agent_conn(first, ("192.168.10.9", 1))  # returns, raises nothing
        assert server.session_table() == {"192.168.10.9": ("v", 2, -1)}
    finally:
        first_peer.close()
        second_peer.close()
        server.stop()


def test_taken_control_port_leaves_no_socket_open(tmp_path):
    repo_path = write(tmp_path, MINIMAL)
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        with no_resource_warnings():
            with pytest.raises(OSError):
                DacsServer(repo_path, listen=("127.0.0.1", 0), control=blocker.getsockname())


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_repository(tmp_path / "absent.conf")


# --- pure operations -------------------------------------------------------------


def test_get_groups(tmp_path):
    repo = load_repository(write(tmp_path, FULL))
    assert get_groups(repo, "userA") == ["GroupA"]
    assert get_groups(repo, "nobody") == []
    assert get_groups(repo, "userB") == ["GroupB", "GroupC"]


def test_compose_user_only_rules_verbatim(tmp_path):
    repo = load_repository(write(tmp_path, MINIMAL))
    rs = compose_login_rules(repo, "userA", "10.0.0.99", version=7)
    assert rs.version == 7
    assert [str(r.match.port) for r in rs.rules] == ["80"]


def test_compose_conflict_user_priority(tmp_path):
    repo = load_repository(write(tmp_path, FULL))
    rs = compose_login_rules(repo, "userA", "192.168.10.5", version=1)
    # wwwserver:80 conflicts; user priority keeps 127.0.0.1:3000
    got = decide(rs, Destination("wwwserver", 80))
    assert got == Rewrite(Destination("127.0.0.1", 3000))
    # block|*:25 is byte-identical on both sides: one copy survives
    assert sum(1 for r in rs.rules if r.match == MatchKey("*", 25)) == 1


def test_compose_unknown_user_gets_client_rules(tmp_path):
    repo = load_repository(write(tmp_path, FULL))
    rs = compose_login_rules(repo, "stranger", "192.168.10.5", version=2)
    assert decide(rs, Destination("anything", 25)) == Block()
    rs_empty = compose_login_rules(repo, "stranger", "10.0.0.50", version=3)
    assert rs_empty.rules == ()


# --- live server -------------------------------------------------------------------


@pytest.fixture
def identity_sink(tmp_path):
    """A real web-tier identity listener backed by a registry."""
    docroot = tmp_path / "sinkroot"
    docroot.mkdir()
    registry = IdentityRegistry()
    server = VHostServer([], identity_listen=("127.0.0.1", 0), registry=registry).start()
    yield server.identity_listen, registry
    server.stop()


@pytest.fixture
def live(tmp_path, identity_sink):
    identity_addr, registry = identity_sink
    repo_path = write(tmp_path, FULL)
    server = DacsServer(
        repo_path, listen=("127.0.0.1", 0), control=("127.0.0.1", 0), web_identity=identity_addr
    ).start()
    yield server, repo_path, registry
    server.stop()


def _wait(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_login_distributes_rules_and_identity(live):
    server, _, registry = live
    agent = DacsAgent(server.listen_addr, "userA", "10.0.0.77")
    installed = agent.login()
    try:
        assert len(installed.snapshot.rules) == 2
        assert _wait(lambda: registry.lookup("10.0.0.77") is not None)
        assert registry.lookup("10.0.0.77") == ("userA", ("GroupA",))
        assert server.session_table()["10.0.0.77"][0] == "userA"
    finally:
        agent.close()


def test_second_login_supersedes_first(live):
    server, _, registry = live
    first = DacsAgent(server.listen_addr, "userA", "10.0.0.5")
    first.login()
    second = DacsAgent(server.listen_addr, "userB", "10.0.0.5")
    second.login()
    try:
        assert _wait(lambda: server.session_table().get("10.0.0.5", ("",))[0] == "userB")
        assert _wait(lambda: registry.lookup("10.0.0.5") == ("userB", ("GroupB", "GroupC")))
        assert _wait(lambda: not first.connected)  # old connection really closed
        assert second.connected
    finally:
        first.close()
        second.close()


def test_version_monotonic_across_logins_and_pushes(live):
    server, _, _ = live
    versions = []
    agent1 = DacsAgent(server.listen_addr, "userA", "10.0.0.8")
    versions.append(agent1.login().snapshot.version)
    server.admin_push()
    assert _wait(lambda: agent1.installed.snapshot.version > versions[-1])
    versions.append(agent1.installed.snapshot.version)
    agent2 = DacsAgent(server.listen_addr, "userB", "10.0.0.9")
    versions.append(agent2.login().snapshot.version)
    try:
        assert versions == sorted(set(versions))
    finally:
        agent1.close()
        agent2.close()


def test_push_with_no_clients_returns_zero(live):
    server, _, _ = live
    assert server.admin_push() == 0


def test_push_redistributes_edited_rules(live, tmp_path):
    server, repo_path, _ = live
    agent = DacsAgent(server.listen_addr, "userA", "10.0.0.12")
    agent.login()
    try:
        before = decide(agent.installed.snapshot, Destination("wwwserver", 80))
        assert before == Rewrite(Destination("127.0.0.1", 3000))
        repo_path.write_text(FULL.replace("127.0.0.1:3000", "127.0.0.1:3999"))
        assert server.admin_push() == 1
        assert _wait(
            lambda: decide(agent.installed.snapshot, Destination("wwwserver", 80))
            == Rewrite(Destination("127.0.0.1", 3999))
        )
    finally:
        agent.close()


def test_push_tears_down_redirectors_for_removed_rules(live):
    from conftest import port_refuses
    from dacs.rules import MatchKey

    server, repo_path, _ = live
    agent = DacsAgent(server.listen_addr, "userA", "10.0.0.21")
    installed = agent.login()
    try:
        redirector_port = installed.redirectors[MatchKey("wwwserver", 80)].address[1]
        assert not port_refuses(redirector_port)  # alive before the push
        repo_path.write_text("[policy]\npriority=user\n[user userA]\nblock|*:25\n")
        assert server.admin_push() == 1
        assert _wait(lambda: agent.installed.redirectors == {})
        assert port_refuses(redirector_port)  # torn down after the push
    finally:
        agent.close()


def test_push_of_emptied_rules_makes_everything_pass(live, echo_server):
    server, repo_path, _ = live
    agent = DacsAgent(server.listen_addr, "userA", "10.0.0.22")
    agent.login()
    try:
        # the user's rules are deleted outright: the next push delivers an
        # empty set and every dial passes through untouched
        repo_path.write_text("[policy]\npriority=user\n[groups]\nuserA=GroupA\n")
        assert server.admin_push() == 1
        assert _wait(lambda: agent.installed.snapshot.rules == ())
        sock = agent.open_connection(Destination(*echo_server.address))
        sock.sendall(b"direct")
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(16) == b"direct"
        sock.close()
        assert decide(agent.installed.snapshot, Destination("wwwserver", 80)) == Pass()
    finally:
        agent.close()


def test_push_with_corrupt_file_changes_nothing(live):
    server, repo_path, _ = live
    agent = DacsAgent(server.listen_addr, "userA", "10.0.0.13")
    agent.login()
    version_before = agent.installed.snapshot.version
    repo_path.write_text("[policy]\npriority=user\n[user u]\ngarbage line\n")
    try:
        with pytest.raises(ReloadError):
            server.admin_push()
        time.sleep(0.2)
        assert agent.installed.snapshot.version == version_before
        assert decide(agent.installed.snapshot, Destination("wwwserver", 80)) == Rewrite(
            Destination("127.0.0.1", 3000)
        )
        # old repository object still active for new logins
        other = DacsAgent(server.listen_addr, "userA", "10.0.0.14")
        installed = other.login()
        assert decide(installed.snapshot, Destination("wwwserver", 80)) == Rewrite(
            Destination("127.0.0.1", 3000)
        )
        other.close()
    finally:
        agent.close()


def test_push_command_round_trip(live):
    server, _, _ = live
    agent = DacsAgent(server.listen_addr, "userA", "10.0.0.15")
    agent.login()
    try:
        assert push_command(server.control_addr) == 1
    finally:
        agent.close()


def test_push_command_reports_reload_error(live):
    server, repo_path, _ = live
    repo_path.write_text("not a repository at all\n")
    with pytest.raises(ReloadError):
        push_command(server.control_addr)


def test_push_of_a_file_that_is_not_utf8_answers_reload_error(live):
    server, repo_path, _ = live
    repo_path.write_bytes(FULL.encode("utf-8") + b"\xff=G\n")
    with pytest.raises(ReloadError, match="not UTF-8"):
        push_command(server.control_addr)


def test_an_agent_that_stops_reading_does_not_hold_up_the_push(tmp_path, monkeypatch):
    deadline = 0.5
    monkeypatch.setattr(server_module, "SEND_DEADLINE", deadline)
    lines = "".join(f"block|h{i}.{'x' * 200}.example:80\n" for i in range(2000))
    repo_path = write(tmp_path, "[policy]\npriority=user\n[user u]\n" + lines)
    server = DacsServer(repo_path, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    healthy = socket.socket()
    received = []
    durations = []

    def login(sock, client_ip):
        sock.connect(server.listen_addr)
        stream = MessageStream(sock)
        stream.send(Login("u", client_ip))
        assert isinstance(stream.recv(), RuleSetMsg)
        return stream

    def read_pushes(stream):
        try:
            while (msg := stream.recv()) is not None:
                if isinstance(msg, RuleSetMsg):
                    received.append(msg.version)
        except OSError:
            pass

    def push_until_dropped():
        # each push queues another RULESET for the agent that never reads,
        # until its socket buffers are full and a send misses the deadline
        while "10.0.0.1" in server.session_table() and len(durations) < 64:
            start = time.monotonic()
            server.admin_push()
            durations.append(time.monotonic() - start)

    try:
        login(stalled, "10.0.0.1")  # first in push order
        reader = threading.Thread(target=read_pushes, args=(login(healthy, "10.0.0.2"),), daemon=True)
        reader.start()
        pusher = threading.Thread(target=push_until_dropped, daemon=True)
        pusher.start()
        pusher.join(timeout=60)
        assert not pusher.is_alive()
        assert list(server.session_table()) == ["10.0.0.2"]
        assert max(durations) < 2 * deadline + 2.0
        assert _wait(lambda: len(received) == len(durations))
    finally:
        server.stop()
        stalled.close()
        healthy.close()


def test_a_stalled_agent_costs_a_push_one_send_deadline(tmp_path, monkeypatch):
    monkeypatch.setattr(server_module, "SEND_DEADLINE", 1.0)
    lines = "".join(f"block|h{i}.{'x' * 200}.example:80\n" for i in range(2000))
    repo_path = write(tmp_path, "[policy]\npriority=user\n[user u]\n" + lines)
    server = DacsServer(repo_path, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    durations = []
    try:
        stalled.connect(server.listen_addr)
        stream = MessageStream(stalled)
        stream.send(Login("u", "10.0.0.1"))
        assert isinstance(stream.recv(), RuleSetMsg)
        # the agent never reads again: pushes queue up until one write
        # misses the deadline, partial sends and all
        while server.session_table() and len(durations) < 64:
            start = time.monotonic()
            server.admin_push()
            durations.append(time.monotonic() - start)
        assert server.session_table() == {}
        assert durations[-1] < 1.5
    finally:
        server.stop()
        stalled.close()


class _CountingSocket:
    """Stands in for a session socket, whose methods cannot be patched, and
    counts the writes made on it."""

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self.writes = 0

    def send(self, data, *flags):
        self.writes += 1
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self.writes += 1
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_a_push_is_one_write_per_session(tmp_path):
    server = DacsServer(write(tmp_path, FULL), listen=("127.0.0.1", 0), control=("127.0.0.1", 0))
    sessions = []
    try:
        for client_ip in ("10.0.0.1", "10.0.0.2"):
            ours, peer = socket.socketpair()
            peer.settimeout(5)
            counting = _CountingSocket(ours)
            sessions.append((counting, MessageStream(peer)))
            server.handle_login("userA", client_ip, MessageStream(counting))
        assert [counting.writes for counting, _ in sessions] == [1, 1]
        assert server.admin_push() == 2
        assert [counting.writes for counting, _ in sessions] == [2, 2]
        for _, peer in sessions:  # the same frames in the same order
            assert isinstance(peer.recv(), RuleSetMsg)
            assert peer.recv() == PushNotice()
            assert isinstance(peer.recv(), RuleSetMsg)
    finally:
        for _, peer in sessions:
            peer.close()
        server.stop()


def test_a_push_is_installed_without_waiting_for_a_delayed_ack(tmp_path):
    lines = "".join(f"block|h{i}.example:80\n" for i in range(10))
    repo_path = write(tmp_path, "[policy]\npriority=user\n[user u]\n" + lines)
    server = DacsServer(repo_path, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
    agent = DacsAgent(server.listen_addr, "u", "10.0.0.1")
    agent.login()
    latencies = []
    try:
        for _ in range(5):
            before = agent.installed.snapshot.version
            start = time.monotonic()
            server.admin_push()
            while agent.installed.snapshot.version == before:
                assert time.monotonic() - start < 5
                time.sleep(0.0005)
            latencies.append(time.monotonic() - start)
        # a second write held back by Nagle's algorithm until the agent's
        # delayed ACK fires would put about 40 ms under every push
        assert statistics.median(latencies) < 0.020
    finally:
        agent.close()
        server.stop()


def test_a_push_the_agent_rejects_is_sent_but_not_acked(live, monkeypatch, caplog):
    server, _, _ = live
    agent = DacsAgent(server.listen_addr, "userA", "10.0.0.31")
    agent.login()
    compose = server_module.compose_login_rules

    def with_a_duplicate_key(repo, user, client_ip, version):
        ruleset = compose(repo, user, client_ip, version)
        twin = Rule(ruleset.rules[0].match, Block())
        return SimpleNamespace(version=version, rules=ruleset.rules + (twin,))

    def versions():
        return server.session_table()["10.0.0.31"][1:]

    try:
        assert _wait(lambda: versions() == (1, 1))
        monkeypatch.setattr(server_module, "compose_login_rules", with_a_duplicate_key)
        assert server.admin_push() == 1
        assert _wait(lambda: "pushed rule set rejected" in caplog.text)
        sent, acked = versions()
        assert acked < sent
        monkeypatch.undo()
        assert server.admin_push() == 1
        assert _wait(lambda: versions()[1] > sent)
        assert versions()[0] == versions()[1]
    finally:
        agent.close()


def test_identity_failure_never_fails_login(tmp_path):
    # identity endpoint points at a dead port
    repo_path = write(tmp_path, MINIMAL)
    dead = socket.socket()
    dead.bind(("127.0.0.1", 0))
    dead_addr = dead.getsockname()[:2]
    dead.close()
    server = DacsServer(
        repo_path, listen=("127.0.0.1", 0), control=("127.0.0.1", 0), web_identity=dead_addr
    ).start()
    try:
        agent = DacsAgent(server.listen_addr, "userA", "10.0.0.16")
        installed = agent.login()
        assert len(installed.snapshot.rules) == 1
        agent.close()
    finally:
        server.stop()


# --- CLI surface ----------------------------------------------------------------------


def test_dacsd_cli_serve_and_push(tmp_path):
    from dacs.util import free_port, wait_for_port

    repo_path = write(tmp_path, MINIMAL)
    listen, control = free_port(), free_port()
    proc = spawn_cli([
        "dacs.server", "serve",
        "--repo", str(repo_path),
        "--listen", f"127.0.0.1:{listen}",
        "--control", f"127.0.0.1:{control}",
    ])
    try:
        assert wait_for_port("127.0.0.1", control)
        push = spawn_cli(["dacs.server", "push", "--control", f"127.0.0.1:{control}"])
        out, _ = push.communicate(timeout=15)
        assert push.returncode == 0
        assert b"pushed to 0 client(s)" in out
    finally:
        proc.terminate()
        proc.communicate(timeout=5)  # reaps it and closes its pipes
