"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every scale and tolerance is the criterion's stated one (exhaustive merge
enumeration, 10^5-input decode fuzz, 1000 racing dials, 1 MiB tunnel payload,
50 concurrent counter hits, the full authorization matrix, and the seeded
experiment reproduction with exact body strings).
"""

import itertools
import os
import random
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from conftest import TagServer, TapProxy, spawn_cli
from test_records import oracle_extract, run_extract
from test_rules import oracle_merge
from test_wire import GOLDEN

from dacs import experiment, wire
from dacs.agent import BlockedError, DacsAgent
from dacs.experiment import materialize_sample_app
from dacs.provision import ProvisionPlan, gen_repo_fragment, provision
from dacs.records import Record
from dacs.rules import (
    Block,
    Destination,
    MatchKey,
    PriorityPolicy,
    Rewrite,
    Rule,
    RuleSet,
    decide,
    format_rule,
    merge_rules,
)
from dacs.server import DacsServer
from dacs.tunnel import TunnelClient, server_tunnel_listener, tunnel_policy_check, TunnelSpec
from dacs.util import free_port, free_port_span, http_exchange
from dacs.web import VHostServer


class criterion:
    """Prints the per-criterion verdict line whether the body passes or not."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number:02d} {self.name}: {verdict}", flush=True)
        return False


def drain(sock):
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return data
        data += chunk


def test_01_experiment_reproduction(tmp_path, capsys):
    with criterion(1, "seeded experiment shows 11 and 5 from the same URL"):
        config = tmp_path / "exp.conf"
        config.write_text("seed_counters=GroupA:10,GroupB:4\n")
        started = time.monotonic()
        code = experiment.main(["run-experiment", "--config", str(config)])
        elapsed = time.monotonic() - started
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ASSERT user_body_userA PASS status=200 got='11' want='11'" in out
        assert "ASSERT user_body_userB PASS status=200 got='5' want='5'" in out
        assert "ASSERT same_url PASS" in out
        assert elapsed < 15.0, f"took {elapsed:.1f}s"


def test_02_figure_port_mapping(tmp_path):
    with criterion(2, "groups A/B/C provision to ports 3000/3001/3002 byte-exactly"):
        source = materialize_sample_app(tmp_path / "app")
        plan = ProvisionPlan(
            app_name="counter",
            source_dir=source,
            groups=("GroupA", "GroupB", "GroupC"),
            base_ip="192.168.1.1",
            base_port=3000,
            virtual_host_name="wwwserver",
            virtual_port=80,
        )
        result = provision(plan, tmp_path / "site")
        expected_lines = [
            "rewrite|wwwserver:80|192.168.1.1:3000",
            "rewrite|wwwserver:80|192.168.1.1:3001",
            "rewrite|wwwserver:80|192.168.1.1:3002",
        ]
        assert [format_rule(result.group_rules[g]) for g in plan.groups] == expected_lines
        fragment_lines = result.fragment_path.read_text().split("\n")
        positions = [fragment_lines.index(line) for line in expected_lines]
        assert positions == sorted(positions), "rule lines out of group order"
        repo_text = gen_repo_fragment(result, {"userA": "GroupA", "userB": "GroupB", "userC": "GroupC"})
        for line in expected_lines:
            assert line + "\n" in repo_text


def test_03_merge_oracle_equivalence():
    with criterion(3, "merge equals the partition oracle on the full small universe"):
        keys = [MatchKey(h, p) for h in ("w", "m") for p in (80, 25)]
        actions = [Rewrite(Destination("10.0.0.1", 81)), Rewrite(Destination("10.0.0.2", 82)), Block()]

        def ordered_lists():
            lists = [[]]
            for length in (1, 2, 3):
                for key_combo in itertools.permutations(keys, length):
                    for action_combo in itertools.product(actions, repeat=length):
                        lists.append(
                            [Rule(k, a) for k, a in zip(key_combo, action_combo)]
                        )
            return lists

        user_sides = ordered_lists()
        client_sides = ordered_lists()
        assert len(user_sides) == 769
        started = time.monotonic()
        checked = 0
        for user_side in user_sides:
            for client_side in client_sides:
                for policy in (PriorityPolicy.USER, PriorityPolicy.CLIENT):
                    got = merge_rules(user_side, client_side, policy)
                    assert got.rules == oracle_merge(user_side, client_side, policy)
                    checked += 1
        elapsed = time.monotonic() - started
        assert checked == 769 * 769 * 2
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_04_blocking_silence():
    with criterion(4, "100 blocked dials, zero canary accepts"):
        canary = TagServer(b"never")
        agent = DacsAgent(("127.0.0.1", 1), "userA", "10.0.0.1")
        agent.install_ruleset(
            RuleSet(1, (Rule(MatchKey(canary.address[0], canary.address[1]), Block()),))
        )
        blocked = 0
        for _ in range(100):
            try:
                agent.open_connection(Destination(*canary.address))
            except BlockedError:
                blocked += 1
        time.sleep(0.1)
        assert blocked == 100
        assert canary.accepted == 0
        agent.close()
        canary.close()


def test_05_protocol_golden_vectors_and_fuzz():
    with criterion(5, "golden frames decode/re-encode; 1e5-input fuzz stays in-contract"):
        assert len(GOLDEN) == 10
        assert {type(m) for m, _ in GOLDEN} == {
            wire.Login, wire.RuleSetMsg, wire.PushNotice,
            wire.IdentityNotice, wire.Ack, wire.ErrorMsg,
        }
        for message, frame in GOLDEN:
            decoded, rest = wire.decode(frame)
            assert decoded == message and rest == b""
            assert wire.encode(decoded) == frame

        rng = random.Random(0xACCE)
        pieces = [
            b"L:", b"L:5\nPUSH\n", b"\n", b"LOGIN", b"RULESET", b"IDENTITY", b"ACK",
            b"user=", b"rule=", b"=", b"|", b":", b"\x00", b"\xff", b"groups=",
            b"L:40\nLOGIN\nuser=userA\nclient_ip=192.168.10.5\n",
        ]
        allowed = (wire.MalformedFrame, wire.UnknownVerb, wire.MissingField, wire.OversizeFrame)
        for i in range(100_000):
            if i % 2 == 0:
                data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 64)))
            else:
                data = b"".join(rng.choice(pieces) for _ in range(rng.randrange(1, 6)))
                if rng.random() < 0.3 and data:
                    cut = rng.randrange(len(data))
                    data = data[:cut] + bytes([rng.randrange(256)]) + data[cut + 1 :]
            try:
                got = wire.decode(data)
            except allowed:
                continue
            assert got is None or isinstance(got, tuple)


def test_06_snapshot_atomicity_under_racing_install():
    with criterion(6, "1000 racing dials each observe exactly one rule set version"):
        target_old = TagServer(b"OLD")
        target_new = TagServer(b"NEW")
        agent = DacsAgent(("127.0.0.1", 1), "userA", "10.0.0.1")
        match = MatchKey("svc", 80)
        agent.install_ruleset(RuleSet(7, (Rule(match, Rewrite(Destination(*target_old.address))),)))
        expected = {
            7: Destination(*target_old.address),
            8: Destination(*target_new.address),
        }
        dials_started = threading.Event()
        install_done = threading.Event()

        def dial(i):
            if i == 100:
                dials_started.set()
            sock = agent.open_connection(Destination("svc", 80), timeout=10)
            tag = sock.recv(8)
            sock.close()
            return tag

        def installer():
            dials_started.wait(timeout=10)
            agent.install_ruleset(
                RuleSet(8, (Rule(match, Rewrite(Destination(*target_new.address))),))
            )
            install_done.set()

        flipper = threading.Thread(target=installer)
        flipper.start()
        with ThreadPoolExecutor(max_workers=32) as pool:
            tags = list(pool.map(dial, range(1000)))
        flipper.join(timeout=10)
        assert install_done.is_set()

        assert len(agent.dial_log) == 1000
        versions = {d.version for d in agent.dial_log}
        assert versions <= {7, 8}, versions
        assert 7 in versions and 8 in versions, "the install did not race the dials"
        for record in agent.dial_log:
            assert record.effective == expected[record.version], record
        assert tags.count(b"OLD") + tags.count(b"NEW") == 1000
        agent.close()
        target_old.close()
        target_new.close()


def test_07_tunnel_fidelity_selectivity_tamper(echo_server):
    with criterion(7, "1 MiB fidelity; marker hidden on tunneled leg; flipped bit kills session"):
        psk = os.urandom(32)
        # server side: tunnel listener in front of the echo service
        far_end = server_tunnel_listener(Destination("127.0.0.1", 0), Destination(*echo_server.address), psk)
        tap = TapProxy(far_end.address)  # the observable agent<->server wire
        local_port = free_port()
        near_end = TunnelClient(local_port, Destination(*tap.address), psk).start()

        # the double rewrite: Control sends svc:9000 to localhost, SControl carries it on
        agent = DacsAgent(("127.0.0.1", 1), "userA", "10.0.0.1")
        control_rules = RuleSet(
            3, (Rule(MatchKey("svc", 9000), Rewrite(Destination("127.0.0.1", local_port))),)
        )
        agent.install_ruleset(control_rules)
        spec = TunnelSpec(MatchKey("svc", 9000), local_port, Destination(*tap.address), "k1")
        assert tunnel_policy_check(control_rules, [spec]) == []

        payload = os.urandom(1_048_576)
        sock = agent.open_connection(Destination("svc", 9000), timeout=10)
        received = bytearray()
        done = threading.Event()

        def reader():
            while len(received) < len(payload):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received.extend(chunk)
            done.set()

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        sock.sendall(payload)
        assert done.wait(timeout=30)
        sock.close()
        assert bytes(received) == payload

        # selectivity: tunneled service X hides the marker, plain service Y shows it
        marker = os.urandom(32).hex().encode()
        sock = agent.open_connection(Destination("svc", 9000), timeout=10)
        sock.sendall(marker)
        got = b""
        while len(got) < len(marker):
            got += sock.recv(65536)
        sock.close()
        assert got == marker
        assert marker not in bytes(tap.captured)

        plain_tap = TapProxy(echo_server.address)
        plain_rules = RuleSet(
            4,
            (
                Rule(MatchKey("svc", 9000), Rewrite(Destination("127.0.0.1", local_port))),
                Rule(MatchKey("plainsvc", 9100), Rewrite(Destination(*plain_tap.address))),
            ),
        )
        agent.install_ruleset(plain_rules)
        sock = agent.open_connection(Destination("plainsvc", 9100), timeout=10)
        sock.sendall(marker)
        got = b""
        while len(got) < len(marker):
            got += sock.recv(65536)
        sock.close()
        assert marker in bytes(plain_tap.captured)

        # tamper: flip one ciphertext bit in the next session, nothing comes back
        tap.mangle_at = len(bytes(tap.captured)) + 16 + 2 + 31 + 2 + 8
        poison = b"poisoned payload, must not survive" * 64
        sock = agent.open_connection(Destination("svc", 9000), timeout=10)
        sock.sendall(poison)
        sock.settimeout(5)
        leaked = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                leaked += chunk
        except socket.timeout:
            pass
        sock.close()
        assert leaked == b""

        agent.close()
        for closer in (near_end, far_end, tap, plain_tap):
            closer.close()


def test_08_counter_linearizability(tmp_path):
    with criterion(8, "50 concurrent hits yield 1..50; sibling clones stay 0"):
        source = materialize_sample_app(tmp_path / "app")
        plan = ProvisionPlan(
            app_name="counter",
            source_dir=source,
            groups=("GroupA", "GroupB", "GroupC"),
            base_ip="127.0.0.1",
            base_port=free_port_span(3),
            virtual_host_name="wwwserver",
            virtual_port=80,
        )
        result = provision(plan, tmp_path / "site")
        server = VHostServer(result.bindings).start()
        try:
            target = ("127.0.0.1", server.bindings[0].port)

            def hit(_):
                with socket.create_connection(target, timeout=10) as sock:
                    status, _, body = http_exchange(sock, "GET", "/cgi-bin/counter", "wwwserver")
                assert status == 200
                return int(body)

            with ThreadPoolExecutor(max_workers=50) as pool:
                values = list(pool.map(hit, range(50)))
            assert sorted(values) == list(range(1, 51))
            for group in ("GroupB", "GroupC"):
                sibling = result.cloned_dirs[group] / "cgi-bin" / "count.txt"
                assert sibling.read_text() == "0"
        finally:
            server.stop()


def test_09_authorization_matrix():
    with criterion(9, "extraction matches the filter oracle on every matrix cell"):
        rng = random.Random(909)
        users = ["userA", "userB", "userC"]
        groups = ["GroupA", "GroupB", "GroupC"]
        records = [
            Record(rng.choice(users), rng.choice(groups), f"row-{i:02d}") for i in range(30)
        ]
        membership = {
            "userA": ("GroupA",),
            "userB": ("GroupB", "GroupC"),
            "userC": ("GroupC",),
            None: (),
        }
        cells = 0
        for requester, member_of in membership.items():
            for scope in ("user", "group", "all"):
                for requested in (None, *groups):
                    if scope != "group" and requested is not None:
                        continue
                    want = oracle_extract(records, scope, requested, requester, member_of)
                    got = run_extract(records, scope, requested, requester, member_of)
                    assert got == want, (requester, scope, requested)
                    cells += 1
        assert cells == 4 * (2 + 4)  # 4 requesters x (user+all + 4 group variants)


def test_10_push_semantics(tmp_path):
    with criterion(10, "push retargets a live agent within 1s; corrupt push changes nothing"):
        old_target = TagServer(b"OLDTARGET")
        new_target = TagServer(b"NEWTARGET")
        repo = tmp_path / "repo.conf"

        def repo_text(port):
            return (
                "[policy]\npriority=user\n[user userA]\n"
                f"rewrite|wwwserver:80|127.0.0.1:{port}\n[groups]\nuserA=GroupA\n"
            )

        repo.write_text(repo_text(old_target.address[1]))
        server = DacsServer(repo, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
        agent = DacsAgent(server.listen_addr, "userA", "10.0.0.1")
        agent.login()
        try:
            sock = agent.open_connection(Destination("wwwserver", 80))
            assert sock.recv(16) == b"OLDTARGET"
            sock.close()

            # edit and push through the real CLI
            repo.write_text(repo_text(new_target.address[1]))
            control = f"127.0.0.1:{server.control_addr[1]}"
            push = spawn_cli(["dacs.server", "push", "--control", control])
            out, _ = push.communicate(timeout=15)
            pushed_at = time.monotonic()
            assert push.returncode == 0, out
            assert b"pushed to 1 client(s)" in out

            deadline = pushed_at + 1.0
            effective = None
            while time.monotonic() < deadline:
                effective = decide(agent.installed.snapshot, Destination("wwwserver", 80))
                if effective == Rewrite(Destination("127.0.0.1", new_target.address[1])):
                    break
                time.sleep(0.02)
            assert effective == Rewrite(Destination("127.0.0.1", new_target.address[1])), (
                f"agent still on {effective} 1s after push"
            )
            sock = agent.open_connection(Destination("wwwserver", 80))
            assert sock.recv(16) == b"NEWTARGET"
            sock.close()

            # corrupt file: push refuses, nothing changes
            repo.write_text("[policy]\npriority=user\n[user userA]\nbroken\n")
            bad_push = spawn_cli(["dacs.server", "push", "--control", control])
            out, _ = bad_push.communicate(timeout=15)
            assert bad_push.returncode == 1
            assert b"push failed" in out
            time.sleep(0.3)
            sock = agent.open_connection(Destination("wwwserver", 80))
            assert sock.recv(16) == b"NEWTARGET"  # old behavior intact
            sock.close()
        finally:
            agent.close()
            server.stop()
            old_target.close()
            new_target.close()
