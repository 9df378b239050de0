"""Bounded state: an in-process dacsd, dacsweb, agents and a tunnel pair run
through many full cycles, and afterwards hold what they held before.

Not checked yet: the web tier's identity registry, which only ever adds
entries. Its check, that the registry equals the live IPs, lands with the
identity stream that revokes them (ROADMAP item 1).
"""

import os
import socket
import threading
import time

from conftest import port_refuses
from dacs.agent import DacsAgent
from dacs.rules import Destination
from dacs.server import DacsServer
from dacs.tunnel import TunnelClient, TunnelServer
from dacs.util import PARKED_MAX, POOL, Listener, http_exchange, pump
from dacs.web import VHostBinding, VHostServer

CYCLES = 30
PSK = bytes(range(32))
CLIENT_IP = "10.0.0.1"


def _echo(conn, _peer):
    pump(conn, conn)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _wait(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def _echo_through(addr, payload: bytes) -> bytes:
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as reader:
            return reader.read()


def _repo_text(echo_port: int, variant: int) -> str:
    # each variant has its own marker rewrite, so a push closes one
    # redirector and creates another
    return (
        "[policy]\npriority=user\n[user u]\n"
        f"rewrite|svc.corp:80|127.0.0.1:{echo_port}\n"
        f"rewrite|m{variant % 2}.corp:81|127.0.0.1:{echo_port}\n"
        "[groups]\nu=GroupA\n"
    )


def test_daemons_hold_bounded_state_over_many_cycles(tmp_path):
    docroot = tmp_path / "www"
    docroot.mkdir()
    (docroot / "index.html").write_text("soak")
    repo_path = tmp_path / "repo.conf"
    echo = Listener(("127.0.0.1", 0), _echo).start()
    repo_path.write_text(_repo_text(echo.address[1], 0))
    web = VHostServer([VHostBinding("127.0.0.1", 0, docroot)], identity_listen=("127.0.0.1", 0)).start()
    server = DacsServer(
        repo_path, listen=("127.0.0.1", 0), control=("127.0.0.1", 0), web_identity=web.identity_listen
    ).start()
    tunnel_server = TunnelServer(Destination("127.0.0.1", 0), Destination(*echo.address), PSK).start()
    tunnel_client = TunnelClient(0, Destination(*tunnel_server.address), PSK).start()
    web_addr = ("127.0.0.1", web.bindings[0].port)
    agents: list[DacsAgent] = []
    redirector_ports: set[int] = set()
    fds_before = _open_fds()
    threads_before = threading.active_count()
    busy_before, _ = POOL.counts()
    try:
        for cycle in range(1, CYCLES + 1):
            first = DacsAgent(server.listen_addr, "u", CLIENT_IP)
            first.login()
            second = DacsAgent(server.listen_addr, "u", CLIENT_IP)  # supersedes the first
            second.login()
            agents += [first, second]
            assert _wait(lambda: not first.connected)

            repo_path.write_text(_repo_text(echo.address[1], cycle))
            assert server.admin_push() == 1
            sent = server.session_table()[CLIENT_IP][1]
            assert _wait(lambda: server.session_table()[CLIENT_IP][2] == sent)

            redirectors = second.installed.redirectors
            redirector_ports |= {r.address[1] for r in redirectors.values()}
            (svc,) = [r for key, r in redirectors.items() if key.host == "svc.corp"]
            assert _echo_through(svc.address, b"redirected %d" % cycle) == b"redirected %d" % cycle
            assert _echo_through(tunnel_client.address, b"tunneled %d" % cycle) == b"tunneled %d" % cycle
            with socket.create_connection(web_addr, timeout=5) as sock:
                status, _, body = http_exchange(sock, "GET", "/index.html", "www")
            assert (status, body) == (200, b"soak")

            first.close()
            second.close()
            assert _wait(lambda: server.session_table() == {})

        assert all(agent.installed.redirectors == {} for agent in agents)
        assert not any(agent.connected for agent in agents)
        assert all(port_refuses(port) for port in redirector_ports)
        assert _wait(lambda: POOL.counts()[0] <= busy_before)
        assert _wait(lambda: _open_fds() <= fds_before)
        assert threading.active_count() <= threads_before + PARKED_MAX
    finally:
        for agent in agents:
            agent.close()
        tunnel_client.close()
        tunnel_server.close()
        server.stop()
        web.stop()
        echo.close()
