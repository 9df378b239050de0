"""The three closed-loop phases every workload runs on its testbed.

control: re-login round robin over every online session, and every
         PUSH_EVERY-th op a repository rewrite + push, timed until every
         online agent has installed the new version.
web:     WEB_CLIENTS concurrent clients, each cycling a fixed request mix
         against wwwserver:80 through its users' agents.
tunnel:  one client; 1 KiB sessions and bulk transfers through the
         double rewrite and the dacs-sctl pair, checked by SHA-256.

A phase runs in slices: until a deadline (timed runs, where the phases
take turns so that each one samples the whole run) or for a fixed number
of whole cycles (traced runs, so that counts repeat exactly). A phase
resumes where its last slice stopped. Every op is logged with its
monotonic start and end, which also places the daemons' spans in the op
that caused them.
"""

from __future__ import annotations

import hashlib
import random
import socket
import threading
import time
from dataclasses import dataclass, field

from dacs.agent import BlockedError, ConnectError, InstallError, ProtocolError
from dacs.rules import Destination, MatchKey
from dacs.server import RepositoryError, push_command
from dacs.util import http_exchange
from dacs.wire import WireError

from testbed import (
    GROUPS, MARKERS, SERVICE, TUNNEL_USER, VHOST, WEB_USERS,
    CheckFailed, Testbed, marker_key, marker_target, proc_cpu_ms,
)

PUSH_EVERY = 6
WEB_CLIENTS = 2
# one client's request cycle: CGI requests evenly spaced, the clients half a cycle apart
WEB_MIX = ("counter", "static", "redirect", "static", "static", "redirect", "cross",
           "func1", "static", "redirect", "static", "static", "redirect", "blocked",
           "counter", "static", "redirect", "static", "static", "cross")
SHORT_BYTES = 1024
BULK_BYTES = 4 * 1024 * 1024
SHORTS_PER_BULK = 16
FAILURES = (BlockedError, ConnectError, ProtocolError, InstallError, CheckFailed,
            RepositoryError, WireError, OSError, ValueError)


@dataclass
class Op:
    kind: str
    start: int  # monotonic ns
    end: int
    ok: bool
    cpu_ms: float | None = None  # daemon CPU spent during the op, traced runs only
    nbytes: int = 0


@dataclass
class Log:
    ops: list[Op] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    windows: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    checks: int = 0
    failed_checks: int = 0
    web_cpu_ms: float = 0.0  # dacsweb plus its reaped CGI children over the web slices
    lock: threading.Lock = field(default_factory=threading.Lock)

    def add(self, op: Op, error: BaseException | None = None) -> None:
        with self.lock:
            self.ops.append(op)
            if error is not None and len(self.errors) < 20:
                self.errors.append(f"{op.kind}: {type(error).__name__}: {error}")

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failed_checks += 1
            self.errors.append(f"check: {message}")

    def window(self, phase: str, start: int) -> None:
        self.windows.setdefault(phase, []).append((start, time.monotonic_ns()))


class Limit:
    """One slice: until a deadline, or a fixed number of whole cycles."""

    def __init__(self, seconds: float | None = None, cycles: int | None = None):
        self.deadline = time.monotonic() + seconds if seconds is not None else None
        self.cycles = cycles

    def more(self, done_cycles: int) -> bool:
        if self.cycles is not None:
            return done_cycles < self.cycles
        return time.monotonic() < self.deadline


def _timed(log: Log, kind: str, fn, cpu_pids=(), tracer=None) -> object:
    cpu0 = sum(proc_cpu_ms(pid) for pid in cpu_pids)
    start = time.monotonic_ns()
    try:
        if tracer is not None:
            with tracer.span("op." + kind):
                result = fn()
        else:
            result = fn()
    except FAILURES as exc:
        log.add(Op(kind, start, time.monotonic_ns(), False), exc)
        return None
    end = time.monotonic_ns()
    cpu = sum(proc_cpu_ms(pid) for pid in cpu_pids) - cpu0 if cpu_pids else None
    log.add(Op(kind, start, end, True, cpu, result if isinstance(result, int) else 0))
    return result


# --- control ---

def _push(tb: Testbed) -> None:
    before = tb.version
    sent = push_command(("127.0.0.1", tb.ports["control"]))
    sessions = tb.sessions
    with tb.installed:
        converged = tb.installed.wait_for(
            lambda: all(s.agent.installed.snapshot.version > before for s in sessions), timeout=30
        )
    tb.version = before + sent
    if not converged:
        raise CheckFailed("push did not converge within 30s")
    if sent != len(sessions):
        raise CheckFailed(f"dacsd pushed to {sent} sessions, {len(sessions)} online")
    versions = sorted(s.agent.installed.snapshot.version for s in sessions)
    if versions != list(range(before + 1, before + sent + 1)):
        raise CheckFailed(f"installed versions {versions[:3]}... differ from those dacsd sent")
    for s in sessions:
        redirectors = s.agent.installed.redirectors
        for k in range(1, MARKERS):
            got = redirectors.get(marker_key(s.user, k))
            if got is None or got.target != marker_target(k, tb.variant):
                raise CheckFailed(f"{s.user} did not install variant {tb.variant}")


class Control:
    name = "control"

    def __init__(self, tb: Testbed, log: Log, rng: random.Random, tracer=None):
        self.tb, self.log, self.tracer = tb, log, tracer
        self.cpu = (tb.procs["dacsd"].pid,) if tracer is not None else ()
        self.op = self.logins = 0

    def run(self, limit: Limit) -> None:
        tb, start, done = self.tb, time.monotonic_ns(), 0
        while limit.more(done // PUSH_EVERY):
            if self.op % PUSH_EVERY == PUSH_EVERY - 1:
                tb.variant = 3 - tb.variant
                tb.repo_path.write_text(tb.repo_text[tb.variant], encoding="utf-8")
                _timed(self.log, "push", lambda: _push(tb), self.cpu, self.tracer)
            else:
                session = tb.sessions[self.logins % len(tb.sessions)]
                self.logins += 1
                _timed(self.log, "login", lambda: tb.login(session), self.cpu, self.tracer)
            self.op += 1
            done += 1
        self.log.window(self.name, start)

    def finish(self) -> None:
        pass


# --- web ---

def _expect(status: int, body: bytes, want_status: int, want_body: bytes | None = None) -> None:
    if status != want_status or (want_body is not None and body != want_body):
        raise CheckFailed(f"got {status} {body[:40]!r}, want {want_status} {want_body!r}")


class _WebClient:
    def __init__(self, web: "Web", sessions, offset: int):
        self.web = web
        self.sessions = sessions
        self.paths = list(web.tb.static_bodies)
        self.turn = offset

    def request(self, kind: str) -> None:
        tb = self.web.tb
        # the users swap places every cycle, so each one makes every kind of request
        session = self.sessions[(self.turn + self.turn // len(WEB_MIX)) % len(self.sessions)]
        path = self.paths[self.turn // len(self.sessions) % len(self.paths)]
        agent, group = session.agent, dict(WEB_USERS)[session.user]
        if kind == "static":
            _expect(*tb.fetch(agent, VHOST, path), 200, tb.static_bodies[path])
        elif kind == "redirect":
            address = agent.installed.redirectors[MatchKey(VHOST.host, VHOST.port)].address
            with socket.create_connection(address, timeout=10) as sock:
                status, _, body = http_exchange(sock, "GET", path, VHOST.host)
            _expect(status, body, 200, tb.static_bodies[path])
        elif kind == "counter":
            status, body = tb.fetch(agent, VHOST, "/cgi-bin/counter")
            _expect(status, body, 200)
            with self.web.lock:
                self.web.counters[group].append(int(body))
        elif kind == "func1":
            _expect(*tb.fetch(agent, VHOST, "/cgi-bin/func1"), 200, tb.records[session.user])
        elif kind == "cross":
            other = GROUPS[(GROUPS.index(group) + 1) % len(GROUPS)]
            _expect(*tb.fetch(agent, Destination("127.0.0.1", tb.group_port[other]), path), 403)
        else:  # blocked
            try:
                agent.open_connection(tb.canary.address, timeout=10).close()
            except BlockedError:
                return
            raise CheckFailed(f"dial to blocked {tb.canary.address} was let through")

    def run(self, limit: Limit) -> None:
        done = 0
        while limit.more(done // len(WEB_MIX)):
            kind = WEB_MIX[self.turn % len(WEB_MIX)]
            _timed(self.web.log, kind, lambda: self.request(kind), (), self.web.tracer)
            self.turn += 1
            done += 1


class Web:
    name = "web"

    def __init__(self, tb: Testbed, log: Log, rng: random.Random, tracer=None):
        self.tb, self.log, self.tracer = tb, log, tracer
        self.counters = {g: [] for g in GROUPS}
        self.lock = threading.Lock()
        web = [s for s in tb.sessions if s.user in dict(WEB_USERS)]
        self.clients = [_WebClient(self, web[c::WEB_CLIENTS], c * len(WEB_MIX) // WEB_CLIENTS)
                        for c in range(WEB_CLIENTS)]

    def run(self, limit: Limit) -> None:
        pid = self.tb.procs["dacsweb"].pid
        cpu0 = proc_cpu_ms(pid, children=True)
        start = time.monotonic_ns()
        threads = [threading.Thread(target=c.run, args=(limit,)) for c in self.clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.log.window(self.name, start)
        self.log.web_cpu_ms += proc_cpu_ms(pid, children=True) - cpu0

    def finish(self) -> None:
        # isolation: each clone's counter moved by exactly its own group's fetches
        for group in GROUPS:
            seed, seen = self.tb.counter_seed[group], sorted(self.counters[group])
            final = int(self.tb.count_files[group].read_text(encoding="utf-8"))
            self.log.check(final == seed + len(seen) and seen == list(range(seed + 1, final + 1)),
                           f"{group} counter ends at {final}, seeded {seed} + {len(seen)} own fetches")
        self.log.check(self.tb.canary.connections == 0,
                       f"blocked destination saw {self.tb.canary.connections} connections")


# --- tunnel ---

def _digest_line(payload: bytes) -> bytes:
    return b"%d %s\n" % (len(payload), hashlib.sha256(payload).hexdigest().encode("ascii"))


def _exchange(sock: socket.socket, payload: bytes, want: bytes) -> int:
    with sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    if reply != want:
        raise CheckFailed(f"digest reply {reply[:24]!r} does not match what was sent")
    return len(payload)


class Tunnel:
    name = "tunnel"

    def __init__(self, tb: Testbed, log: Log, rng: random.Random, tracer=None):
        self.tb, self.log, self.tracer = tb, log, tracer
        self.cpu = (tb.procs["sctl_client"].pid, tb.procs["sctl_server"].pid) if tracer is not None else ()
        self.shorts = [rng.randbytes(SHORT_BYTES) for _ in range(32)]
        self.bulks = [rng.randbytes(BULK_BYTES) for _ in range(2)]
        self.want = {id(p): _digest_line(p) for p in self.shorts + self.bulks}
        self.session = next(s for s in tb.sessions if s.user == TUNNEL_USER)
        self.turn = 0

    def _through_tunnel(self, payload: bytes) -> int:
        sock = self.session.agent.open_connection(SERVICE, timeout=10)
        return _exchange(sock, payload, self.want[id(payload)])

    def run(self, limit: Limit) -> None:
        start, done, cycle = time.monotonic_ns(), 0, SHORTS_PER_BULK + 1
        while limit.more(done // cycle):
            n = self.turn
            if n % cycle == SHORTS_PER_BULK:
                payload = self.bulks[n // cycle % len(self.bulks)]
                _timed(self.log, "bulk", lambda: self._through_tunnel(payload), self.cpu, self.tracer)
            else:
                payload = self.shorts[n % len(self.shorts)]
                _timed(self.log, "short", lambda: self._through_tunnel(payload), (), self.tracer)
            self.turn += 1
            done += 1
        self.log.window(self.name, start)

    def finish(self) -> None:
        if self.tracer is None:
            return
        # reference: the same bulk transfers straight to the service, no agent and no tunnel
        for i in range(self.turn // (SHORTS_PER_BULK + 1)):
            payload = self.bulks[i % len(self.bulks)]
            _timed(self.log, "loopback", lambda: _exchange(
                socket.create_connection(self.tb.service.address, timeout=10),
                payload, self.want[id(payload)]))


PHASES = (Control, Web, Tunnel)
