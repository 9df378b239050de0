"""One running testbed: provisioned groups, a generated rule repository, the
four daemons as real subprocesses, and the logged-in agents.

Every address is on loopback. The daemons are the unmodified package
entry points (`python -m dacs.server` and friends, as dacs.experiment
spawns them); under tracing they run through launch.py instead, which calls
the same main() in the same process layout.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from dacs import provision as provision_mod
from dacs.agent import DacsAgent
from dacs.experiment import materialize_sample_app
from dacs.rules import Destination, MatchKey
from dacs.util import format_hostport, free_port, free_port_span, http_exchange

HERE = Path(__file__).resolve().parent
VHOST = Destination("wwwserver", 80)
SERVICE = Destination("securesvc", 7000)
GROUPS = ("GroupA", "GroupB", "GroupC")
WEB_USERS = (("userA", "GroupA"), ("userB", "GroupB"), ("userC", "GroupC"), ("userD", "GroupA"))
TUNNEL_USER = "tuser"
BLOCK_PORTS = (22, 23, 25, 80, 443, 445, 3389, 8080)
MARKERS = 3  # concrete-host rewrites per user; markers 1.. change with the variant


@dataclass(frozen=True)
class Sizes:
    """Generation parameters of one workload's testbed."""

    ctl_online: int  # control-plane users, each logged in from its own client IP
    ctl_offline: int  # extra user and client sections nobody logs in from
    ctl_rules: int  # rules per control user section and per client section
    blocklist: int  # block rules in each web user's client section


@dataclass
class Session:
    user: str
    client_ip: str
    preamble: bool
    agent: "TrackedAgent | None" = None


class TrackedAgent(DacsAgent):
    """A DacsAgent that wakes waiters whenever it installs a rule set."""

    def __init__(self, *args, installed_cond: threading.Condition, **kwargs):
        super().__init__(*args, **kwargs)
        self._cond = installed_cond

    def install_ruleset(self, ruleset):
        installed = super().install_ruleset(ruleset)
        with self._cond:
            self._cond.notify_all()
        return installed


def marker_key(user: str, k: int) -> MatchKey:
    return MatchKey(f"v{k}.{user}.corp", 7000 + k)


def marker_target(k: int, variant: int) -> Destination:
    return Destination(f"10.9.{k}.{variant if k else 1}", 7000 + k)


def _marker_lines(user: str, variant: int) -> list[str]:
    lines = []
    for k in range(MARKERS):
        key, dst = marker_key(user, k), marker_target(k, variant)
        lines.append(f"rewrite|{key.host}:{key.port}|{dst.host}:{dst.port}")
    return lines


def _ctl_sections(rng: random.Random, index: int, n: int) -> tuple[list[str], list[str]]:
    """(user body without markers, client body): half the user's match keys
    reappear on the client side with another action."""
    keys: list[tuple[str, int]] = []
    seen = set()
    wildcards = min(10, n // 10)
    while len(keys) < n - MARKERS - wildcards:
        key = (f"h{rng.randrange(10**6)}.corp", rng.choice(BLOCK_PORTS))
        if key not in seen:
            seen.add(key)
            keys.append(key)
    user = [f"block|{h}:{p}" for h, p in keys]
    user += [f"rewrite|*:{20000 + 16 * index + w}|10.8.{w}.1:{9000 + w}" for w in range(wildcards)]
    shared = (n - MARKERS) // 2
    client = [f"rewrite|{h}:{p}|10.7.0.{1 + i % 250}:{p}" for i, (h, p) in enumerate(keys[:shared])]
    client_keys = set()
    while len(client) < n:
        key = (f"c{rng.randrange(10**6)}.corp", rng.choice(BLOCK_PORTS))
        if key not in seen and key not in client_keys:
            client_keys.add(key)
            client.append(f"block|{key[0]}:{key[1]}")
    return user, client


def _blocklist(rng: random.Random, n: int, canary: Destination) -> list[str]:
    lines = [f"block|{canary.host}:{canary.port}"]
    seen = set()
    while len(lines) < n:
        key = (f"10.{rng.randrange(256)}.{rng.randrange(256)}.{rng.randrange(1, 255)}",
               rng.choice(BLOCK_PORTS))
        if key not in seen:
            seen.add(key)
            lines.append(f"block|{key[0]}:{key[1]}")
    return lines


class _Listener:
    """Loopback accept loop running `handler(conn)` on a thread per connection."""

    def __init__(self, handler):
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(64)
        self.address: tuple[str, int] = self._sock.getsockname()[:2]
        self._handler = handler
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._handler, args=(conn,), daemon=True).start()

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._thread.join(timeout=5)


def _digest_service(conn: socket.socket) -> None:
    """Reply with the byte count and SHA-256 of everything received."""
    digest, count = hashlib.sha256(), 0
    with conn:
        while True:
            data = conn.recv(262144)
            if not data:
                break
            digest.update(data)
            count += len(data)
        conn.sendall(b"%d %s\n" % (count, digest.hexdigest().encode("ascii")))


class Canary:
    """Listener on the blocked destination; any connection is a policy leak."""

    def __init__(self):
        self.connections = 0
        self._listener = _Listener(self._seen)
        self.address = Destination(*self._listener.address)

    def _seen(self, conn: socket.socket) -> None:
        self.connections += 1
        conn.close()

    def close(self) -> None:
        self._listener.close()


def proc_cpu_ms(pid: int, children: bool = False) -> float:
    """utime+stime of a process (plus reaped children) from /proc, in ms."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    if children:
        ticks += int(fields[13]) + int(fields[14])  # cutime, cstime
    return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")


class Testbed:
    def __init__(self, sizes: Sizes, seed: int, workdir: Path, *, trace: bool):
        self.sizes = sizes
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.trace = trace
        self.procs: dict[str, subprocess.Popen] = {}
        self.trace_files: dict[str, Path] = {}
        self.sessions: list[Session] = []
        self.installed = threading.Condition()
        self.version = 0  # mirrors dacsd's rule set version counter
        self.variant = 1
        self.spawn_to_listen_ms: list[float] = []
        self.identity_lag_ms: list[float] = []
        self.service = _Listener(_digest_service)
        self.canary = Canary()

    # --- generation ---

    def _generate(self) -> None:
        rng, sizes = self.rng, self.sizes
        app = materialize_sample_app(self.workdir / "app")
        self.static_bodies = {
            "/index.html": (app / "index.html").read_bytes(),
            "/docs/welcome.txt": (app / "docs" / "welcome.txt").read_bytes(),
        }
        records = (app / "cgi-bin" / "records.txt").read_text(encoding="utf-8")
        self.records = {
            user: "\n".join(line.split("|")[2] for line in records.splitlines()
                            if line.split("|")[0] == user).encode("utf-8")
            for user, _ in WEB_USERS
        }
        self.base_port = free_port_span(len(GROUPS))
        plan = provision_mod.ProvisionPlan(
            app_name="counter", source_dir=app, groups=GROUPS, base_ip="127.0.0.1",
            base_port=self.base_port, virtual_host_name=VHOST.host, virtual_port=VHOST.port,
        )
        result = provision_mod.provision(plan, self.workdir / "site", preamble=True, enforce=True)
        self.count_files = {g: result.cloned_dirs[g] / "cgi-bin" / "count.txt" for g in GROUPS}
        self.counter_seed = {g: rng.randrange(1000) for g in GROUPS}
        for group, path in self.count_files.items():
            path.write_text(str(self.counter_seed[group]), encoding="utf-8")
        self.vhosts_path = result.vhosts_path
        self.group_port = {g: self.base_port + i for i, g in enumerate(GROUPS)}

        self.ports = {name: free_port() for name in ("identity", "dacsd", "control", "sctl_server", "sctl_client")}
        self.key_path = self.workdir / "psk.key"
        self.key_path.write_text(rng.randbytes(32).hex() + "\n", encoding="ascii")

        users, clients = {}, {}
        for i in range(sizes.ctl_online + sizes.ctl_offline):
            user, ip = f"cu{i}", f"10.20.{i // 250}.{i % 250 + 1}"
            users[user], clients[ip] = _ctl_sections(rng, i, sizes.ctl_rules)
            if i < sizes.ctl_online:
                self.sessions.append(Session(user, ip, preamble=False))
        for i, (user, group) in enumerate(WEB_USERS):
            ip = f"10.10.0.{i + 1}"
            users[user] = [f"rewrite|{VHOST.host}:{VHOST.port}|127.0.0.1:{self.group_port[group]}"]
            clients[ip] = _blocklist(rng, sizes.blocklist, self.canary.address)
            self.sessions.append(Session(user, ip, preamble=True))
        users[TUNNEL_USER] = [
            f"rewrite|{SERVICE.host}:{SERVICE.port}|127.0.0.1:{self.ports['sctl_client']}"
        ]
        self.sessions.append(Session(TUNNEL_USER, "10.30.0.1", preamble=False))
        groups = "".join(f"{user}={group}\n" for user, group in WEB_USERS)

        def render(variant: int) -> str:
            parts = ["[policy]\npriority=user\n"]
            for user, body in users.items():
                parts.append(f"[user {user}]\n" + "\n".join(body + _marker_lines(user, variant)) + "\n")
            for ip, body in clients.items():
                parts.append(f"[client {ip}]\n" + "\n".join(body) + "\n")
            return "".join(parts) + "[groups]\n" + groups

        self.repo_text = {1: render(1), 2: render(2)}
        self.repo_path = self.workdir / "repository.conf"
        self.repo_path.write_text(self.repo_text[1], encoding="utf-8")

    # --- daemons ---

    def _spawn(self, name: str, module: str, args: list[str]) -> subprocess.Popen:
        env = os.environ.copy()
        src = str(Path("src").resolve())
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        if self.trace:
            self.trace_files[name] = self.workdir / f"trace-{name}.json"
            argv = [sys.executable, str(HERE / "launch.py"), str(self.trace_files[name]), module]
        else:
            argv = [sys.executable, "-m", module]
        proc = subprocess.Popen(argv + args, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, env=env)
        self.procs[name] = proc
        return proc

    def _start_daemons(self) -> None:
        p = self.ports
        hp = lambda port: f"127.0.0.1:{port}"  # noqa: E731
        started = time.monotonic_ns()
        self._spawn("dacsweb", "dacs.web", ["serve", "--vhosts", str(self.vhosts_path),
                                            "--identity-listen", hp(p["identity"])])
        self._spawn("dacsd", "dacs.server", ["serve", "--repo", str(self.repo_path),
                                             "--listen", hp(p["dacsd"]), "--control", hp(p["control"]),
                                             "--web-identity", hp(p["identity"])])
        self._spawn("sctl_server", "dacs.tunnel", ["server", "--listen", hp(p["sctl_server"]),
                                                   "--forward", format_hostport(self.service.address),
                                                   "--key", str(self.key_path)])
        self._spawn("sctl_client", "dacs.tunnel", ["client", "--local", str(p["sctl_client"]),
                                                   "--remote", hp(p["sctl_server"]),
                                                   "--key", str(self.key_path)])
        waits = {
            "dacsweb": [p["identity"], *self.group_port.values()],
            "dacsd": [p["dacsd"], p["control"]],
            "sctl_server": [p["sctl_server"]],
            "sctl_client": [p["sctl_client"]],
        }
        for name, ports in waits.items():
            for port in ports:
                _await_port(port, self.procs[name], name)
        self.spawn_to_listen_ms.append((time.monotonic_ns() - started) / 1e6)

    # --- sessions ---

    def login(self, session: Session) -> TrackedAgent:
        """Log in (superseding the IP's previous session) and check the
        installed version is the one dacsd assigned."""
        agent = TrackedAgent(("127.0.0.1", self.ports["dacsd"]), session.user, session.client_ip,
                             preamble=session.preamble, installed_cond=self.installed)
        agent.login()
        self.version += 1
        old, session.agent = session.agent, agent
        if old is not None:
            old.close()
        if agent.installed.snapshot.version != self.version:
            raise CheckFailed(f"{session.user} installed version {agent.installed.snapshot.version}, "
                              f"dacsd sent {self.version}")
        return agent

    def fetch(self, agent: DacsAgent, dst: Destination, path: str) -> tuple[int, bytes]:
        sock = agent.open_connection(dst, timeout=10)
        with sock:
            status, _, body = http_exchange(sock, "GET", path, VHOST.host)
        return status, body

    def _await_identity(self, session: Session, group: str) -> None:
        """Poll the user's own binding until the identity notice has landed."""
        own = Destination("127.0.0.1", self.group_port[group])
        start = time.monotonic_ns()
        deadline = start + 5_000_000_000
        while self.fetch(session.agent, own, "/index.html")[0] != 200:
            if time.monotonic_ns() > deadline:
                raise CheckFailed(f"web tier never recognized {session.user}")
            time.sleep(0.001)
        self.identity_lag_ms.append((time.monotonic_ns() - start) / 1e6)

    def setup(self) -> None:
        self.workdir.mkdir(parents=True)
        self._generate()
        self._start_daemons()
        groups = dict(WEB_USERS)
        for session in self.sessions:
            self.login(session)
            if session.user in groups:
                self._await_identity(session, groups[session.user])

    def teardown(self) -> None:
        for session in self.sessions:
            if session.agent is not None:
                session.agent.close()
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.service.close()
        self.canary.close()

    def remove(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class CheckFailed(Exception):
    """The system gave a wrong answer."""


def _await_port(port: int, proc: subprocess.Popen, name: str, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"{name} exited with code {proc.returncode} during start-up")
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            time.sleep(0.005)
    raise RuntimeError(f"{name} did not listen on port {port} within {timeout:.0f}s")
