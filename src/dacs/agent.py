"""Client-side control layer: receives rule sets and applies rewrite/block
decisions when connections are opened.

Interception happens at dial time: in-repo programs open connections through
the virtual dialer (open_connection), and each concrete-host rewrite rule
also gets a real loopback redirector listener so unmodified external tools
pointed at it traverse the same control layer. Applications keep using the
original destination names; what changes is where the bytes go.
"""

from __future__ import annotations

import base64
import collections
import json
import logging
import socket
import threading
from dataclasses import dataclass

from .rules import (
    Block,
    Decision,
    Destination,
    DuplicateMatchKey,
    MatchKey,
    Rewrite,
    RuleSet,
    WILDCARD,
    decide,
    format_match,
    format_rule,
    parse_rule,  # noqa: F401 -- unused; bound so perfbench's tracer can count parses here
)
from .util import Listener, clear_deadline, format_hostport, parse_hostport, pump, setup_logging
from .wire import Ack, Login, MessageStream, PushNotice, RuleSetMsg, WireError

log = logging.getLogger("dacs.agent")

DEFAULT_CONTROL = ("127.0.0.1", 47901)
PREAMBLE_FORMAT = "DACS1 %s\n"
# dials kept in DacsAgent.dial_log; older ones are dropped first
DIAL_LOG_MAX = 1000


class BlockedError(Exception):
    """The dial matched a block rule; no connection attempt was made."""


class ConnectError(Exception):
    """The network refused us (distinct from a policy block)."""


class ProtocolError(Exception):
    """The server sent something that is not a valid rule distribution."""


class InstallError(Exception):
    pass


class PortExhausted(InstallError):
    """Could not bind a redirector; the previous snapshot stays active."""


@dataclass(frozen=True)
class VirtualDial:
    """One dial through the control layer, as recorded in the dial log."""

    requested: Destination
    decision: Decision
    effective: Destination | None  # None when blocked
    version: int


class Redirector(Listener):
    """Loopback listener standing in for one rewrite rule's match key."""

    def __init__(self, target: Destination, preamble_ip: str | None):
        self.target = target
        self.preamble_ip = preamble_ip
        try:
            super().__init__(("127.0.0.1", 0), self._forward)
        except OSError as exc:
            raise PortExhausted(str(exc)) from None
        self.start()

    def _forward(self, conn: socket.socket, _peer) -> None:
        """Relay one session both ways, then close both ends."""
        try:
            upstream = socket.create_connection((self.target.host, self.target.port), timeout=10)
        except OSError:
            conn.close()
            return
        if self.preamble_ip:
            try:
                upstream.sendall((PREAMBLE_FORMAT % self.preamble_ip).encode("ascii"))
            except OSError:
                upstream.close()
                conn.close()
                return
        clear_deadline(upstream)
        up = threading.Thread(target=pump, args=(conn, upstream), daemon=True)
        up.start()
        pump(upstream, conn)
        up.join(timeout=10)
        upstream.close()
        conn.close()


@dataclass
class InstalledRules:
    snapshot: RuleSet
    redirectors: dict[MatchKey, Redirector]


class DacsAgent:
    """One logged-in client: holds the installed snapshot, dials through it,
    and keeps the server connection open for pushed rule sets."""

    def __init__(self, server: tuple[str, int], user: str, client_ip: str, *, preamble: bool = False):
        self.server = server
        self.user = user
        self.client_ip = client_ip
        self.preamble = preamble
        self.dial_log: collections.deque[VirtualDial] = collections.deque(maxlen=DIAL_LOG_MAX)
        self.connected = False
        self._installed = InstalledRules(RuleSet(0, ()), {})
        self._install_lock = threading.Lock()
        self._stream: MessageStream | None = None
        self._closed = False

    # --- session ---

    def login(self, timeout: float = 10.0) -> InstalledRules:
        """Send the login, install the returned rule set, ack it, and start
        listening for pushed replacements."""
        try:
            sock = socket.create_connection(self.server, timeout=timeout)
        except OSError as exc:
            raise ConnectError(f"cannot reach rule server at {format_hostport(self.server)}: {exc}") from None
        stream = MessageStream(sock)
        try:
            stream.send(Login(self.user, self.client_ip))
            msg = stream.recv()
        except (WireError, OSError) as exc:
            stream.close()
            raise ProtocolError(f"login exchange failed: {exc}") from None
        if not isinstance(msg, RuleSetMsg):
            stream.close()
            raise ProtocolError(f"expected a rule set, got {type(msg).__name__}")
        installed = self.install_ruleset(self._ruleset(msg))
        try:
            stream.send(Ack(msg.version))
        except OSError as exc:
            stream.close()
            raise ProtocolError(f"could not ack rule set: {exc}") from None
        sock.settimeout(None)
        self._stream = stream
        self.connected = True
        threading.Thread(target=self._push_loop, daemon=True).start()
        log.info("logged in as %s (%s): %d rules, version %d",
                 self.user, self.client_ip, len(installed.snapshot.rules), installed.snapshot.version)
        return installed

    @staticmethod
    def _ruleset(msg: RuleSetMsg) -> RuleSet:
        try:
            return RuleSet(msg.version, msg.rules)
        except (DuplicateMatchKey, ValueError) as exc:
            raise ProtocolError(f"bad rule set from server: {exc}") from None

    def _push_loop(self) -> None:
        stream = self._stream
        while not self._closed and stream is not None:
            try:
                msg = stream.recv()
            except (WireError, OSError):
                break
            if msg is None:
                break
            if isinstance(msg, PushNotice):
                log.debug("push notice; rule set follows")
            elif isinstance(msg, RuleSetMsg):
                try:
                    self.install_ruleset(self._ruleset(msg))
                except (ProtocolError, InstallError) as exc:
                    log.error("pushed rule set rejected: %s", exc)
                    continue
                try:
                    stream.send(Ack(msg.version))
                except OSError:
                    break
                log.info("installed pushed rule set version %d", msg.version)
            else:
                log.warning("unexpected %s from server", type(msg).__name__)
        self.connected = False
        log.info("server connection closed")

    # --- installation ---

    def install_ruleset(self, ruleset: RuleSet) -> InstalledRules:
        """Atomically replace the snapshot. Dials that started earlier finish
        on the old rules; redirectors are created for new concrete-host
        rewrites and torn down for removed ones."""
        with self._install_lock:
            old = self._installed
            desired: dict[MatchKey, Destination] = {
                rule.match: rule.action.new_dst
                for rule in ruleset.rules
                if isinstance(rule.action, Rewrite) and rule.match.host != WILDCARD
            }
            kept: dict[MatchKey, Redirector] = {}
            created: dict[MatchKey, Redirector] = {}
            try:
                for key, target in desired.items():
                    current = old.redirectors.get(key)
                    if current is not None and current.target == target:
                        kept[key] = current
                    else:
                        created[key] = Redirector(
                            target, self.client_ip if self.preamble else None
                        )
            except PortExhausted:
                for redirector in created.values():
                    redirector.close()
                raise
            installed = InstalledRules(ruleset, {**kept, **created})
            self._installed = installed  # the atomic swap
            for key, redirector in old.redirectors.items():
                if kept.get(key) is not redirector:
                    redirector.close()
            return installed

    @property
    def installed(self) -> InstalledRules:
        return self._installed

    # --- dialing ---

    def open_connection(self, dst: Destination, timeout: float = 10.0) -> socket.socket:
        """Dial through the policy: Pass connects directly, Rewrite connects
        to the new destination, Block raises without touching the network."""
        installed = self._installed  # one snapshot per dial
        decision = decide(installed.snapshot, dst)
        if isinstance(decision, Block):
            self.dial_log.append(VirtualDial(dst, decision, None, installed.snapshot.version))
            raise BlockedError(f"{dst.host}:{dst.port} is blocked by policy")
        effective = decision.new_dst if isinstance(decision, Rewrite) else dst
        self.dial_log.append(VirtualDial(dst, decision, effective, installed.snapshot.version))
        try:
            sock = socket.create_connection((effective.host, effective.port), timeout=timeout)
        except OSError as exc:
            raise ConnectError(f"connect to {effective.host}:{effective.port} failed: {exc}") from None
        if self.preamble:
            try:
                sock.sendall((PREAMBLE_FORMAT % self.client_ip).encode("ascii"))
            except OSError as exc:
                sock.close()
                raise ConnectError(f"preamble write failed: {exc}") from None
        return sock

    def status(self) -> dict:
        installed = self._installed
        return {
            "user": self.user,
            "client_ip": self.client_ip,
            "version": installed.snapshot.version,
            "rules": [format_rule(r) for r in installed.snapshot.rules],
            "redirectors": {
                format_match(key): format_hostport(r.address)
                for key, r in installed.redirectors.items()
            },
        }

    def close(self) -> None:
        self._closed = True
        if self._stream is not None:
            self._stream.close()
        with self._install_lock:
            for redirector in self._installed.redirectors.values():
                redirector.close()
            self._installed = InstalledRules(self._installed.snapshot, {})


class AgentControl(Listener):
    """Local JSON-lines socket so the CLI can talk to a running agent."""

    def __init__(self, agent: DacsAgent, listen: tuple[str, int] = DEFAULT_CONTROL):
        self.agent = agent
        super().__init__(listen, self._serve)
        self.start()

    def _serve(self, conn: socket.socket, _peer) -> None:
        conn.settimeout(60)
        try:
            raw = b""
            while not raw.endswith(b"\n"):
                if len(raw) > 8 * 1024 * 1024:
                    raise ValueError("control request too large")
                chunk = conn.recv(65536)
                if not chunk:
                    break
                raw += chunk
            request = json.loads(raw.decode("utf-8"))
            reply = self._dispatch(request)
        except (OSError, ValueError) as exc:
            reply = {"ok": False, "error": str(exc)}
        try:
            conn.sendall(json.dumps(reply).encode("utf-8") + b"\n")
        except OSError:
            pass
        conn.close()

    def _dispatch(self, request: dict) -> dict:
        command = request.get("cmd")
        if command == "status":
            return {"ok": True, **self.agent.status()}
        if command == "dial":
            dst = Destination(request["host"], int(request["port"]))
            payload = base64.b64decode(request["send"]) if request.get("send") else b""
            try:
                sock = self.agent.open_connection(dst, timeout=float(request.get("timeout", 10)))
            except BlockedError as exc:
                return {"ok": True, "outcome": "blocked", "detail": str(exc)}
            except ConnectError as exc:
                return {"ok": False, "outcome": "connect-error", "error": str(exc)}
            try:
                if payload:
                    sock.sendall(payload)
                    sock.shutdown(socket.SHUT_WR)
                sock.settimeout(float(request.get("timeout", 10)))
                received = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    received += chunk
            except OSError as exc:
                return {"ok": False, "outcome": "io-error", "error": str(exc)}
            finally:
                sock.close()
            return {"ok": True, "outcome": "ok", "received": base64.b64encode(received).decode("ascii")}
        return {"ok": False, "error": f"unknown command {command!r}"}


def _control_request(control: tuple[str, int], request: dict) -> dict:
    with socket.create_connection(control, timeout=30) as sock:
        sock.sendall(json.dumps(request).encode("utf-8") + b"\n")
        raw = b""
        while not raw.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            raw += chunk
    return json.loads(raw.decode("utf-8"))


def main(argv=None) -> int:
    import argparse

    setup_logging()
    parser = argparse.ArgumentParser(prog="dacs-agent", description="client control layer")
    sub = parser.add_subparsers(dest="command", required=True)

    p_login = sub.add_parser("login", help="log in and keep applying rules until interrupted")
    p_login.add_argument("user")
    p_login.add_argument("--server", required=True, metavar="IP:PORT")
    p_login.add_argument("--client-ip", required=True, metavar="IPV4")
    p_login.add_argument("--preamble", action="store_true",
                         help="prefix dials with the simulated client identity line")
    p_login.add_argument("--control", default=format_hostport(DEFAULT_CONTROL), metavar="IP:PORT")

    p_status = sub.add_parser("status", help="print the running agent's snapshot")
    p_status.add_argument("--control", default=format_hostport(DEFAULT_CONTROL), metavar="IP:PORT")

    p_dial = sub.add_parser("dial", help="dial a destination through the virtual dialer")
    p_dial.add_argument("destination", metavar="HOST:PORT")
    p_dial.add_argument("--send", metavar="FILE", help="payload to send before reading")
    p_dial.add_argument("--control", default=format_hostport(DEFAULT_CONTROL), metavar="IP:PORT")

    args = parser.parse_args(argv)

    if args.command == "login":
        agent = DacsAgent(parse_hostport(args.server), args.user, args.client_ip,
                          preamble=args.preamble)
        try:
            agent.login()
        except (ConnectError, ProtocolError, InstallError) as exc:
            print(f"login failed: {exc}")
            return 1
        control = AgentControl(agent, parse_hostport(args.control))
        print(f"agent control on {format_hostport(control.address)}")
        for line in agent.status()["rules"]:
            print(f"rule {line}")
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            control.close()
            agent.close()
        return 0

    control_addr = parse_hostport(args.control)
    if args.command == "status":
        try:
            reply = _control_request(control_addr, {"cmd": "status"})
        except OSError as exc:
            print(f"no agent at {args.control}: {exc}")
            return 1
        print(f"user {reply['user']} client_ip {reply['client_ip']} version {reply['version']}")
        for line in reply["rules"]:
            print(f"rule {line}")
        for match, addr in reply["redirectors"].items():
            print(f"redirector {match} -> {addr}")
        return 0

    # dial
    host, port = parse_hostport(args.destination)
    request = {"cmd": "dial", "host": host, "port": port}
    if args.send:
        with open(args.send, "rb") as handle:
            request["send"] = base64.b64encode(handle.read()).decode("ascii")
    try:
        reply = _control_request(control_addr, request)
    except OSError as exc:
        print(f"no agent at {args.control}: {exc}")
        return 1
    outcome = reply.get("outcome")
    if outcome == "ok":
        import sys

        sys.stdout.buffer.write(base64.b64decode(reply["received"]))
        return 0
    if outcome == "blocked":
        print("blocked by policy")
        return 3
    print(f"dial failed: {reply.get('error', reply)}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
