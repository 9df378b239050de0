"""Rule server: persistent repository, per-login merge, admin-triggered
redistribution, group list, and identity notification toward the web tier.

The repository is one flat file, reloaded atomically on push: agents see
either the old rules or the new rules, never a mixture, and a file that no
longer parses leaves the running repository untouched.
"""

from __future__ import annotations

import logging
import socket
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .rules import (
    MatchKey,
    PriorityPolicy,
    Rule,
    RuleSet,
    RuleSyntaxError,
    group_name_violations,
    is_ipv4,
    merge_rules,
    parse_rule,
    user_name_violations,
)
from . import wire  # frames go through wire.encode, so a wrapper on it sees every one
from .util import Listener, format_hostport, parse_hostport, send_within, setup_logging, submit
from .wire import Ack, ErrorMsg, IdentityNotice, Login, Message, MessageStream, PushNotice, RuleSetMsg, WireError

log = logging.getLogger("dacs.server")

# seconds one write to an agent may take before the session is dropped
SEND_DEADLINE = 5.0


class RepositoryError(Exception):
    pass


class RepoParseError(RepositoryError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InvariantViolation(RepositoryError):
    pass


class ReloadError(RepositoryError):
    """A push found an unloadable repository file; nothing was distributed."""


@dataclass
class Repository:
    policy: PriorityPolicy
    user_rules: dict[str, list[Rule]] = field(default_factory=dict)
    client_rules: dict[str, list[Rule]] = field(default_factory=dict)
    groups: dict[str, list[str]] = field(default_factory=dict)
    # every rule line of the load that built this repository -> its Rule
    rule_lines: dict[str, Rule] = field(default_factory=dict, repr=False, compare=False)


def load_repository(path, previous: Repository | None = None) -> Repository:
    """Parse and fully validate a repository file; any violation aborts.

    Linear in the file: a rule section's name (a user name or a client IPv4
    literal) is checked at its header, and duplicate match keys are found
    through one set per (kind, name), which also spans a header repeated
    later in the file. Each section holds the rules that parse_rule returned;
    a rule line that `previous` also held is not parsed again, its Rule is
    reused (every other check still runs on it).
    Lines end at LF only (a trailing CR is stripped with the other edge
    whitespace); the file must be UTF-8.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RepoParseError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    policy: PriorityPolicy | None = None
    user_rules: dict[str, list[Rule]] = {}
    client_rules: dict[str, list[Rule]] = {}
    groups: dict[str, list[str]] = {}
    section: tuple | None = None
    seen_keys: dict[tuple, set[MatchKey]] = {}
    entries: list[Rule] | None = None  # the current rule section's, once it has a rule
    known = previous.rule_lines if previous is not None else {}
    rule_lines: dict[str, Rule] = {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        first = line[:1]  # cheaper than two startswith calls on every line
        if not first or first == "#":
            continue
        if first == "[" and line.endswith("]"):
            header = line[1:-1].strip()
            problems = []
            if header == "policy":
                section = ("policy",)
            elif header == "groups":
                section = ("groups",)
            elif header.startswith("user "):
                section = ("user", header[5:].strip())
                problems = user_name_violations(section[1])
            elif header.startswith("client "):
                section = ("client", header[7:].strip())
                if not is_ipv4(section[1]):
                    problems = ["client ip is not a dotted-quad IPv4 literal"]
            else:
                raise RepoParseError(lineno, f"unknown section {line!r}")
            if problems:
                raise InvariantViolation(f"line {lineno}: " + "; ".join(problems))
            entries = None
            continue
        if section is None:
            raise RepoParseError(lineno, "content before any section header")

        if section[0] == "policy":
            key, sep, value = line.partition("=")
            if not sep or key != "priority":
                raise RepoParseError(lineno, f"expected priority=user|client, got {line!r}")
            if policy is not None:
                raise RepoParseError(lineno, "priority set twice")
            try:
                policy = PriorityPolicy(value)
            except ValueError:
                raise RepoParseError(lineno, f"unknown priority {value!r}") from None
        elif section[0] in ("user", "client"):
            rule = known.get(line)
            if rule is None:
                try:
                    rule = parse_rule(line)
                except RuleSyntaxError as exc:
                    raise RepoParseError(lineno, str(exc)) from None
            rule_lines[line] = rule
            if entries is None:
                kind, name = section
                bucket = user_rules if kind == "user" else client_rules
                entries = bucket.setdefault(name, [])
                seen = seen_keys.setdefault(section, set())
            if rule.match in seen:
                raise InvariantViolation(
                    f"line {lineno}: duplicate match key for {section[0]} {section[1]}"
                )
            seen.add(rule.match)
            entries.append(rule)
        else:  # groups
            name, sep, value = line.partition("=")
            if not sep:
                raise RepoParseError(lineno, f"expected user=group[,group...], got {line!r}")
            if user_name_violations(name):
                raise InvariantViolation(f"line {lineno}: bad user name {name!r}")
            if name in groups:
                raise InvariantViolation(f"line {lineno}: groups for {name!r} set twice")
            names = value.split(",") if value else []
            for group in names:
                if group_name_violations(group):
                    raise InvariantViolation(f"line {lineno}: bad group name {group!r}")
            groups[name] = names

    if policy is None:
        raise InvariantViolation("missing [policy] section with priority=")
    return Repository(policy, user_rules, client_rules, groups, rule_lines)


def get_groups(repo: Repository, user: str) -> list[str]:
    """The user's groups in repository order; unknown users have none."""
    return list(repo.groups.get(user, []))


def compose_login_rules(repo: Repository, user: str, client_ip: str, version: int) -> RuleSet:
    """Merge the user's and the client's rules under the repository policy.

    Unknown users get an empty user side (client rules still apply), so a
    controlled machine stays controlled no matter who logs in.
    """
    return merge_rules(
        repo.user_rules.get(user, []),
        repo.client_rules.get(client_ip, []),
        repo.policy,
        version=version,
    )


class _Session:
    def __init__(self, user: str, client_ip: str, stream: MessageStream):
        self.user = user
        self.client_ip = client_ip
        self.stream = stream
        self.sent_version = -1  # last rule set version written to the agent
        self.acked_version = -1  # highest version the agent acked
        # re-entrant: a login holds it across registering and its RULESET's send
        self.send_lock = threading.RLock()

    def send(self, *msgs: Message) -> None:
        """Write the messages' frames as one write, within SEND_DEADLINE.

        One write, because a frame written on its own after a small one
        would wait under Nagle's algorithm (RFC 896) for the agent's
        delayed ACK (RFC 1122 4.2.3.2, about 40 ms on Linux): the agent
        answers nothing until the rule set has arrived. Raises OSError, also
        for a rule set too large for one frame."""
        try:
            data = b"".join([wire.encode(msg) for msg in msgs])
        except WireError as exc:
            raise OSError(f"cannot frame the message: {exc}") from exc
        with self.send_lock:
            send_within(self.stream.sock, data, SEND_DEADLINE)

    def close(self) -> None:
        self.stream.close()


class DacsServer:
    """Serves agent sessions on one socket and admin pushes on a second,
    local-only control socket."""

    def __init__(
        self,
        repo_path,
        listen: tuple[str, int],
        control: tuple[str, int],
        web_identity: tuple[str, int] | None = None,
    ):
        self.repo_path = Path(repo_path)
        self.repo = load_repository(self.repo_path)
        self.web_identity = web_identity
        self._lock = threading.Lock()  # guards repo swap, sessions, version
        self._push_lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}
        self._version = 0
        self._agent_listener = Listener(listen, self._agent_conn)
        try:
            self._control_listener = Listener(control, self._control_conn)
        except OSError:
            self._agent_listener.close()
            raise
        self.listen_addr = self._agent_listener.address
        self.control_addr = self._control_listener.address

    def start(self) -> "DacsServer":
        self._agent_listener.start()
        self._control_listener.start()
        return self

    def stop(self) -> None:
        self._agent_listener.close()
        self._control_listener.close()
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def _next_version(self) -> int:
        # caller holds self._lock
        self._version += 1
        return self._version

    def session_table(self) -> dict[str, tuple[str, int, int]]:
        """client_ip -> (user, sent version, acked version); for inspection.
        A rule set the agent rejected leaves the acked version behind."""
        with self._lock:
            return {
                ip: (s.user, s.sent_version, s.acked_version)
                for ip, s in self._sessions.items()
            }

    # --- agent plane ---

    def _agent_conn(self, conn: socket.socket, peer) -> None:
        conn.settimeout(30)
        stream = MessageStream(conn)
        try:
            msg = stream.recv()
            # the session reader blocks for good; only a send has a deadline
            conn.settimeout(None)
        except (WireError, OSError) as exc:
            log.warning("bad first frame from %s: %s", peer, exc)
            return
        if not isinstance(msg, Login):
            try:
                stream.send(ErrorMsg("expected-login", f"got {type(msg).__name__}"))
            except OSError:
                pass
            return
        try:
            session = self.handle_login(msg.user, msg.client_ip, stream)
        except OSError as exc:
            log.warning("login of %s from %s failed: %s", msg.user, msg.client_ip, exc)
            return
        self._session_read_loop(session)

    def handle_login(self, user: str, client_ip: str, stream: MessageStream) -> _Session:
        """Register the session (superseding any older one for the same IP),
        send the merged rule set, then notify the web tier of the identity.

        The session's send lock is held from before it is registered until
        its rule set is written, so no push on it can write first. If the
        rule set cannot be sent, the session is dropped and the OSError
        propagates."""
        session = _Session(user, client_ip, stream)
        with session.send_lock:  # taken before self._lock, as everywhere
            with self._lock:
                version = self._next_version()
                ruleset = compose_login_rules(self.repo, user, client_ip, version)
                groups = get_groups(self.repo, user)
                old = self._sessions.get(client_ip)
                self._sessions[client_ip] = session
            if old is not None:
                log.info("session for %s superseded by %s", client_ip, user)
                old.close()
            try:
                session.send(RuleSetMsg(ruleset.version, ruleset.rules))
            except OSError:
                self._drop_session(session)
                raise
            session.sent_version = ruleset.version
        log.info("login %s from %s: %d rules, version %d",
                 user, client_ip, len(ruleset.rules), ruleset.version)
        self._notify_identity(user, client_ip, groups)
        return session

    def _session_read_loop(self, session: _Session) -> None:
        while True:
            try:
                msg = session.stream.recv()
            except (WireError, OSError):
                break
            if msg is None:
                break
            if isinstance(msg, Ack):
                session.acked_version = max(session.acked_version, msg.ref_version)
                log.debug("ack version %d from %s", msg.ref_version, session.client_ip)
            else:
                log.warning("unexpected %s from %s", type(msg).__name__, session.client_ip)
        self._drop_session(session)

    def _drop_session(self, session: _Session) -> None:
        """Unregister the session unless a newer one replaced it; close it."""
        with self._lock:
            if self._sessions.get(session.client_ip) is session:
                del self._sessions[session.client_ip]
        session.close()

    def _notify_identity(self, user: str, client_ip: str, groups: list[str]) -> None:
        """Fire-and-forget toward the web tier; never fails the login."""
        if self.web_identity is None:
            return
        try:
            with socket.create_connection(self.web_identity, timeout=2) as sock:
                MessageStream(sock).send(IdentityNotice(user, client_ip, tuple(groups)))
        except (OSError, WireError) as exc:
            log.warning("identity notice for %s undeliverable: %s", user, exc)

    # --- admin plane ---

    def admin_push(self) -> int:
        """Reload the repository and redistribute to every session.

        Reload is atomic: a bad file raises ReloadError and the old
        repository stays active with nothing sent. Each session's rule set is
        composed and written by a pool task of its own, so agents that stop
        reading hold the push up for one SEND_DEADLINE however many they
        are; the push returns once every write has ended. A session whose
        send fails is logged, dropped and closed.
        """
        with self._push_lock:
            try:
                new_repo = load_repository(self.repo_path, previous=self.repo)
            except (RepositoryError, OSError) as exc:
                raise ReloadError(str(exc)) from None
            with self._lock:
                self.repo = new_repo
                pushes = [(session, self._next_version()) for session in self._sessions.values()]
            dropped: list[_Session] = []
            for write in [submit(self._push_to, new_repo, *push, dropped) for push in pushes]:
                write.wait()
            sent = len(pushes) - len(dropped)
            log.info("pushed to %d of %d sessions", sent, len(pushes))
            return sent

    def _push_to(self, repo: Repository, session: _Session, version: int, dropped: list) -> None:
        """Compose the session's rule set and write it after a push notice, as
        one write. A session whose write fails is logged, dropped, closed and
        added to `dropped`."""
        ruleset = compose_login_rules(repo, session.user, session.client_ip, version)
        try:
            session.send(PushNotice(), RuleSetMsg(ruleset.version, ruleset.rules))
            session.sent_version = ruleset.version
        except OSError as exc:
            log.warning("push to %s failed: %s", session.client_ip, exc)
            self._drop_session(session)
            dropped.append(session)

    def _control_conn(self, conn: socket.socket, _peer) -> None:
        conn.settimeout(30)
        stream = MessageStream(conn)
        try:
            msg = stream.recv()
            if isinstance(msg, PushNotice):
                try:
                    count = self.admin_push()
                except ReloadError as exc:
                    stream.send(ErrorMsg("reload-error", str(exc).replace("\n", " ")))
                else:
                    stream.send(Ack(count))
            elif msg is not None:
                stream.send(ErrorMsg("bad-request", f"got {type(msg).__name__}"))
        except (WireError, OSError) as exc:
            log.warning("control connection error: %s", exc)


def push_command(control: tuple[str, int]) -> int:
    """Ask a running server to reload and redistribute; returns the count."""
    with socket.create_connection(control, timeout=10) as sock:
        stream = MessageStream(sock)
        stream.send(PushNotice())
        reply = stream.recv()
    if isinstance(reply, Ack):
        return reply.ref_version
    if isinstance(reply, ErrorMsg):
        raise ReloadError(f"{reply.code}: {reply.detail}")
    raise RepositoryError(f"unexpected reply {reply!r}")


def main(argv=None) -> int:
    import argparse

    setup_logging()
    parser = argparse.ArgumentParser(prog="dacsd", description="rule distribution server")
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--repo", required=True, metavar="FILE")
    p_serve.add_argument("--listen", required=True, metavar="IP:PORT")
    p_serve.add_argument("--control", required=True, metavar="IP:PORT")
    p_serve.add_argument("--web-identity", default="none", metavar="IP:PORT|none")

    p_push = sub.add_parser("push")
    p_push.add_argument("--control", required=True, metavar="IP:PORT")

    args = parser.parse_args(argv)
    if args.command == "push":
        try:
            count = push_command(parse_hostport(args.control))
        except (RepositoryError, OSError) as exc:
            print(f"push failed: {exc}")
            return 1
        print(f"pushed to {count} client(s)")
        return 0

    try:
        server = DacsServer(
            args.repo,
            listen=parse_hostport(args.listen),
            control=parse_hostport(args.control),
            web_identity=None if args.web_identity == "none" else parse_hostport(args.web_identity),
        ).start()
    except (RepositoryError, OSError, ValueError) as exc:
        print(f"cannot start: {exc}")
        return 1
    log.info("agents on %s, control on %s",
             format_hostport(server.listen_addr), format_hostport(server.control_addr))
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
