"""Per-service encrypted tunnel: the second half of the double rewrite.

The control layer rewrites a service's destination to 127.0.0.1:<local_port>;
the tunnel client listening there carries the bytes to the server-side tunnel
listener over an authenticated-encrypted channel, which relays plaintext to
the real service. Selecting which services are tunneled is purely a matter
of which rewrite rules point at tunnel ports.

Channel construction (pre-shared 32-byte key):
  1. client sends 16 random bytes, server replies with 16 random bytes
  2. session key = HMAC-SHA256(psk, client_nonce || server_nonce)
  3. each side sends one fixed confirmation record; a bad key fails here,
     before any application data moves
  4. records: 2-byte big-endian ciphertext length + AES-256-GCM ciphertext
     (tag included); nonces are direction-tagged 64-bit counters, so replayed,
     reordered, or bit-flipped records fail authentication
"""

from __future__ import annotations

import hashlib
import hmac
import logging
import os
import socket
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .rules import Block, Destination, MatchKey, Rewrite, RuleSet, format_match, format_rule
from .util import Listener, clear_deadline, parse_hostport, parse_port, recv_exact, relay, setup_logging

log = logging.getLogger("dacs.tunnel")

NONCE_LEN = 16
KEY_LEN = 32
TAG_LEN = 16
RECORD_MAX_CIPHERTEXT = 65535  # bound by the 2-byte length field
RECORD_MAX_PLAINTEXT = RECORD_MAX_CIPHERTEXT - TAG_LEN
SEND_CHUNK = 32768

_FINISH_CLIENT = b"SCTL-FIN-CLIENT"
_FINISH_SERVER = b"SCTL-FIN-SERVER"
_LOCAL_HOSTS = ("127.0.0.1", "localhost")


class TunnelError(Exception):
    pass


class KeyFileError(TunnelError):
    pass


class HandshakeError(TunnelError):
    """Key mismatch or a peer that does not speak the handshake."""


class RecordTampered(TunnelError, ConnectionError):
    """Authentication failed on an established session; no plaintext released.

    A ConnectionError too: the channel is shut down when this is raised, and
    a relay ends on it like on any other socket error."""


def load_key(path) -> bytes:
    """Read a pre-shared key: 32 raw bytes, or 64 hex characters plus LF."""
    data = Path(path).read_bytes()
    if len(data) == KEY_LEN:
        return data
    text = data.decode("ascii", errors="replace")
    if text.endswith("\n"):
        text = text[:-1]
    if len(text) == 2 * KEY_LEN:
        try:
            return bytes.fromhex(text)
        except ValueError:
            pass
    raise KeyFileError(f"{path}: expected 32 raw bytes or 64 hex characters")


def _session_key(psk: bytes, client_nonce: bytes, server_nonce: bytes) -> bytes:
    return hmac.new(psk, b"dacs-sctl-v1" + client_nonce + server_nonce, hashlib.sha256).digest()


class SecureChannel:
    """Authenticated-encrypted byte stream over one connected TCP socket."""

    def __init__(self, sock: socket.socket, session_key: bytes, *, client_side: bool):
        self.sock = sock
        self._aead = AESGCM(session_key)
        self._send_dir = b"\x01" if client_side else b"\x02"
        self._recv_dir = b"\x02" if client_side else b"\x01"
        self._send_ctr = 0
        self._recv_ctr = 0

    @classmethod
    def client(cls, sock: socket.socket, psk: bytes) -> "SecureChannel":
        mine = os.urandom(NONCE_LEN)
        try:
            sock.sendall(mine)
            theirs = recv_exact(sock, NONCE_LEN)
        except OSError as exc:
            raise HandshakeError(f"nonce exchange failed: {exc}") from None
        if len(theirs) != NONCE_LEN:
            raise HandshakeError("peer closed during nonce exchange")
        channel = cls(sock, _session_key(psk, mine, theirs), client_side=True)
        channel._confirm(_FINISH_CLIENT, _FINISH_SERVER)
        return channel

    @classmethod
    def server(cls, sock: socket.socket, psk: bytes) -> "SecureChannel":
        mine = os.urandom(NONCE_LEN)
        try:
            theirs = recv_exact(sock, NONCE_LEN)
            if len(theirs) != NONCE_LEN:
                raise HandshakeError("peer closed during nonce exchange")
            sock.sendall(mine)
        except OSError as exc:
            raise HandshakeError(f"nonce exchange failed: {exc}") from None
        channel = cls(sock, _session_key(psk, theirs, mine), client_side=False)
        channel._confirm(_FINISH_SERVER, _FINISH_CLIENT)
        return channel

    def _confirm(self, send_tag: bytes, expect_tag: bytes) -> None:
        try:
            self._send_record(send_tag)
            got = self._recv_record()
        except (TunnelError, OSError) as exc:
            raise HandshakeError(f"key confirmation failed: {exc}") from None
        if got != expect_tag:
            raise HandshakeError("key confirmation failed: bad finish record")

    def _next_nonce(self, direction: bytes, counter: int) -> bytes:
        return direction + b"\x00\x00\x00" + struct.pack(">Q", counter)

    def _send_record(self, plaintext: bytes) -> None:
        nonce = self._next_nonce(self._send_dir, self._send_ctr)
        self._send_ctr += 1
        ciphertext = self._aead.encrypt(nonce, plaintext, None)
        self.sock.sendall(struct.pack(">H", len(ciphertext)) + ciphertext)

    def _recv_record(self) -> bytes | None:
        """One decrypted record; None on clean EOF at a record boundary."""
        header = recv_exact(self.sock, 2)
        if not header:
            return None
        if len(header) != 2:
            raise RecordTampered("truncated record header")
        (length,) = struct.unpack(">H", header)
        if length < TAG_LEN:
            raise RecordTampered("record shorter than its tag")
        ciphertext = recv_exact(self.sock, length)
        if len(ciphertext) != length:
            raise RecordTampered("truncated record body")
        nonce = self._next_nonce(self._recv_dir, self._recv_ctr)
        self._recv_ctr += 1
        try:
            return self._aead.decrypt(nonce, ciphertext, None)
        except InvalidTag:
            raise RecordTampered("record failed authentication") from None

    # the socket calls util.pump makes, so util.relay carries a channel

    def sendall(self, data: bytes) -> None:
        for offset in range(0, len(data), SEND_CHUNK):
            self._send_record(data[offset : offset + SEND_CHUNK])

    def recv(self, bufsize: int = RECORD_MAX_PLAINTEXT) -> bytes:
        """Next plaintext record; b'' on orderly EOF.

        A record is never split: it holds at most RECORD_MAX_PLAINTEXT bytes,
        under the 65536 that pump asks for. A record that fails authentication
        ends the session, as in TLS: the socket is shut down both ways and
        RecordTampered raised, with no byte of the record released."""
        try:
            record = self._recv_record()
        except RecordTampered as exc:
            log.warning("session terminated: %s", exc)
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            raise
        return b"" if record is None else record

    def shutdown(self, how: int) -> None:
        self.sock.shutdown(how)

    def close(self) -> None:
        self.sock.close()


@dataclass(frozen=True)
class TunnelSpec:
    """One tunneled service: where Control rewrites it, where it really goes."""

    service_match: MatchKey
    local_port: int
    remote_endpoint: Destination
    key_id: str


def tunnel_policy_check(control_rules: RuleSet, tunnels) -> list[str]:
    """Verify the double-rewrite pairing between control rules and tunnels.

    Every tunnel needs a control rewrite of its service to its local port;
    every localhost rewrite needs a tunnel on that port. Returns one line per
    inconsistency; an empty list means the configuration is coherent.
    """
    problems: list[str] = []
    seen_local_ports: set[int] = set()
    for spec in tunnels:
        if spec.local_port in seen_local_ports:
            problems.append(f"duplicate tunnel local port {spec.local_port}")
        seen_local_ports.add(spec.local_port)
        action = control_rules.actions.get(spec.service_match)
        if action is None:
            problems.append(
                f"orphaned tunnel: no control rule for {format_match(spec.service_match)}"
            )
        elif isinstance(action, Block):
            problems.append(
                f"conflict: {format_match(spec.service_match)} is both tunneled and blocked"
            )
        elif action.new_dst != Destination("127.0.0.1", spec.local_port):
            problems.append(
                f"mismatched pair: tunnel for {format_match(spec.service_match)} expects "
                f"a rewrite to 127.0.0.1:{spec.local_port}, rule is "
                f"rewrite|{format_match(spec.service_match)}|{format_match(action.new_dst)}"
            )
    for rule in control_rules.rules:
        if isinstance(rule.action, Rewrite) and rule.action.new_dst.host in _LOCAL_HOSTS:
            if rule.action.new_dst.port not in seen_local_ports:
                problems.append(
                    f"dangling localhost rewrite: {format_rule(rule)} has no tunnel"
                )
    return problems


class TunnelClient(Listener):
    """Agent-side end: accepts localhost-rewritten connections, speaks the
    channel toward the server-side listener."""

    def __init__(self, local_port: int, remote: Destination, psk: bytes):
        self.remote = remote
        self.psk = psk
        try:
            super().__init__(("127.0.0.1", local_port), self._handle)
        except OSError as exc:
            raise TunnelError(f"cannot bind 127.0.0.1:{local_port}: {exc}") from None

    def _handle(self, conn: socket.socket, _peer) -> None:
        try:
            upstream = socket.create_connection((self.remote.host, self.remote.port), timeout=10)
        except OSError as exc:
            log.warning("remote tunnel endpoint unreachable: %s", exc)
            return
        try:
            channel = SecureChannel.client(upstream, self.psk)
        except HandshakeError as exc:
            log.warning("handshake with %s:%d failed: %s", self.remote.host, self.remote.port, exc)
            upstream.close()
            return
        clear_deadline(upstream)
        relay(conn, channel)


class TunnelServer(Listener):
    """Server-side end: accepts channel sessions, relays plaintext to the
    real service. Pair it with a block of the plain service port so only
    tunneled access succeeds."""

    def __init__(self, listen: Destination, forward_to: Destination, psk: bytes):
        self.forward_to = forward_to
        self.psk = psk
        try:
            super().__init__((listen.host, listen.port), self._handle)
        except OSError as exc:
            raise TunnelError(f"cannot bind {listen.host}:{listen.port}: {exc}") from None

    def _handle(self, conn: socket.socket, _peer) -> None:
        conn.settimeout(10)
        try:
            channel = SecureChannel.server(conn, self.psk)
        except HandshakeError as exc:
            log.warning("rejected session: %s", exc)
            return
        try:
            plain = socket.create_connection((self.forward_to.host, self.forward_to.port), timeout=10)
        except OSError as exc:
            log.warning("forward target unreachable: %s", exc)
            return
        clear_deadline(conn, plain)
        relay(plain, channel)


def server_tunnel_listener(listen: Destination, forward_to: Destination, psk: bytes) -> TunnelServer:
    return TunnelServer(listen, forward_to, psk).start()


def main(argv=None) -> int:
    import argparse

    setup_logging()
    parser = argparse.ArgumentParser(prog="dacs-sctl", description="per-service encrypted tunnel")
    sub = parser.add_subparsers(dest="command", required=True)

    p_client = sub.add_parser("client", help="agent-side tunnel endpoint")
    p_client.add_argument("--local", required=True, metavar="PORT")
    p_client.add_argument("--remote", required=True, metavar="IP:PORT")
    p_client.add_argument("--key", required=True, metavar="FILE")

    p_server = sub.add_parser("server", help="server-side tunnel endpoint")
    p_server.add_argument("--listen", required=True, metavar="IP:PORT")
    p_server.add_argument("--forward", required=True, metavar="IP:PORT")
    p_server.add_argument("--key", required=True, metavar="FILE")

    args = parser.parse_args(argv)
    try:
        psk = load_key(args.key)
        if args.command == "client":
            remote = Destination(*parse_hostport(args.remote))
            endpoint = TunnelClient(parse_port(args.local), remote, psk).start()
            log.info("tunnel client on 127.0.0.1:%d -> %s:%d", endpoint.address[1], remote.host, remote.port)
        else:
            listen = Destination(*parse_hostport(args.listen))
            forward = Destination(*parse_hostport(args.forward))
            endpoint = TunnelServer(listen, forward, psk).start()
            log.info("tunnel server on %s:%d -> %s:%d", *endpoint.address, forward.host, forward.port)
    except (TunnelError, OSError, ValueError) as exc:
        print(f"cannot start: {exc}")
        return 1
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        endpoint.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
