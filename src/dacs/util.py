"""Shared plumbing: address parsing, socket helpers, the TCP listener,
logging setup."""

from __future__ import annotations

import logging
import os
import random
import socket
import struct
import threading
import time

log = logging.getLogger("dacs.util")

ACCEPT_RETRY_PAUSE = 0.1  # seconds; after an accept() error such as EMFILE


def parse_hostport(text: str) -> tuple[str, int]:
    """Parse `host:port`; hosts never contain a colon in this testbed."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad port in {text!r}") from None
    if not 1 <= port <= 65535:
        raise ValueError(f"port out of range in {text!r}")
    return host, port


def format_hostport(addr: tuple[str, int]) -> str:
    return "%s:%d" % (addr[0], addr[1])


def setup_logging() -> None:
    """Configure stderr logging; DACS_LOG=debug|info picks the level."""
    name = os.environ.get("DACS_LOG", "info").strip().lower()
    level = {"debug": logging.DEBUG, "info": logging.INFO}.get(name, logging.INFO)
    logging.basicConfig(
        level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )


def shut_and_close(sock: socket.socket) -> None:
    """Shut a socket down in both directions, then close it.

    A plain close() while another thread blocks in accept() or recv() on the
    socket leaves the kernel socket alive (the syscall holds a file
    reference): a listener keeps accepting and a connection sends no FIN.
    shutdown() wakes the blocked thread and releases the socket now.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


class Listener:
    """A listening TCP socket whose accept loop runs `handler(conn, peer)` on
    a daemon thread per connection.

    The listener owns each connection it accepts: it closes `conn` once the
    handler returns or raises (an exception still reaches
    `threading.excepthook`). A handler closes only the sockets it opened.

    The socket is bound at construction, so `address` (with port 0 resolved)
    is known before `start()`; a failed bind or listen closes the socket and
    raises OSError. The accept loop ends only at `close()`: any other accept
    error is logged and retried after a short pause.
    """

    def __init__(self, addr: tuple[str, int], handler):
        self.handler = handler
        self._closed = False
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind(addr)
            self._sock.listen()
        except OSError:
            self._sock.close()
            raise
        self.address: tuple[str, int] = self._sock.getsockname()[:2]

    def start(self) -> "Listener":
        threading.Thread(target=self._accept_loop, daemon=True).start()
        return self

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, peer = self._sock.accept()
            except OSError as exc:
                if self._closed:
                    return
                log.warning("accept on %s failed, retrying: %s", format_hostport(self.address), exc)
                time.sleep(ACCEPT_RETRY_PAUSE)
                continue
            threading.Thread(target=self._run_handler, args=(conn, peer), daemon=True).start()

    def _run_handler(self, conn: socket.socket, peer) -> None:
        with conn:
            self.handler(conn, peer)

    def close(self) -> None:
        self._closed = True
        shut_and_close(self._sock)


def clear_deadline(*socks: socket.socket) -> None:
    """Lift the connect/handshake timeout: an established relay has no idle timeout."""
    for sock in socks:
        sock.settimeout(None)


def send_within(sock: socket.socket, data: bytes, seconds: float) -> None:
    """Write all of `data` to a blocking socket within `seconds`, or raise
    OSError. Each send waits (SO_SNDTIMEO) only for the time left of the one
    deadline, so a peer that stops reading costs `seconds` however the write
    splits; receives on the socket keep blocking with no timeout."""
    deadline = time.monotonic() + seconds
    view = memoryview(data)
    while view:
        left_us = int((deadline - time.monotonic()) * 1_000_000)
        if left_us <= 0:  # a zero timeval would mean "block forever"
            raise TimeoutError(f"send missed its {seconds:g} s deadline")
        timeval = struct.pack("ll", *divmod(left_us, 1_000_000))
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
        view = view[sock.send(view):]


def recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly n bytes; a short result means the peer closed early."""
    chunks = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def pump(src, dst) -> None:
    """Copy src to dst until EOF, then half-close dst so the peer sees EOF.

    Either end may be a socket or anything with its recv, sendall and
    shutdown (a tunnel `SecureChannel`); any OSError ends the copy."""
    try:
        while True:
            data = src.recv(65536)
            if not data:
                break
            dst.sendall(data)
    except OSError:
        pass
    finally:
        try:
            dst.shutdown(socket.SHUT_WR)
        except OSError:
            pass


def relay(a, b) -> None:
    """Relay one session both ways, a to b on a second thread and b to a on
    this one; once both directions have ended, close both ends. A half-closed
    session keeps carrying the other direction for as long as it lasts."""
    up = threading.Thread(target=pump, args=(a, b), daemon=True)
    up.start()
    pump(b, a)
    up.join()
    a.close()
    b.close()


def wait_for_port(host: str, port: int, timeout: float = 5.0) -> bool:
    """Poll until something accepts connections on (host, port)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=0.25):
                return True
        except OSError:
            time.sleep(0.05)
    return False


def _port_free(host: str, port: int) -> bool:
    with socket.socket() as s:
        try:
            s.bind((host, port))
        except OSError:
            return False
    return True


def free_port(host: str = "127.0.0.1") -> int:
    with socket.socket() as s:
        s.bind((host, 0))
        return s.getsockname()[1]


def free_port_span(count: int, host: str = "127.0.0.1") -> int:
    """Find a base port with `count` consecutive bindable ports after it."""
    for _ in range(500):
        base = random.randrange(20000, 45000)
        if all(_port_free(host, base + i) for i in range(count)):
            return base
    raise RuntimeError("could not find %d consecutive free ports" % count)


def http_exchange(
    sock: socket.socket,
    method: str,
    path: str,
    host: str,
    body: bytes | None = None,
) -> tuple[int, dict[str, str], bytes]:
    """One minimal HTTP/1.1 request on an open socket, reading to EOF.

    The testbed web server always closes after one response, so EOF marks
    the end of the body. Returns (status, lowercased headers, body).
    """
    lines = [f"{method} {path} HTTP/1.1", f"Host: {host}", "Connection: close"]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    sock.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + (body or b""))
    with sock.makefile("rb") as reader:
        data = reader.read()
    head, sep, payload = data.partition(b"\r\n\r\n")
    if not sep:
        raise ValueError("no header terminator in HTTP response")
    header_lines = head.split(b"\r\n")
    status = int(header_lines[0].split()[1])
    headers = {}
    for line in header_lines[1:]:
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    return status, headers, payload
