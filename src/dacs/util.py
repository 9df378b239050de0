"""Shared plumbing: address parsing, socket helpers, the TCP listener,
logging setup."""

from __future__ import annotations

import logging
import os
import queue
import random
import socket
import struct
import sys
import threading
import time

log = logging.getLogger("dacs.util")

ACCEPT_RETRY_PAUSE = 0.1  # seconds; after an accept() error such as EMFILE
PARKED_MAX = 32  # idle workers the pool keeps; a worker that finishes beyond this exits
WORKER_NAME = "dacs-worker"


def parse_port(text: str) -> int:
    """Parse a decimal TCP port, 1-65535."""
    if not (text.isdecimal() and 1 <= int(text) <= 65535):
        raise ValueError(f"bad port {text!r}: expected 1-65535")
    return int(text)


def parse_hostport(text: str) -> tuple[str, int]:
    """Parse `host:port`; hosts never contain a colon in this testbed."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"expected host:port, got {text!r}")
    return host, parse_port(port_text)


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


class WorkerPool:
    """Daemon worker threads that are reused from one task to the next.

    `submit` never blocks and never refuses: it hands the call to a parked
    worker if one is idle and starts a worker only if none is, so a task
    never waits for another to end. A worker that finishes parks again,
    unless PARKED_MAX workers are already parked; then it exits. A task's
    exception reaches `threading.excepthook`, as a thread's own would, and
    its worker parks again.
    """

    def __init__(self):
        self._lock = threading.Lock()  # guards the two counts
        self._tasks: queue.SimpleQueue = queue.SimpleQueue()
        self._busy = 0
        self._parked = 0

    def submit(self, fn, *args) -> threading.Event:
        """Run `fn(*args)` on a worker; the returned event is set once it has
        ended and its worker has parked or exited."""
        done = threading.Event()
        with self._lock:
            self._busy += 1
            parked = self._parked > 0
            if parked:
                self._parked -= 1
        if parked:
            self._tasks.put((fn, args, done))
        else:
            threading.Thread(
                target=self._work, args=(fn, args, done), name=WORKER_NAME, daemon=True
            ).start()
        return done

    def counts(self) -> tuple[int, int]:
        """(workers running a task, workers parked)."""
        with self._lock:
            return self._busy, self._parked

    def _work(self, fn, args, done: threading.Event) -> None:
        while True:
            try:
                fn(*args)
            except Exception:
                threading.excepthook(
                    threading.ExceptHookArgs((*sys.exc_info(), threading.current_thread()))
                )
            fn = args = None  # a parked worker keeps nothing of its last task alive
            with self._lock:
                self._busy -= 1
                park = self._parked < PARKED_MAX
                if park:
                    self._parked += 1
            done.set()
            if not park:
                return
            fn, args, done = self._tasks.get()


POOL = WorkerPool()  # the one pool of the process
submit = POOL.submit


class Listener:
    """A listening TCP socket whose accept loop runs `handler(conn, peer)` on
    a pool worker per connection.

    The listener owns each connection it accepts: it closes `conn` once the
    handler returns or raises (an exception still reaches
    `threading.excepthook`). A handler closes only the sockets it opened.

    The socket is bound at construction, so `address` (with port 0 resolved)
    is known before `start()`; a failed bind or listen closes the socket and
    raises its exception. The accept loop runs on a pool worker and ends only at
    `close()`, which returns once it has ended: any other accept error is
    logged and retried after a short pause.
    """

    def __init__(self, addr: tuple[str, int], handler):
        self.handler = handler
        self._closed = False
        self._accepting: threading.Event | None = None
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._sock.bind(addr)
            self._sock.listen()
        except BaseException:  # OverflowError too, for a port above 65535
            self._sock.close()
            raise
        self.address: tuple[str, int] = self._sock.getsockname()[:2]

    def start(self) -> "Listener":
        self._accepting = submit(self._accept_loop)
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
            submit(self._run_handler, conn, peer)

    def _run_handler(self, conn: socket.socket, peer) -> None:
        with conn:
            self.handler(conn, peer)

    def close(self) -> None:
        self._closed = True
        shut_and_close(self._sock)
        if self._accepting is not None:
            self._accepting.wait()


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
    """Relay one session both ways, a to b on a pool worker and b to a on
    this thread; once both directions have ended, close both ends. A
    half-closed session keeps carrying the other direction for as long as it
    lasts."""
    up = submit(pump, a, b)
    pump(b, a)
    up.wait()
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
