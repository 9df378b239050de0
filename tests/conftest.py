"""Shared test helpers: throwaway TCP services and CLI spawning."""

from __future__ import annotations

import gc
import os
import socket
import subprocess
import sys
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest

from dacs.util import close_listener

PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent / "src")


class EchoServer:
    """Echoes every received byte back; counts accepted connections."""

    def __init__(self, host: str = "127.0.0.1"):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, 0))
        self.sock.listen(64)
        self.address = self.sock.getsockname()[:2]
        self.accepted = 0
        self._closed = False
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self):
        while not self._closed:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(target=self._echo, args=(conn,), daemon=True).start()

    @staticmethod
    def _echo(conn):
        try:
            while True:
                data = conn.recv(65536)
                if not data:
                    break
                conn.sendall(data)
        except OSError:
            pass
        finally:
            conn.close()

    def close(self):
        self._closed = True
        close_listener(self.sock)


class TagServer:
    """Replies with a fixed tag on accept, then closes; counts accepts."""

    def __init__(self, tag: bytes, host: str = "127.0.0.1"):
        self.tag = tag
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, 0))
        self.sock.listen(256)
        self.address = self.sock.getsockname()[:2]
        self.accepted = 0
        self._closed = False
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self):
        while not self._closed:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            self.accepted += 1
            try:
                conn.sendall(self.tag)
            except OSError:
                pass
            conn.close()

    def close(self):
        self._closed = True
        close_listener(self.sock)


class TapProxy:
    """Relays one TCP hop while capturing (and optionally mangling) bytes."""

    def __init__(self, target: tuple[str, int]):
        self.target = target
        self.captured = bytearray()  # client->target direction
        self.captured_back = bytearray()
        self.mangle_at: int | None = None  # flip one bit at this byte offset
        self._seen = 0
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(16)
        self.address = self.sock.getsockname()[:2]
        self._closed = False
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self):
        while not self._closed:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            threading.Thread(target=self._session, args=(conn,), daemon=True).start()

    def _session(self, conn):
        try:
            upstream = socket.create_connection(self.target, timeout=10)
        except OSError:
            conn.close()
            return
        forward = threading.Thread(
            target=self._relay, args=(conn, upstream, self.captured, True), daemon=True
        )
        forward.start()
        self._relay(upstream, conn, self.captured_back, False)
        forward.join(timeout=10)
        upstream.close()
        conn.close()

    def _relay(self, src, dst, capture: bytearray, forward: bool):
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                if forward:
                    start = self._seen
                    self._seen += len(data)
                    if self.mangle_at is not None and start <= self.mangle_at < self._seen:
                        buf = bytearray(data)
                        buf[self.mangle_at - start] ^= 0x01
                        data = bytes(buf)
                capture.extend(data)
                dst.sendall(data)
        except OSError:
            pass
        finally:
            try:
                dst.shutdown(socket.SHUT_WR)
            except OSError:
                pass

    def close(self):
        self._closed = True
        close_listener(self.sock)


def port_refuses(port: int, host: str = "127.0.0.1") -> bool:
    """True when nothing accepts on the port. Pins a distinct source port
    first: a bare loopback connect to a free ephemeral port can otherwise
    succeed by TCP self-connect."""
    for _ in range(8):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind((host, 0))
        if sock.getsockname()[1] == port:
            sock.close()
            continue
        sock.settimeout(0.5)
        try:
            sock.connect((host, port))
        except OSError:
            return True
        finally:
            sock.close()
        return False
    raise RuntimeError("could not grab a distinct source port")


@contextmanager
def no_resource_warnings():
    """Fail when the block leaves a socket or file for the garbage collector."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaks = [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]
    assert leaks == []


def spawn_cli(module_args: list[str], **popen_kw) -> subprocess.Popen:
    """Run `python -m <module> ...` with this checkout importable."""
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = PACKAGE_PARENT + (os.pathsep + existing if existing else "")
    popen_kw.setdefault("stdout", subprocess.PIPE)
    popen_kw.setdefault("stderr", subprocess.PIPE)
    return subprocess.Popen([sys.executable, "-m"] + module_args, env=env, **popen_kw)


@pytest.fixture
def echo_server():
    server = EchoServer()
    yield server
    server.close()
