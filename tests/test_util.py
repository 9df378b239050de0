"""The shared TCP listener: handler contract, connection ownership, close,
and failed binds; the relay; and the worker pool that runs them."""

import ast
import errno
import os
import queue
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import dacs
from conftest import no_resource_warnings, port_refuses
from dacs.agent import Redirector
from dacs.rules import Destination
from dacs.util import PARKED_MAX, POOL, WORKER_NAME, Listener, relay, submit


def test_handler_gets_each_connection_and_its_peer_on_its_own_thread():
    got = queue.Queue()
    both_in = threading.Barrier(2, timeout=5)  # breaks if handlers run one at a time

    def handler(conn, peer):
        with conn:
            both_in.wait()
            got.put((conn.recv(16), peer))

    listener = Listener(("127.0.0.1", 0), handler).start()
    try:
        with socket.create_connection(listener.address, timeout=5) as a, \
                socket.create_connection(listener.address, timeout=5) as b:
            a.sendall(b"a")
            b.sendall(b"b")
            results = {got.get(timeout=5), got.get(timeout=5)}
            assert results == {(b"a", a.getsockname()), (b"b", b.getsockname())}
    finally:
        listener.close()


def test_close_ends_the_accept_loop_and_frees_the_port():
    busy_before, _ = POOL.counts()
    listener = Listener(("127.0.0.1", 0), lambda conn, peer: conn.close()).start()
    port = listener.address[1]
    closer = threading.Thread(target=listener.close, daemon=True)  # waits for the accept loop
    closer.start()
    closer.join(timeout=5)
    assert not closer.is_alive()
    assert POOL.counts()[0] <= busy_before  # the accept loop's worker is free again
    assert port_refuses(port)
    with socket.socket() as again:
        again.bind(("127.0.0.1", port))


def test_bind_to_a_taken_port_raises_and_leaves_no_socket_open():
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        with no_resource_warnings():
            with pytest.raises(OSError):
                Listener(blocker.getsockname(), lambda conn, peer: conn.close())


def test_a_bind_that_raises_other_than_oserror_leaves_no_socket_open():
    with no_resource_warnings():
        with pytest.raises(OverflowError):
            Listener(("127.0.0.1", 70000), lambda conn, peer: conn.close())


def test_an_accept_error_is_logged_and_the_loop_keeps_serving(monkeypatch, caplog):
    served = threading.Event()

    def handler(conn, peer):
        conn.close()
        served.set()

    listener = Listener(("127.0.0.1", 0), handler)
    accept = socket.socket.accept
    failures = []

    def accept_failing_once(sock):
        if sock is listener._sock and not failures:
            failures.append(errno.EMFILE)
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept_failing_once)
    listener.start()
    try:
        with socket.create_connection(listener.address, timeout=5):
            assert served.wait(timeout=5)
    finally:
        listener.close()
    assert failures == [errno.EMFILE]
    assert os.strerror(errno.EMFILE) in caplog.text


def test_the_listener_closes_a_connection_its_handler_returns_without_closing():
    with no_resource_warnings():
        listener = Listener(("127.0.0.1", 0), lambda conn, peer: None).start()
        try:
            with socket.create_connection(listener.address, timeout=2) as sock:
                assert sock.recv(1) == b""
        finally:
            listener.close()


def test_the_listener_closes_a_connection_whose_handler_raises(monkeypatch):
    reached = queue.Queue()
    monkeypatch.setattr(threading, "excepthook", reached.put)

    def handler(conn, peer):
        raise RuntimeError("handler failed")

    with no_resource_warnings():
        listener = Listener(("127.0.0.1", 0), handler).start()
        try:
            with socket.create_connection(listener.address, timeout=2) as sock:
                assert sock.recv(1) == b""
            hook_args = reached.get(timeout=2)
        finally:
            listener.close()
    assert hook_args.exc_type is RuntimeError
    assert str(hook_args.exc_value) == "handler failed"


# --- relay -------------------------------------------------------------------


def _relayed_pair():
    """Two application sockets joined by relay() on its own thread."""
    left_app, left = socket.socketpair()
    right, right_app = socket.socketpair()
    relayer = threading.Thread(target=relay, args=(left, right))
    relayer.start()
    return left_app, right_app, relayer, (left, right)


def _read_to_eof(sock):
    sock.settimeout(5)
    got = b""
    while chunk := sock.recv(65536):
        got += chunk
    return got


def test_relay_carries_both_directions_intact_then_closes_both_ends():
    up, down = os.urandom(300_000), os.urandom(300_000)
    with no_resource_warnings():
        left_app, right_app, relayer, ends = _relayed_pair()

        def send_then_eof(sock, data):
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)

        senders = [threading.Thread(target=send_then_eof, args=(left_app, up)),
                   threading.Thread(target=send_then_eof, args=(right_app, down))]
        for sender in senders:
            sender.start()
        with ThreadPoolExecutor(1) as pool:
            got_down = pool.submit(_read_to_eof, left_app)
            assert _read_to_eof(right_app) == up
            assert got_down.result(timeout=5) == down
        for sender in senders:
            sender.join(timeout=5)
        relayer.join(timeout=5)
        assert not relayer.is_alive()
        assert [end.fileno() for end in ends] == [-1, -1]
        left_app.close()
        right_app.close()


def test_relay_eof_half_closes_only_the_other_side():
    with no_resource_warnings():
        left_app, right_app, relayer, ends = _relayed_pair()
        left_app.shutdown(socket.SHUT_WR)
        assert _read_to_eof(right_app) == b""  # the EOF is passed on
        right_app.sendall(b"still relayed")  # and the other direction stays open
        left_app.settimeout(5)
        assert left_app.recv(64) == b"still relayed"
        assert relayer.is_alive()
        right_app.shutdown(socket.SHUT_WR)
        assert _read_to_eof(left_app) == b""
        relayer.join(timeout=5)
        assert not relayer.is_alive()
        assert [end.fileno() for end in ends] == [-1, -1]
        left_app.close()
        right_app.close()


def test_relay_carries_one_direction_long_after_the_other_half_closed(monkeypatch):
    wait = threading.Event.wait

    def short_wait(event, timeout=None):  # any bounded wait shrinks to 0.2 s
        return wait(event, timeout if timeout is None else min(timeout, 0.2))

    monkeypatch.setattr(threading.Event, "wait", short_wait)
    with no_resource_warnings():
        left_app, right_app, relayer, ends = _relayed_pair()
        right_app.shutdown(socket.SHUT_WR)  # ends relay's inline direction, right to left
        assert _read_to_eof(left_app) == b""
        time.sleep(0.5)
        left_app.sendall(b"late bytes")
        left_app.shutdown(socket.SHUT_WR)
        assert _read_to_eof(right_app) == b"late bytes"
        monkeypatch.undo()
        relayer.join(timeout=5)
        assert not relayer.is_alive()
        assert [end.fileno() for end in ends] == [-1, -1]
        left_app.close()
        right_app.close()


# --- worker pool -------------------------------------------------------------

THREAD_STARTERS = {"Thread", "Timer", "ThreadPoolExecutor", "start_new_thread"}


def _thread_sites(node, scope=()):
    """The enclosing class and function names of every call in `node` that
    names a thread starter."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _thread_sites(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Call):
            func = child.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in THREAD_STARTERS:
                yield ".".join(scope)
        yield from _thread_sites(child, scope)


def test_the_pool_is_the_only_code_in_the_package_that_starts_a_thread():
    package = Path(dacs.__file__).parent
    sites = [
        (str(path.relative_to(package)), scope)
        for path in sorted(package.rglob("*.py"))
        for scope in _thread_sites(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert sites == [("util.py", "WorkerPool.submit")]


def _pool_workers() -> int:
    return sum(thread.name == WORKER_NAME for thread in threading.enumerate())


def _wait_for(predicate, timeout=5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


def test_redirector_cycles_start_no_thread_after_the_first(monkeypatch):
    target = Destination("127.0.0.1", 9)
    Redirector(target, None).close()
    threads = threading.active_count()
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for _ in range(200):
        Redirector(target, None).close()
    monkeypatch.undo()
    assert started == []
    assert threading.active_count() <= threads


def test_a_handler_that_raises_reaches_the_excepthook_and_its_worker_serves_on(monkeypatch):
    reached = queue.Queue()
    monkeypatch.setattr(threading, "excepthook", reached.put)
    workers = queue.Queue()

    def handler(conn, peer):
        workers.put(threading.current_thread())
        if conn.recv(1) == b"!":
            raise RuntimeError("handler failed")
        conn.sendall(b"ok")

    with no_resource_warnings():
        listener = Listener(("127.0.0.1", 0), handler).start()
        try:
            with socket.create_connection(listener.address, timeout=2) as sock:
                sock.sendall(b"!")
                assert sock.recv(1) == b""
            assert reached.get(timeout=2).exc_type is RuntimeError
            raised_on = workers.get(timeout=2)
            with socket.create_connection(listener.address, timeout=2) as sock:
                sock.sendall(b".")
                assert sock.recv(2) == b"ok"
        finally:
            listener.close()
    raised_on.join(timeout=0.2)
    assert raised_on.is_alive()  # the worker parked again instead of ending


def test_after_a_burst_of_relayed_sessions_at_most_the_cap_of_workers_stay_parked():
    sessions = PARKED_MAX // 2 + 8  # two workers each, more than the cap in all
    busy_before, _ = POOL.counts()
    apps, relays = [], []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # workers hand off the lock around the counts often
    try:
        with no_resource_warnings():
            for _ in range(sessions):
                left_app, left = socket.socketpair()
                right, right_app = socket.socketpair()
                apps += [left_app, right_app]
                relays.append(submit(relay, left, right))
            assert _wait_for(lambda: POOL.counts()[0] >= busy_before + 2 * sessions)  # all at once
            for app in apps:
                app.close()
            for done in relays:
                assert done.wait(timeout=5)
    finally:
        sys.setswitchinterval(interval)
    assert _wait_for(lambda: POOL.counts()[0] <= busy_before)
    assert _wait_for(lambda: _pool_workers() - POOL.counts()[0] <= PARKED_MAX)
    assert POOL.counts()[1] <= PARKED_MAX
