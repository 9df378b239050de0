"""The shared TCP listener: handler contract, close, and failed binds."""

import queue
import socket
import threading

import pytest

from conftest import no_resource_warnings, port_refuses
from dacs.util import Listener


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
    before = set(threading.enumerate())
    listener = Listener(("127.0.0.1", 0), lambda conn, peer: conn.close()).start()
    (acceptor,) = set(threading.enumerate()) - before
    port = listener.address[1]
    listener.close()
    acceptor.join(timeout=5)
    assert not acceptor.is_alive()
    assert port_refuses(port)
    with socket.socket() as again:
        again.bind(("127.0.0.1", port))


def test_bind_to_a_taken_port_raises_and_leaves_no_socket_open():
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        with no_resource_warnings():
            with pytest.raises(OSError):
                Listener(blocker.getsockname(), lambda conn, peer: conn.close())
