"""Virtual-host web server: static vhosts, CGI contract, counter semantics,
identity registry, preamble handling, and per-binding enforcement."""

import os
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import no_resource_warnings
from dacs.experiment import materialize_sample_app
from dacs.util import http_exchange
from dacs.web import (
    BindError,
    IdentityRegistry,
    VHostBinding,
    VHostServer,
    VHostsFileError,
    build_cgi_env,
    format_vhosts,
    parse_vhosts_file,
)
from dacs.wire import Ack, IdentityNotice, MessageStream, encode


def fetch(addr, path, method="GET", body=None, preamble_ip=None, host="wwwserver"):
    sock = socket.create_connection(addr, timeout=10)
    try:
        if preamble_ip:
            sock.sendall(f"DACS1 {preamble_ip}\n".encode())
        return http_exchange(sock, method, path, host, body)
    finally:
        sock.close()


@pytest.fixture
def app_server(tmp_path):
    """One preamble-enabled binding serving the sample application."""
    docroot = materialize_sample_app(tmp_path / "app")
    registry = IdentityRegistry()
    registry.ingest(IdentityNotice("userA", "10.0.0.1", ("GroupA",)))
    registry.ingest(IdentityNotice("userB", "10.0.0.2", ("GroupB", "GroupC")))
    server = VHostServer(
        [VHostBinding("127.0.0.1", 0, docroot, preamble=True)],
        identity_listen=("127.0.0.1", 0),
        registry=registry,
    ).start()
    yield server, docroot
    server.stop()


# --- vhosts file ------------------------------------------------------------


def test_vhosts_round_trip(tmp_path):
    bindings = [
        VHostBinding("127.0.0.1", 3000, tmp_path / "a", preamble=False),
        VHostBinding("127.0.0.1", 3001, tmp_path / "b", preamble=True, group="GroupB", enforce=True),
    ]
    path = tmp_path / "vhosts.conf"
    path.write_text(format_vhosts(bindings))
    parsed = parse_vhosts_file(path)
    assert parsed == bindings


def test_vhosts_rejects_duplicates_and_bad_lines(tmp_path):
    path = tmp_path / "vhosts.conf"
    path.write_text("bind=127.0.0.1:80 docroot=/x preamble=off\nbind=127.0.0.1:80 docroot=/y preamble=off\n")
    with pytest.raises(VHostsFileError):
        parse_vhosts_file(path)
    path.write_text("bind=127.0.0.1:80 docroot=/x preamble=maybe\n")
    with pytest.raises(VHostsFileError):
        parse_vhosts_file(path)
    path.write_text("bind=127.0.0.1:80 docroot=/x\n")
    with pytest.raises(VHostsFileError):
        parse_vhosts_file(path)


def test_startup_aborts_when_any_socket_is_taken(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    taken = blocker.getsockname()[1]
    server = VHostServer(
        [
            VHostBinding("127.0.0.1", 0, tmp_path / "a"),
            VHostBinding("127.0.0.1", taken, tmp_path / "b"),
        ]
    )
    with pytest.raises(BindError):
        server.start()
    blocker.close()


def test_failed_startup_leaves_no_socket_open(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    with socket.socket() as blocker:
        blocker.bind(("127.0.0.1", 0))
        server = VHostServer(
            [
                VHostBinding("127.0.0.1", 0, tmp_path / "a"),
                VHostBinding("127.0.0.1", blocker.getsockname()[1], tmp_path / "b"),
            ],
            identity_listen=("127.0.0.1", 0),
        )
        with no_resource_warnings():
            with pytest.raises(BindError):
                server.start()


# --- static serving -----------------------------------------------------------


def test_each_binding_serves_its_own_docroot(tmp_path):
    for name in ("a", "b"):
        root = tmp_path / name
        root.mkdir()
        (root / "index.html").write_text(f"site {name}")
    server = VHostServer(
        [
            VHostBinding("127.0.0.1", 0, tmp_path / "a"),
            VHostBinding("127.0.0.1", 0, tmp_path / "b"),
        ]
    ).start()
    try:
        for binding, name in zip(server.bindings, ("a", "b")):
            status, _, body = fetch(("127.0.0.1", binding.port), "/index.html")
            assert (status, body.decode()) == (200, f"site {name}")
            status, _, body = fetch(("127.0.0.1", binding.port), "/")
            assert body.decode() == f"site {name}"  # directory falls back to index.html
    finally:
        server.stop()


def test_docroot_confinement_adversarial_paths(tmp_path):
    docroot = tmp_path / "root"
    docroot.mkdir()
    (docroot / "index.html").write_text("public")
    secret = tmp_path / "secret.txt"
    secret.write_text("TOP-SECRET-MARKER")
    server = VHostServer([VHostBinding("127.0.0.1", 0, docroot)]).start()
    addr = ("127.0.0.1", server.bindings[0].port)
    adversarial = [
        "/../secret.txt",
        "/../../secret.txt",
        "/a/../../secret.txt",
        "/%2e%2e/secret.txt",
        "/..%2fsecret.txt",
        "/.%2e/secret.txt",
        "/cgi-bin/../../secret.txt",
        "//../secret.txt",
    ]
    try:
        for path in adversarial:
            status, _, body = fetch(addr, path)
            assert status == 403, path
            assert b"TOP-SECRET-MARKER" not in body
    finally:
        server.stop()


def test_missing_file_404_and_post_to_static_405(tmp_path):
    docroot = tmp_path / "root"
    docroot.mkdir()
    (docroot / "page.html").write_text("x")
    server = VHostServer([VHostBinding("127.0.0.1", 0, docroot)]).start()
    addr = ("127.0.0.1", server.bindings[0].port)
    try:
        assert fetch(addr, "/nope.html")[0] == 404
        assert fetch(addr, "/page.html", method="POST", body=b"z")[0] == 405
        assert fetch(addr, "/page.html", method="DELETE")[0] == 405
    finally:
        server.stop()


# --- CGI contract ---------------------------------------------------------------


def test_cgi_environment_completeness(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    status, _, body = fetch(addr, "/cgi-bin/envdump?group=GroupB&x=1", preamble_ip="10.0.0.2")
    assert status == 200
    env = dict(line.split("=", 1) for line in body.decode().strip().split("\n"))
    assert env["REQUEST_METHOD"] == "GET"
    assert env["QUERY_STRING"] == "group=GroupB&x=1"  # raw, undecoded
    assert env["SCRIPT_NAME"] == "/cgi-bin/envdump"
    assert env["SERVER_NAME"] == "127.0.0.1"
    assert env["SERVER_PORT"] == str(server.bindings[0].port)
    assert env["REMOTE_ADDR"] == "10.0.0.2"
    assert env["GATEWAY_INTERFACE"] == "CGI/1.1"
    assert env["SERVER_PROTOCOL"] == "HTTP/1.1"
    assert "CONTENT_LENGTH" not in env  # GET carries no body
    assert env["DACS_USER"] == "userB"
    assert env["DACS_GROUPS"] == "GroupB,GroupC"


def test_cgi_post_body_reaches_stdin(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    status, _, body = fetch(addr, "/cgi-bin/envdump", method="POST", body=b"hello=world",
                            preamble_ip="10.0.0.1")
    assert status == 200
    text = body.decode()
    assert "CONTENT_LENGTH=11" in text
    assert "BODY=hello=world" in text


def test_cgi_error_mapping(tmp_path, monkeypatch):
    docroot = tmp_path / "root"
    (docroot / "cgi-bin").mkdir(parents=True)

    def script(name, content, mode=0o755):
        path = docroot / "cgi-bin" / name
        path.write_text(content)
        path.chmod(mode)
        return path

    script("crash", "#!/usr/bin/env python3\nraise SystemExit(9)\n")
    script("noblank", "#!/usr/bin/env python3\nprint('Content-Type: text/plain', end='')\n")
    script("noscript", "#!/usr/bin/env python3\nprint('x')\n", mode=0o644)
    script("sleeper", "#!/usr/bin/env python3\nimport time\ntime.sleep(30)\n")
    script("statuscgi", "#!/usr/bin/env python3\nprint('Status: 403 Forbidden\\nContent-Type: text/plain\\n\\ndenied', end='')\n")

    monkeypatch.setattr("dacs.web.CGI_TIMEOUT", 1.0)
    server = VHostServer([VHostBinding("127.0.0.1", 0, docroot)]).start()
    addr = ("127.0.0.1", server.bindings[0].port)
    try:
        assert fetch(addr, "/cgi-bin/missing")[0] == 404
        assert fetch(addr, "/cgi-bin/noscript")[0] == 403
        assert fetch(addr, "/cgi-bin/crash")[0] == 500
        assert fetch(addr, "/cgi-bin/noblank")[0] == 500
        assert fetch(addr, "/cgi-bin/sleeper")[0] == 504
        status, _, body = fetch(addr, "/cgi-bin/statuscgi")
        assert (status, body) == (403, b"denied")
    finally:
        server.stop()


def test_cgi_child_runs_the_daemons_interpreter(tmp_path, monkeypatch):
    # another python3 first on the daemon's PATH, as a pyenv shim would be
    shims = tmp_path / "shims"
    shims.mkdir()
    (shims / "python3").symlink_to(sys.executable)
    monkeypatch.setenv("PATH", str(shims) + os.pathsep + os.environ.get("PATH", ""))
    docroot = tmp_path / "root"
    (docroot / "cgi-bin").mkdir(parents=True)
    script = docroot / "cgi-bin" / "which"
    script.write_text("#!/usr/bin/env python3\nimport sys\n"
                      "print('Content-Type: text/plain\\n\\n' + sys.executable, end='')\n")
    script.chmod(0o755)
    server = VHostServer([VHostBinding("127.0.0.1", 0, docroot)]).start()
    try:
        status, _, body = fetch(("127.0.0.1", server.bindings[0].port), "/cgi-bin/which")
    finally:
        server.stop()
    assert status == 200
    child = body.decode()
    assert os.path.dirname(child) == os.path.dirname(sys.executable)
    assert os.path.realpath(child) == os.path.realpath(sys.executable)


def test_preamble_off_binding_ignores_nothing(tmp_path):
    # without preamble the transport peer is the identity
    docroot = materialize_sample_app(tmp_path / "app")
    server = VHostServer([VHostBinding("127.0.0.1", 0, docroot, preamble=False)]).start()
    addr = ("127.0.0.1", server.bindings[0].port)
    try:
        status, _, body = fetch(addr, "/cgi-bin/envdump")
        assert status == 200
        assert "REMOTE_ADDR=127.0.0.1" in body.decode()
    finally:
        server.stop()


def test_preamble_binding_falls_back_to_peer_when_absent(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    status, _, body = fetch(addr, "/cgi-bin/envdump")  # no preamble sent
    assert status == 200
    assert "REMOTE_ADDR=127.0.0.1" in body.decode()


def test_preamble_binding_takes_a_long_first_line_as_the_request_line(app_server):
    # a first line that is not a preamble is held to the header line limit,
    # not to the length of the longest preamble
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    path = "/index.html?q=" + "x" * 60
    assert len(f"GET {path} HTTP/1.1\r\n") > 64
    assert fetch(addr, path)[0] == 200
    assert fetch(addr, path, preamble_ip="10.0.0.1")[0] == 200


# --- request limits -------------------------------------------------------------

LINE_LIMIT = 8192  # bytes in one request or header line, its LF included
REQUEST_END = b"Host: wwwserver\r\nConnection: close\r\n\r\n"


def raw_exchange(addr, request, shut_write=False):
    """Send raw request bytes and read the response to EOF: (status, response)."""
    with socket.create_connection(addr, timeout=10) as sock:
        sock.sendall(request)
        if shut_write:
            sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as reader:
            response = reader.read()
    return int(response.split(maxsplit=2)[1]), response


def request_line_of(length):
    """A GET of /index.html whose request line, CRLF included, is `length` bytes."""
    head, tail = "GET /index.html?q=", " HTTP/1.1\r\n"
    return (head + "x" * (length - len(head) - len(tail)) + tail).encode()


def header_line_of(length):
    return b"X-Pad: " + b"a" * (length - len("X-Pad: \r\n")) + b"\r\n"


@pytest.mark.parametrize("preamble", [False, True], ids=["preamble-off", "preamble-on"])
def test_a_line_at_the_limit_is_served_and_one_byte_more_is_400(tmp_path, preamble):
    docroot = materialize_sample_app(tmp_path / "app")
    server = VHostServer([VHostBinding("127.0.0.1", 0, docroot, preamble=preamble)]).start()
    addr = ("127.0.0.1", server.bindings[0].port)
    prefixes = [b"", b"DACS1 10.0.0.1\n"] if preamble else [b""]
    try:
        for prefix in prefixes:
            for length, status in ((LINE_LIMIT, 200), (LINE_LIMIT + 1, 400)):
                assert len(request_line_of(length)) == len(header_line_of(length)) == length
                request = prefix + request_line_of(length) + REQUEST_END
                assert raw_exchange(addr, request)[0] == status, (prefix, "request line", length)
                request = prefix + request_line_of(64) + header_line_of(length) + REQUEST_END
                assert raw_exchange(addr, request)[0] == status, (prefix, "header line", length)
    finally:
        server.stop()


@pytest.mark.parametrize("value", [b"-1", b"abc", b"%d" % (10 * 1024 * 1024 + 1)])
def test_a_bad_or_oversized_content_length_is_400(app_server, value):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    request = b"POST /cgi-bin/envdump HTTP/1.1\r\nContent-Length: " + value + b"\r\n" + REQUEST_END
    assert raw_exchange(addr, request)[0] == 400


def test_a_body_cut_short_by_eof_is_refused_and_runs_no_cgi(app_server):
    server, docroot = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    count = docroot / "cgi-bin" / "count.txt"
    before = count.read_bytes()
    request = b"POST /cgi-bin/counter HTTP/1.1\r\nContent-Length: 11\r\n" + REQUEST_END + b"hello"
    status, _ = raw_exchange(addr, request, shut_write=True)
    assert status == 400
    assert count.read_bytes() == before


# --- counter --------------------------------------------------------------------


def test_counter_first_request_is_one(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    status, _, body = fetch(addr, "/cgi-bin/counter")
    assert (status, body) == (200, b"1")


@pytest.mark.parametrize("seed, expected", [(10, b"11"), (4, b"5")])
def test_counter_seeded_values(app_server, seed, expected):
    server, docroot = app_server
    (docroot / "cgi-bin" / "count.txt").write_text(str(seed))
    status, _, body = fetch(("127.0.0.1", server.bindings[0].port), "/cgi-bin/counter")
    assert (status, body) == (200, expected)


def test_counter_sequential_induction(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    for expected in range(1, 8):
        _, _, body = fetch(addr, "/cgi-bin/counter")
        assert body == str(expected).encode()


def test_counter_unwritable_state_is_500(app_server):
    server, docroot = app_server
    state = docroot / "cgi-bin" / "count.txt"
    state.unlink()
    state.mkdir()  # opening a directory as the state file fails even for root
    status, _, _ = fetch(("127.0.0.1", server.bindings[0].port), "/cgi-bin/counter")
    assert status == 500


def test_counter_concurrent_increments_are_linearizable(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    with ThreadPoolExecutor(max_workers=10) as pool:
        bodies = list(pool.map(lambda _: fetch(addr, "/cgi-bin/counter")[2], range(20)))
    assert sorted(int(b) for b in bodies) == list(range(1, 21))


# --- identity registry ------------------------------------------------------------


def test_registry_newest_notice_wins_and_matches_fold():
    registry = IdentityRegistry()
    notices = [
        IdentityNotice("u1", "10.0.0.1", ("A",)),
        IdentityNotice("u2", "10.0.0.2", ("B",)),
        IdentityNotice("u3", "10.0.0.1", ("C",)),
        IdentityNotice("u4", "10.0.0.1", ()),
    ]
    fold = {}
    for notice in notices:
        registry.ingest(notice)
        fold[notice.client_ip] = (notice.user, tuple(notice.groups))
    assert registry.snapshot() == fold
    assert registry.lookup("10.0.0.1") == ("u4", ())


def test_registry_concurrent_ingestion_keeps_every_ip():
    registry = IdentityRegistry()

    def ingest(i):
        registry.ingest(IdentityNotice(f"user{i}", f"10.1.0.{i}", (f"G{i}",)))

    threads = [threading.Thread(target=ingest, args=(i,)) for i in range(1, 33)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(registry.snapshot()) == 32


def _wait_for(predicate, timeout=3.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def test_identity_listener_ingests_and_drops_malformed(app_server):
    server, _ = app_server
    addr = server.identity_listen

    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(b"this is not a frame at all .............")
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(encode(Ack(1)))  # valid frame, wrong kind: dropped too
    with socket.create_connection(addr, timeout=5) as sock:
        MessageStream(sock).send(IdentityNotice("fresh", "10.9.9.9", ("GroupZ",)))
    assert _wait_for(lambda: server.registry.lookup("10.9.9.9") is not None)
    assert server.registry.lookup("10.9.9.9") == ("fresh", ("GroupZ",))


# --- enforcement -------------------------------------------------------------------


def test_enforced_binding_checks_group_membership(tmp_path):
    docroot = materialize_sample_app(tmp_path / "app")
    registry = IdentityRegistry()
    registry.ingest(IdentityNotice("userA", "10.0.0.1", ("GroupA",)))
    registry.ingest(IdentityNotice("userB", "10.0.0.2", ("GroupB",)))
    server = VHostServer(
        [VHostBinding("127.0.0.1", 0, docroot, preamble=True, group="GroupA", enforce=True)],
        registry=registry,
    ).start()
    addr = ("127.0.0.1", server.bindings[0].port)
    try:
        assert fetch(addr, "/index.html", preamble_ip="10.0.0.1")[0] == 200
        assert fetch(addr, "/index.html", preamble_ip="10.0.0.2")[0] == 403
        assert fetch(addr, "/index.html")[0] == 403  # unidentified peer
        assert fetch(addr, "/cgi-bin/counter", preamble_ip="10.0.0.2")[0] == 403
    finally:
        server.stop()


# --- data-extraction programs over HTTP ----------------------------------------------


def test_func1_extracts_own_records(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    status, _, body = fetch(addr, "/cgi-bin/func1", preamble_ip="10.0.0.1")
    assert status == 200
    assert body.decode().split("\n") == ["groupA budget sheet", "groupA meeting notes"]


def test_func1_unidentified_is_403(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    status, _, _ = fetch(addr, "/cgi-bin/func1")  # peer 127.0.0.1 not registered
    assert status == 403


def test_func2_group_parameter_and_membership(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    status, _, body = fetch(addr, "/cgi-bin/func2?group=GroupB", preamble_ip="10.0.0.2")
    assert (status, body) == (200, b"groupB build schedule")
    status, _, _ = fetch(addr, "/cgi-bin/func2?group=GroupB", preamble_ip="10.0.0.1")
    assert status == 403  # userA is not in GroupB
    status, _, body = fetch(addr, "/cgi-bin/func2", preamble_ip="10.0.0.2")
    assert status == 200  # no parameter: every group userB belongs to
    assert body.decode().split("\n") == [
        "groupB build schedule",
        "groupC survey results",
        "groupC draft report",
    ]


def test_func3_returns_everything_to_anyone(app_server):
    server, _ = app_server
    addr = ("127.0.0.1", server.bindings[0].port)
    status, _, body = fetch(addr, "/cgi-bin/func3")
    assert status == 200
    assert len(body.decode().split("\n")) == 5


# --- env builder unit check -----------------------------------------------------------


def test_build_cgi_env_marks_identity_only_when_known(tmp_path):
    binding = VHostBinding("127.0.0.1", 3000, tmp_path)
    env = build_cgi_env(binding, "GET", "", "/cgi-bin/x", "10.0.0.5", "HTTP/1.0", None, None)
    assert "DACS_USER" not in env and "CONTENT_LENGTH" not in env
    env = build_cgi_env(binding, "POST", "a=1", "/cgi-bin/x", "10.0.0.5", "HTTP/1.1", 4,
                        ("u", ("G1", "G2")))
    assert env["CONTENT_LENGTH"] == "4"
    assert env["DACS_USER"] == "u"
    assert env["DACS_GROUPS"] == "G1,G2"
