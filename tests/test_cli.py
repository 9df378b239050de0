"""Daemon start-up failures: one `cannot start:` line and exit 1, never a traceback."""

import socket

import pytest

from conftest import spawn_cli
from dacs.server import DacsServer
from dacs.util import free_port

KEY_HEX = "00" * 32


def _dacsd_bad_repo(tmp_path, _taken):
    repo = tmp_path / "repo.conf"
    repo.write_text("not a repository at all\n")
    return ["dacs.server", "serve", "--repo", str(repo),
            "--listen", f"127.0.0.1:{free_port()}", "--control", f"127.0.0.1:{free_port()}"]


def _dacsweb_missing_docroot(tmp_path, _taken):
    vhosts = tmp_path / "vhosts.conf"
    vhosts.write_text(f"bind=127.0.0.1:{free_port()} docroot={tmp_path / 'absent'} preamble=off\n")
    return ["dacs.web", "serve", "--vhosts", str(vhosts), "--identity-listen", f"127.0.0.1:{free_port()}"]


def _key(tmp_path, text):
    path = tmp_path / "psk.key"
    path.write_text(text)
    return str(path)


def _sctl(end, port, key):
    if end == "client":
        return ["dacs.tunnel", "client", "--local", str(port), "--remote", "127.0.0.1:1", "--key", key]
    return ["dacs.tunnel", "server", "--listen", f"127.0.0.1:{port}", "--forward", "127.0.0.1:1", "--key", key]


def _dacsd_port_out_of_range(tmp_path, _taken):
    repo = tmp_path / "repo.conf"
    repo.write_text("[policy]\npriority=user\n")
    return ["dacs.server", "serve", "--repo", str(repo),
            "--listen", "127.0.0.1:70000", "--control", f"127.0.0.1:{free_port()}"]


def _dacsweb_port_out_of_range(tmp_path, _taken):
    vhosts = tmp_path / "vhosts.conf"
    vhosts.write_text(f"bind=127.0.0.1:{free_port()} docroot={tmp_path} preamble=off\n")
    return ["dacs.web", "serve", "--vhosts", str(vhosts), "--identity-listen", "127.0.0.1:70000"]


CASES = {
    "dacsd-unloadable-repository": _dacsd_bad_repo,
    "dacsd-port-out-of-range": _dacsd_port_out_of_range,
    "dacsweb-missing-docroot": _dacsweb_missing_docroot,
    "dacsweb-port-out-of-range": _dacsweb_port_out_of_range,
    "sctl-client-bad-key": lambda tmp, _: _sctl("client", free_port(), _key(tmp, "not a key\n")),
    "sctl-server-bad-key": lambda tmp, _: _sctl("server", free_port(), _key(tmp, "not a key\n")),
    "sctl-client-missing-key": lambda tmp, _: _sctl("client", free_port(), str(tmp / "absent.key")),
    "sctl-client-port-in-use": lambda tmp, taken: _sctl("client", taken, _key(tmp, KEY_HEX + "\n")),
    "sctl-server-port-in-use": lambda tmp, taken: _sctl("server", taken, _key(tmp, KEY_HEX + "\n")),
    "sctl-client-port-out-of-range": lambda tmp, _: _sctl("client", 70000, _key(tmp, KEY_HEX + "\n")),
}


@pytest.mark.parametrize("case", CASES)
def test_a_daemon_that_cannot_start_says_so_in_one_line(tmp_path, monkeypatch, case):
    monkeypatch.setenv("PYTHONWARNINGS", "error::ResourceWarning")
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        proc = spawn_cli(CASES[case](tmp_path, taken.getsockname()[1]))
        out, err = proc.communicate(timeout=30)
    assert proc.returncode == 1
    assert [line for line in out.decode().splitlines() if line.startswith("cannot start: ")]
    assert b"Traceback" not in err
    assert b"ResourceWarning" not in err


def test_an_agent_whose_control_port_is_taken_says_so_in_one_line(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONWARNINGS", "error::ResourceWarning")
    repo = tmp_path / "repo.conf"
    repo.write_text("[policy]\npriority=user\n[user userA]\nblock|*:25\n")
    server = DacsServer(repo, listen=("127.0.0.1", 0), control=("127.0.0.1", 0)).start()
    try:
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            proc = spawn_cli([
                "dacs.agent", "login", "userA",
                "--server", f"127.0.0.1:{server.listen_addr[1]}",
                "--client-ip", "10.0.0.31",
                "--control", f"127.0.0.1:{taken.getsockname()[1]}",
            ])
            out, err = proc.communicate(timeout=30)
    finally:
        server.stop()
    assert proc.returncode == 1
    assert [line for line in out.decode().splitlines() if line.startswith("cannot start: ")]
    assert b"Traceback" not in err
    assert b"ResourceWarning" not in err
