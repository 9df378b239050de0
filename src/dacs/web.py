"""Multi-socket virtual-host web server with a CGI executor.

Each (IP, port) socket serves its own document root, which is what lets one
URL reach a different program directory per group once the agent-side rewrite
picks the socket. A side listener ingests identity notices from the rule
server so CGI programs can know which user is behind a source address.
"""

from __future__ import annotations

import functools
import io
import logging
import mimetypes
import os
import re
import socket
import subprocess
import sys
import threading
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from .rules import is_ipv4
from .util import Listener, parse_hostport, setup_logging
from .wire import IdentityNotice, MessageStream, WireError

log = logging.getLogger("dacs.web")

CGI_TIMEOUT = 10.0  # wall-clock seconds per CGI child
_HEADER_LINE_LIMIT = 8192
_BODY_LIMIT = 10 * 1024 * 1024
_PREAMBLE_RE = re.compile(rb"DACS1 (\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3})\n")
_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)
_INTERPRETER_DIR = os.path.dirname(sys.executable)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    504: "Gateway Timeout",
}


class BindError(Exception):
    """A vhost or identity socket could not be bound; startup is aborted."""


class VHostsFileError(ValueError):
    pass


class _BadRequest(Exception):
    pass


@dataclass
class VHostBinding:
    """One socket bound to one document root."""

    host: str
    port: int
    docroot: Path
    preamble: bool = False
    group: str | None = None
    enforce: bool = False


class IdentityRegistry:
    """client IP -> (user, groups); the newest notice for an IP wins."""

    def __init__(self):
        self._lock = threading.Lock()
        self._by_ip: dict[str, tuple[str, tuple[str, ...]]] = {}

    def ingest(self, notice: IdentityNotice) -> None:
        with self._lock:
            self._by_ip[notice.client_ip] = (notice.user, tuple(notice.groups))

    def lookup(self, ip: str) -> tuple[str, tuple[str, ...]] | None:
        with self._lock:
            return self._by_ip.get(ip)

    def snapshot(self) -> dict[str, tuple[str, tuple[str, ...]]]:
        with self._lock:
            return dict(self._by_ip)


def parse_vhosts_file(path) -> list[VHostBinding]:
    """One binding per line: `bind=<ip>:<port> docroot=<path> preamble=<on|off>`
    plus optional `group=<name>` and `enforce=<on|off>`."""
    bindings = []
    seen_sockets = set()
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for token in line.split():
            key, sep, value = token.partition("=")
            if not sep:
                raise VHostsFileError(f"line {lineno}: expected key=value, got {token!r}")
            fields[key] = value
        try:
            host, port = parse_hostport(fields["bind"])
            docroot = Path(fields["docroot"])
            preamble = _on_off(fields["preamble"])
        except KeyError as exc:
            raise VHostsFileError(f"line {lineno}: missing {exc.args[0]}") from None
        except ValueError as exc:
            raise VHostsFileError(f"line {lineno}: {exc}") from None
        if (host, port) in seen_sockets:
            raise VHostsFileError(f"line {lineno}: duplicate socket {host}:{port}")
        seen_sockets.add((host, port))
        bindings.append(
            VHostBinding(
                host,
                port,
                docroot,
                preamble=preamble,
                group=fields.get("group"),
                enforce=_on_off(fields.get("enforce", "off")),
            )
        )
    return bindings


def _on_off(value: str) -> bool:
    if value == "on":
        return True
    if value == "off":
        return False
    raise ValueError(f"expected on|off, got {value!r}")


def format_vhosts(bindings) -> str:
    lines = []
    for b in bindings:
        line = f"bind={b.host}:{b.port} docroot={b.docroot} preamble={'on' if b.preamble else 'off'}"
        if b.group:
            line += f" group={b.group}"
        if b.enforce:
            line += " enforce=on"
        lines.append(line)
    return "".join(line + "\n" for line in lines)


def build_cgi_env(
    binding: VHostBinding,
    method: str,
    query: str,
    script_name: str,
    remote_addr: str,
    protocol: str,
    content_length: int | None,
    identity: tuple[str, tuple[str, ...]] | None,
) -> dict[str, str]:
    env = {
        "GATEWAY_INTERFACE": "CGI/1.1",
        "SERVER_PROTOCOL": protocol,
        "REQUEST_METHOD": method,
        "QUERY_STRING": query,
        "SCRIPT_NAME": script_name,
        "SERVER_NAME": binding.host,
        "SERVER_PORT": str(binding.port),
        "REMOTE_ADDR": remote_addr,
        # this interpreter's directory first: `#!/usr/bin/env python3` runs it
        "PATH": _INTERPRETER_DIR + os.pathsep + os.environ.get("PATH", "/usr/local/bin:/usr/bin:/bin"),
    }
    if content_length is not None:
        env["CONTENT_LENGTH"] = str(content_length)
    # make this package importable from cloned script directories
    extra = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = _PACKAGE_PARENT + (os.pathsep + extra if extra else "")
    if identity is not None:
        env["DACS_USER"] = identity[0]
        env["DACS_GROUPS"] = ",".join(identity[1])
    return env


def _parse_cgi_output(stdout: bytes):
    """Split CGI output into (status, headers, body); None if malformed."""
    match = re.search(rb"\r?\n\r?\n", stdout)
    if match is None:
        return None
    head, body = stdout[: match.start()], stdout[match.end() :]
    headers: list[tuple[str, str]] = []
    for raw in re.split(rb"\r?\n", head):
        name, sep, value = raw.partition(b":")
        if not sep or not name.strip():
            return None
        headers.append((name.strip().decode("latin-1"), value.strip().decode("latin-1")))
    if all(name.lower() != "content-type" for name, _ in headers):
        return None
    status = 200
    kept = []
    for name, value in headers:
        if name.lower() == "status":
            try:
                status = int(value.split()[0])
            except (ValueError, IndexError):
                return None
        else:
            kept.append((name, value))
    return status, kept, body


def run_cgi(script_path: Path, env: dict[str, str], body: bytes | None, timeout: float | None = None):
    """Run one CGI program and map its outcome to an HTTP response tuple.

    Nonzero exit and malformed output give 500; exceeding the wall-clock
    limit kills the child and gives 504.
    """
    if timeout is None:
        timeout = CGI_TIMEOUT
    try:
        proc = subprocess.Popen(
            [str(script_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(script_path.parent),
            env=env,
        )
    except OSError as exc:
        log.error("cannot execute %s: %s", script_path, exc)
        return 500, [("Content-Type", "text/plain")], b"cannot execute cgi program"
    try:
        stdout, stderr = proc.communicate(input=body or b"", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log.warning("cgi program %s exceeded %.0fs", script_path, timeout)
        return 504, [("Content-Type", "text/plain")], b"cgi program timed out"
    if stderr:
        log.info("cgi stderr from %s: %s", script_path.name, stderr.decode(errors="replace").strip())
    if proc.returncode != 0:
        return 500, [("Content-Type", "text/plain")], b"cgi program failed"
    parsed = _parse_cgi_output(stdout)
    if parsed is None:
        return 500, [("Content-Type", "text/plain")], b"malformed cgi output"
    return parsed


def _readline(reader: io.BufferedReader) -> bytes:
    """One request or header line, its LF included, of at most _HEADER_LINE_LIMIT bytes."""
    line = reader.readline(_HEADER_LINE_LIMIT + 1)
    if len(line) > _HEADER_LINE_LIMIT:
        raise _BadRequest("header line too long")
    return line


class VHostServer:
    """Serves every binding concurrently plus the identity ingestion socket."""

    def __init__(self, bindings, identity_listen: tuple[str, int] | None = None, registry=None):
        self.bindings = list(bindings)
        self.identity_listen = identity_listen
        self.registry = registry if registry is not None else IdentityRegistry()
        self._listeners: list[Listener] = []

    def start(self) -> "VHostServer":
        for binding in self.bindings:
            if not binding.docroot.is_dir():
                raise BindError(f"docroot {binding.docroot} is not a directory")
        try:
            for binding in self.bindings:
                listener = Listener(
                    (binding.host, binding.port), functools.partial(self._http_conn, binding)
                )
                self._listeners.append(listener)
                binding.port = listener.address[1]  # resolves port 0
            if self.identity_listen is not None:
                listener = Listener(self.identity_listen, self._identity_conn)
                self._listeners.append(listener)
                self.identity_listen = listener.address
        except OSError as exc:
            self.stop()
            raise BindError(str(exc)) from None
        for listener in self._listeners:
            listener.start()
        return self

    def stop(self) -> None:
        for listener in self._listeners:
            listener.close()
        self._listeners = []

    # --- identity ingestion ---

    def _identity_conn(self, conn: socket.socket, _peer) -> None:
        conn.settimeout(5)
        stream = MessageStream(conn)
        try:
            msg = stream.recv()
        except (WireError, OSError) as exc:
            log.warning("dropping malformed identity frame: %s", exc)
            return
        if isinstance(msg, IdentityNotice):
            self.registry.ingest(msg)
            log.debug("identity %s -> %s %s", msg.client_ip, msg.user, list(msg.groups))
        elif msg is not None:
            log.warning("dropping unexpected %s on identity socket", type(msg).__name__)

    # --- HTTP ---

    def _http_conn(self, binding: VHostBinding, conn: socket.socket, peer) -> None:
        conn.settimeout(30)
        try:
            with conn.makefile("rb") as reader:
                status, headers, body = self._handle_request(binding, reader, peer)
            self._respond(conn, status, headers, body)
        except _BadRequest as exc:
            try:
                self._respond(conn, 400, [("Content-Type", "text/plain")], str(exc).encode())
            except OSError:
                pass
        except OSError:
            pass

    def _handle_request(self, binding: VHostBinding, reader: io.BufferedReader, peer):
        remote_addr = peer[0]
        line = _readline(reader)
        if binding.preamble:
            match = _PREAMBLE_RE.fullmatch(line)
            if match and is_ipv4(match.group(1).decode("ascii")):
                remote_addr = match.group(1).decode("ascii")
                line = _readline(reader)
            # otherwise the first line is not a preamble but the request line
        request_line = line.rstrip(b"\r\n").decode("latin-1")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"bad request line {request_line!r}")
        method, target, protocol = parts

        content_length = 0
        while True:
            raw = _readline(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, sep, value = raw.rstrip(b"\r\n").decode("latin-1").partition(":")
            if sep and name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise _BadRequest("bad Content-Length") from None
                if content_length < 0 or content_length > _BODY_LIMIT:
                    raise _BadRequest("Content-Length out of bounds")

        if method not in ("GET", "POST"):
            return 405, [("Content-Type", "text/plain")], b"method not allowed"
        body = reader.read(content_length) if method == "POST" and content_length else None
        if body is not None and len(body) < content_length:  # incomplete (RFC 9112 section 8)
            raise _BadRequest("body ends before its Content-Length")

        identity = self.registry.lookup(remote_addr)
        if binding.enforce:
            if identity is None or binding.group not in identity[1]:
                return 403, [("Content-Type", "text/plain")], b"not a member of this host's group"

        path, _, query = target.partition("?")
        resolved = self._resolve(binding.docroot, path)
        if resolved is None:
            return 403, [("Content-Type", "text/plain")], b"path escapes document root"
        segments, abs_path = resolved

        if segments and segments[0] == "cgi-bin":
            return self._serve_cgi(
                binding, abs_path, "/" + "/".join(segments), method, query,
                remote_addr, protocol, body, identity,
            )
        if method != "GET":
            return 405, [("Content-Type", "text/plain")], b"static paths only accept GET"
        return self._serve_static(abs_path)

    @staticmethod
    def _resolve(docroot: Path, url_path: str):
        decoded = urllib.parse.unquote(url_path)
        segments = [s for s in decoded.split("/") if s and s != "."]
        if any(s == ".." or "\x00" in s for s in segments):
            return None
        target = docroot.joinpath(*segments)
        root = docroot.resolve()
        if not target.resolve().is_relative_to(root):
            return None
        return segments, target

    def _serve_cgi(self, binding, script_path: Path, script_name, method, query,
                   remote_addr, protocol, body, identity):
        if script_path.is_dir() or not script_path.exists():
            return 404, [("Content-Type", "text/plain")], b"no such cgi program"
        if not os.access(script_path, os.X_OK):
            return 403, [("Content-Type", "text/plain")], b"cgi program is not executable"
        env = build_cgi_env(
            binding, method, query, script_name, remote_addr, protocol,
            len(body) if body is not None else None, identity,
        )
        return run_cgi(script_path, env, body)

    @staticmethod
    def _serve_static(abs_path: Path):
        if abs_path.is_dir():
            abs_path = abs_path / "index.html"
        if not abs_path.is_file():
            return 404, [("Content-Type", "text/plain")], b"not found"
        ctype = mimetypes.guess_type(str(abs_path))[0] or "application/octet-stream"
        return 200, [("Content-Type", ctype)], abs_path.read_bytes()

    @staticmethod
    def _respond(conn: socket.socket, status: int, headers, body: bytes) -> None:
        reason = _REASONS.get(status, "Error")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines += [f"{name}: {value}" for name, value in headers]
        lines.append(f"Content-Length: {len(body)}")
        lines.append("Connection: close")
        conn.sendall(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)


def main(argv=None) -> int:
    import argparse

    setup_logging()
    parser = argparse.ArgumentParser(prog="dacsweb", description="virtual-host CGI web server")
    sub = parser.add_subparsers(dest="command", required=True)
    p_serve = sub.add_parser("serve")
    p_serve.add_argument("--vhosts", required=True, metavar="FILE")
    p_serve.add_argument("--identity-listen", required=True, metavar="IP:PORT")
    args = parser.parse_args(argv)

    try:
        bindings = parse_vhosts_file(args.vhosts)
        server = VHostServer(bindings, identity_listen=parse_hostport(args.identity_listen))
        server.start()
    except (VHostsFileError, BindError, OSError, ValueError) as exc:
        print(f"cannot start: {exc}")
        return 1
    for binding in server.bindings:
        log.info("serving %s:%d from %s", binding.host, binding.port, binding.docroot)
    log.info("identity notices on %s:%d", *server.identity_listen)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        server.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
