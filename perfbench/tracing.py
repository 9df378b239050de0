"""In-memory spans around calls into the dacs layers.

A span is one call of a wrapped function: name, start and end on the
system-wide monotonic clock (so spans from different processes line up),
the time its direct child spans covered, and an optional integer
attribute tuple. Nesting is tracked per thread, so a span's self time is
its duration minus its children's.

The wrappers replace module or class attributes in the running process;
nothing in the package source changes. `install(tracer, role)` wraps the
layer entry points each process role calls into.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager

# span record: [name, start_ns, end_ns, child_ns, attrs]
NAME, START, END, CHILD, ATTRS = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, stack: list, record: list) -> None:
        stack.pop()
        record[END] = time.monotonic_ns()
        if stack:
            stack[-1][CHILD] += record[END] - record[START]
        self.spans.append(record)

    @contextmanager
    def span(self, name: str):
        """Time a block as one span."""
        stack = self._stack()
        record = [name, time.monotonic_ns(), 0, 0, None]
        stack.append(record)
        try:
            yield record
        finally:
            self._close(stack, record)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace owner.attr with a traced version. `attrs(args, result)`
        may return an int tuple stored with the span."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [name, time.monotonic_ns(), 0, 0, None]
            stack.append(record)
            try:
                result = func(*args, **kwargs)
                if attrs is not None:
                    record[ATTRS] = attrs(args, result)
                return result
            finally:
                tracer._close(stack, record)

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(list(self.spans), handle, separators=(",", ":"))


def _ruleset_attrs(msg_type):
    def encode_attrs(args, frame):
        msg = args[0]
        return (len(msg.rules), len(frame)) if isinstance(msg, msg_type) else None

    def decode_attrs(args, result):
        if result is not None and isinstance(result[0], msg_type):
            return (len(result[0].rules),)
        return None

    return encode_attrs, decode_attrs


def _install_attrs(args, installed):
    """(redirectors created, redirectors closed) by one install_ruleset."""
    agent = args[0]
    before = getattr(agent, "_perfbench_redirectors", {})
    after = installed.redirectors
    kept = {id(r) for r in after.values()} & {id(r) for r in before.values()}
    agent._perfbench_redirectors = dict(after)
    return (len(after) - len(kept), len(before) - len(kept))


def install(tracer: Tracer, role: str) -> None:
    """Wrap the layer entry points used by one process role."""
    from dacs import wire

    encode_attrs, decode_attrs = _ruleset_attrs(wire.RuleSetMsg)
    if role == "generator":
        from dacs import agent, provision

        tracer.wrap(agent, "decide", "rules.decide")
        tracer.wrap(agent, "parse_rule", "rules.parse_rule")
        tracer.wrap(wire, "parse_rule", "rules.parse_rule")
        tracer.wrap(wire, "decode", "wire.decode", decode_attrs)
        tracer.wrap(agent.DacsAgent, "open_connection", "agent.open_connection")
        tracer.wrap(agent.DacsAgent, "install_ruleset", "agent.install_ruleset", _install_attrs)
        tracer.wrap(provision, "provision", "provision.provision")
    elif role == "dacs.server":
        from dacs import server

        tracer.wrap(server, "load_repository", "server.load_repository")
        tracer.wrap(server, "compose_login_rules", "server.compose_login_rules")
        tracer.wrap(server, "merge_rules", "rules.merge_rules")
        tracer.wrap(server, "parse_rule", "rules.parse_rule")
        tracer.wrap(wire, "parse_rule", "rules.parse_rule")
        tracer.wrap(wire, "encode", "wire.encode", encode_attrs)
        tracer.wrap(server.DacsServer, "handle_login", "server.handle_login")
        tracer.wrap(server.DacsServer, "admin_push", "server.admin_push")
        tracer.wrap(server.DacsServer, "_notify_identity", "server.notify_identity")
    elif role == "dacs.web":
        from dacs import web

        tracer.wrap(web, "run_cgi", "web.run_cgi")
        tracer.wrap(web.VHostServer, "_http_conn", "web.request")
    elif role == "dacs.tunnel":
        from dacs import tunnel

        tracer.wrap(tunnel.SecureChannel, "client", "tunnel.handshake")
        tracer.wrap(tunnel.SecureChannel, "server", "tunnel.handshake")
        tracer.wrap(tunnel.SecureChannel, "_send_record", "tunnel.send_record")
        tracer.wrap(tunnel.SecureChannel, "_recv_record", "tunnel.recv_record")
        tracer.wrap(tunnel, "recv_exact", "tunnel.recv_exact")
    else:
        raise ValueError(f"no tracing for role {role!r}")
