"""The benchmark's tracer must be able to wrap every layer entry point it
names, and each name must stay on the path it is meant to time: a name
missing from a module crashes every traced benchmark run, and a name that
is bound but no longer called makes its layer read zero."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dacs import provision
from dacs.agent import DacsAgent
from dacs.rules import Destination
from dacs.server import DacsServer

REPO_ROOT = Path(__file__).resolve().parent.parent

# called only while a testbed is set up, not by a login, push or dial
SETUP_ONLY = {"dacs.provision.provision"}
# bound so that the tracer can count parses there; the agent gets its rules
# parsed by wire.decode, so nothing calls it
BOUND_ONLY = {"dacs.agent.parse_rule"}


@pytest.mark.parametrize("role", ["generator", "dacs.server", "dacs.web", "dacs.tunnel"])
def test_tracing_installs_for_every_role(role):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")])
    code = f"import tracing; tracing.install(tracing.Tracer(), {role!r})"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def counting_tracer(monkeypatch, counts):
    """A tracer whose wrappers count the calls of each wrapped name, keyed
    by its owner and attribute, instead of recording spans. Where the tracer
    records attributes with a span (the rule-set size of an encode or a
    decode), only the calls that get attributes count."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    import tracing

    class CountingTracer(tracing.Tracer):
        def wrap(self, owner, attr, name, attrs=None):
            func = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            key = f"{owner.__name__}.{attr}"
            counts[key] = 0

            def counted(*args, **kwargs):
                result = func(*args, **kwargs)
                if attrs is None or attrs(args, result) is not None:
                    counts[key] += 1
                return result

            monkeypatch.setattr(owner, attr, counted)

    return tracing, CountingTracer()


def test_every_traced_name_is_called_by_a_login_a_push_and_a_dial(tmp_path, monkeypatch, echo_server):
    counts: dict[str, int] = {}
    tracing, tracer = counting_tracer(monkeypatch, counts)
    for role in ("generator", "dacs.server"):
        tracing.install(tracer, role)
    assert "dacs.agent.decide" in counts and "DacsServer.admin_push" in counts

    source = tmp_path / "app"
    source.mkdir()
    (source / "index.html").write_text("hello\n")
    host, port = echo_server.address
    plan = provision.ProvisionPlan("app", source, ("G1",), host, port, "www")
    result = provision.provision(plan, tmp_path / "site")
    repo_text = provision.gen_repo_fragment(result, {"userA": "G1"})
    repo_text += "[client 10.0.0.1]\nblock|blocked.example:9\n"
    repo_path = tmp_path / "repo.conf"
    repo_path.write_text(repo_text)
    server = DacsServer(repo_path, ("127.0.0.1", 0), ("127.0.0.1", 0)).start()
    assert all(counts[name] > 0 for name in SETUP_ONLY)
    counts.update(dict.fromkeys(counts, 0))  # from here on, count the paths only

    agent = DacsAgent(server.listen_addr, "userA", "10.0.0.1")
    try:
        agent.login()
        agent.open_connection(Destination("www", 80)).close()
        repo_path.write_text(repo_text + "block|other.example:9\n")
        assert server.admin_push() == 1
        deadline = time.monotonic() + 10
        while len(agent.installed.snapshot.rules) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(agent.installed.snapshot.rules) == 3
    finally:
        agent.close()
        server.stop()
    off_path = {name for name, count in counts.items() if count == 0}
    assert off_path <= SETUP_ONLY | BOUND_ONLY
