"""End-to-end scenario harness: provision a counter app per group, start the
rule server and the web server as real processes, log two users in through
agents, and verify that the same URL reaches each group's own counter.

All networking is loopback; distinct ports stand in for the 192.168.x
sockets a LAN deployment would use, and the report prints that mapping.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from .agent import BlockedError, ConnectError, DacsAgent
from .provision import ProvisionPlan, gen_repo_fragment, provision
from .rules import Destination
from .util import (
    format_hostport,
    free_port,
    free_port_span,
    http_exchange,
    parse_hostport,
    setup_logging,
    wait_for_port,
)

VHOST_NAME = "wwwserver"
VHOST_PORT = 80
APP_NAME = "counter"
_PACKAGE_PARENT = str(Path(__file__).resolve().parent.parent)


class ExperimentError(Exception):
    """A component failed to start or the configuration is unusable."""


@dataclass(frozen=True)
class ExperimentUser:
    name: str
    group: str
    client_ip: str  # simulated source address


@dataclass
class ExperimentConfig:
    users: list[ExperimentUser] = field(
        default_factory=lambda: [
            ExperimentUser("userA", "GroupA", "10.0.0.1"),
            ExperimentUser("userB", "GroupB", "10.0.0.2"),
        ]
    )
    server_listen: tuple[str, int] | None = None
    web_identity_listen: tuple[str, int] | None = None
    base_port: int | None = None
    seed_counters: dict[str, int] = field(default_factory=dict)
    enforce: bool = False
    workdir: Path | None = None  # default: fresh temp dir, removed afterwards


def load_config(path, *, enforce: bool = False) -> ExperimentConfig:
    """key=value config: server_listen, web_identity_listen, base_port,
    users=name:group:ip,..., seed_counters=group:n,..."""
    cfg = ExperimentConfig(enforce=enforce)
    if path is None:
        return cfg
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ExperimentError(f"{path}:{lineno}: expected key=value")
        if key == "server_listen":
            cfg.server_listen = parse_hostport(value)
        elif key == "web_identity_listen":
            cfg.web_identity_listen = parse_hostport(value)
        elif key == "base_port":
            cfg.base_port = int(value)
        elif key == "users":
            users = []
            for item in value.split(","):
                parts = item.split(":")
                if len(parts) != 3:
                    raise ExperimentError(f"{path}:{lineno}: expected name:group:ip, got {item!r}")
                users.append(ExperimentUser(*parts))
            cfg.users = users
        elif key == "seed_counters":
            for item in value.split(","):
                group, sep2, count = item.partition(":")
                if not sep2:
                    raise ExperimentError(f"{path}:{lineno}: expected group:count, got {item!r}")
                cfg.seed_counters[group] = int(count)
        else:
            raise ExperimentError(f"{path}:{lineno}: unknown key {key!r}")
    return cfg


@dataclass
class ExperimentReport:
    info: list[str] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    bodies: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append((name, passed, detail))

    def render(self) -> str:
        lines = list(self.info)
        for name, passed, detail in self.checks:
            lines.append(f"ASSERT {name} {'PASS' if passed else 'FAIL'} {detail}")
        passed = sum(1 for _, ok, _ in self.checks if ok)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(f"RESULT {verdict} {passed}/{len(self.checks)} checks")
        return "\n".join(lines) + "\n"


def materialize_sample_app(dst: Path) -> Path:
    """Copy the packaged sample application and make its CGI programs
    executable regardless of how the package was installed."""
    src = Path(__file__).resolve().parent / "sample_app"
    shutil.copytree(src, dst)
    cgi_bin = dst / "cgi-bin"
    for path in cgi_bin.iterdir():
        if path.is_file() and path.suffix == "":
            path.chmod(path.stat().st_mode | 0o755)
    return dst


def _spawn(args: list[str]) -> subprocess.Popen:
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = _PACKAGE_PARENT + (os.pathsep + existing if existing else "")
    return subprocess.Popen(
        [sys.executable, "-m"] + args,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )


def _fetch(agent: DacsAgent, dst: Destination, path: str) -> tuple[int, str]:
    sock = agent.open_connection(dst, timeout=5)
    try:
        status, _, body = http_exchange(sock, "GET", path, VHOST_NAME)
    finally:
        sock.close()
    return status, body.decode("utf-8", errors="replace")


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    report = ExperimentReport()
    started = time.monotonic()
    workdir = cfg.workdir or Path(tempfile.mkdtemp(prefix="dacs-sim-"))
    keep_workdir = cfg.workdir is not None
    procs: list[subprocess.Popen] = []
    agents: list[DacsAgent] = []
    try:
        groups = list(dict.fromkeys(user.group for user in cfg.users))
        app_src = materialize_sample_app(workdir / "app")
        base_port = cfg.base_port or free_port_span(len(groups))
        plan = ProvisionPlan(
            app_name=APP_NAME,
            source_dir=app_src,
            groups=tuple(groups),
            base_ip="127.0.0.1",
            base_port=base_port,
            virtual_host_name=VHOST_NAME,
            virtual_port=VHOST_PORT,
        )
        result = provision(plan, workdir / "site", preamble=cfg.enforce, enforce=cfg.enforce)
        for group, count in cfg.seed_counters.items():
            if group not in result.cloned_dirs:
                raise ExperimentError(f"seed for unknown group {group}")
            (result.cloned_dirs[group] / "cgi-bin" / "count.txt").write_text(str(count))

        repo_path = workdir / "repository.conf"
        repo_path.write_text(
            gen_repo_fragment(result, {u.name: u.group for u in cfg.users}), encoding="utf-8"
        )

        identity_addr = cfg.web_identity_listen or ("127.0.0.1", free_port())
        server_addr = cfg.server_listen or ("127.0.0.1", free_port())
        control_addr = ("127.0.0.1", free_port())

        for i, group in enumerate(groups):
            report.info.append(
                f"MAP 192.168.1.1:{3000 + i} -> 127.0.0.1:{base_port + i} {group}"
            )
        report.info.append(f"MAP {VHOST_NAME}:{VHOST_PORT} is the URL every user types")

        web_proc = _spawn([
            "dacs.web", "serve",
            "--vhosts", str(result.vhosts_path),
            "--identity-listen", format_hostport(identity_addr),
        ])
        procs.append(web_proc)
        dacsd_proc = _spawn([
            "dacs.server", "serve",
            "--repo", str(repo_path),
            "--listen", format_hostport(server_addr),
            "--control", format_hostport(control_addr),
            "--web-identity", format_hostport(identity_addr),
        ])
        procs.append(dacsd_proc)

        for name, addr in (
            ("dacsweb", identity_addr),
            ("dacsd", server_addr),
            *((f"dacsweb binding {g}", ("127.0.0.1", base_port + i)) for i, g in enumerate(groups)),
        ):
            if not wait_for_port(addr[0], addr[1], timeout=5):
                raise ExperimentError(f"component {name} did not come up on {format_hostport(addr)}")

        for user in cfg.users:
            agent = DacsAgent(server_addr, user.name, user.client_ip, preamble=cfg.enforce)
            agent.login()
            agents.append(agent)
        if cfg.enforce:
            # identity notices travel server->web asynchronously; wait until
            # each user's own binding recognizes them before fetching anything
            _await_identities(cfg, agents, base_port, groups)

        # every user fetches the same URL; only the agent-side rewrite differs.
        # users of one group share one clone, so its counter accumulates.
        shared = Destination(VHOST_NAME, VHOST_PORT)
        fetched = {group: 0 for group in groups}
        shared_dials = []
        for user, agent in zip(cfg.users, agents):
            status, body = _fetch(agent, shared, "/cgi-bin/counter")
            shared_dials.append(agent.dial_log[-1])
            report.bodies[user.name] = body
            fetched[user.group] += 1
            expected = str(cfg.seed_counters.get(user.group, 0) + fetched[user.group])
            report.add(
                f"user_body_{user.name}",
                status == 200 and body == expected,
                f"status={status} got={body!r} want={expected!r}",
            )

        requested = {f"{d.requested.host}:{d.requested.port}" for d in shared_dials}
        report.add(
            "same_url",
            requested == {f"{VHOST_NAME}:{VHOST_PORT}"},
            f"pre-rewrite destinations: {sorted(requested)}",
        )

        fetches_per_group = {g: 0 for g in groups}
        for user in cfg.users:
            fetches_per_group[user.group] += 1
        all_ok = True
        details = []
        for group in groups:
            value = int((result.cloned_dirs[group] / "cgi-bin" / "count.txt").read_text())
            want = cfg.seed_counters.get(group, 0) + fetches_per_group[group]
            details.append(f"{group}={value} (want {want})")
            all_ok = all_ok and value == want
        report.add("isolation_counters", all_ok, ", ".join(details))

        if cfg.enforce:
            _enforcement_matrix(report, cfg, agents, result, base_port, groups)
    except (ExperimentError, BlockedError, ConnectError, OSError) as exc:
        report.add("setup", False, str(exc))
    finally:
        for agent in agents:
            agent.close()
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
        if not keep_workdir:
            shutil.rmtree(workdir, ignore_errors=True)
    report.info.append(f"elapsed {time.monotonic() - started:.1f}s")
    return report


def _await_identities(cfg, agents, base_port, groups) -> None:
    for user, agent in zip(cfg.users, agents):
        own = Destination("127.0.0.1", base_port + groups.index(user.group))
        deadline = time.monotonic() + 3
        while time.monotonic() < deadline:
            status, _ = _fetch(agent, own, "/index.html")
            if status == 200:
                break
            time.sleep(0.05)
        else:
            raise ExperimentError(f"web tier never recognized {user.name}")


def _enforcement_matrix(report, cfg, agents, result, base_port, groups) -> None:
    """Every user against every group's socket: only the own-group cell may 200."""
    for user, agent in zip(cfg.users, agents):
        for i, group in enumerate(groups):
            status, _ = _fetch(agent, Destination("127.0.0.1", base_port + i), "/index.html")
            want = 200 if group == user.group else 403
            report.add(
                f"enforce_{user.name}_{group}",
                status == want,
                f"status={status} want={want}",
            )


def main(argv=None) -> int:
    import argparse

    setup_logging()
    parser = argparse.ArgumentParser(prog="dacs-sim", description="scenario harness")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run-experiment", help="run the group-isolation experiment")
    p_run.add_argument("--config", metavar="FILE")
    p_run.add_argument("--enforce", action="store_true",
                       help="also verify server-side binding/group enforcement")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, enforce=args.enforce)
    except (ExperimentError, OSError, ValueError) as exc:
        print(f"bad config: {exc}")
        return 2
    report = run_experiment(cfg)
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
