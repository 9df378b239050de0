"""Benchmark of the dacs testbed: three closed-loop workloads on loopback.

    python3 perfbench/run.py --workload login_push --seed 1 --seconds 30 --trace 0

Run from the repository root. Each run sets the testbed up SETUPS times
(the median is setup_s), keeps the last one and runs the control, web and
tunnel phases on it; the workload fixes the testbed's sizes and each
phase's share of --seconds. With --trace 0 it prints the end-to-end
metrics; with --trace 1 the daemons and the agents run with their layer
entry points wrapped, every phase runs a fixed number of whole cycles, and
it prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SETUPS = 3
ROUND_SECONDS = 4  # timed runs: the phases take turns in slices of one round
WEB_KINDS = ("static", "redirect", "counter", "func1", "cross")


@dataclass(frozen=True)
class Workload:
    sizes: tuple  # testbed.Sizes(ctl_online, ctl_offline, ctl_rules, blocklist)
    shares: tuple  # share of --seconds for (control, web, tunnel)
    traced_cycles: tuple  # whole cycles of (control, web per client, tunnel) when traced


WORKLOADS = {
    "login_push": Workload((12, 4, 100, 100), (0.6, 0.2, 0.2), (24, 4, 4)),
    "group_web": Workload((0, 0, 100, 1000), (0.2, 0.6, 0.2), (3, 16, 4)),
    "tunnel_mix": Workload((0, 0, 100, 100), (0.2, 0.2, 0.6), (12, 4, 16)),
}


def pct(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); one sample is its own percentile."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Windows:
    """Sorted, non-overlapping [start, end] intervals; tests span starts."""

    def __init__(self, intervals):
        self.intervals = sorted(intervals)
        self.starts = [s for s, _ in self.intervals]

    def __contains__(self, t: int) -> bool:
        i = bisect.bisect_right(self.starts, t) - 1
        return i >= 0 and t <= self.intervals[i][1]


def end_to_end(log, setup_s: list[float]) -> dict:
    def ms(kinds) -> list[float]:
        return [(op.end - op.start) / 1e6 for op in log.ops if op.ok and op.kind in kinds]

    login, push = ms({"login"}), ms({"push"})
    static, cgi, short = ms({"static", "redirect"}), ms({"counter", "func1"}), ms({"short"})
    web_s = sum(end - start for start, end in log.windows["web"]) / 1e9
    requests = len(ms(set(WEB_KINDS)))
    bulk = [op for op in log.ops if op.ok and op.kind == "bulk"]
    bulk_s = sum(op.end - op.start for op in bulk) / 1e9
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "login_ms_p50": (pct(login, 50), "ms", len(login)),
        "login_ms_p90": (pct(login, 90), "ms", len(login)),
        "push_converge_ms_p50": (pct(push, 50), "ms", len(push)),
        "push_converge_ms_p90": (pct(push, 90), "ms", len(push)),
        "static_ms_p50": (pct(static, 50), "ms", len(static)),
        "static_ms_p90": (pct(static, 90), "ms", len(static)),
        "cgi_ms_p50": (pct(cgi, 50), "ms", len(cgi)),
        "cgi_ms_p90": (pct(cgi, 90), "ms", len(cgi)),
        "web_rps": (requests / web_s, "req/s", requests),
        "tunnel_short_ms_p50": (pct(short, 50), "ms", len(short)),
        "tunnel_short_ms_p90": (pct(short, 90), "ms", len(short)),
        "tunnel_bulk_MBps": (sum(op.nbytes for op in bulk) / 1e6 / bulk_s if bulk_s else 0.0,
                             "MB/s", len(bulk)),
    }


def python_startup_ms(extra: list[str], runs: int = 11) -> float:
    """Median wall time of `python3 [extra] -c pass` with the CGI PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    times = []
    for _ in range(runs):
        start = time.monotonic_ns()
        subprocess.run(["python3", *extra, "-c", "pass"], env=env, check=True)
        times.append((time.monotonic_ns() - start) / 1e6)
    return statistics.median(times)


def per_layer(log, gen_spans, child_spans, setups) -> dict:
    from tracing import ATTRS, CHILD, END, NAME, START

    def ops(*kinds):
        return [op for op in log.ops if op.ok and op.kind in kinds]

    def window(*kinds):
        return Windows((op.start, op.end) for op in ops(*kinds))

    def phase(*names):
        return Windows([w for name in names for w in log.windows[name]])

    def spans(source, name, where):
        return [s for s in source if s[NAME] == name and s[START] in where]

    def dur(s, scale=1e6):
        return (s[END] - s[START]) / scale

    dacsd, web = child_spans["dacsd"], child_spans["dacsweb"]
    sctl = child_spans["sctl_client"] + child_spans["sctl_server"]
    control, logins, pushes = window("login", "push"), window("login"), window("push")
    web_w, tunnel_w, bulk_w = phase("web"), phase("tunnel"), window("bulk")

    encodes = [s for s in spans(dacsd, "wire.encode", control) if s[ATTRS]]
    decodes = [s for s in spans(gen_spans, "wire.decode", control) if s[ATTRS]]
    delivered = sum(s[ATTRS][0] for s in decodes)
    parses = len(spans(dacsd, "rules.parse_rule", control)) + len(spans(gen_spans, "rules.parse_rule", control))
    installs = spans(gen_spans, "agent.install_ruleset", control)
    dials = spans(gen_spans, "agent.open_connection", phase("web", "tunnel"))
    requests = spans(web, "web.request", web_w)
    bulk_mib = sum(op.nbytes for op in ops("bulk")) / 2**20
    loopback = ops("loopback")
    sent = spans(sctl, "tunnel.send_record", bulk_w)
    received = spans(sctl, "tunnel.recv_record", bulk_w)
    return {
        "rules.decide.us": (mean(dur(s, 1e3) for s in spans(gen_spans, "rules.decide", web_w)), "us"),
        "rules.merge_rules.us": (mean(dur(s, 1e3) for s in spans(dacsd, "rules.merge_rules", control)), "us"),
        "rules.parse_rule.per_delivered_rule": (parses / delivered if delivered else 0.0, "count"),
        "wire.encode.us_per_rule": (sum(dur(s, 1e3) for s in encodes) / max(1, sum(s[ATTRS][0] for s in encodes)), "us"),
        "wire.decode.us_per_rule": (sum(dur(s, 1e3) for s in decodes) / max(1, delivered), "us"),
        "wire.ruleset.bytes": (mean(s[ATTRS][1] for s in encodes), "bytes"),
        "server.load_repository.ms": (mean(dur(s) for s in spans(dacsd, "server.load_repository", pushes)), "ms"),
        "server.compose_login_rules.us": (
            mean(dur(s, 1e3) for s in spans(dacsd, "server.compose_login_rules", control)), "us"),
        "server.handle_login.self_ms": (
            mean((s[END] - s[START] - s[CHILD]) / 1e6 for s in spans(dacsd, "server.handle_login", logins)), "ms"),
        "server.admin_push.ms": (mean(dur(s) for s in spans(dacsd, "server.admin_push", pushes)), "ms"),
        "server.cpu_ms_per_login": (mean(op.cpu_ms for op in ops("login")), "ms"),
        "server.cpu_ms_per_push": (mean(op.cpu_ms for op in ops("push")), "ms"),
        "agent.install_ruleset.ms": (mean(dur(s) for s in installs), "ms"),
        "agent.redirectors_created_per_install": (mean(s[ATTRS][0] for s in installs), "count"),
        "agent.redirectors_closed_per_install": (mean(s[ATTRS][1] for s in installs), "count"),
        "agent.open_connection.us": (mean(dur(s, 1e3) for s in dials), "us"),
        "web.run_cgi.ms": (mean(dur(s) for s in spans(web, "web.run_cgi", web_w)), "ms"),
        "web.cgi_spawns_per_request": (len(spans(web, "web.run_cgi", web_w)) / max(1, len(requests)), "count"),
        "web.static_server_ms": (
            mean((s[END] - s[START] - s[CHILD]) / 1e6 for s in spans(gen_spans, "op.static", web_w)), "ms"),
        "web.cpu_ms_per_request": (log.web_cpu_ms / max(1, len(requests)), "ms"),
        "web.identity_lag_ms": (mean(setups["identity_lag_ms"]), "ms"),
        "ref.python_startup_ms": (python_startup_ms([]), "ms"),
        "ref.python_startup_nosite_ms": (python_startup_ms(["-S"]), "ms"),
        "tunnel.handshake.ms": (mean(dur(s) for s in spans(sctl, "tunnel.handshake", tunnel_w)), "ms"),
        "tunnel.records_per_MiB": (len(sent) / bulk_mib if bulk_mib else 0.0, "count"),
        "tunnel.recv_exact_per_record": (
            len(spans(sctl, "tunnel.recv_exact", bulk_w)) / max(1, len(received)), "count"),
        "tunnel.cpu_ms_per_MiB": (sum(op.cpu_ms for op in ops("bulk")) / bulk_mib if bulk_mib else 0.0, "ms"),
        "ref.loopback_bulk_MBps": (
            sum(op.nbytes for op in loopback) / 1e6 / (sum(op.end - op.start for op in loopback) / 1e9)
            if loopback else 0.0, "MB/s"),
        "provision.provision.ms": (mean(dur(s) for s in gen_spans if s[NAME] == "provision.provision"), "ms"),
        "daemon.spawn_to_listen_ms": (mean(setups["spawn_to_listen_ms"]), "ms"),
    }


def run(args) -> dict:
    import phases
    import tracing
    from testbed import Sizes, Testbed

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, "generator")
    workdir = Path(".perfbench") / f"run-{os.getpid()}"
    setup_s, setups = [], {"spawn_to_listen_ms": [], "identity_lag_ms": []}
    log = phases.Log()
    testbed = None
    try:
        for i in range(SETUPS):
            if testbed is not None:
                testbed.teardown()
                testbed.remove()
            testbed = Testbed(Sizes(*workload.sizes), args.seed, workdir / f"setup{i}", trace=bool(args.trace))
            start = time.monotonic_ns()
            testbed.setup()
            setup_s.append((time.monotonic_ns() - start) / 1e9)
            setups["spawn_to_listen_ms"] += testbed.spawn_to_listen_ms
            setups["identity_lag_ms"] += testbed.identity_lag_ms

        rng = random.Random(args.seed)
        running = [phase(testbed, log, rng, tracer) for phase in phases.PHASES]
        if args.trace:
            for phase, cycles in zip(running, workload.traced_cycles):
                phase.run(phases.Limit(cycles=cycles))
        else:
            rounds = max(1, round(args.seconds / ROUND_SECONDS))
            for _ in range(rounds):
                for phase, share in zip(running, workload.shares):
                    phase.run(phases.Limit(seconds=args.seconds * share / rounds))
        for phase in running:
            phase.finish()
        testbed.teardown()  # traced daemons write their spans as they stop
        failed = sum(1 for op in log.ops if not op.ok) + log.failed_checks
        result = {
            "attempted": len(log.ops) + log.checks,
            "failed": failed,
            "e2e": end_to_end(log, setup_s),
            "errors": log.errors,
        }
        if args.trace:
            child = {name: json.loads(path.read_text(encoding="utf-8"))
                     for name, path in testbed.trace_files.items()}
            result["layers"] = per_layer(log, tracer.spans, child, setups)
        return result
    finally:
        if testbed is not None:
            testbed.teardown()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path("src")
    if not (src / "dacs" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/dacs is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src.resolve()))
    # a terminated run still stops its daemons: SIGTERM unwinds through run()'s cleanup
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    result = run(args)
    e2e = result["e2e"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          f"(closed loop, loopback only)")
    for line in result["errors"]:
        print(f"error {line}")
    print(f"metric error_rate {failed / attempted:.6g} ratio n={attempted}")
    for name, (value, unit, n) in e2e.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")
    if args.trace:
        chosen = result["layers"]
        for name, (value, unit) in chosen.items():
            print(f"layer {name} {value:.6g} {unit}")
    else:
        chosen = {name: (value, unit) for name, (value, unit, _) in e2e.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
