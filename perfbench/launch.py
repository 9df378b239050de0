"""Run one dacs daemon with its layer entry points traced.

    python3 perfbench/launch.py TRACE_OUT MODULE [ARGS...]

MODULE is dacs.server, dacs.web or dacs.tunnel. The daemon runs its own
main(ARGS) in this process, exactly as `python -m MODULE ARGS` would; the
spans stay in memory and are written to TRACE_OUT as JSON when the process
receives SIGTERM.
"""

from __future__ import annotations

import importlib
import os
import signal
import sys

import tracing


def main() -> int:
    trace_out, module_name, *argv = sys.argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer, module_name)

    def dump_and_exit(signum, frame):
        tracer.dump(trace_out)
        os._exit(0)

    signal.signal(signal.SIGTERM, dump_and_exit)
    return importlib.import_module(module_name).main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
