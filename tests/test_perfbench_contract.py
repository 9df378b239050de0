"""The benchmark's tracer must be able to wrap every layer entry point it
names; a name missing from a module crashes every traced benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("role", ["generator", "dacs.server", "dacs.web", "dacs.tunnel"])
def test_tracing_installs_for_every_role(role):
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT / "perfbench")])
    code = f"import tracing; tracing.install(tracing.Tracer(), {role!r})"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
