"""``repro serve`` signal handling: SIGTERM/SIGINT drain and exit 0."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

_SERVE_CMD = [
    sys.executable,
    "-m",
    "repro",
    "serve",
    "--port",
    "0",
    "--cardinality",
    "200",
]


def _spawn_serve():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")])
    )
    env.pop("REPRO_FAULTS", None)
    return subprocess.Popen(
        _SERVE_CMD,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
    )


def _wait_for_listening(process) -> str:
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            pytest.fail("repro serve exited before listening")
        if "listening on" in line:
            return line
        time.sleep(0.01)
    pytest.fail("repro serve never reported listening")


@pytest.mark.parametrize(
    "signum", [signal.SIGTERM, signal.SIGINT], ids=["sigterm", "sigint"]
)
def test_serve_signal_drains_and_exits_zero(signum):
    process = _spawn_serve()
    try:
        _wait_for_listening(process)
        process.send_signal(signum)
        remainder = process.communicate(timeout=60)[0]
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode == 0, remainder
    assert "shut down cleanly" in remainder
