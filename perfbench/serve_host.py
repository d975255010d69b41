"""Launcher of ``repro serve`` for the serve-churn workload.

Usage (started by ``run.py``, not by hand)::

    python3 perfbench/serve_host.py OUT TRACE SERVE_ARGS...

With ``TRACE`` = 1 the span wrappers are installed before the ``serve``
entry point builds anything; ``SIGUSR1`` marks the start of the timed window
and, once the server has shut down, the per-layer metrics are written to the
JSON file ``OUT``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from workloads import WORK, use_program


def main(argv: list[str]) -> int:
    out, trace, *serve_args = argv
    use_program()
    tracer = None
    if trace == "1":
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        signal.signal(signal.SIGUSR1, lambda *_: tracer.mark_window())
    from repro.cli import serve_main

    code = serve_main(serve_args)
    if tracer is not None:
        from spans import layer_metrics

        tracer.dump(os.path.join(WORK, f"spans-serve-{os.getpid()}.json"))
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"layers": layer_metrics(tracer)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
