"""Run ``repro.cli.main(argv)`` in this fresh interpreter under the tracer.

Usage::

    python3 perfbench/traced_main.py SPANS_JSON -- <repro CLI arguments>

The import of ``repro.api`` is timed first, then every layer entry point
is wrapped (see ``spans.py``) and the CLI runs in-process as one op — for
``serve`` the op lasts until the server shuts down on SIGTERM. Spans are
written to ``SPANS_JSON`` once, after the CLI returns; the exit code is
the CLI's.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path


def main() -> int:
    out, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: traced_main.py SPANS_JSON -- <repro CLI arguments>")
    start = time.perf_counter()
    import repro.api  # noqa: F401 - the timed import
    import_s = time.perf_counter() - start
    import repro.cli
    from spans import Tracer

    # A server's evaluators live on in tenant stores; their counters are
    # read from /metrics instead of being pinned here.
    tracer = Tracer(harvest_engines=argv[:1] != ["serve"])
    tracer.install()
    tracer.begin_op()
    try:
        code = repro.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.dump(Path(out), {"import_s": import_s})
    return code


if __name__ == "__main__":
    raise SystemExit(main())
