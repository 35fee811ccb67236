"""End-to-end benchmark of the repro anonymization paths.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``cli-flash-200k`` (the CLI as a subprocess), ``sweep-lattice-50k``
(in-process ``run_batch`` sweeps) and ``service-mixed-50k`` (``repro serve``
driven by two closed-loop HTTP clients). ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is a separate run that
spans each layer from the outside and reports the per-layer metrics.
Every release is checked (see ``check.py``). The last line of standard
output is the result as one JSON object; a fuller per-run record (host
facts, samples, quartiles) goes to ``.perfbench_out/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from common import END_TO_END, PER_LAYER, Context, percentile, summarize, tail_percentile

WORKLOADS = ("cli-flash-200k", "sweep-lattice-50k", "service-mixed-50k")


def _workload(name: str):
    if name == "cli-flash-200k":
        import wl_cli as module
    elif name == "sweep-lattice-50k":
        import wl_sweep as module
    else:
        import wl_service as module
    return module


def _git_sha(root: Path) -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
            # A checkout that is not a repository must not report a parent's.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _host() -> dict:
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def _cpu_ticks() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user, nice, ..., steal)."""
    with open("/proc/stat") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {root / 'src'}", file=sys.stderr)
        return 2
    ctx = Context(root=root, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    started = time.time()
    ticks = _cpu_ticks()
    outcome = _workload(args.workload).run(ctx)
    # Share of CPU time the hypervisor gave to other guests during the run:
    # timings from a run with a high share are inflated by the host.
    spent = [after - before for before, after in zip(ticks, _cpu_ticks())]
    steal_share = spent[7] / sum(spent) if len(spent) > 7 and sum(spent) else None

    # Without a successful op there is nothing to measure: report zeros,
    # correct=false, and fail the run.
    measured = bool(outcome.latencies) and (ctx.trace or bool(outcome.setups))
    if ctx.trace:
        values, units = outcome.per_layer(), PER_LAYER
    elif measured:
        values, units = outcome.end_to_end(), END_TO_END
    else:
        values, units = dict.fromkeys(END_TO_END, 0.0), END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": started,
        "git_sha": _git_sha(root),
        "host": {**_host(), "steal_share": steal_share},
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "check_failures": outcome.check_failures,
        "metrics": metrics,
        # The highest percentile with at least ten samples beyond it.
        "latency_tail": {
            "n": len(outcome.latencies),
            "percentile": (tail := tail_percentile(len(outcome.latencies))),
            "value": percentile(outcome.latencies, tail) if tail else None,
        },
        "samples": {
            "latency_s": summarize(outcome.latencies),
            "setup_s": summarize(outcome.setups),
            **{name: summarize(samples) for name, samples in outcome.samples.items()},
        },
        "layers_raw": outcome.layers,
    }
    runs = ctx.out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(started)}.json"
    path.write_text(json.dumps(record, indent=1))
    for reason in outcome.check_failures:
        print(f"check failed: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if measured else 1


if __name__ == "__main__":
    sys.exit(main())
