"""Command-line interface: anonymize a CSV file end to end.

Usage::

    python -m repro input.csv output.csv \
        --qi zipcode --qi nationality --numeric-qi age \
        --sensitive disease --k 5 --l 2 \
        --algorithm mondrian --report

or, declaratively, with the whole job described as JSON::

    python -m repro input.csv output.csv --config job.json --report

or as a batch — a JSON *list* of jobs run through
:func:`repro.api.run_batch`, optionally in parallel::

    python -m repro input.csv output.csv --config jobs.json --workers 4

Batch mode writes one release per job to numbered outputs derived from the
output path (``output.1.csv``, ``output.2.csv``, ... in job order), shares
lattice evaluation across jobs exactly like the library API, and with
``--report`` prints a JSON array of per-job reports to stderr.
``--cache-bytes`` budgets each job's engine cache; in batch mode it applies
to every job with a lattice engine. Outputs are identical at any budget or
worker count.

Batch failure handling mirrors :func:`repro.api.run_batch`: with
``--on-error collect`` a failing job is recorded instead of aborting its
siblings — its numbered output file is skipped, a one-line summary goes to
stderr, its ``--report`` entry carries the structured failure, and the
exit code is 1 when any job failed (0 otherwise). ``--retries N`` re-runs
failed jobs, and ``--job-timeout SECONDS`` bounds each job cooperatively
(also valid for single jobs, where it sets the config's ``job_timeout``).

A third form runs the long-lived anonymization service (HTTP job API with
per-tenant warm caches — see :mod:`repro.service`)::

    python -m repro serve --port 8035 --queue-workers 2

It serves until SIGINT or SIGTERM, then shuts down cleanly and exits 0.

Flags are parsed into the same :class:`repro.api.AnonymizationConfig` a
``--config`` file deserializes to, and both run through
:func:`repro.api.run` — the CLI has no private algorithm table or wiring of
its own. ``--algorithm`` therefore accepts every registered algorithm,
including the whole local-recoding family (``mondrian``, ``tds``, ``mdav``,
``kmember``, ``anatomy``, ``slicing``) alongside the full-domain lattice
algorithms; ``mdav`` needs at least one ``--numeric-qi`` and ``anatomy``
exactly one ``--sensitive``, both enforced at config-parse time. An
algorithm whose spec requires its own ``k`` or ``l`` (``mdav``,
``kmember``, ``slicing``, ``anatomy``) takes it from ``--k`` or ``--l``.
Hierarchies default to the ``auto`` builder (prefix/flat for
categorical QIs, uniform intervals for numeric QIs); pin them in the config
file for production use.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Any, Callable

from .api import (
    ON_ERROR,
    AnonymizationConfig,
    JobFailure,
    algorithm_registry,
    run,
    run_batch,
)
from .api.executor import _uses_evaluator
from .core.io import read_csv, write_csv
from .errors import ConfigError, ReproError

__all__ = ["main", "build_parser", "build_serve_parser", "config_from_args"]

#: Suppression budgets the flag-mode CLI has always used per algorithm
#: (registry defaults are library-wide; these preserve CLI behavior).
_CLI_BUDGETS = {
    "datafly": 0.05,
    "incognito": 0.02,
    "ola": 0.05,
    "flash": 0.02,
    "bottom-up": 0.05,
}

#: Report metrics computed when ``--report`` is given and the config does
#: not request its own set ("homogeneity" joins when a sensitive exists).
_REPORT_METRICS = ("linkage", "gcp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Anonymize a CSV file with k-anonymity and friends.",
    )
    parser.add_argument("input", help="input CSV path (with header row)")
    parser.add_argument("output", help="output CSV path")
    parser.add_argument("--config", default=None, metavar="JOB_JSON",
                        help="declarative job description (JSON file with "
                             "AnonymizationConfig keys, or a JSON list of such "
                             "jobs for batch mode); overrides role/model flags")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker threads for batch mode (--config with a "
                             "JSON list of jobs); jobs share one lattice "
                             "engine and outputs are identical at any N")
    parser.add_argument("--cache-bytes", type=int, default=None, metavar="BYTES",
                        help="per-job engine-cache budget (full-domain "
                             "algorithms; in batch mode every job with a "
                             "lattice engine); outputs are identical at any "
                             "budget")
    parser.add_argument("--on-error", choices=list(ON_ERROR), default=None,
                        help="batch failure policy: 'raise' (default) aborts "
                             "the whole batch on the first failing job, "
                             "'collect' records the failure, keeps the "
                             "siblings running, skips the failed job's "
                             "numbered output, and exits 1 (batch mode only)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="cooperative per-job time budget in seconds, "
                             "enforced between lattice-node evaluations; in "
                             "batch mode the tighter of this and a job's own "
                             "'job_timeout' key wins")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="re-attempt each failed job up to N times "
                             "(requires --on-error collect; batch mode only)")
    parser.add_argument("--qi", action="append", default=[],
                        help="categorical quasi-identifier column (repeatable)")
    parser.add_argument("--numeric-qi", action="append", default=[],
                        help="numeric quasi-identifier column (repeatable)")
    parser.add_argument("--sensitive", action="append", default=[],
                        help="sensitive column (repeatable)")
    parser.add_argument("--drop", action="append", default=[],
                        help="identifying column to remove (repeatable)")
    parser.add_argument("--k", type=int, default=5, help="k-anonymity level")
    parser.add_argument("--l", type=int, default=0,
                        help="distinct l-diversity level (0 = off)")
    parser.add_argument("--t", type=float, default=0.0,
                        help="t-closeness threshold (0 = off)")
    parser.add_argument("--algorithm",
                        choices=sorted([*algorithm_registry.names(), "mondrian-relaxed"]),
                        default="mondrian")
    parser.add_argument("--max-suppression", type=float, default=None,
                        help="suppression budget override (fraction of rows)")
    parser.add_argument("--bins", type=int, default=16,
                        help="base bins for auto numeric hierarchies")
    parser.add_argument("--report", action="store_true",
                        help="print a risk/utility report as JSON to stderr")
    return parser


def config_from_args(args: argparse.Namespace) -> AnonymizationConfig:
    """Translate role/model flags into a declarative config."""
    models: list[dict] = [{"model": "k-anonymity", "k": args.k}]
    if args.l:
        models.append(
            {"model": "distinct-l-diversity", "l": args.l, "sensitive": args.sensitive[0]}
        )
    if args.t:
        models.append(
            {"model": "t-closeness", "t": args.t, "sensitive": args.sensitive[0]}
        )
    if args.algorithm == "mondrian-relaxed":
        algorithm = {"algorithm": "mondrian", "mode": "relaxed"}
    else:
        algorithm = {"algorithm": args.algorithm}
    # An algorithm that requires its own k or l takes the model flag's.
    flags = {"k": args.k, "l": args.l}
    for key in algorithm_registry.required(algorithm["algorithm"]):
        if key in flags:
            algorithm[key] = flags[key]
    max_suppression = args.max_suppression
    if max_suppression is None:
        max_suppression = _CLI_BUDGETS.get(args.algorithm)
    metrics: tuple = ()
    if args.report:
        metrics = _REPORT_METRICS + (("homogeneity",) if args.sensitive else ())
    return AnonymizationConfig(
        quasi_identifiers=args.qi,
        numeric_quasi_identifiers=args.numeric_qi,
        sensitive=args.sensitive,
        drop=args.drop,
        models=models,
        algorithm=algorithm,
        max_suppression=max_suppression,
        metrics=metrics,
        bins=args.bins,
        cache_bytes=args.cache_bytes,
        job_timeout=args.job_timeout,
    )


def _apply_cli_overrides(
    config: AnonymizationConfig,
    args: argparse.Namespace,
    batch: bool,
    engine_flags: bool,
) -> AnonymizationConfig:
    overrides: dict = {}
    if args.max_suppression is not None:
        overrides["max_suppression"] = args.max_suppression
    if engine_flags and args.cache_bytes is not None:
        # A per-job engine override; the config rejects it for a job
        # without a lattice engine.
        overrides["cache_bytes"] = args.cache_bytes
    if args.job_timeout is not None and not batch:
        # In batch mode --job-timeout goes to run_batch, where the tighter
        # of it and a job's own 'job_timeout' key wins — overriding the
        # config here would silently widen a job's declared budget.
        overrides["job_timeout"] = args.job_timeout
    if args.report and not config.metrics:
        overrides["metrics"] = _REPORT_METRICS + (
            ("homogeneity",) if config.sensitive else ()
        )
    elif not args.report and config.metrics:
        # Without --report the CLI never surfaces metric values; computing
        # the job file's battery (full passes over the release) would be
        # pure wasted wall-clock.
        overrides["metrics"] = ()
    if overrides:
        config = AnonymizationConfig.from_dict({**config.to_dict(), **overrides})
    return config


def _load_configs(args: argparse.Namespace) -> tuple[list[AnonymizationConfig], bool]:
    """(configs, is_batch) from ``--config``: one job object, or a list."""
    try:
        data = json.loads(Path(args.config).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    is_batch = isinstance(data, list)
    jobs = data if is_batch else [data]
    if not jobs:
        raise ConfigError("config file holds an empty job list")
    configs = [AnonymizationConfig.from_dict(job) for job in jobs]
    # --cache-bytes binds only the jobs with a lattice engine, so a mixed
    # batch can take it. When no job has one it binds every job, and the
    # config's own guard rejects it as for a single job.
    engine_jobs = [_uses_evaluator(config) for config in configs]
    if not any(engine_jobs):
        engine_jobs = [True] * len(configs)
    return (
        [
            _apply_cli_overrides(config, args, is_batch, engine)
            for config, engine in zip(configs, engine_jobs)
        ],
        is_batch,
    )


def _column_roles(configs: list[AnonymizationConfig]) -> tuple[list[str], list[str]]:
    """Union of (categorical, numeric) column typings across a batch.

    A column typed categorically by one job and numerically by another
    cannot be loaded consistently from one CSV, so that is rejected rather
    than letting one job silently win.
    """
    categorical: set[str] = set()
    numeric: set[str] = set()
    for config in configs:
        categorical.update(config.quasi_identifiers)
        categorical.update(config.sensitive)
        numeric.update(config.numeric_quasi_identifiers)
    clashing = sorted(categorical & numeric)
    if clashing:
        raise ConfigError(
            f"column {clashing[0]!r} is categorical in one batch job and "
            "numeric in another; batch jobs must agree on column types"
        )
    return sorted(categorical), sorted(numeric)


def _numbered_output(path: Path, index: int) -> Path:
    """``out.csv`` -> ``out.3.csv`` for job index 3 (1-based, job order)."""
    return path.with_name(f"{path.stem}.{index}{path.suffix}")


def _reject_job_flags_with_config(parser: argparse.ArgumentParser,
                                  args: argparse.Namespace) -> None:
    """--config describes the whole job; silently dropping job flags would
    let e.g. a --k sweep over one job file publish N identical releases."""
    conflicting = [
        flag
        for flag, name in (
            ("--qi", "qi"), ("--numeric-qi", "numeric_qi"),
            ("--sensitive", "sensitive"), ("--drop", "drop"),
            ("--k", "k"), ("--l", "l"), ("--t", "t"),
            ("--algorithm", "algorithm"), ("--bins", "bins"),
        )
        if getattr(args, name) != parser.get_default(name)
    ]
    if conflicting:
        parser.error(
            f"{', '.join(conflicting)} cannot be combined with --config "
            "(the job file describes the whole job; only --max-suppression, "
            "--cache-bytes, --workers, "
            "--on-error, --job-timeout, --retries and --report apply on top)"
        )


def _report_payload(result) -> dict:
    report = result.to_dict()
    # Keep risk/utility values at the top level (historic CLI shape)
    # alongside the structured result. JobFailure reports have no metrics.
    report.update(report.pop("metrics", {}))
    return report


def _failure_summary(index: int, failure: JobFailure) -> str:
    """The one-line per-job failure summary printed to stderr."""
    return (
        f"job {index} failed [{failure.error_type}] after "
        f"{len(failure.attempts)} attempt(s): {failure.error.get('message', '')}"
    )


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the long-lived anonymization service (HTTP job API).",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8035,
                        help="bind port (default 8035; 0 picks a free port)")
    parser.add_argument("--queue-workers", type=int, default=2, metavar="N",
                        help="worker threads draining the job queue")
    parser.add_argument("--queue-depth", type=int, default=32, metavar="N",
                        help="max queued batches before POSTs get 503")
    parser.add_argument("--replay-log", default=None, metavar="PATH",
                        help="append-only JSONL log of every accepted job and "
                             "outcome; replayable to byte-identical releases")
    parser.add_argument("--data-root", default=None, metavar="DIR",
                        help="allow jobs to reference server-side CSVs via "
                             "{'path': ...} resolved under this directory "
                             "(inline CSV is always allowed)")
    parser.add_argument("--service-cache-bytes", type=int, default=None,
                        metavar="BYTES",
                        help="bytes all tenants' warm stores may hold together "
                             "and the most any one store may budget (default "
                             "1 GiB); past it, or past 16 stores, the least "
                             "recently used stores outside the running batch "
                             "are dropped")
    return parser


def _arm_signal_conversion() -> Callable[[], None]:
    """Make SIGINT and SIGTERM raise ``KeyboardInterrupt`` until restored.

    Returns a callable that reinstates the previous handlers.
    """

    def _raise(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt(f"terminated by signal {signum}")

    previous = {
        sig: signal.signal(sig, _raise) for sig in (signal.SIGINT, signal.SIGTERM)
    }

    def restore() -> None:
        for sig, handler in previous.items():
            signal.signal(sig, handler)

    return restore


def _serve(argv: list[str]) -> int:
    from .service import AnonymizationService, create_server

    parser = build_serve_parser()
    args = parser.parse_args(argv)
    try:
        service = AnonymizationService(
            queue_workers=args.queue_workers,
            queue_depth=args.queue_depth,
            replay_path=args.replay_log,
            data_root=args.data_root,
            service_cache_bytes=args.service_cache_bytes,
        )
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server = create_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    # Flushed line with the bound port so wrappers (CI smoke, benchmarks)
    # can parse it even when --port 0 asked for an ephemeral one.
    print(f"repro service listening on http://{host}:{port}", flush=True)
    # Install our own SIGINT/SIGTERM handlers: shells start background
    # children (`repro serve ... &`) with SIGINT ignored, and SIGTERM's
    # default disposition would skip the shutdown path below entirely.
    restore = _arm_signal_conversion()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        restore()
        server.shutdown()
        server.server_close()
        service.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # The anonymize parser has two positionals; dispatch the service
        # subcommand before it so `repro serve --port N` never parses as
        # input/output paths.
        return _serve(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.retries < 0:
        parser.error("--retries must be >= 0")
    if args.config is None:
        if args.workers != 1:
            parser.error("--workers requires --config with a JSON list of jobs")
        if args.on_error is not None:
            parser.error("--on-error requires --config with a JSON list of jobs")
        if args.retries:
            parser.error("--retries requires --config with a JSON list of jobs")
        if not args.qi and not args.numeric_qi:
            parser.error("declare at least one --qi or --numeric-qi (or use --config)")
        if (args.l or args.t) and not args.sensitive:
            parser.error("--l/--t require --sensitive")
    else:
        _reject_job_flags_with_config(parser, args)

    try:
        if args.config is not None:
            configs, is_batch = _load_configs(args)
            if not is_batch and args.workers != 1:
                # Silently running one job on one thread would contradict
                # what the flag promises; say what shape the file needs.
                raise ConfigError(
                    "--workers applies to batch mode: --config must hold a "
                    "JSON list of jobs, got a single job object"
                )
            if not is_batch and args.on_error is not None:
                raise ConfigError(
                    "--on-error applies to batch mode: --config must hold a "
                    "JSON list of jobs, got a single job object"
                )
            if not is_batch and args.retries:
                raise ConfigError(
                    "--retries applies to batch mode: --config must hold a "
                    "JSON list of jobs, got a single job object"
                )
        else:
            configs, is_batch = [config_from_args(args)], False
        categorical, numeric = _column_roles(configs)
        table = read_csv(args.input, categorical=categorical, numeric=numeric)

        if is_batch:
            results = run_batch(
                configs,
                table,
                workers=args.workers,
                on_error=args.on_error or "raise",
                job_timeout=args.job_timeout,
                retries=args.retries,
            )
            output = Path(args.output)
            failed = 0
            for index, result in enumerate(results, start=1):
                if isinstance(result, JobFailure):
                    # No numbered output for a failed job: a partial or
                    # stale file would read as a published release.
                    failed += 1
                    print(_failure_summary(index, result), file=sys.stderr)
                    continue
                write_csv(result.release.table, _numbered_output(output, index))
            if args.report:
                payload = [_report_payload(result) for result in results]
                print(json.dumps(payload, indent=2), file=sys.stderr)
            return 1 if failed else 0

        result = run(configs[0], table)
        write_csv(result.release.table, args.output)
        if args.report:
            print(json.dumps(_report_payload(result), indent=2), file=sys.stderr)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy names the failed allocation; a bare MemoryError says nothing.
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
