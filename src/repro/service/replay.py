"""Append-only JSONL replay log.

Every accepted job writes one ``accepted`` event (tenant, config, data
spec); every finished job writes one ``completed`` event (status, release
digest). The log is the service's audit trail *and* a deterministic rerun
script: :func:`replay` re-executes each accepted job through the same
:func:`repro.api.run` path and checks the fresh release digest against the
recorded one — byte-identical or it reports a mismatch.

Events are single JSON lines with sorted keys, flushed per write, so a
``tail -f`` of the log is always well-formed and a crash loses at most the
event being written.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Iterator

from ..api import AnonymizationConfig, run
from .data import load_data_spec, table_sha256

__all__ = ["ReplayLog", "read_events", "replay"]


class ReplayLog:
    """Thread-safe appender of replay events (no-op when ``path`` is None)."""

    def __init__(self, path: str | Path | None):
        self.path = None if path is None else Path(path)
        self._lock = threading.Lock()
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.touch()

    def accepted(
        self,
        job_id: str,
        tenant: str,
        config: dict,
        data: dict,
        batch_id: str,
        options: dict | None = None,
    ) -> None:
        self._append(
            {
                "event": "accepted",
                "job_id": job_id,
                "batch_id": batch_id,
                "tenant": tenant,
                "config": config,
                "data": data,
                "options": options or {},
            }
        )

    def completed(
        self,
        job_id: str,
        status: str,
        release_sha256: str | None = None,
        error: str | None = None,
    ) -> None:
        event: dict[str, Any] = {
            "event": "completed",
            "job_id": job_id,
            "status": status,
        }
        if release_sha256 is not None:
            event["release_sha256"] = release_sha256
        if error is not None:
            event["error"] = error
        self._append(event)

    def _append(self, event: dict) -> None:
        if self.path is None:
            return
        line = json.dumps(event, sort_keys=True)
        with self._lock, open(self.path, "a") as handle:
            handle.write(line + "\n")
            handle.flush()


def read_events(path: str | Path) -> Iterator[dict]:
    """Yield replay events in log order, skipping blank lines."""
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def replay(
    path: str | Path, data_root: str | Path | None = None
) -> list[dict[str, Any]]:
    """Re-run every accepted job in the log; report digest agreement.

    Returns one record per accepted job:
    ``{"job_id", "status", "release_sha256", "recorded_sha256", "match"}``,
    plus ``error`` for a job that fails now. A job fails, and the replay
    goes on, also when its recorded config no longer validates (a key this
    version removed) or its data no longer loads. ``match`` is False when
    the log recorded a release digest and the replay fails or publishes
    another one, True when it publishes the recorded digest or the job
    failed both times, and None when there is nothing to compare against
    (the original run never completed, or failed where the replay
    succeeds).
    """
    accepted: list[dict] = []
    recorded: dict[str, dict] = {}
    for event in read_events(path):
        if event["event"] == "accepted":
            accepted.append(event)
        elif event["event"] == "completed":
            recorded[event["job_id"]] = event
    report = []
    for event in accepted:
        prior = recorded.get(event["job_id"], {})
        expected = prior.get("release_sha256")
        entry: dict[str, Any] = {"job_id": event["job_id"], "recorded_sha256": expected}
        try:
            config = AnonymizationConfig.from_dict(event["config"])
            table, _, _ = load_data_spec(event["data"], data_root=data_root)
            result = run(config, table)
        except Exception as exc:  # infeasible jobs are part of the log too
            entry["status"] = "failed"
            entry["error"] = f"{type(exc).__name__}: {exc}"
            if expected is not None:
                entry["match"] = False
            else:
                entry["match"] = prior.get("status") == "failed" or None
        else:
            digest = table_sha256(result.release.table)
            entry["status"] = "ok"
            entry["release_sha256"] = digest
            entry["match"] = None if expected is None else digest == expected
        report.append(entry)
    return report
