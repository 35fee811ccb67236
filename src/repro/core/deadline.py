"""Cooperative deadlines for job and batch execution.

The executor cannot preempt a running evaluation — everything is in-process
numpy work — so timeouts are *cooperative*: the executor arms a
:class:`Deadline` around each job via :func:`deadline_scope`, and the engine
calls :func:`check_deadline` between node evaluations
(:meth:`LatticeEvaluator.stats`). A job that overruns its budget is
interrupted at the next checkpoint with :class:`~repro.errors.JobTimeoutError`
or :class:`~repro.errors.BatchDeadlineError` depending on which budget
expired.

Every deadline runs on ``time.monotonic()``, so wall-clock steps never
shorten or stretch a budget. The scope is a
:class:`contextvars.ContextVar`, so concurrent jobs on a batch's thread
pool each see only their own deadline.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator, Optional

from ..errors import BatchDeadlineError, ConfigError, ExecutionError, JobTimeoutError

__all__ = [
    "Deadline",
    "check_deadline",
    "check_seconds",
    "current_deadline",
    "deadline_scope",
    "tightest",
]


def check_seconds(key: str, value: Any) -> None:
    """Reject a non-positive or non-finite time budget, naming its key
    (``None`` means no budget)."""
    if value is None:
        return
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ConfigError(
            f"key {key!r} must be a positive number of seconds, got {value!r}"
        )


#: ``kind`` → exception raised when that deadline expires.
_KIND_ERRORS: dict[str, type[ExecutionError]] = {
    "job-timeout": JobTimeoutError,
    "batch-deadline": BatchDeadlineError,
}


class Deadline:
    """One cooperative time budget of ``seconds`` from construction.

    ``kind`` selects the exception raised on expiry and is part of the
    failure taxonomy.
    """

    __slots__ = ("kind", "budget", "_expiry")

    def __init__(self, seconds: float, *, kind: str = "job-timeout") -> None:
        if kind not in _KIND_ERRORS:
            raise ValueError(
                f"deadline kind must be one of {sorted(_KIND_ERRORS)}; got {kind!r}"
            )
        self.kind = kind
        self.budget = float(seconds)
        self._expiry = time.monotonic() + self.budget

    def remaining(self) -> float:
        """Seconds left before expiry (negative once expired)."""
        return self._expiry - time.monotonic()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise the deadline's exception if the budget is spent."""
        if self.expired():
            raise _KIND_ERRORS[self.kind](
                f"cooperative {self.kind.replace('-', ' ')} of "
                f"{self.budget:.6g}s exceeded"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Deadline(kind={self.kind!r}, budget={self.budget:.6g}, "
            f"remaining={self.remaining():.6g})"
        )


def tightest(*deadlines: Optional[Deadline]) -> Optional[Deadline]:
    """The deadline with the least time remaining, ignoring ``None``s."""
    live = [d for d in deadlines if d is not None]
    if not live:
        return None
    return min(live, key=lambda d: d.remaining())


_ACTIVE: ContextVar[Optional[Deadline]] = ContextVar("repro_deadline", default=None)


def current_deadline() -> Optional[Deadline]:
    """The deadline armed for the calling context, if any."""
    return _ACTIVE.get()


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Arm ``deadline`` for the duration of the ``with`` block.

    Passing ``None`` explicitly clears any inherited deadline, so a nested
    unbudgeted task cannot be interrupted by an outer scope it knows nothing
    about.
    """
    token = _ACTIVE.set(deadline)
    try:
        yield deadline
    finally:
        _ACTIVE.reset(token)


def check_deadline() -> None:
    """Checkpoint: raise if the context's armed deadline has expired.

    Called between node evaluations in the engine hot path; one context-var
    read when no deadline is armed.
    """
    deadline = _ACTIVE.get()
    if deadline is not None:
        deadline.check()
