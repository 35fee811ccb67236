"""Deterministic, seedable fault injection for chaos testing.

Production code is instrumented with one *named injection point*:
``evaluate-node``, fired by :meth:`LatticeEvaluator.stats` before each node
evaluation (context: ``names``, ``node``). It fires once per request of
the engine cache store, so its context is the store key: the QI names in
sorted order and the node's levels permuted to match, whatever order the
job lists its QIs in. A ``match`` on a node of a job over ``zipcode, job``
is written ``{"names": ["job", "zipcode"], "node": [job, zipcode]}``.

A :class:`FaultPlan` maps points to trigger specs and is armed either
programmatically (:func:`arm` / the :func:`injection` context manager) or
through the ``REPRO_FAULTS`` environment variable holding the plan as JSON
— the channel that reaches subprocesses started outside our control.

Everything is deterministic: ``at``/``every`` triggers count eligible calls
per point *per process*, and ``rate`` triggers hash ``(seed, point, n)``
with BLAKE2b — the same seed always yields the same failure sequence, which
is what the determinism tests pin.

When nothing is armed, :func:`fire` is a no-op guarded by the
:func:`any_armed` fast path (one module attribute read).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping, Optional, Union

from ..errors import FaultInjectedError

__all__ = [
    "ENV_VAR",
    "POINTS",
    "FaultPlan",
    "any_armed",
    "arm",
    "disarm",
    "fire",
    "fired",
    "injection",
    "reset",
]

ENV_VAR = "REPRO_FAULTS"

#: The injection points compiled into production code.
POINTS = ("evaluate-node",)

#: ``error`` spec values → exception class raised by the point.
_ERROR_CLASSES: dict[str, type[BaseException]] = {
    "fault": FaultInjectedError,
    "runtime": RuntimeError,
    "os": OSError,
    "memory": MemoryError,
}

_SPEC_KEYS = frozenset({"at", "every", "rate", "delay", "error", "match"})


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"invalid fault plan: {message}")


class FaultPlan:
    """A validated, picklable set of fault specs plus the determinism seed.

    ``points`` maps an injection point name to its trigger spec:

    ``at``         fire on exactly the Nth eligible call (1-based, per process)
    ``every``      fire on every Nth eligible call
    ``rate``       fire with probability ``rate``, decided by a seeded hash
                   of the call ordinal (deterministic, not sampled)
    ``delay``      sleep this many seconds when fired; with no ``error`` the
                   point then returns normally (a slow fault)
    ``error``      exception family to raise (default ``"fault"`` →
                   :class:`FaultInjectedError`)
    ``match``      only calls whose context equals these key/value pairs are
                   eligible (and counted)

    With none of ``at``/``every``/``rate`` present, every eligible call fires.
    """

    __slots__ = ("seed", "points")

    def __init__(self, points: Mapping[str, Mapping[str, Any]], seed: int = 0) -> None:
        _require(isinstance(points, Mapping), f"points must be a mapping; got {points!r}")
        self.seed = int(seed)
        self.points: dict[str, dict[str, Any]] = {}
        for point, spec in points.items():
            _require(
                point in POINTS,
                f"unknown injection point {point!r}; known points: {', '.join(POINTS)}",
            )
            _require(
                isinstance(spec, Mapping),
                f"spec for point {point!r} must be a mapping; got {spec!r}",
            )
            unknown = set(spec) - _SPEC_KEYS
            _require(
                not unknown,
                f"unknown spec key(s) {sorted(unknown)} for point {point!r}; "
                f"accepted keys: {sorted(_SPEC_KEYS)}",
            )
            spec = dict(spec)
            for key in ("at", "every"):
                if key in spec:
                    value = spec[key]
                    _require(
                        isinstance(value, int) and not isinstance(value, bool) and value >= 1,
                        f"key {key!r} for point {point!r} must be a positive integer; "
                        f"got {value!r}",
                    )
            if "rate" in spec:
                rate = spec["rate"]
                _require(
                    isinstance(rate, (int, float))
                    and not isinstance(rate, bool)
                    and 0.0 < float(rate) <= 1.0,
                    f"key 'rate' for point {point!r} must be in (0, 1]; got {rate!r}",
                )
            if "delay" in spec:
                delay = spec["delay"]
                _require(
                    isinstance(delay, (int, float))
                    and not isinstance(delay, bool)
                    and float(delay) >= 0.0,
                    f"key 'delay' for point {point!r} must be a non-negative number; "
                    f"got {delay!r}",
                )
            if "error" in spec:
                _require(
                    spec["error"] in _ERROR_CLASSES,
                    f"key 'error' for point {point!r} must be one of "
                    f"{sorted(_ERROR_CLASSES)}; got {spec['error']!r}",
                )
            if "match" in spec:
                _require(
                    isinstance(spec["match"], Mapping),
                    f"key 'match' for point {point!r} must be a mapping; "
                    f"got {spec['match']!r}",
                )
                spec["match"] = dict(spec["match"])
            self.points[point] = spec

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "points": {p: dict(s) for p, s in self.points.items()}}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        _require(
            isinstance(payload, Mapping),
            f"plan must be a JSON object; got {payload!r}",
        )
        extra = set(payload) - {"seed", "points"}
        _require(not extra, f"unknown plan key(s) {sorted(extra)}; accepted: points, seed")
        return cls(payload.get("points", {}), seed=payload.get("seed", 0))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid fault plan: {ENV_VAR} is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(points={sorted(self.points)}, seed={self.seed})"


class _ArmedState:
    """Per-process mutable state behind an armed plan: call counters and the
    log of fired faults, guarded by a lock for concurrent batch workers."""

    __slots__ = ("plan", "lock", "counts", "fired")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.lock = threading.Lock()
        self.counts: dict[str, int] = {}
        self.fired: list[tuple[str, int]] = []


#: Tri-state: _UNSET → consult ``REPRO_FAULTS`` lazily; None → disarmed;
#: _ArmedState → armed.
_UNSET = object()
_STATE: Any = _UNSET


def _resolve_state() -> Optional[_ArmedState]:
    global _STATE
    if _STATE is _UNSET:
        text = os.environ.get(ENV_VAR)
        _STATE = _ArmedState(FaultPlan.from_json(text)) if text else None
    return _STATE


def any_armed() -> bool:
    """Fast guard for hot paths: is any fault plan armed in this process?"""
    return _resolve_state() is not None


def arm(plan: Union[FaultPlan, Mapping[str, Any], str]) -> FaultPlan:
    """Arm ``plan`` for this process, resetting call counters.

    Accepts a :class:`FaultPlan`, a plan dict (``{"points": ..., "seed": ...}``),
    or the same as a JSON string.
    """
    global _STATE
    if isinstance(plan, str):
        plan = FaultPlan.from_json(plan)
    elif not isinstance(plan, FaultPlan):
        plan = FaultPlan.from_dict(plan)
    _STATE = _ArmedState(plan)
    return plan


def disarm() -> None:
    """Disarm fault injection for this process (env plan included)."""
    global _STATE
    _STATE = None


def reset() -> None:
    """Forget any armed/disarmed state so ``REPRO_FAULTS`` is re-read lazily."""
    global _STATE
    _STATE = _UNSET


def fired() -> list[tuple[str, int]]:
    """The ``(point, call_ordinal)`` log of faults fired in this process."""
    state = _resolve_state()
    return list(state.fired) if state is not None else []


@contextmanager
def injection(plan: Union[FaultPlan, Mapping[str, Any], str]) -> Iterator[FaultPlan]:
    """Arm ``plan`` for the duration of the ``with`` block, then restore."""
    global _STATE
    previous = _STATE
    armed = arm(plan)
    try:
        yield armed
    finally:
        _STATE = previous


def _matches(expected: Mapping[str, Any], context: Mapping[str, Any]) -> bool:
    for key, want in expected.items():
        got = context.get(key)
        # JSON plans carry lists where the context holds tuples.
        if isinstance(want, list) and isinstance(got, tuple):
            want = tuple(want)
        if got != want:
            return False
    return True


def _decide(spec: Mapping[str, Any], seed: int, point: str, ordinal: int) -> bool:
    if "at" in spec:
        return ordinal == spec["at"]
    if "every" in spec:
        return ordinal % spec["every"] == 0
    if "rate" in spec:
        # Imported here: only an armed rate spec draws, and loading
        # hashlib (OpenSSL) costs every cold CLI run a few milliseconds.
        import hashlib

        digest = hashlib.blake2b(
            f"{seed}:{point}:{ordinal}".encode(), digest_size=8
        ).digest()
        draw = int.from_bytes(digest, "big") / 2.0**64
        return draw < float(spec["rate"])
    return True


def fire(point: str, **context: Any) -> None:
    """Evaluate injection point ``point``; raise or sleep if its spec fires.

    No-op unless a plan arming ``point`` is active and the call is eligible
    (``match`` filter) and selected (``at``/``every``/``rate``).
    """
    state = _resolve_state()
    if state is None:
        return
    spec = state.plan.points.get(point)
    if spec is None:
        return
    match = spec.get("match")
    if match is not None and not _matches(match, context):
        return
    with state.lock:
        ordinal = state.counts.get(point, 0) + 1
        state.counts[point] = ordinal
    if not _decide(spec, state.plan.seed, point, ordinal):
        return
    with state.lock:
        state.fired.append((point, ordinal))
    delay = spec.get("delay")
    if delay:
        time.sleep(float(delay))
    if delay is not None and "error" not in spec:
        return  # pure slow fault
    error_class = _ERROR_CLASSES[spec.get("error", "fault")]
    raise error_class(f"injected fault at point {point!r} (call #{ordinal})")
