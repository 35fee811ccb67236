"""The declarative job description: :class:`AnonymizationConfig`.

A config captures everything :func:`repro.api.run` needs apart from the
data itself — attribute roles, hierarchy builders, privacy-model specs, the
algorithm spec, a suppression budget, and the report metrics — as plain
JSON-safe values. One job written as JSON runs identically through
``run(AnonymizationConfig.from_dict(...))``, the CLI ``--config`` flag, and
(indirectly) the legacy :meth:`~repro.core.anonymizer.Anonymizer.apply`
shim, because all three funnel into the same executor.

Hierarchy specs name a builder instead of carrying a live object::

    {"builder": "auto"}                      # pick per column type (default)
    {"builder": "flat"}                      # one level: value -> "*"
    {"builder": "prefix"}                    # digit-string prefix masking
    {"builder": "interval", "bins": 16}      # uniform numeric intervals
    {"builder": "interval", "cuts": [0, 18, 40, 65, 120]}
    {"builder": "levels", "rows": {"a": ["ab", "*"], "b": ["ab", "*"]}}
    {"builder": "tree", "tree": {"EU": ["fr", "es"], "AS": ["jp"]}}

``flat``/``prefix``/bin-count ``interval`` builders derive the domain from
the table at run time, so one config replays against fresh extracts of the
same shape; ``cuts``/``levels``/``tree`` pin the domain explicitly.
Validation errors always name the offending key.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from numbers import Integral, Real
from typing import Any, Mapping

from ..core.cache import check_cache_bytes
from ..core.deadline import check_seconds
from ..core.hierarchy import Hierarchy, IntervalHierarchy
from ..core.schema import Schema, check_finite
from ..core.table import Table
from ..errors import ConfigError, SchemaError
from .registry import algorithm_registry, metric_registry, model_registry

__all__ = ["AnonymizationConfig", "build_hierarchies", "build_schema"]

_BUILDERS = ("auto", "flat", "prefix", "interval", "levels", "tree")
#: Fields holding a list of column or metric names.
_NAME_LISTS = (
    "quasi_identifiers", "numeric_quasi_identifiers", "sensitive", "drop", "metrics",
)


@dataclass(frozen=True)
class AnonymizationConfig:
    """Declarative, serializable description of one anonymization job.

    Construct directly, or from plain data via :meth:`from_dict` /
    :meth:`from_json`; both validate eagerly and raise
    :class:`~repro.errors.ConfigError` naming the offending key.

    Example (doctested)::

        >>> config = AnonymizationConfig.from_dict({
        ...     "quasi_identifiers": ["zipcode"],
        ...     "models": [{"model": "k-anonymity", "k": 5}],
        ... })
        >>> config.algorithm                     # defaults are filled in
        {'algorithm': 'mondrian'}
        >>> AnonymizationConfig.from_json(config.to_json()) == config
        True
        >>> AnonymizationConfig.from_dict(
        ...     {"quasi_identifiers": ["zipcode"],
        ...      "models": [{"model": "k-anon"}]})  # doctest: +ELLIPSIS
        Traceback (most recent call last):
            ...
        repro.errors.ConfigError: unknown privacy model 'k-anon'; registered: ...
    """

    #: Categorical quasi-identifier columns.
    quasi_identifiers: tuple[str, ...] = ()
    #: Numeric quasi-identifier columns.
    numeric_quasi_identifiers: tuple[str, ...] = ()
    #: Sensitive columns (first one feeds sensitive-attribute metrics).
    sensitive: tuple[str, ...] = ()
    #: Direct identifiers, removed before anonymization.
    drop: tuple[str, ...] = ()
    #: Hierarchy spec per QI; QIs without an entry get ``{"builder": "auto"}``.
    hierarchies: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    #: Privacy-model specs (see :data:`repro.api.model_registry`).
    models: tuple[Mapping[str, Any], ...] = ()
    #: Algorithm spec (see :data:`repro.api.algorithm_registry`).
    algorithm: Mapping[str, Any] = field(
        default_factory=lambda: {"algorithm": "mondrian"}
    )
    #: Suppression budget override; None keeps the algorithm's own default.
    max_suppression: float | None = None
    #: Report metrics computed into the result (see metric registry).
    metrics: tuple[str, ...] = ()
    #: Base bin count for ``auto``/bin-count ``interval`` hierarchies.
    bins: int = 16
    #: Byte budget of the engine cache store behind this job's lattice
    #: evaluator; None keeps the default (256 MiB). The jobs of one table
    #: environment in a batch share that store; a lone ``run`` is a batch
    #: of one, so its store holds exactly this budget.
    cache_bytes: int | None = None
    #: Cooperative per-job time budget in seconds; None means unbounded.
    #: Enforced at node-evaluation checkpoints (engine algorithms), so an
    #: overrunning job is interrupted with
    #: :class:`~repro.errors.JobTimeoutError` at the next node boundary.
    #: In a batch, the tighter of this and ``run_batch(job_timeout=...)``
    #: wins per job.
    job_timeout: float | None = None

    def __post_init__(self):
        self._check_types()
        # Normalize sequence fields to tuples so configs hash/compare sanely
        # even when constructed with lists (e.g. straight from JSON).
        for name in _NAME_LISTS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(
            self, "models", tuple(dict(m) for m in self.models)
        )
        object.__setattr__(self, "algorithm", dict(self.algorithm))
        object.__setattr__(
            self, "hierarchies", {k: dict(v) for k, v in dict(self.hierarchies).items()}
        )
        self.validate()

    # -- validation ----------------------------------------------------------

    def _check_types(self) -> None:
        """Reject a field of the wrong JSON type before it is normalized.

        Normalizing first would turn ``"zip"`` into the columns ``z``,
        ``i``, ``p`` and an integer into a bare ``TypeError``.
        """
        for key in _NAME_LISTS:
            value = getattr(self, key)
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(name, str) for name in value
            ):
                raise ConfigError(f"key {key!r} must be a list of names")
        if not isinstance(self.models, (list, tuple)) or not all(
            isinstance(spec, Mapping) for spec in self.models
        ):
            raise ConfigError("key 'models' must be a list of model objects")
        if not isinstance(self.algorithm, Mapping):
            raise ConfigError("key 'algorithm' must be an algorithm object")
        if not isinstance(self.hierarchies, Mapping) or not all(
            isinstance(spec, Mapping) for spec in self.hierarchies.values()
        ):
            raise ConfigError(
                "key 'hierarchies' must be an object of hierarchy-spec objects"
            )
        if isinstance(self.bins, bool) or not isinstance(self.bins, Integral):
            raise ConfigError(f"key 'bins' must be an integer, got {self.bins!r}")
        if self.max_suppression is not None and (
            isinstance(self.max_suppression, bool)
            or not isinstance(self.max_suppression, Real)
        ):
            raise ConfigError(
                f"key 'max_suppression' must be a number, got {self.max_suppression!r}"
            )

    def validate(self) -> None:
        if not self.quasi_identifiers and not self.numeric_quasi_identifiers:
            raise ConfigError(
                "config needs at least one entry under 'quasi_identifiers' or "
                "'numeric_quasi_identifiers'"
            )
        seen: dict[str, str] = {}
        for key in ("quasi_identifiers", "numeric_quasi_identifiers", "sensitive", "drop"):
            for name in getattr(self, key):
                if name in seen:
                    raise ConfigError(
                        f"column {name!r} appears under both {seen[name]!r} and {key!r}"
                    )
                seen[name] = key
        qi_set = set(self.quasi_identifiers) | set(self.numeric_quasi_identifiers)
        for name, spec in self.hierarchies.items():
            if name not in qi_set:
                raise ConfigError(
                    f"key {name!r} under 'hierarchies' is not a declared quasi-identifier"
                )
            self._validate_hierarchy_spec(name, spec)
        # Model/algorithm specs are built (and discarded) to surface bad
        # names, keys, and parameter values at config-construction time.
        for spec in self.models:
            model_registry.from_spec(spec)
        algorithm = algorithm_registry.from_spec(self.algorithm)
        if self.max_suppression is not None and not hasattr(algorithm, "max_suppression"):
            raise ConfigError(
                f"key 'max_suppression' does not apply to algorithm "
                f"{algorithm_registry.name_of(algorithm)!r} (no suppression "
                "budget); remove the key or pick a budgeted algorithm"
            )
        # Structural needs knowable at config time fail at parse time, not
        # mid-run: MDAV clusters numeric QIs; Anatomy separates exactly one
        # sensitive column.
        algorithm_name = algorithm_registry.name_of(algorithm)
        if algorithm_name == "mdav" and not self.numeric_quasi_identifiers:
            raise ConfigError(
                "algorithm 'mdav' needs at least one entry under "
                "'numeric_quasi_identifiers'"
            )
        if algorithm_name == "anatomy" and len(self.sensitive) != 1:
            raise ConfigError(
                f"algorithm 'anatomy' needs exactly one 'sensitive' column, "
                f"got {len(self.sensitive)}"
            )
        for name in self.metrics:
            if name not in metric_registry:
                raise ConfigError(
                    f"unknown metric {name!r} under 'metrics'; registered: "
                    f"{', '.join(metric_registry.names())}"
                )
        if self.max_suppression is not None and not 0 <= self.max_suppression < 1:
            raise ConfigError(
                f"key 'max_suppression' must lie in [0, 1), got {self.max_suppression}"
            )
        if self.bins < 1:
            raise ConfigError(f"key 'bins' must be >= 1, got {self.bins}")
        if self.cache_bytes is not None:
            # Rejected here, not when the engine is finally built: a bad
            # budget in a queued job file should fail at parse time.
            try:
                check_cache_bytes(self.cache_bytes)
            except ValueError as exc:
                raise ConfigError(f"key 'cache_bytes' {exc}") from None
            if not getattr(type(algorithm), "uses_evaluator", False):
                # Same silent-knob guard as max_suppression above: a memory
                # bound the algorithm can never consume must not validate.
                raise ConfigError(
                    f"key 'cache_bytes' does not apply to algorithm "
                    f"{algorithm_registry.name_of(algorithm)!r} (no lattice "
                    "engine); remove the key or pick a full-domain algorithm"
                )
        check_seconds("job_timeout", self.job_timeout)

    def _validate_hierarchy_spec(self, name: str, spec: Mapping[str, Any]) -> None:
        builder = spec.get("builder")
        if builder not in _BUILDERS:
            raise ConfigError(
                f"hierarchy spec for {name!r} names unknown builder {builder!r}; "
                f"one of: {', '.join(_BUILDERS)}"
            )
        numeric = name in self.numeric_quasi_identifiers
        if builder == "interval" and not numeric:
            raise ConfigError(
                f"hierarchy builder 'interval' for {name!r} needs a numeric QI; "
                "declare it under 'numeric_quasi_identifiers'"
            )
        if builder in ("flat", "prefix", "levels", "tree") and numeric:
            raise ConfigError(
                f"hierarchy builder {builder!r} for {name!r} needs a categorical "
                "QI; numeric QIs take 'interval' (or 'auto')"
            )
        if builder == "levels" and not isinstance(spec.get("rows"), Mapping):
            raise ConfigError(
                f"hierarchy builder 'levels' for {name!r} needs a 'rows' mapping "
                "of ground value -> level labels"
            )
        if builder == "tree" and not isinstance(spec.get("tree"), Mapping):
            raise ConfigError(
                f"hierarchy builder 'tree' for {name!r} needs a 'tree' mapping"
            )
        allowed = {
            "auto": {"builder"},
            "flat": {"builder", "root"},
            "prefix": {"builder"},
            "interval": {"builder", "bins", "cuts", "merge_factor"},
            "levels": {"builder", "rows"},
            "tree": {"builder", "tree", "root"},
        }[builder]
        unknown = sorted(set(spec) - allowed)
        if unknown:
            raise ConfigError(
                f"unknown key {unknown[0]!r} in hierarchy spec for {name!r} "
                f"(builder {builder!r} accepts: {', '.join(sorted(allowed))})"
            )

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-safe dict; ``from_dict`` round-trips it exactly."""
        out = asdict(self)
        for key in _NAME_LISTS:
            out[key] = list(out[key])
        out["models"] = [dict(m) for m in self.models]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnonymizationConfig":
        if not isinstance(data, Mapping):
            raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown key {unknown[0]!r} in config; accepted keys: "
                f"{', '.join(sorted(known))}"
            )
        return cls(**dict(data))

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    @classmethod
    def from_json(cls, text: str) -> "AnonymizationConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


# -- materialization against a concrete table --------------------------------


def build_schema(config: AnonymizationConfig, table: Table) -> Schema:
    """Schema from the config's roles; undeclared columns are insensitive."""
    declared = (
        set(config.quasi_identifiers)
        | set(config.numeric_quasi_identifiers)
        | set(config.sensitive)
        | set(config.drop)
    )
    missing = [name for name in declared if name not in table.column_names]
    if missing:
        raise ConfigError(f"config names column {missing[0]!r} not present in the table")
    return Schema.build(
        quasi_identifiers=config.quasi_identifiers,
        numeric_quasi_identifiers=config.numeric_quasi_identifiers,
        sensitive=config.sensitive,
        identifying=config.drop,
        insensitive=[
            name for name in table.column_names if name not in declared
        ],
    )


def build_hierarchies(
    config: AnonymizationConfig, table: Table, built: dict | None = None
) -> dict:
    """Materialize every QI's hierarchy spec against the concrete table.

    ``built`` maps ``(name, numeric)`` to a hierarchy already built for
    that column and role, and receives the ones built here. Configs that
    agree on the hierarchy specs and ``bins`` (one table environment) pass
    one dict, their cache store's (:meth:`EngineCacheStore.hierarchies
    <repro.core.cache.EngineCacheStore.hierarchies>`), so each column's
    hierarchy is built once per store and table. It is filled with
    ``setdefault``: of two callers racing on one column, both return the
    first one stored.
    """
    if not table.n_rows:
        # Auto hierarchies span the rows' values; zero rows have none.
        raise SchemaError("the table has no rows to anonymize")
    built = {} if built is None else built
    hierarchies: dict = {}
    for numeric, names, build in (
        (False, config.quasi_identifiers, _build_categorical),
        (True, config.numeric_quasi_identifiers, _build_interval),
    ):
        for name in names:
            hierarchy = built.get((name, numeric))
            if hierarchy is None:
                spec = config.hierarchies.get(name, {"builder": "auto"})
                hierarchy = built.setdefault(
                    (name, numeric), build(name, spec, table, config)
                )
            hierarchies[name] = hierarchy
    return hierarchies


def _build_categorical(
    name: str, spec: Mapping[str, Any], table: Table, config: AnonymizationConfig
) -> Hierarchy:
    builder = spec["builder"] if "builder" in spec else "auto"
    # The values rows hold: a row subset keeps its table's category list.
    values = sorted(table.column(name).value_counts(), key=str)
    if builder == "auto":
        return _prefix_or_flat(values)
    if builder == "flat":
        return Hierarchy.flat(values, root=spec.get("root", "*"))
    if builder == "prefix":
        hierarchy = _prefix_hierarchy(values)
        if hierarchy is None:
            raise ConfigError(
                f"hierarchy builder 'prefix' for {name!r} needs fixed-width "
                "digit-string values (e.g. zip codes); use 'flat' or 'levels'"
            )
        return hierarchy
    if builder == "levels":
        try:
            return Hierarchy.from_levels(spec["rows"])
        except Exception as exc:
            raise ConfigError(
                f"hierarchy spec 'rows' for {name!r} is malformed: {exc}"
            ) from exc
    try:
        return Hierarchy.from_tree(spec["tree"], root=spec.get("root", "*"))
    except Exception as exc:
        raise ConfigError(f"hierarchy spec 'tree' for {name!r} is malformed: {exc}") from exc


def _build_interval(
    name: str, spec: Mapping[str, Any], table: Table, config: AnonymizationConfig
) -> IntervalHierarchy:
    merge_factor = int(spec.get("merge_factor", 2))
    if "cuts" in spec:
        try:
            return IntervalHierarchy(list(spec["cuts"]), merge_factor=merge_factor)
        except Exception as exc:
            raise ConfigError(f"hierarchy spec 'cuts' for {name!r} is malformed: {exc}") from exc
    data = table.values(name)
    # The auto cuts span the data; a NaN or inf has no span to cut.
    check_finite(name, data)
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    n_bins = int(spec.get("bins", config.bins))
    return IntervalHierarchy.uniform(
        lo - 0.001 * span, hi + 0.001 * span, n_bins=n_bins, merge_factor=merge_factor
    )


def _prefix_or_flat(values: list) -> Hierarchy:
    """Digit-string domains get prefix-masking levels; others get flat."""
    return _prefix_hierarchy(values) or Hierarchy.flat(values)


def _prefix_hierarchy(values: list) -> Hierarchy | None:
    """Prefix-masking hierarchy for fixed-width digit strings, else None."""
    texts = [str(v) for v in values]
    if not texts:
        return None
    if all(t.isdigit() and len(t) == len(texts[0]) for t in texts) and len(texts[0]) > 1:
        width = len(texts[0])
        rows = {
            v: [str(v)[: width - i] + "*" * i for i in range(1, width)] + ["*"]
            for v in values
        }
        return Hierarchy.from_levels(rows)
    return None
