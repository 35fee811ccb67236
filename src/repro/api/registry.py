"""String-keyed registries: the serialization seam of the declarative API.

Every privacy model and algorithm the declarative API can name is registered
here with the list of constructor parameters that fully describe an
instance. A registered class round-trips through plain dicts::

    >>> from repro.api import model_registry
    >>> spec = {"model": "t-closeness", "t": 0.2, "sensitive": "disease"}
    >>> model = model_registry.from_spec(spec)
    >>> model_registry.to_spec(model)["t"]
    0.2

``from_spec`` validates eagerly — unknown names list the registered ones,
unknown keys are named, and constructor rejections are re-raised as
:class:`~repro.errors.ConfigError` carrying the registry name — so a bad
JSON job fails at parse time, not mid-run.

Three registries ship populated:

* :data:`algorithm_registry` — spec key ``"algorithm"``; everything with the
  standard ``anonymize(table, schema, hierarchies, models)`` signature.
* :data:`model_registry` — spec key ``"model"``; every privacy model whose
  constructor arguments are JSON scalars. (δ-presence needs a live
  population :class:`~repro.core.table.Table` and personalized privacy a
  guarding-node mapping, so those remain library-API-only.)
* :data:`metric_registry` — report metrics by name, computed from a
  :class:`MetricContext` by the executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Mapping, Sequence

from ..errors import ConfigError

__all__ = [
    "Registry",
    "MetricRegistry",
    "MetricContext",
    "algorithm_registry",
    "model_registry",
    "metric_registry",
]

_SCALARS = (bool, int, float, str, type(None))


@dataclass
class _Entry:
    name: str
    path: str  # "module:Class" (a class object: its module and __qualname__)
    params: tuple[str, ...]
    defaults: Mapping[str, Any]
    validate: Callable[[Mapping[str, Any]], None] | None
    resolved: type | None = None

    @property
    def cls(self) -> type:
        """The registered class, imported from :attr:`path` on first use."""
        if self.resolved is None:
            # Threads racing here all bind the same class object.
            module, _, name = self.path.partition(":")
            self.resolved = getattr(import_module(module), name)
        return self.resolved

    def matches(self, kind: type) -> bool:
        """Whether instances of ``kind`` are this entry's, importing nothing."""
        if self.resolved is not None:
            return kind is self.resolved
        return self.path == _path_of(kind)


def _path_of(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


class Registry:
    """Bidirectional name ↔ class mapping with declarative param specs.

    ``params`` double as both constructor keyword names and instance
    attribute names (every registered class stores its arguments verbatim),
    which is what makes ``to_spec``/``from_spec`` symmetric without
    per-class glue code.
    """

    def __init__(self, kind: str, spec_key: str):
        self.kind = kind
        self.spec_key = spec_key
        self._entries: dict[str, _Entry] = {}

    def register(
        self,
        name: str,
        cls: type | str,
        params: Sequence[str] = (),
        defaults: Mapping[str, Any] | None = None,
        validate: Callable[[Mapping[str, Any]], None] | None = None,
    ) -> None:
        """Register ``cls`` under ``name``.

        ``cls`` is a class or its ``"module:Class"`` import path; a path
        is imported the first time a spec names the entry, so registering
        it loads nothing. ``defaults`` marks optional params (omitted from a
        spec, the default applies); all other params are required keys.
        ``validate`` may reject resolved kwargs before construction (e.g. a
        param value that is only reachable through the programmatic API).
        """
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} already registered")
        if isinstance(cls, str):
            if ":" not in cls:
                raise ValueError(f"{self.kind} path {cls!r} is not 'module:Class'")
            path, resolved = cls, None
        else:
            path, resolved = _path_of(cls), cls
        self._entries[name] = _Entry(
            name, path, tuple(params), dict(defaults or {}), validate, resolved
        )

    def names(self) -> list[str]:
        return sorted(self._entries)

    def required(self, name: str) -> tuple[str, ...]:
        """The params a spec for ``name`` must give: those without a default."""
        entry = self._entry(name)
        return tuple(param for param in entry.params if param not in entry.defaults)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def _entry(self, name: str) -> _Entry:
        entry = self._entries.get(name)
        if entry is None:
            raise ConfigError(
                f"unknown {self.kind} {name!r}; registered: {', '.join(self.names())}"
            )
        return entry

    def _entry_for(self, obj: Any) -> _Entry:
        for entry in self._entries.values():
            if entry.matches(type(obj)):
                return entry
        raise ConfigError(
            f"{type(obj).__name__} is not a registered {self.kind}; "
            f"registered: {', '.join(self.names())}"
        )

    def from_spec(self, spec: Mapping[str, Any]) -> Any:
        """Instantiate from a plain dict like ``{"model": "k-anonymity", "k": 5}``."""
        if not isinstance(spec, Mapping):
            raise ConfigError(
                f"a {self.kind} spec must be a mapping with a {self.spec_key!r} "
                f"key, got {type(spec).__name__}"
            )
        if self.spec_key not in spec:
            raise ConfigError(
                f"{self.kind} spec {dict(spec)!r} is missing the {self.spec_key!r} key"
            )
        name = spec[self.spec_key]
        if not isinstance(name, str):
            raise ConfigError(
                f"{self.kind} spec key {self.spec_key!r} must be a name string, "
                f"got {name!r}"
            )
        entry = self._entry(name)
        unknown = sorted(set(spec) - {self.spec_key} - set(entry.params))
        if unknown:
            raise ConfigError(
                f"unknown key {unknown[0]!r} in {self.kind} spec for "
                f"{entry.name!r}; accepted keys: {', '.join(entry.params) or '(none)'}"
            )
        kwargs: dict[str, Any] = {}
        for param in entry.params:
            if param in spec:
                kwargs[param] = spec[param]
            elif param in entry.defaults:
                kwargs[param] = entry.defaults[param]
            else:
                raise ConfigError(
                    f"{self.kind} spec for {entry.name!r} is missing the "
                    f"required key {param!r}"
                )
        if entry.validate is not None:
            entry.validate(kwargs)
        try:
            return entry.cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {self.kind} spec for {entry.name!r}: {exc}") from exc

    def to_spec(self, obj: Any) -> dict[str, Any]:
        """Serialize a registered instance back to a plain JSON-safe dict."""
        entry = self._entry_for(obj)
        spec: dict[str, Any] = {self.spec_key: entry.name}
        for param in entry.params:
            value = getattr(obj, param)
            if not isinstance(value, _SCALARS):
                raise ConfigError(
                    f"{self.kind} {entry.name!r} holds a non-serializable value "
                    f"for {param!r} ({type(value).__name__}); construct it "
                    "through the library API instead of a spec"
                )
            spec[param] = value
        return spec

    def name_of(self, obj: Any) -> str:
        return self._entry_for(obj).name


@dataclass
class MetricContext:
    """Everything a report metric may consume, bundled by the executor."""

    original: Any  # Table
    release: Any  # Release
    hierarchies: Mapping[str, Any]
    sensitive: tuple[str, ...] = ()
    extras: dict = field(default_factory=dict)


class MetricRegistry:
    """Named report metrics: ``name -> fn(MetricContext) -> JSON-able value``."""

    def __init__(self):
        self._metrics: dict[str, Callable[[MetricContext], Any]] = {}

    def register(self, name: str, fn: Callable[[MetricContext], Any]) -> None:
        if name in self._metrics:
            raise ValueError(f"metric {name!r} already registered")
        self._metrics[name] = fn

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def compute(self, name: str, context: MetricContext) -> Any:
        fn = self._metrics.get(name)
        if fn is None:
            raise ConfigError(
                f"unknown metric {name!r}; registered: {', '.join(self.names())}"
            )
        return fn(context)


# -- the stock registries ----------------------------------------------------

algorithm_registry = Registry("algorithm", "algorithm")
model_registry = Registry("privacy model", "model")
metric_registry = MetricRegistry()


def _no_hierarchical_ground(kwargs: Mapping[str, Any]) -> None:
    if kwargs.get("ground_distance") == "hierarchical":
        raise ConfigError(
            "key 'ground_distance' may not be 'hierarchical' in a t-closeness "
            "spec (it needs a live sensitive-attribute Hierarchy); construct "
            "TCloseness programmatically instead"
        )


# Stock entries are import paths: a job imports only the algorithm and
# models it names.
model_registry.register("k-anonymity", "repro.privacy.k_anonymity:KAnonymity", params=("k",))
model_registry.register(
    "distinct-l-diversity",
    "repro.privacy.l_diversity:DistinctLDiversity",
    params=("l", "sensitive"),
)
model_registry.register(
    "entropy-l-diversity",
    "repro.privacy.l_diversity:EntropyLDiversity",
    params=("l", "sensitive"),
)
model_registry.register(
    "recursive-l-diversity",
    "repro.privacy.l_diversity:RecursiveCLDiversity",
    params=("c", "l", "sensitive"),
)
model_registry.register(
    "t-closeness",
    "repro.privacy.t_closeness:TCloseness",
    params=("t", "sensitive", "ground_distance"),
    defaults={"ground_distance": "equal"},
    validate=_no_hierarchical_ground,
)
model_registry.register(
    "alpha-k-anonymity",
    "repro.privacy.alpha_k:AlphaKAnonymity",
    params=("alpha", "k", "sensitive"),
)
model_registry.register(
    "beta-likeness", "repro.privacy.beta_likeness:BetaLikeness", params=("beta", "sensitive")
)
model_registry.register(
    "ke-anonymity", "repro.privacy.ke_anonymity:KEAnonymity", params=("k", "e", "sensitive")
)

algorithm_registry.register(
    "mondrian",
    "repro.algorithms.mondrian:Mondrian",
    params=("mode", "target"),
    defaults={"mode": "strict", "target": None},
)
algorithm_registry.register(
    "datafly",
    "repro.algorithms.datafly:Datafly",
    params=("max_suppression", "heuristic"),
    defaults={"max_suppression": 0.05, "heuristic": "distinct"},
)
algorithm_registry.register(
    "incognito",
    "repro.algorithms.incognito:Incognito",
    params=("max_suppression",),
    defaults={"max_suppression": 0.0},
)
algorithm_registry.register(
    "ola",
    "repro.algorithms.ola:OLA",
    params=("max_suppression",),
    defaults={"max_suppression": 0.05},
)
algorithm_registry.register(
    "flash",
    "repro.algorithms.flash:Flash",
    params=("max_suppression",),
    defaults={"max_suppression": 0.0},
)
algorithm_registry.register(
    "bottom-up",
    "repro.algorithms.bug:BottomUpGeneralization",
    params=("max_suppression",),
    defaults={"max_suppression": 0.0},
)
algorithm_registry.register(
    "tds",
    "repro.algorithms.topdown:TopDownSpecialization",
    params=("target", "max_steps"),
    defaults={"target": None, "max_steps": 10_000},
)
algorithm_registry.register(
    "mdav", "repro.algorithms.microaggregation:MDAVMicroaggregation", params=("k",)
)
algorithm_registry.register(
    "kmember",
    "repro.algorithms.kmember:KMemberClustering",
    params=("k", "sample_candidates", "seed"),
    defaults={"sample_candidates": 64, "seed": 0},
)
algorithm_registry.register(
    "anatomy",
    "repro.algorithms.anatomy:Anatomy",
    params=("l", "seed"),
    defaults={"seed": 0},
)
algorithm_registry.register(
    "slicing",
    "repro.algorithms.slicing:Slicing",
    params=("k", "max_column_width", "seed"),
    defaults={"max_column_width": 2, "seed": 0},
)


# Each stock metric imports its function the first time it is computed.


def _gcp(ctx: MetricContext) -> float:
    from ..metrics.loss import gcp

    return gcp(ctx.original, ctx.release, ctx.hierarchies)


def _precision(ctx: MetricContext) -> float:
    from ..metrics.precision import precision

    return precision(ctx.release, ctx.hierarchies)


def _non_uniform_entropy(ctx: MetricContext) -> float:
    from ..metrics.entropy_loss import non_uniform_entropy

    return non_uniform_entropy(ctx.original, ctx.release, ctx.hierarchies)


def _discernibility(ctx: MetricContext) -> float:
    from ..metrics.discernibility import discernibility_of_release

    return discernibility_of_release(ctx.release)


def _c_avg(ctx: MetricContext) -> float:
    from ..metrics.discernibility import c_avg

    partition = ctx.release.partition()
    # Normalized by the job's requested k (C_AVG's definition); only a job
    # with no k-bearing model falls back to the observed minimum.
    k = ctx.extras.get("target_k") or max(int(ctx.release.equivalence_class_sizes().min()), 1)
    return c_avg(partition, k=int(k))


def _linkage(ctx: MetricContext) -> dict:
    from ..attacks.linkage import linkage_risks

    return linkage_risks(ctx.release)


def _homogeneity(ctx: MetricContext) -> dict:
    if not ctx.sensitive:
        raise ConfigError(
            "metric 'homogeneity' needs a sensitive attribute; declare one "
            "under the 'sensitive' key"
        )
    from ..attacks.attribute import homogeneity_attack

    return homogeneity_attack(ctx.release, ctx.sensitive[0])


metric_registry.register("gcp", _gcp)
metric_registry.register("precision", _precision)
metric_registry.register("non_uniform_entropy", _non_uniform_entropy)
metric_registry.register("discernibility", _discernibility)
metric_registry.register("c_avg", _c_avg)
metric_registry.register("linkage", _linkage)
metric_registry.register("homogeneity", _homogeneity)
