"""Public names of a package, imported from their submodules on first access.

A package init maps each submodule to the names it exports and installs the
``__getattr__`` and ``__dir__`` that :func:`attach` returns (PEP 562). The
first access to a name imports only the submodule that defines it and binds
the value in the package, so later accesses are plain attribute lookups and
a job loads only the modules it runs::

    __getattr__, __dir__ = attach(__name__, globals(), {
        ".flash": ("Flash",),
        ".mondrian": ("Mondrian",),
    })

Collision rule: a name that is also the name of one of the package's
submodules cannot be lazy. Importing that submodule from anywhere binds the
package attribute to the module, ``__getattr__`` never runs for it again,
and ``from package import name`` would return the module. Such names are
imported eagerly in the package init instead.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping, Sequence

__all__ = ["attach"]


def attach(
    package: str, namespace: dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` resolving ``exports`` lazily.

    ``exports`` maps a module name, relative to ``package`` when it starts
    with a dot, to the names it defines; ``namespace`` is the package's
    ``globals()``. Concurrent first accesses are safe: the import system
    serializes the submodule's import, and every thread binds the same value.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__
