"""Lazy package exports (PEP 562) for the ``repro`` package ``__init__``
modules.

Planning a sweep, keying its jobs and probing the result cache need
configs, kernel names and the harness, not the simulator.  A package
that imported every submodule at import time would load numpy and every
machine for each ``repro`` command, so the package ``__init__`` modules
name their exports here instead, and each export is imported from its
submodule the first time it is used: ``from repro import SMAMachine``
still works, and loads ``repro.core.machine`` only then.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType


class _LazyPackage(ModuleType):
    """A package whose exports may share a name with a submodule
    (``repro.kernels.lower_sma`` is a function and a module): loading
    the submodule must not rebind the export to it, as the import
    system does by setting the submodule on its package."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and name in self._exports:
            return
        super().__setattr__(name, value)


def lazy_package(name: str, exports: dict[str, tuple[str, ...]]) -> None:
    """Make the package ``name`` import its exports on first use.

    ``exports`` maps a submodule (``".machine"``) to the names the
    package exports from it.
    """
    package = sys.modules[name]
    where = {
        export: submodule
        for submodule, names in exports.items() for export in names
    }

    def __getattr__(attr: str):
        try:
            submodule = where[attr]
        except KeyError:
            raise AttributeError(
                f"module {name!r} has no attribute {attr!r}"
            ) from None
        value = getattr(import_module(submodule, name), attr)
        vars(package)[attr] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(package)) | set(where))

    package._exports = frozenset(where)
    package.__getattr__ = __getattr__
    package.__dir__ = __dir__
    package.__class__ = _LazyPackage
