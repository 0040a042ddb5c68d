"""Package exports that import their submodule on first use (PEP 562).

A command-line verb then compiles and runs only the modules it needs,
while ``from riskforest import X``, ``riskforest.X`` and ``dir()`` work
as they would with eager imports.
"""

from __future__ import annotations

import sys


def load(name: str):
    """Import a module by its full name and return it.

    This goes through ``__import__``, the import statement's own path,
    so ``python -X importtime`` reports the module;
    ``importlib.import_module`` bypasses that report.
    """
    __import__(name)
    return sys.modules[name]


def attach(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the
    public names it defines. A name resolves by importing its submodule
    and is then kept as an ordinary attribute of the package; the
    submodules themselves resolve too.
    """
    module_of = {name: sub for sub, names in exports.items() for name in names}
    all_names = sorted(module_of)

    def __getattr__(name: str):
        if name in exports:
            return load(f"{package}.{name}")
        sub = module_of.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(load(f"{package}.{sub}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(all_names))

    return __getattr__, __dir__, all_names
