"""Count the knobs of a package, per module.

Three counts, each attributed to the module that defines the knob:

* config keys: the leaves of ``<package>.config.DEFAULT_CONFIG``; a
  section is a dict, and any other value, an empty dict (an open mapping
  such as ``material.damping_overrides``) or a list included, is one key;
* defaulted parameters: the parameters with a default of every callable
  in ``<package>.__all__``; for a class, those of its ``__init__``, its
  public methods and its classmethods; exception classes are left out;
* init fields: the ``__init__`` fields of the dataclasses in ``__all__``.

Usage: ``python tools/knob_count.py [PACKAGE]`` (default ``statorlab``,
which must be importable, e.g. installed or on ``PYTHONPATH``).  Prints
one line per module and the total.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from collections import Counter

COLUMNS = ("config_keys", "defaulted_params", "init_fields")


def config_keys(node) -> int:
    """Leaves of a nested config dict; an empty dict is one leaf."""
    if isinstance(node, dict) and node:
        return sum(config_keys(value) for value in node.values())
    return 1


def defaulted(func) -> int:
    """Parameters of ``func`` that have a default."""
    return sum(p.default is not p.empty
               for p in inspect.signature(func).parameters.values())


def class_callables(cls) -> list:
    """``__init__``, the public methods and the classmethods of ``cls``."""
    found = [cls.__init__] if "__init__" in vars(cls) else []
    for name, attr in vars(cls).items():
        if isinstance(attr, classmethod):
            found.append(attr.__func__)
        elif inspect.isfunction(attr) and not name.startswith("_"):
            found.append(attr)
    return found


def counts(package) -> dict:
    """Module name -> Counter of the three counts."""
    table = {}

    def add(module, column, n):
        table.setdefault(module, Counter())[column] += n

    config = importlib.import_module(f"{package.__name__}.config")
    add(config.__name__, "config_keys", config_keys(config.DEFAULT_CONFIG))
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for func in class_callables(obj):
                add(obj.__module__, "defaulted_params", defaulted(func))
            if dataclasses.is_dataclass(obj):
                add(obj.__module__, "init_fields",
                    sum(f.init for f in dataclasses.fields(obj)))
        elif callable(obj):
            add(obj.__module__, "defaulted_params", defaulted(obj))
    return table


def main(argv=None) -> int:
    package = importlib.import_module((argv or ["statorlab"])[0])
    table = counts(package)
    total = sum(table.values(), Counter())
    width = max(map(len, [*table, "total"]))
    print(f"{'module':<{width}}  " + "  ".join(COLUMNS))
    for name, row in [*sorted(table.items()), ("total", total)]:
        print(f"{name:<{width}}  " + "  ".join(
            f"{row[col]:>{len(col)}}" for col in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
