"""Cold-start helpers: lazy package exports and a GC pause for bulk loads.

A ``thetis serve`` start is mostly fixed overhead: importing the
package and decoding the lake, graph and mapping JSON.  Two helpers cut
it without changing what a caller sees:

* :func:`lazy_exports` gives a package ``__init__`` PEP 562 exports, so
  ``from repro.lsh import LSHTuner`` still works but ``import
  repro.lsh.config`` no longer imports the tuner (and through it
  ``repro.eval``).  A lazy ``__init__`` lists its exports twice: in an
  ``if TYPE_CHECKING:`` import block, which type checkers and the
  ``all-mismatch`` lint rule read, and in the table passed here.
* :func:`gc_paused` stops the cyclic collector while a loader decodes
  JSON and builds objects.  Those objects are long-lived containers
  with no cycles to find, yet every few hundred allocations a
  collection rescans all of them: at 2,000 tables that was about half
  of the load time.
"""

from __future__ import annotations

import gc
import importlib
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package ``__init__``.

    ``table`` maps each submodule (relative, e.g. ``".index"``) to the
    names it exports.  The first access to a name imports its
    submodule and caches the value in the package namespace, so later
    accesses are plain attribute reads.  Use as::

        __getattr__, __dir__ = lazy_exports(__name__, {
            ".config": ("LSHConfig", "RECOMMENDED_CONFIG"),
        })
    """
    owners: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    namespace = importlib.import_module(package).__dict__

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(  # lint: disable=foreign-exception
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector disabled.

    The caller's state is restored on every exit path, a raised
    exception included: a collector the caller had disabled stays
    disabled.  Reference counting still frees acyclic garbage; only
    the generational cycle scans pause.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
