"""PEP 562 re-exports for the package facades (DESIGN §16).

A facade keeps one ``{home module: names}`` table and binds ``__all__,
__getattr__, __dir__ = lazy_exports(globals(), _HOMES)``: importing the
package imports none of its halves, the first ``facade.name`` (or ``from
facade import name``) imports that name's home and caches the object in
the facade's namespace, so every later access is a plain attribute.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(namespace: dict, homes: Dict[str, Sequence[str]],
                 ) -> Tuple[List[str], Callable[[str], object],
                            Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the facade whose module
    globals are ``namespace``.  A name whose home is ``<facade>.<name>`` is
    that submodule itself."""
    facade = namespace["__name__"]
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name: str):
        home = home_of.get(name)
        if home is None:
            raise AttributeError(
                f"module {facade!r} has no attribute {name!r}")
        module = importlib.import_module(home)
        value = module if home == f"{facade}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home_of))

    return list(home_of), __getattr__, __dir__
