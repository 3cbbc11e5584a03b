"""Architecture registry: look up machine models by name."""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.arch.machine import Architecture
from repro.arch.armsmt import armsmt
from repro.arch.generic import generic_core
from repro.arch.nehalem import nehalem
from repro.arch.power5 import power5
from repro.arch.power7 import power7

_BUILDERS: Dict[str, Callable[[], Architecture]] = {
    "power5": power5,
    "power7": power7,
    "nehalem": nehalem,
    "armsmt": armsmt,
    "generic": generic_core,
}

#: One built instance per registered name, with the builder that made
#: it.  The solver's memos (serial rates, cache-key fingerprints,
#: surrogate models) are keyed by ``id(arch)``, so handing every lookup
#: the same frozen instance lets them hit across sessions instead of
#: growing by one entry set per lookup.
_INSTANCES: Dict[str, Tuple[Callable[[], Architecture], Architecture]] = {}


def register_architecture(name: str, builder: Callable[[], Architecture]) -> None:
    """Register a custom architecture builder under ``name``.

    Raises if the name is taken — shadowing a built-in machine silently
    would make experiment configs ambiguous.
    """
    key = name.lower()
    if key in _BUILDERS:
        raise ValueError(f"architecture {name!r} is already registered")
    _BUILDERS[key] = builder


def get_architecture(name: str) -> Architecture:
    """The named architecture (case-insensitive).

    Each name is built once and the instance is shared by every later
    lookup; the name is rebuilt only if its registered builder changes.
    """
    key = name.lower()
    try:
        builder = _BUILDERS[key]
    except KeyError:
        raise KeyError(
            f"unknown architecture {name!r}; known: {sorted(_BUILDERS)}"
        ) from None
    built = _INSTANCES.get(key)
    if built is None or built[0] is not builder:
        built = _INSTANCES[key] = (builder, builder())
    return built[1]


def list_architectures() -> List[str]:
    return sorted(_BUILDERS)
