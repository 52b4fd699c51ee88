"""The gradient engine's execution backend.

See :mod:`repro.parallel.backend`: :class:`SerialBackend` runs each
iteration as one in-process pass over the model core's allowed cells.

The names below are imported on first access (PEP 562).
"""

import importlib
from typing import Any, List

_BACKEND = "repro.parallel.backend"
_EXPORTS = {
    "ExecutionBackend": _BACKEND,
    "SerialBackend": _BACKEND,
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
