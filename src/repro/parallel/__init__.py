"""Parallel execution backends for the gradient engine.

See :mod:`repro.parallel.backend` for the backend classes and
``docs/parallelism.md`` for the design: per-commodity sharding over a
thread pool (:class:`ThreadBackend`, zero-copy) or a process pool
(:class:`ParallelBackend`, shared-memory array exchange, optional
bounded-staleness batched dispatch), the determinism contract that keeps
synchronous parallel iterates bit-identical to serial ones, and the
size-aware auto-selection behind ``workers="auto"``.

The names below are imported on first access (PEP 562), and the pool
modules load only when a pool starts: a serial solve never imports
``multiprocessing`` or ``concurrent.futures``.
"""

import importlib
from typing import Any, List

_BACKEND = "repro.parallel.backend"
_EXPORTS = {
    "ExecutionBackend": _BACKEND,
    "SerialBackend": _BACKEND,
    "ThreadBackend": "repro.parallel.threads",
    "ParallelBackend": _BACKEND,
    "resolve_backend": _BACKEND,
    "auto_backend": _BACKEND,
    "available_cpus": _BACKEND,
    "BACKEND_NAMES": _BACKEND,
    "REPRO_BACKEND_ENV": _BACKEND,
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
