"""The curated public surface of the reproduction.

Import from here.  Everything in ``__all__`` is stable API: the network
builders, the solver entry point with its unified
:class:`~repro.options.SolveOptions`, and the commodity-major
:class:`~repro.core.state.ModelState` array core that PR 7 put behind the
hot path.

The old per-commodity object-walk accessors (``solve_traffic``,
``resource_usage``, ``all_marginal_costs``, ``external_inputs``) remain
importable from this module for one release,
but raise :class:`DeprecationWarning` on access: their array-backed
replacements live on :class:`ModelState` (see the migration table in
``docs/api.md``).  The originals stay where they always were
(``repro.core.routing`` / ``repro.core.marginals``) for internal use.
"""

from __future__ import annotations

import warnings
from typing import Any

from repro import (
    BackpressureConfig,
    GradientConfig,
    Instrumentation,
    build_extended_network,
    solve,
)
from repro.core import (
    ExtendedNetwork,
    RoutingState,
    Solution,
    StreamNetwork,
    build_solution,
    initial_routing,
)
from repro.core.state import ModelState
from repro.options import SolveOptions

__all__ = [
    # entry points
    "solve",
    "SolveOptions",
    # model construction
    "StreamNetwork",
    "ExtendedNetwork",
    "build_extended_network",
    "initial_routing",
    "RoutingState",
    "Solution",
    "build_solution",
    # the array core
    "ModelState",
    # configs / instrumentation
    "GradientConfig",
    "BackpressureConfig",
    "Instrumentation",
]

# Legacy hot-state accessors -> (module path, ModelState replacement).
# Importing one of these from repro.api works for one more release but
# warns; the per-commodity object walks they perform are exactly what the
# commodity-major array core replaced.
_DEPRECATED_HOT_STATE = {
    "solve_traffic": (
        "repro.core.routing",
        "ModelState.of(ext).solve_traffic_into(t_flat, phi_flat)",
    ),
    "resource_usage": (
        "repro.core.routing",
        "ModelState.of(ext).resource_usage(phi_flat, t_flat)",
    ),
    "external_inputs": (
        "repro.core.routing",
        "ModelState.of(ext) + repro.core.routing.external_inputs_rows",
    ),
    "all_marginal_costs": (
        "repro.core.marginals",
        "ModelState.of(ext).marginal_costs(phi_flat, dadf, delta)",
    ),
}


def __getattr__(name: str) -> Any:
    if name in _DEPRECATED_HOT_STATE:
        module_path, replacement = _DEPRECATED_HOT_STATE[name]
        warnings.warn(
            f"importing {name!r} from repro.api is deprecated and will be "
            f"removed next release; use {replacement} (or import the legacy "
            f"walk from {module_path} directly)",
            DeprecationWarning,
            stacklevel=2,
        )
        import importlib

        return getattr(importlib.import_module(module_path), name)
    raise AttributeError(f"module 'repro.api' has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(__all__) | set(_DEPRECATED_HOT_STATE))
