"""Core model and algorithms of the ICDCS'07 reproduction.

The names below are imported on first access (PEP 562), so importing one
core module does not load the others: the gradient solver never pays for
the LP solver's ``scipy.optimize``.
"""

import importlib
from typing import Any, List

_EXPORTS = {
    name: f"repro.core.{module}"
    for module, names in {
        "admission": ("AdmissionController", "TokenBucket"),
        "backpressure": (
            "BackpressureAlgorithm",
            "BackpressureConfig",
            "BackpressureResult",
        ),
        "commodity": ("Commodity", "StreamNetwork", "Task", "validate_property1"),
        "context": ("IterationContext", "build_iteration_context"),
        "gradient": ("GradientAlgorithm", "GradientConfig", "GradientResult"),
        "marginals": ("CostModel", "evaluate_cost", "optimality_residual"),
        "network": ("Link", "Node", "NodeKind", "PhysicalNetwork"),
        "optimal": ("solve_concave", "solve_lp", "solve_optimal"),
        "penalty": ("InverseBarrier", "LogBarrier", "QuadraticOverload"),
        "result": ("OptimalResult", "RunResult", "RunResultMixin"),
        "routing": (
            "RoutingState",
            "admitted_rates",
            "feasibility_report",
            "initial_routing",
            "resource_usage",
            "solve_traffic",
        ),
        "solution": ("Solution", "build_solution"),
        "transform": ("ExtendedNetwork", "build_extended_network"),
        "utility": (
            "AlphaFairUtility",
            "CappedLinearUtility",
            "LinearUtility",
            "LogUtility",
            "SqrtUtility",
        ),
    }.items()
    for name in names
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
