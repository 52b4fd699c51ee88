"""``repro.validate`` -- invariant certificates and the differential oracle.

The subsystem that answers "is this solution actually correct?" with
numbers instead of vibes:

* :class:`InvariantChecker` audits any :class:`~repro.core.solution.Solution`
  or ``RunResult`` against the paper's invariant catalog (conservation,
  capacity, admission, dummy-link accounting, monotonicity, and a
  duality-gap optimality certificate) and returns a structured
  :class:`ValidationReport`;
* :class:`DifferentialOracle` runs two algorithms on the same workload
  and diffs the outcomes under tolerances;
* :mod:`repro.validate.faults` injects known faults and asserts the checker
  catches each one (the ``repro validate --self-test`` CLI);
* :mod:`repro.validate.strategies` is the shared generator layer for the
  property tests and the CI fuzz sweep.

Wired through the stack as ``solve(..., validate=True | "strict")``, the
``repro validate`` CLI subcommand, and ``--validate`` on ``solve`` /
``profile``.  See docs/validation.md.
"""

import importlib
from typing import Any, List

# public name -> defining module, imported on first access (PEP 562): the
# daemon's per-epoch audit needs only ``checks``, not the fault injector
# (which pulls in the LP solver and the scenario generators)
_EXPORTS = {
    name: f"repro.validate.{module}"
    for module, names in {
        "checks": (
            "CHECK_NAMES",
            "CheckResult",
            "InvariantChecker",
            "Tolerances",
            "ValidationReport",
            "attach_validation",
            "solution_flows",
            "solve_traffic_linear",
        ),
        "faults": ("FAULT_NAMES", "SelfTestRecord", "inject_fault", "run_self_test"),
        "oracle": (
            "STALENESS_DRIFT_RTOL",
            "AlgorithmSpec",
            "DifferentialOracle",
            "OracleReport",
            "RebuildOracleReport",
            "RebuildStepReport",
            "calibrated_gradient_config",
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
