"""streamflow -- reproduction of Xia, Towsley & Zhang (ICDCS 2007).

*Distributed Resource Management and Admission Control of Stream Processing
Systems with Max Utility.*

Public API tour
---------------
Model building::

    from repro import PhysicalNetwork, Commodity, StreamNetwork, Task

Solving (one-liner)::

    from repro import solve
    solution = solve(stream_network)            # distributed gradient
    optimum = solve(stream_network, method="optimal")   # centralized LP/FW
    result = solve(stream_network, full_result=True)    # RunResult protocol

Observability::

    from repro import Instrumentation, solve
    inst = Instrumentation()
    solution = solve(stream_network, instrumentation=inst)
    inst.export_metrics("metrics.json")   # repro.metrics/1 schema
    inst.export_trace("trace.json")       # chrome://tracing timeline

Algorithm objects (full control + convergence history)::

    from repro import (build_extended_network, GradientAlgorithm,
                       GradientConfig, BackpressureAlgorithm)

See README.md for a quickstart and DESIGN.md for the paper-to-module map.
"""

from __future__ import annotations

import importlib
import warnings
from dataclasses import replace
from typing import TYPE_CHECKING, Any, List, Optional, Union

if TYPE_CHECKING:
    from repro.core.backpressure import BackpressureConfig
    from repro.core.commodity import StreamNetwork
    from repro.core.gradient import GradientConfig
    from repro.obs import Instrumentation
    from repro.options import SolveOptions

__version__ = "1.0.0"

# public name -> the module defining it, imported on first access (PEP 562):
# ``import repro.core.gradient`` loads only what the solver needs, and
# ``from repro import X`` imports just the module that defines ``X``
_EXPORTS = {
    "SolveOptions": "repro.options",
    "Instrumentation": "repro.obs",
    "RunResult": "repro.core.result",
    "RunResultMixin": "repro.core.result",
    "OptimalResult": "repro.core.result",
    "AdmissionController": "repro.core.admission",
    "AlphaFairUtility": "repro.core.utility",
    "BackpressureAlgorithm": "repro.core.backpressure",
    "BackpressureConfig": "repro.core.backpressure",
    "BackpressureResult": "repro.core.backpressure",
    "CappedLinearUtility": "repro.core.utility",
    "Commodity": "repro.core.commodity",
    "CostModel": "repro.core.marginals",
    "ExtendedNetwork": "repro.core.transform",
    "GradientAlgorithm": "repro.core.gradient",
    "GradientConfig": "repro.core.gradient",
    "GradientResult": "repro.core.gradient",
    "InverseBarrier": "repro.core.penalty",
    "IterationContext": "repro.core.context",
    "LinearUtility": "repro.core.utility",
    "Link": "repro.core.network",
    "LogBarrier": "repro.core.penalty",
    "LogUtility": "repro.core.utility",
    "Node": "repro.core.network",
    "NodeKind": "repro.core.network",
    "PhysicalNetwork": "repro.core.network",
    "RoutingState": "repro.core.routing",
    "Solution": "repro.core.solution",
    "SqrtUtility": "repro.core.utility",
    "StreamNetwork": "repro.core.commodity",
    "Task": "repro.core.commodity",
    "build_extended_network": "repro.core.transform",
    "solve_concave": "repro.core.optimal",
    "solve_lp": "repro.core.optimal",
    "solve_optimal": "repro.core.optimal",
    **{
        name: "repro.exceptions"
        for name in (
            "StreamFlowError",
            "ModelError",
            "ValidationError",
            "TransformError",
            "RoutingError",
            "InfeasibleError",
            "ConvergenceError",
            "SolverError",
            "SimulationError",
        )
    },
}

__all__ = ["solve", *_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))


SOLVE_METHODS = ("gradient", "optimal", "backpressure", "distributed")

# legacy keyword spellings accepted (with a DeprecationWarning) by solve();
# each maps onto a field of the method's config class
_LEGACY_GRADIENT_KEYS = (
    "eta",
    "max_iterations",
    "tolerance",
    "patience",
    "use_blocking",
    "record_every",
    "adaptive_eta",
    "eps",
)
_LEGACY_BACKPRESSURE_KEYS = (
    "buffer_cap",
    "slot_length",
    "max_iterations",
    "record_every",
)


def _coerce_config(method: str, config, legacy: dict):
    """Resolve the uniform ``config=`` argument (plus deprecated kwargs)."""
    from repro.core.backpressure import BackpressureConfig
    from repro.core.gradient import GradientConfig
    from repro.core.marginals import CostModel

    cls = BackpressureConfig if method == "backpressure" else GradientConfig
    allowed = (
        _LEGACY_BACKPRESSURE_KEYS
        if method == "backpressure"
        else _LEGACY_GRADIENT_KEYS
    )
    if legacy:
        unknown = sorted(set(legacy) - set(allowed))
        if unknown:
            raise TypeError(
                f"solve() got unexpected keyword arguments {unknown} "
                f"for method {method!r}"
            )
        warnings.warn(
            f"passing {sorted(legacy)} to solve() directly is deprecated; "
            f"pass config={cls.__name__}(...) instead",
            DeprecationWarning,
            stacklevel=3,
        )
        fields = dict(legacy)
        eps = fields.pop("eps", None)
        if eps is not None:
            fields["cost_model"] = CostModel(eps=eps)
        config = replace(config, **fields) if config is not None else cls(**fields)
    if config is not None and not isinstance(config, cls):
        raise TypeError(
            f"method {method!r} takes a {cls.__name__}, "
            f"got {type(config).__name__}"
        )
    return config if config is not None else cls()


def solve(
    stream_network: StreamNetwork,
    method: Optional[str] = None,
    config: Optional[Union[GradientConfig, BackpressureConfig]] = None,
    instrumentation: Optional[Instrumentation] = None,
    full_result: Optional[bool] = None,
    staleness: Optional[int] = None,
    execution: Optional[str] = None,
    validate: Union[bool, str, None] = None,
    options: Optional[SolveOptions] = None,
    **legacy,
):
    """Solve the joint admission/routing/allocation problem for a model.

    Parameters
    ----------
    stream_network:
        The validated problem instance.
    options:
        A single frozen :class:`SolveOptions` carrying every knob below.
        This is the preferred spelling; the individual keyword arguments
        are retained as deprecated aliases for it (one release) and may
        not be combined with ``options=``.  See the migration table in
        docs/api.md.
    method:
        ``"gradient"`` -- the paper's distributed algorithm, synchronous
        engine (default);
        ``"distributed"`` -- the same algorithm executed as an actual
        message-passing protocol (bit-identical iterates, plus
        message/byte/round accounting);
        ``"optimal"`` -- the centralized LP / Frank-Wolfe optimum;
        ``"backpressure"`` -- the baseline of [6] (solution at its final
        time-averaged rates; no routing state).
    config:
        One optional config object, uniform across methods: a
        :class:`GradientConfig` for ``"gradient"``/``"distributed"``, a
        :class:`BackpressureConfig` for ``"backpressure"``; ``"optimal"``
        takes none.  (Per-parameter keyword arguments such as ``eta=`` are
        deprecated aliases that still work but warn.)
    instrumentation:
        Optional :class:`repro.obs.Instrumentation` hook collecting phase
        timings, trajectory events, and (distributed mode) message/byte
        counts.  Defaults to a zero-overhead no-op.
    full_result:
        When True, return the full :class:`~repro.core.result.RunResult`
        (trajectory + solution) instead of just the
        :class:`~repro.core.solution.Solution`.  Uniform across methods:
        ``"optimal"`` returns an :class:`OptimalResult` wrapper.
    staleness:
        The freshness bound of the barrier-free engine
        (``method="distributed", execution="async"`` only): a node may
        iterate on neighbour values up to ``staleness`` epochs older than
        its own counter (default
        :data:`repro.simulation.async_engine.DEFAULT_STALENESS`).
    execution:
        Execution model for ``method="distributed"``: ``"sync"`` (and the
        default ``None``) runs the phase-barrier protocol; ``"async"``
        runs the barrier-free event-driven engine
        (:class:`repro.simulation.AsyncGradientRun`) in which agents react
        to individual message deliveries under the bounded-staleness rule.
        Fault injection (delay/loss/duplication) is available on the
        direct :class:`~repro.simulation.AsyncGradientRun` API; ``solve``
        always uses a perfect network.  See docs/async.md.
    validate:
        Audit the result against the paper's invariant catalog
        (:mod:`repro.validate`).  ``True`` attaches a
        :class:`~repro.validate.ValidationReport` to ``result.validation``
        and ``solution.extras["validation"]``; ``"strict"`` additionally
        raises :class:`ValidationError` if any check fails.  The default
        (``False``) runs no checks -- iterates and flow-solve counts are
        unchanged (pinned by tests).  See docs/validation.md.

    Returns
    -------
    Solution or RunResult
        The final solution, or the full result when ``full_result=True``.
    """
    from repro.options import SolveOptions

    explicit = {
        name: value
        for name, value in (
            ("method", method),
            ("config", config),
            ("instrumentation", instrumentation),
            ("full_result", full_result),
            ("staleness", staleness),
            ("execution", execution),
            ("validate", validate),
        )
        if value is not None
    }
    if options is not None:
        if explicit or legacy:
            clash = sorted(explicit) + sorted(legacy)
            raise TypeError(
                f"solve() got both options= and the keyword aliases {clash}; "
                f"fold them into the SolveOptions (options.replace(...))"
            )
        if not isinstance(options, SolveOptions):
            raise TypeError(
                f"options= takes a SolveOptions, got {type(options).__name__}"
            )
        opts = options
    else:
        opts = SolveOptions.from_kwargs(**explicit)
    return _solve_impl(
        stream_network, opts.method, opts.config, opts.instrumentation,
        opts.full_result, legacy,
        staleness=opts.staleness, execution=opts.execution,
        validate=opts.validate,
    )


def _solve_impl(
    stream_network, method, config, instrumentation, full_result, legacy,
    staleness=None, execution=None, validate=False,
):
    if method not in SOLVE_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {SOLVE_METHODS}"
        )
    from repro.core.transform import build_extended_network
    from repro.obs import NULL_INSTRUMENTATION

    inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
    ext = build_extended_network(stream_network)

    if execution is not None:
        if execution not in ("sync", "async"):
            raise ValueError(
                f"unknown execution {execution!r}; expected 'sync' or 'async'"
            )
        if method != "distributed":
            raise TypeError(
                f"execution= applies only to method='distributed', "
                f"not {method!r}"
            )
    asynchronous = execution == "async"
    if staleness is not None and not asynchronous:
        raise TypeError(
            "staleness= applies only to method='distributed' with "
            "execution='async'; the other engines proceed in lockstep"
        )

    if method == "optimal":
        from repro.core.optimal import solve_optimal
        from repro.core.result import OptimalResult

        if config is not None or legacy:
            raise TypeError("method 'optimal' takes no config")
        with inst.phase("optimal_solve"):
            solution = solve_optimal(ext)
        if inst.enabled:
            inst.gauge("final_utility", solution.utility)
        result = OptimalResult(solution=solution)
    elif method == "backpressure":
        from repro.core.backpressure import BackpressureAlgorithm

        cfg = _coerce_config(method, config, legacy)
        result = BackpressureAlgorithm(ext, cfg).run(
            instrumentation=instrumentation
        )
    else:
        cfg = _coerce_config(method, config, legacy)
        if method == "gradient":
            from repro.core.gradient import GradientAlgorithm

            result = GradientAlgorithm(ext, cfg).run(
                instrumentation=instrumentation
            )
        elif asynchronous:
            from repro.simulation.async_engine import (
                DEFAULT_STALENESS,
                AsyncGradientRun,
            )

            result = AsyncGradientRun(
                ext,
                cfg,
                staleness=(
                    staleness if staleness is not None else DEFAULT_STALENESS
                ),
                instrumentation=instrumentation,
            ).run(cfg.max_iterations, record_every=cfg.record_every)
        else:  # distributed, synchronous phase barriers
            from repro.simulation.runner import DistributedGradientRun

            result = DistributedGradientRun(
                ext, cfg, instrumentation=instrumentation
            ).run(cfg.max_iterations, record_every=cfg.record_every)
    if validate:
        from repro.validate import attach_validation

        attach_validation(result, ext, mode=validate, instrumentation=inst)
    return result if full_result else result.solution
