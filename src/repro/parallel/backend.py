"""The gradient engine's execution backend: one serial pass per iteration.

:class:`SerialBackend` runs each iteration of the paper's Section-5
algorithm in process, as one pass over the allowed cells of the network's
:class:`~repro.core.state.ModelState`: :meth:`~SerialBackend.build_context`
solves the flow balance and the derivative chain, and
:meth:`~SerialBackend.step` applies the blocked sets (eq. (18)) and the
update map ``Gamma`` (eqs. (14)-(17)).

The paper's algorithm is distributed across network nodes; that execution
is reproduced by :class:`~repro.simulation.DistributedGradientRun` and the
async engine (:class:`~repro.simulation.AsyncGradientRun`), not by sharding
the central solver's arrays.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

import numpy as np

from repro.core.blocking import compute_all_blocked_sets
from repro.core.context import IterationContext, build_iteration_context
from repro.core.gradient import GradientConfig, apply_gamma_batch
from repro.core.routing import RoutingState
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork
from repro.obs.instrumentation import NULL_INSTRUMENTATION

__all__ = ["ExecutionBackend", "SerialBackend"]


class ExecutionBackend:
    """The multi-iteration loop over a backend's two iteration halves.

    A subclass supplies :meth:`build_context` (the flow solve and
    everything derived from it) and :meth:`step` (one application of the
    update map ``Gamma``).
    """

    def advance(
        self,
        routing: RoutingState,
        context: Optional[IterationContext],
        iterations: int,
        eta: Optional[float] = None,
        instrumentation: Any = None,
    ) -> Tuple[RoutingState, IterationContext]:
        """Run ``iterations`` gradient iterations, returning the final pair.

        One :meth:`step` plus one :meth:`build_context` per iteration: the
        calls :meth:`repro.core.gradient.GradientAlgorithm.run` makes, so
        the iterates are the run loop's, bit for bit.  The serve session's
        refine runs through here.
        """
        if context is None:
            context = self.build_context(routing, instrumentation=instrumentation)
        for _ in range(iterations):
            routing = self.step(
                routing, eta=eta, context=context, instrumentation=instrumentation
            )
            context = None  # let the next context reuse the spent one's memory
            context = self.build_context(routing, instrumentation=instrumentation)
        return routing, context


class SerialBackend(ExecutionBackend):
    """One iteration as one in-process pass over the allowed cells."""

    def __init__(self, ext: ExtendedNetwork, config: GradientConfig) -> None:
        self.ext = ext
        self.config = config

    def build_context(
        self,
        routing: RoutingState,
        instrumentation: Any = None,
        with_derivatives: bool = True,
    ) -> IterationContext:
        return build_iteration_context(
            self.ext,
            routing,
            self.config.cost_model,
            with_derivatives=with_derivatives,
            instrumentation=instrumentation,
        )

    def step(
        self,
        routing: RoutingState,
        eta: Optional[float] = None,
        context: Optional[IterationContext] = None,
        instrumentation: Any = None,
    ) -> RoutingState:
        ext = self.ext
        cfg = self.config
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        if eta is None:
            eta = cfg.eta
        if context is None:
            context = self.build_context(routing, instrumentation=instrumentation)
        new_phi = routing.phi.copy()
        # one pass over the allowed cells: the context's cell-space delta
        # feeds the blocked sets and Gamma, both indexed by the same cells
        plan = ModelState.of(ext).gamma_plan

        blocked: Optional[np.ndarray] = None
        if cfg.use_blocking:
            with inst.phase("blocking"):
                blocked = compute_all_blocked_sets(
                    ext, routing, context.traffic, context.dadr, context.delta, eta
                )
            if not blocked.any():
                # an empty blocked set is indistinguishable from no blocking;
                # let the kernel take its cheaper unblocked path
                blocked = None
        with inst.phase("gamma"):
            apply_gamma_batch(
                new_phi.reshape(-1),
                plan,
                context.traffic.reshape(-1),
                context.delta,
                blocked,
                eta,
                cfg.traffic_tol,
            )

        return RoutingState(new_phi)
