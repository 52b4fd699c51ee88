"""Tracing launcher: run the daemon or the solver child with layer spans.

    python perfbench/traced.py <spans.json> serve <network.json>
    python perfbench/traced.py <spans.json> solve <network.json> <iterations> <phi_out.npy>

Before the program starts, the public functions of each layer are wrapped
under the names their callers look them up by (``repro.serve.session.
apply_delta``, ``repro.core.context.solve_traffic``, ...).  Nothing in
``src/`` changes.  Spans stay in memory -- name, start, end, parent and
the serve batch they belong to -- and are written once, at exit, as a
chrome trace (``traceEvents``) with the harness's extra records beside
it under ``perfbench``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_clock = time.monotonic


class Tracer:
    """In-memory spans with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []  # (id, parent, name, start, end, batch)
        self.counts: Dict[str, float] = defaultdict(float)
        self.queue_wait_ms: List[float] = []
        self.batch_sizes: List[int] = []
        self.batch_returns: Dict[int, float] = {}  # publish seq -> return time
        self.enqueued: Dict[int, float] = {}  # id(event) -> enqueued_at
        self.batch: Optional[int] = None
        self._local = threading.local()
        self._next = 0
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, args, kwargs, rename=None):
        stack = self._stack()
        with self._lock:
            self._next += 1
            span_id = self._next
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
        if rename is not None:
            name = rename(result)
        self.spans.append((span_id, parent, name, start, end, self.batch))
        return result

    def dump(self, path: str) -> None:
        events = [
            {"name": name, "ph": "X", "ts": start * 1e6,
             "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
             "args": {"id": span_id, "parent": parent, "batch": batch}}
            for span_id, parent, name, start, end, batch in self.spans
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "perfbench": {
                "counts": dict(self.counts),
                "queue_wait_ms": self.queue_wait_ms,
                "batch_sizes": self.batch_sizes,
                "batch_returns": {str(k): v for k, v in self.batch_returns.items()},
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


TRACER = Tracer()


def wrap(owner: Any, attr: str, name: str, rename=None, count=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if count is not None:
            count(args, kwargs)
        return TRACER.span(name, original, args, kwargs, rename)

    setattr(owner, attr, traced)


def _install_solver_layers() -> None:
    import repro.core.context as context
    import repro.parallel.backend as backend
    from repro.core.gradient import GradientAlgorithm
    from repro.core.state import ModelState

    def count_flow(_args, _kwargs):
        TRACER.counts["routing.flow.calls"] += 1

    # eqs. (3)-(5): the flow-forecast wave and the usage it implies
    wrap(context, "solve_traffic", "routing.flow", count=count_flow)
    wrap(context, "resource_usage", "routing.flow")
    wrap(context, "evaluate_cost", "marginals.cost")
    # eqs. (9)-(11), (15): the marginal-cost wave
    wrap(context, "link_cost_derivative", "marginals.deriv")
    wrap(context, "all_marginal_costs", "marginals.deriv")
    wrap(ModelState, "edge_marginals_dense", "marginals.deriv")
    # eq. (18) and eqs. (14)-(17)
    wrap(backend, "compute_all_blocked_sets", "blocking")
    wrap(backend, "apply_gamma_batch", "gradient.gamma")
    wrap(GradientAlgorithm, "run", "gradient.run")

    # the first ModelState.of per model compiles it; later calls are hits
    of = ModelState.__dict__["of"].__func__

    def traced_of(cls, ext):
        if getattr(ext, "_model_state", None) is None:
            return TRACER.span("state.compile", of, (cls, ext), {})
        return of(cls, ext)

    ModelState.of = classmethod(traced_of)


def _install_serve_layers() -> None:
    import repro.online.rebuild as rebuild
    import repro.serve.batching as batching
    import repro.serve.session as session
    from repro.core.gradient import GradientAlgorithm
    from repro.parallel.backend import ExecutionBackend
    from repro.validate import InvariantChecker

    for module in (session, batching):
        wrap(module, "compile_event", "delta.compile")
    wrap(session, "merge_scalar_run", "batching.merge")
    wrap(rebuild, "apply_scalar_overrides", "rebuild.overrides",
         count=lambda a, k: _bump("rebuild.overrides.calls"))
    wrap(session, "apply_delta", "delta.apply", rename=_classify_delta)
    wrap(session, "carry_routing", "delta.carry")
    wrap(GradientAlgorithm, "refresh", "gradient.refresh")
    wrap(session, "emergency_shed", "rebuild.shed")
    wrap(ExecutionBackend, "advance", "backend.refine",
         count=lambda a, k: _bump("backend.refine.iterations", a[3]))
    wrap(session, "build_solution", "solution.build")
    wrap(InvariantChecker, "check_solution", "validate.audit")
    wrap(session, "feasibility_report", "routing.feasibility")
    wrap(session, "build_extended_network", "transform.build")
    wrap(session.ServeSession, "warmup", "session.warmup")

    process_batch = session.ServeSession.process_batch

    def traced_batch(self, events):
        entered = _clock()
        TRACER.batch = (TRACER.batch or 0) + 1
        for event in events:
            enqueued = TRACER.enqueued.pop(id(event), None)
            if enqueued:
                TRACER.queue_wait_ms.append((entered - enqueued) * 1e3)
        TRACER.batch_sizes.append(len(events))
        TRACER.counts["session.events"] += len(events)
        outcomes, snapshot = TRACER.span(
            "session.batch", process_batch, (self, events), {}
        )
        TRACER.counts["session.accepted"] += sum(o.accepted for o in outcomes)
        TRACER.batch_returns[snapshot.seq] = _clock()
        return outcomes, snapshot

    session.ServeSession.process_batch = traced_batch

    collect = batching.BatchQueue.collect

    async def traced_collect(self, window, max_batch):
        batch = await collect(self, window, max_batch)
        for pending in batch:
            TRACER.enqueued[id(pending.event)] = pending.enqueued_at
        return batch

    batching.BatchQueue.collect = traced_collect


def _bump(key: str, amount: float = 1) -> None:
    TRACER.counts[key] += amount


def _classify_delta(applied) -> str:
    kind = "structural" if applied.structural else "scalar"
    TRACER.counts[f"delta.{kind}.count"] += 1
    TRACER.counts["delta.events"] += len(applied.delta.event) if isinstance(
        getattr(applied.delta, "event", None), tuple) else 1
    return f"delta.apply_{kind}"


def main(argv: List[str]) -> int:
    spans_out, program, *rest = argv
    _install_solver_layers()
    if program == "serve":
        _install_serve_layers()
        from repro.cli import main as cli_main

        try:
            return cli_main(["serve", *rest])
        finally:
            TRACER.dump(spans_out)
    if program == "solve":
        import solve_child
        from repro.core import transform

        wrap(transform, "build_extended_network", "transform.build")
        try:
            return solve_child.main(rest)
        finally:
            TRACER.dump(spans_out)
    raise SystemExit(f"unknown program {program!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
