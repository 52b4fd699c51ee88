"""The ``Instrumentation`` hook object threaded through every run loop.

One object bundles the three observability primitives -- a
:class:`~repro.obs.registry.MetricsRegistry`, an
:class:`~repro.obs.events.EventLog`, and phase timers -- behind the small
surface the algorithms call:

``phase(name, **data)``
    Context manager timing one solver phase; feeds both a ``phase`` event
    and the ``phase.<name>.seconds`` histogram.
``iteration(iteration, **data)``
    One sampled trajectory point (recorded at the run's ``record_every``
    cadence); also bumps the ``iterations_recorded`` counter.
``messages(phase, messages, bytes, rounds, **data)``
    Protocol-cost accounting from the distributed runner: total and
    per-phase counters plus round histograms.
``count(name, n)`` / ``gauge(name, value)``
    Raw registry access for anything else.
``event(name, **data)``
    Free-form instant event (online network events, run milestones).

Contract with the algorithms
----------------------------
Instrumentation is **read-only**: hooks receive already-computed values
(from the shared :class:`~repro.core.context.IterationContext`) and never
trigger recomputation, so an instrumented run performs *exactly* the same
floating-point work as a bare one -- iterates stay bit-identical and no
extra flow solves happen (the overhead-guard test pins this).

Every run-loop entry point defaults to :data:`NULL_INSTRUMENTATION`, whose
methods are empty and whose ``phase`` returns a shared no-op span: the
disabled cost is a few dead calls per *iteration* (not per node/edge),
unmeasurable next to the NumPy kernels.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.obs.events import EventLog
from repro.obs.registry import MetricsRegistry
from repro.obs.timers import NULL_SPAN, NullSpan, PhaseSpan

__all__ = ["Instrumentation", "NullInstrumentation", "NULL_INSTRUMENTATION"]


class Instrumentation:
    """Live metrics + events collector for one run (or several, pooled)."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.registry = MetricsRegistry()
        self.events = EventLog()
        self._clock = clock
        self._epoch = clock()

    # -- time ----------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since this instrumentation object was created."""
        return self._clock() - self._epoch

    # -- hooks ----------------------------------------------------------------------
    def phase(self, name: str, **data: Any) -> PhaseSpan:
        """Time a ``with`` block as solver phase ``name``."""
        return PhaseSpan(
            name,
            sink=self._on_span,
            clock=self._clock,
            epoch=self._epoch,
            data=data,
        )

    def _on_span(
        self, name: str, start: float, duration: float, data: Dict[str, Any]
    ) -> None:
        self.events.add("phase", name, ts=start, dur=duration, **data)
        self.registry.histogram(f"phase.{name}.seconds").observe(duration)

    def iteration(self, iteration: int, **data: Any) -> None:
        self.events.add("iteration", "iteration", ts=self.now(), iteration=iteration, **data)
        self.registry.counter("iterations_recorded").inc()

    def messages(
        self,
        phase: str,
        messages: int,
        bytes: int,
        rounds: int,
        **data: Any,
    ) -> None:
        reg = self.registry
        reg.counter("messages_total").inc(messages)
        reg.counter("bytes_total").inc(bytes)
        reg.counter(f"messages.{phase}").inc(messages)
        reg.counter(f"bytes.{phase}").inc(bytes)
        reg.histogram(f"rounds.{phase}").observe(rounds)
        self.events.add(
            "messages",
            phase,
            ts=self.now(),
            messages=messages,
            bytes=bytes,
            rounds=rounds,
            **data,
        )

    def count(self, name: str, amount: float = 1.0) -> None:
        self.registry.counter(name).inc(amount)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def event(self, name: str, **data: Any) -> None:
        self.events.add("event", name, ts=self.now(), **data)

    # -- export ---------------------------------------------------------------------
    def metrics_document(
        self, include_events: bool = True, **extra: Any
    ) -> Dict[str, Any]:
        from repro.obs.export import metrics_document

        return metrics_document(self, include_events=include_events, **extra)

    def export_metrics(self, path, **extra: Any) -> Dict[str, Any]:
        from repro.obs.export import write_metrics_json

        return write_metrics_json(self, path, **extra)

    def export_trace(self, path) -> Dict[str, Any]:
        from repro.obs.export import write_chrome_trace

        return write_chrome_trace(self, path)


class NullInstrumentation:
    """The disabled sink: every hook is a no-op, ``phase`` costs nothing.

    Shares the :class:`Instrumentation` surface by duck typing (no registry
    or event log is ever allocated), so call sites hold one unconditional
    reference instead of branching.
    """

    enabled = False
    registry: Optional[MetricsRegistry] = None
    events: Optional[EventLog] = None

    __slots__ = ()

    def now(self) -> float:
        return 0.0

    def phase(self, name: str, **data: Any) -> NullSpan:
        return NULL_SPAN

    def iteration(self, iteration: int, **data: Any) -> None:
        pass

    def messages(
        self, phase: str, messages: int, bytes: int, rounds: int, **data: Any
    ) -> None:
        pass

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def event(self, name: str, **data: Any) -> None:
        pass


NULL_INSTRUMENTATION = NullInstrumentation()
