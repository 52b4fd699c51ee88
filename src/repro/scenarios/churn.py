"""Churn workloads: seed-deterministic mixed event timelines.

The online subsystem (:mod:`repro.online`) replays
:class:`~repro.online.events.NetworkEvent` timelines against a running
instance; this module generates *long* mixed timelines -- demand drift,
capacity drift, link/node failures, session departures and re-arrivals --
that are guaranteed replayable: every event is validated against a shadow
copy of the evolving network before it is emitted, so a generated trace
never dies halfway through with "unknown commodity" or "event disconnected
every commodity".

Used by the churn soak test (``tests/test_delta.py``), the event-sequence
hypothesis strategy (:func:`repro.validate.strategies.event_sequences`), the
delta-vs-full-rebuild benchmark (``benchmarks/bench_churn.py``), and the
``churn`` demand kind of :class:`repro.scenarios.ScenarioSpec`.
Everything is deterministic given ``(spec, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.commodity import Commodity, StreamNetwork
from repro.exceptions import ModelError
from repro.online.events import (
    CapacityChange,
    CommodityArrival,
    CommodityDeparture,
    DemandChange,
    LinkFailure,
    NetworkEvent,
    NodeFailure,
)
from repro.online.rebuild import apply_event
from repro.scenarios.random_network import RandomNetworkSpec, random_stream_network

__all__ = ["ChurnSpec", "churn_network", "churn_trace"]

# draw order is part of the deterministic contract -- keep this tuple stable
EVENT_KINDS = (
    "demand",
    "capacity",
    "link_failure",
    "node_failure",
    "departure",
    "arrival",
)


@dataclass
class ChurnSpec:
    """Knobs of the churn-trace generator.

    ``weights`` biases the per-slot event-kind draw (missing kinds get
    weight 0); scale ranges are multiplicative against the *current* value,
    so repeated demand/capacity events drift rather than teleport.
    """

    num_events: int = 50
    weights: Dict[str, float] = field(
        default_factory=lambda: {
            "demand": 3.0,
            "capacity": 2.0,
            "link_failure": 1.0,
            "node_failure": 0.5,
            "departure": 1.0,
            "arrival": 1.5,
        }
    )
    rate_scale_range: Tuple[float, float] = (0.5, 1.6)
    capacity_scale_range: Tuple[float, float] = (0.6, 1.4)
    iteration_gap_range: Tuple[int, int] = (5, 15)
    max_attempts_per_event: int = 60

    def __post_init__(self) -> None:
        if self.num_events < 1:
            raise ModelError("num_events must be >= 1")
        unknown = set(self.weights) - set(EVENT_KINDS)
        if unknown:
            raise ModelError(f"unknown event kinds in weights: {sorted(unknown)}")
        if not any(self.weights.get(k, 0.0) > 0 for k in EVENT_KINDS):
            raise ModelError("at least one event kind needs positive weight")


def churn_network(
    num_nodes: int = 30,
    num_commodities: int = 4,
    seed: int = 0,
    **overrides: object,
) -> StreamNetwork:
    """A random instance sized for churn studies.

    More commodities than the Figure-4 default so departures and failures
    leave survivors, and shallow-ish layers so the shadow replay in
    :func:`churn_trace` stays cheap.
    """
    params: Dict[str, object] = dict(
        num_nodes=num_nodes,
        num_commodities=num_commodities,
        depth_range=(3, 5),
        layer_width_range=(2, 4),
    )
    params.update(overrides)
    spec = RandomNetworkSpec(**params)  # type: ignore[arg-type]
    return random_stream_network(spec, seed=seed)


def _draw_candidate(
    kind: str,
    shadow: StreamNetwork,
    pool: List[Commodity],
    at_iteration: int,
    spec: ChurnSpec,
    rng: np.random.Generator,
) -> Optional[NetworkEvent]:
    """One candidate event of ``kind`` against the current shadow network.

    Returns ``None`` when the kind is structurally impossible right now
    (e.g. an arrival with an empty re-arrival pool); the caller redraws.
    """
    if kind == "demand":
        target = shadow.commodities[int(rng.integers(len(shadow.commodities)))]
        scale = float(rng.uniform(*spec.rate_scale_range))
        return DemandChange(
            at_iteration=at_iteration,
            commodity=target.name,
            new_rate=max(target.max_rate * scale, 1e-6),
        )
    if kind == "capacity":
        servers = shadow.physical.processing_nodes()
        node = servers[int(rng.integers(len(servers)))]
        scale = float(rng.uniform(*spec.capacity_scale_range))
        return CapacityChange(
            at_iteration=at_iteration,
            node=node.name,
            new_capacity=max(node.capacity * scale, 1e-6),
        )
    if kind == "link_failure":
        used = sorted({e for c in shadow.commodities for e in c.edges})
        if not used:
            return None
        return LinkFailure(
            at_iteration=at_iteration,
            link=used[int(rng.integers(len(used)))],
        )
    if kind == "node_failure":
        # interior processing nodes only: killing a source always drops its
        # whole commodity, which makes short traces degenerate fast
        sources = {c.source for c in shadow.commodities}
        interior = sorted(
            {n for c in shadow.commodities for n in c.potentials}
            - sources
            - {c.sink for c in shadow.commodities}
        )
        if not interior:
            return None
        return NodeFailure(
            at_iteration=at_iteration,
            node=interior[int(rng.integers(len(interior)))],
        )
    if kind == "departure":
        if len(shadow.commodities) < 2:
            return None  # the model needs at least one commodity
        target = shadow.commodities[int(rng.integers(len(shadow.commodities)))]
        return CommodityDeparture(at_iteration=at_iteration, commodity=target.name)
    if kind == "arrival":
        if not pool:
            return None
        candidate = pool[int(rng.integers(len(pool)))]
        return CommodityArrival(at_iteration=at_iteration, commodity=candidate)
    raise ModelError(f"unknown event kind {kind!r}")


def churn_trace(
    network: StreamNetwork,
    spec: Optional[ChurnSpec] = None,
    seed: int = 0,
) -> List[NetworkEvent]:
    """A replayable mixed event timeline for ``network``.

    Every emitted event has been applied to a shadow copy of the evolving
    network via :func:`repro.online.rebuild.apply_event`, so replaying the
    trace (incrementally or from scratch) is guaranteed not to raise.
    Commodities that leave -- via departure or as failure collateral --
    enter a re-arrival pool; a later ``arrival`` draw offers one of them
    back (it is re-validated against the *current* physical topology, so a
    commodity whose links have since failed simply stays in the pool).
    Event iterations are strictly increasing with gaps drawn from
    ``spec.iteration_gap_range``.
    """
    spec = spec or ChurnSpec()
    rng = np.random.default_rng(seed)
    kinds = [k for k in EVENT_KINDS if spec.weights.get(k, 0.0) > 0]
    probs = np.array([spec.weights[k] for k in kinds], dtype=float)
    probs /= probs.sum()

    shadow = network
    pool: List[Commodity] = []
    events: List[NetworkEvent] = []
    at_iteration = 0
    for _ in range(spec.num_events):
        at_iteration += int(rng.integers(*spec.iteration_gap_range))
        for attempt in range(spec.max_attempts_per_event):
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            candidate = _draw_candidate(
                kind, shadow, pool, at_iteration, spec, rng
            )
            if candidate is None:
                continue
            try:
                result = apply_event(shadow, candidate)
            except ModelError:
                continue  # infeasible against the current shadow; redraw
            departed = [
                c
                for c in shadow.commodities
                if c.name not in {x.name for x in result.network.commodities}
            ]
            pool.extend(departed)
            if isinstance(candidate, CommodityArrival):
                assert candidate.commodity is not None
                pool = [c for c in pool if c.name != candidate.commodity.name]
            shadow = result.network
            events.append(candidate)
            break
        else:
            raise ModelError(
                f"no valid event found after {spec.max_attempts_per_event} "
                f"attempts at slot {len(events)}; loosen the spec"
            )
    return events
