"""Workload inputs, made from ``--seed`` alone, and the LP reference.

This module is the only part of the harness that imports ``repro``, and
only to *generate* inputs and to *check* outputs, always outside every
timed region.  The children never learn a scenario name: they get a
network file and a request stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.commodity import StreamNetwork
from repro.core.optimal import solve_optimal
from repro.core.transform import build_extended_network
from repro.io import network_to_dict, save_network
from repro.online.rebuild import apply_event, apply_scalar_overrides
from repro.online.events import (
    CapacityChange,
    CommodityArrival,
    CommodityDeparture,
    DemandChange,
)
from repro.scenarios import (
    SERVE_WEIGHTS,
    ChurnSpec,
    RandomNetworkSpec,
    random_stream_network,
    scenario,
)
from repro.serve.protocol import encode_request, event_to_request

# the serve mix without its failure events: over a few thousand events the
# failures remove links for good and the model decays towards one commodity
SCALAR_WEIGHTS: Dict[str, float] = {
    k: w for k, w in SERVE_WEIGHTS.items() if not k.endswith("_failure")
}

# structural splices and demand drift in equal weights: about two thirds of
# the events change the layout of the model
SESSION_WEIGHTS: Dict[str, float] = {
    "arrival": 1.0,
    "departure": 1.0,
    "demand": 1.0,
}

PRESENT_ODDS = 1.0  # arrival : departure odds per commodity in the streams

SERVE_TOPOLOGY = ("serve-mix-120", 21)  # catalog entry and its pinned seed
SOLVE_TOPOLOGY_SEED = 29  # the scale ladder's pinned seed
# each commodity's demand is scaled by a draw from this range: enough to
# move every solve's trajectory with the seed, little enough that the 95%
# crossing moves by a few percent and stays inside the iteration budget
SOLVE_DEMAND_RANGE = (0.99, 1.01)


def serve_network() -> StreamNetwork:
    name, seed = SERVE_TOPOLOGY
    return scenario(name).topology.build(seed)


def ladder_spec(num_nodes: int, num_commodities: int) -> RandomNetworkSpec:
    """The scale-ladder rung family (``benchmarks/bench_scale_ladder.py``):
    layer width scaled so per-commodity density stays flat."""
    width = max(3, num_nodes // (num_commodities * 4))
    return RandomNetworkSpec(
        num_nodes=num_nodes,
        num_commodities=num_commodities,
        depth_range=(4, 6),
        layer_width_range=(width, width + 2),
        extra_edge_probability=0.1,
    )


def solve_network(num_nodes: int, num_commodities: int, seed: int) -> StreamNetwork:
    """The pinned ladder rung, its demands perturbed by ``seed``."""
    network = random_stream_network(
        ladder_spec(num_nodes, num_commodities), seed=SOLVE_TOPOLOGY_SEED
    )
    rng = np.random.default_rng(seed)
    return apply_scalar_overrides(network, rates={
        c.name: c.max_rate * float(rng.uniform(*SOLVE_DEMAND_RANGE))
        for c in network.commodities
    })


def write_network(network: StreamNetwork, path: Path) -> Path:
    save_network(network, path)
    return path


@dataclass
class RequestStream:
    events: list
    payloads: List[bytes]


def churn_stream(
    network: StreamNetwork, weights: Dict[str, float], count: int, seed: int
) -> RequestStream:
    """``count`` valid events of the ``weights`` mix, as request lines.

    The stream is stationary however long it runs:

    - a new demand or capacity is the *initial* value times a draw from
      the churn generator's scale ranges;
    - a structural draw is a departure with probability proportional to
      ``present`` and an arrival with probability proportional to
      ``PRESENT_ODDS * absent`` (a birth-death chain that keeps about half
      of the commodities present); an arrival re-admits an absent
      commodity with its initial spec, and the last one never departs.

    The physical topology never changes, so every event is valid against
    the model it reaches without a shadow replay.
    """
    rng = np.random.default_rng(seed)
    spec = ChurnSpec()
    initial = {c.name: c for c in network.commodities}
    servers = network.physical.processing_nodes()
    present = list(initial)
    absent: List[str] = []
    kinds = ["demand", "capacity", "session"]
    probs = np.array([
        weights.get("demand", 0.0),
        weights.get("capacity", 0.0),
        weights.get("arrival", 0.0) + weights.get("departure", 0.0),
    ])
    probs /= probs.sum()
    events = []
    while len(events) < count:
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        if kind == "session":
            leave = len(present) / (len(present) + PRESENT_ODDS * len(absent))
            kind = "departure" if rng.random() < leave else "arrival"
        if kind == "demand":
            name = present[int(rng.integers(len(present)))]
            scale = float(rng.uniform(*spec.rate_scale_range))
            events.append(DemandChange(
                at_iteration=0, commodity=name,
                new_rate=initial[name].max_rate * scale,
            ))
        elif kind == "capacity":
            node = servers[int(rng.integers(len(servers)))]
            scale = float(rng.uniform(*spec.capacity_scale_range))
            events.append(CapacityChange(
                at_iteration=0, node=node.name,
                new_capacity=node.capacity * scale,
            ))
        elif kind == "departure" and len(present) > 1:
            name = present.pop(int(rng.integers(len(present))))
            absent.append(name)
            events.append(CommodityDeparture(at_iteration=0, commodity=name))
        elif kind == "arrival" and absent:
            name = absent.pop(int(rng.integers(len(absent))))
            present.append(name)
            events.append(CommodityArrival(at_iteration=0, commodity=initial[name]))
    payloads = []
    for event in events:
        op, payload = event_to_request(event)
        payloads.append(encode_request(op, **payload))
    return RequestStream(events=events, payloads=payloads)


def replay(
    network: StreamNetwork, events: Sequence, checkpoints: Sequence[int] = ()
) -> Tuple[StreamNetwork, Dict[int, StreamNetwork]]:
    """The model after ``events``, applied the offline way, plus the model
    right after each event index in ``checkpoints``."""
    wanted = set(checkpoints)
    seen: Dict[int, StreamNetwork] = {}
    for index, event in enumerate(events):
        network = apply_event(network, event).network
        if index in wanted:
            seen[index] = network
    return network, seen


def lp_optimum(network: StreamNetwork) -> float:
    """The LP (true optimum) utility of ``network``; never timed."""
    return float(solve_optimal(build_extended_network(network)).utility)


def same_model(a: StreamNetwork, b: StreamNetwork) -> bool:
    return network_to_dict(a) == network_to_dict(b)

