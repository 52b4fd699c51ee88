"""Deterministic layered and tandem topologies.

These controlled-shape workloads drive the ablation experiments:

* :func:`tandem_network` -- a single chain of given depth; its longest path
  length is exactly ``depth + 3`` extended hops, making it the right probe
  for the paper's O(L)-per-iteration message-complexity claim (Section 6);
* :func:`layered_network` -- ``depth x width`` grid with full bipartite
  inter-layer wiring: many parallel routes, so routing (not just admission)
  matters;
* :func:`diamond_network` -- the smallest network with a genuine routing
  choice (two disjoint middle paths); used throughout the unit tests because
  its optimum is computable by hand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.commodity import Commodity, StreamNetwork
from repro.core.network import PhysicalNetwork
from repro.core.utility import UtilityFunction

Edge = Tuple[str, str]

__all__ = ["tandem_network", "layered_network", "diamond_network"]


def tandem_network(
    depth: int,
    node_capacity: float = 50.0,
    bandwidth: float = 50.0,
    cost: float = 1.0,
    gain: float = 1.0,
    max_rate: float = 20.0,
    utility: Optional[UtilityFunction] = None,
) -> StreamNetwork:
    """A single commodity through a chain of ``depth`` servers.

    ``source -> h1 -> ... -> h(depth-1) -> sink`` (the source is the first of
    the ``depth`` servers).  Longest path grows linearly with ``depth``.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    physical = PhysicalNetwork()
    names = [f"h{i}" for i in range(depth)]
    for name in names:
        physical.add_server(name, node_capacity)
    physical.add_sink("sink")
    chain = names + ["sink"]
    edges: List[Edge] = []
    for tail, head in zip(chain[:-1], chain[1:]):
        physical.add_link(tail, head, bandwidth)
        edges.append((tail, head))

    potentials: Dict[str, float] = {}
    value = 1.0
    for name in chain:
        potentials[name] = value
        value *= gain
    commodity = Commodity(
        name="tandem",
        source=names[0],
        sink="sink",
        max_rate=max_rate,
        edges=edges,
        potentials=potentials,
        costs={e: cost for e in edges},
        utility=utility,
    )
    network = StreamNetwork(physical=physical)
    network.add_commodity(commodity)
    network.validate()
    return network


def layered_network(
    depth: int,
    width: int,
    node_capacity: float = 40.0,
    bandwidth: float = 40.0,
    cost: float = 1.0,
    gain: float = 1.0,
    max_rate: float = 30.0,
    utility: Optional[UtilityFunction] = None,
) -> StreamNetwork:
    """One commodity through ``depth`` fully-connected layers of ``width`` nodes."""
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be >= 1")
    physical = PhysicalNetwork()
    physical.add_server("src", node_capacity * width)  # source must carry it all
    layers: List[List[str]] = [["src"]]
    for d in range(depth):
        layer = [f"l{d}_{w}" for w in range(width)]
        for name in layer:
            physical.add_server(name, node_capacity)
        layers.append(layer)
    physical.add_sink("sink")
    layers.append(["sink"])

    edges: List[Edge] = []
    for tails, heads in zip(layers[:-1], layers[1:]):
        for tail in tails:
            for head in heads:
                physical.add_link(tail, head, bandwidth)
                edges.append((tail, head))

    potentials: Dict[str, float] = {}
    value = 1.0
    for layer in layers:
        for name in layer:
            potentials[name] = value
        value *= gain
    commodity = Commodity(
        name="layered",
        source="src",
        sink="sink",
        max_rate=max_rate,
        edges=edges,
        potentials=potentials,
        costs={e: cost for e in edges},
        utility=utility,
    )
    network = StreamNetwork(physical=physical)
    network.add_commodity(commodity)
    network.validate()
    return network


def diamond_network(
    top_capacity: float = 10.0,
    bottom_capacity: float = 10.0,
    source_capacity: float = 100.0,
    bandwidth: float = 100.0,
    max_rate: float = 30.0,
    gain_top: float = 1.0,
    gain_bottom: float = 1.0,
    cost: float = 1.0,
    utility: Optional[UtilityFunction] = None,
) -> StreamNetwork:
    """``src -> {top, bottom} -> sink``: the smallest genuine routing choice.

    With unit costs/gains and ample bandwidth, the optimal admitted rate is
    ``min(max_rate, top_capacity + bottom_capacity, source_capacity / cost)``
    (each middle node forwards at most ``capacity / cost``), which the tests
    verify by hand.
    """
    physical = PhysicalNetwork()
    physical.add_server("src", source_capacity)
    physical.add_server("top", top_capacity)
    physical.add_server("bottom", bottom_capacity)
    physical.add_sink("sink")
    edges: List[Edge] = []
    for tail, head in (
        ("src", "top"),
        ("src", "bottom"),
        ("top", "sink"),
        ("bottom", "sink"),
    ):
        physical.add_link(tail, head, bandwidth)
        edges.append((tail, head))

    potentials = {
        "src": 1.0,
        "top": gain_top,
        "bottom": gain_bottom,
        # Property 1 forces both paths to agree at the sink:
        "sink": gain_top * 1.0,
    }
    if abs(gain_top - gain_bottom) > 1e-12:
        raise ValueError(
            "diamond paths must end at a common sink potential; "
            "use equal gain_top and gain_bottom"
        )
    commodity = Commodity(
        name="diamond",
        source="src",
        sink="sink",
        max_rate=max_rate,
        edges=edges,
        potentials=potentials,
        costs={e: cost for e in edges},
        utility=utility,
    )
    network = StreamNetwork(physical=physical)
    network.add_commodity(commodity)
    network.validate()
    return network
