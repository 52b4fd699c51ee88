"""Blocked sets ``B_i(j)`` and tag propagation (paper, Section 5, eq. (18)).

The update map ``Gamma`` must not increase a routing fraction ``phi_ik(j)``
from zero when doing so could create a routing loop or route toward a region
whose marginal costs are momentarily inverted.  Following Gallager's
construction, a node ``k`` is *blocked* relative to destination ``j`` if some
routing path from ``k`` to ``j`` contains an **improper link** ``(l, m)``:

* ``phi_lm(j) > 0``                                  (the link carries flow),
* ``g_l(j) * dA/dr_l(j) <= g_m(j) * dA/dr_m(j)``      (it points "uphill"), and
* ``phi_lm(j) >= (eta / t_l(j)) * (delta_lm(j) - dA/dr_l(j))``  (eq. (18):
  the update cannot zero it out this iteration).

Note the node potentials ``g`` in the second condition: the paper states the
test as ``dA/dr_l <= dA/dr_m`` (Gallager's original, where flow is conserved
and the marginal cost per unit decreases monotonically toward the sink).
With shrinkage (``beta < 1``) a unit at the downstream node represents *more*
source data than a unit upstream, so per-local-unit marginals legitimately
rise across shrinking operators and the verbatim test misfires, permanently
blocking optimal edges (we reproduce this failure in the test suite).
Comparing in source-equivalent units -- scaling each node's marginal by its
cumulative gain ``g`` -- restores the monotone potential Gallager's argument
needs and reduces to the paper's condition whenever ``beta == 1``.  Recorded
as deviation D1 in DESIGN.md.

The distributed protocol realises this with a one-bit *tag* piggybacked on
the marginal-cost broadcast: a node tags its broadcast if one of its own
out-links is improper or if any positive-``phi`` downstream neighbour's
broadcast was tagged; hence tags flood upstream.  ``B_i(j)`` is then the set
of neighbours ``k`` with ``phi_ik(j) = 0`` whose broadcast arrived tagged.

The synchronous implementation below computes exactly the tags that protocol
would deliver (the message-passing version lives in
:mod:`repro.simulation.agent` and is tested to agree).
"""

from __future__ import annotations

import numpy as np

from repro.core.routing import RoutingState
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork

__all__ = [
    "improper_links",
    "node_tags",
    "compute_blocked_sets",
    "compute_all_blocked_sets",
    "compute_blocked_sets_scalar",
]


def improper_links(
    ext: ExtendedNetwork,
    j: int,
    routing: RoutingState,
    traffic: np.ndarray,
    dadr: np.ndarray,
    delta: np.ndarray,
    eta: float,
    phi_positive_tol: float = 1e-12,
) -> np.ndarray:
    """Boolean mask over edges: is edge ``e`` an improper link for commodity ``j``?

    Implements the three conditions above, vectorized over the commodity's
    allowed edge array.  A tail with ``t_l(j) = 0`` can always zero the link
    in one update (``Delta = phi``), so such links are never improper.
    """
    phi = routing.phi[j]
    g = ext.node_potentials[j]
    improper = np.zeros(ext.num_edges, dtype=bool)
    edges = ext.commodity_edge_arrays[j]
    if edges.size == 0:
        return improper
    tails = ext.edge_tail[edges]
    heads = ext.edge_head[edges]
    frac = phi[edges]
    t_tail = traffic[j, tails]
    # identical comparisons to the scalar reference, all-at-once
    carries = frac > phi_positive_tol
    uphill = g[tails] * dadr[tails] <= g[heads] * dadr[heads]
    movable = t_tail > 0.0
    threshold = (eta / np.where(movable, t_tail, 1.0)) * (delta[edges] - dadr[tails])
    improper[edges] = carries & uphill & movable & (frac >= threshold)
    return improper


def node_tags(
    ext: ExtendedNetwork,
    j: int,
    routing: RoutingState,
    improper: np.ndarray,
    phi_positive_tol: float = 1e-12,
) -> np.ndarray:
    """Propagate tags upstream: ``tag[l]`` iff some routing path from ``l`` to
    the sink crosses an improper link.

    Runs the commodity's flow-plan blocks backward -- the same reverse
    topological wave the protocol's upstream broadcast performs, one
    ``np.logical_or`` scatter per level instead of a Python loop per edge.
    """
    plan = ext.flow_plans[j]
    phi = routing.phi[j]
    tags = np.zeros(ext.num_nodes, dtype=bool)
    edges, tails, heads, offsets = plan.edges, plan.tails, plan.heads, plan.offsets
    for b in range(len(offsets) - 1, 0, -1):
        s, e = offsets[b - 1], offsets[b]
        ee = edges[s:e]
        contrib = improper[ee] | ((phi[ee] > phi_positive_tol) & tags[heads[s:e]])
        np.logical_or.at(tags, tails[s:e], contrib)
    return tags


def compute_blocked_sets(
    ext: ExtendedNetwork,
    j: int,
    routing: RoutingState,
    traffic: np.ndarray,
    dadr: np.ndarray,
    delta: np.ndarray,
    eta: float,
    phi_zero_tol: float = 1e-12,
) -> np.ndarray:
    """Boolean mask over edges: ``blocked[e]`` iff ``head(e) in B_tail(e)(j)``.

    A blocked edge must keep ``phi = 0`` in the coming update (eq. (14)).
    Only zero-``phi`` edges toward tagged heads are blocked -- edges already
    carrying flow are handled by the reduction rule instead.
    """
    improper = improper_links(ext, j, routing, traffic, dadr, delta, eta)
    tags = node_tags(ext, j, routing, improper)
    phi = routing.phi[j]
    blocked = np.zeros(ext.num_edges, dtype=bool)
    edges = ext.commodity_edge_arrays[j]
    if edges.size:
        blocked[edges] = (phi[edges] <= phi_zero_tol) & tags[ext.edge_head[edges]]
    return blocked


def compute_all_blocked_sets(
    ext: ExtendedNetwork,
    routing: RoutingState,
    traffic: np.ndarray,
    dadr: np.ndarray,
    delta: np.ndarray,
    eta: float,
    phi_zero_tol: float = 1e-12,
    phi_positive_tol: float = 1e-12,
) -> np.ndarray:
    """:func:`compute_blocked_sets` for every commodity in one pass.

    Runs over the allowed cells of :class:`~repro.core.state.ModelState`:
    ``delta`` is the cell-space ``(P,)`` vector of an iteration context and
    the result is a ``(P,)`` bool mask in the same cell order.  The
    improper-link test is one vector comparison over the cells and the tag
    flood one cross-commodity reverse wave over ``ModelState``'s height
    levels, skipping the levels below the first improper edge.  Each cell
    equals the per-commodity function's entry.  ``dadr`` is the stacked
    ``(J, V)`` array.
    """
    state = ModelState.of(ext)
    blocked = np.zeros(state.num_cells, dtype=bool)
    state.blocked_sets_block(
        blocked,
        routing.phi.reshape(-1),
        traffic.reshape(-1),
        dadr.reshape(-1),
        delta,
        eta,
        0,
        ext.num_commodities,
        phi_zero_tol=phi_zero_tol,
        phi_positive_tol=phi_positive_tol,
    )
    return blocked


def compute_blocked_sets_scalar(
    ext: ExtendedNetwork,
    j: int,
    routing: RoutingState,
    traffic: np.ndarray,
    dadr: np.ndarray,
    delta: np.ndarray,
    eta: float,
    phi_zero_tol: float = 1e-12,
    phi_positive_tol: float = 1e-12,
) -> np.ndarray:
    """Reference scalar implementation of :func:`compute_blocked_sets`.

    Pure-Python edge walk, kept as the ground truth the vectorized pipeline
    is asserted identical against in the property tests.
    """
    phi = routing.phi[j]
    g = ext.node_potentials[j]
    view = ext.commodities[j]

    improper = np.zeros(ext.num_edges, dtype=bool)
    for e in view.edge_indices:
        frac = phi[e]
        if frac <= phi_positive_tol:
            continue
        tail = ext.edge_tail[e]
        head = ext.edge_head[e]
        if g[tail] * dadr[tail] > g[head] * dadr[head]:
            continue
        t_tail = traffic[j, tail]
        if t_tail <= 0.0:
            continue  # the update can fully remove this link's fraction
        threshold = (eta / t_tail) * (delta[e] - dadr[tail])
        if frac >= threshold:
            improper[e] = True

    tags = np.zeros(ext.num_nodes, dtype=bool)
    out_lists = ext.commodity_out_edges[j]
    for node in reversed(view.topo_order):
        if node == view.sink:
            continue
        tagged = False
        for e in out_lists[node]:
            if improper[e]:
                tagged = True
                break
            if phi[e] > phi_positive_tol and tags[ext.edge_head[e]]:
                tagged = True
                break
        tags[node] = tagged

    blocked = np.zeros(ext.num_edges, dtype=bool)
    for e in view.edge_indices:
        if phi[e] <= phi_zero_tol and tags[ext.edge_head[e]]:
            blocked[e] = True
    return blocked
