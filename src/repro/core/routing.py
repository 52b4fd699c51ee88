"""Routing variables, flow balance with gains, and resource usage.

Section 4 of the paper reformulates the flow problem with *local routing
fractions* as control variables: ``phi_ik(j)`` is the fraction of node ``i``'s
commodity-``j`` traffic ``t_i(j)`` processed over edge ``(i, k)``.  The
induced traffic solves the gain-aware flow balance (eq. (3))

    ``t_i(j) = r_i(j) + sum_l t_l(j) * phi_li(j) * beta_li(j)``

and the resource usage follows (eqs. (4), (5))

    ``f_ik = sum_j t_i(j) * phi_ik(j) * c_ik(j)``,    ``f_i = sum_k f_ik``.

Because every commodity's allowed subgraph in the extended network is a DAG,
eq. (3) is solved exactly by a single pass in topological order; a sparse
linear solver is provided as an independent cross-check (the paper notes
eq. (3) "has a unique solution of t given r and phi").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork, ExtNodeKind
from repro.exceptions import InfeasibleError, RoutingError

__all__ = [
    "RoutingState",
    "initial_routing",
    "uniform_routing",
    "validate_routing",
    "external_inputs",
    "external_inputs_rows",
    "solve_traffic",
    "solve_traffic_scalar",
    "solve_traffic_linear",
    "commodity_edge_flows",
    "resource_usage",
    "admitted_rates",
    "utilization_profile",
    "FeasibilityReport",
    "feasibility_report",
]


@dataclass
class RoutingState:
    """Routing fractions ``phi`` as a ``(J, E)`` array over extended edges.

    ``phi[j, e]`` is the fraction of the tail node's commodity-``j`` traffic
    sent over extended edge ``e``; rows are restricted to each commodity's
    allowed edge set.
    """

    phi: np.ndarray

    def copy(self) -> "RoutingState":
        return RoutingState(self.phi.copy())

    def admitted_fraction(self, ext: ExtendedNetwork, j: int) -> float:
        """Fraction of commodity ``j``'s offered load that is admitted."""
        return float(self.phi[j, ext.commodities[j].input_edge])


def initial_routing(ext: ExtendedNetwork) -> RoutingState:
    """The paper's natural feasible start: *shed everything*.

    Every dummy source routes its entire offered load over the dummy
    difference link (``a_j = 0``); interior nodes split uniformly over their
    allowed out-edges.  Resource usage of every capacity-constrained node is
    exactly zero, so the start is strictly feasible regardless of capacities,
    and the algorithm then pulls traffic into the network only while the
    marginal utility exceeds the marginal congestion cost.
    """
    return _make_routing(ext, shed_everything=True)


def uniform_routing(ext: ExtendedNetwork) -> RoutingState:
    """Uniform split everywhere, including at the dummy sources.

    Useful for tests and for studying the algorithm from an interior start;
    unlike :func:`initial_routing` it is not guaranteed feasible.
    """
    return _make_routing(ext, shed_everything=False)


def _make_routing(ext: ExtendedNetwork, shed_everything: bool) -> RoutingState:
    phi = np.zeros((ext.num_commodities, ext.num_edges), dtype=float)
    for view in ext.commodities:
        j = view.index
        for node in view.node_indices:
            if node == view.sink:
                continue
            out = ext.commodity_out_edges[j][node]
            if not out:
                continue
            if shed_everything and node == view.dummy:
                phi[j, view.difference_edge] = 1.0
            else:
                phi[j, out] = 1.0 / len(out)
    return RoutingState(phi)


def validate_routing(
    ext: ExtendedNetwork, routing: RoutingState, atol: float = 1e-9
) -> None:
    """Check ``phi``: non-negative, on-graph, rows sum to 1 at non-sink nodes.

    Raises :class:`RoutingError` on violation (paper, Section 4's definition
    of a routing decision).
    """
    phi = routing.phi
    if phi.shape != (ext.num_commodities, ext.num_edges):
        raise RoutingError(
            f"phi has shape {phi.shape}, expected "
            f"{(ext.num_commodities, ext.num_edges)}"
        )
    if np.any(phi < -atol):
        raise RoutingError("phi has negative entries")
    off_graph = phi * (~ext.allowed)
    if np.any(np.abs(off_graph) > atol):
        raise RoutingError("phi routes traffic on edges outside the commodity DAG")
    for view in ext.commodities:
        j = view.index
        for node in view.node_indices:
            if node == view.sink:
                continue
            out = ext.commodity_out_edges[j][node]
            if not out:
                continue
            total = float(phi[j, out].sum())
            if abs(total - 1.0) > max(atol, 1e-7):
                raise RoutingError(
                    f"commodity {view.name!r}: out-fractions at node "
                    f"{ext.nodes[node].name!r} sum to {total}, expected 1"
                )


def external_inputs(ext: ExtendedNetwork) -> np.ndarray:
    """The ``(J, V)`` external input matrix ``r`` of eq. (2):
    ``lambda_j`` at each dummy source, zero elsewhere.

    The matrix is constant per network; a cached template is copied on each
    call (callers -- notably the flow solve -- mutate the result in place).
    """
    template = getattr(ext, "_external_inputs_template", None)
    if template is None:
        template = np.zeros((ext.num_commodities, ext.num_nodes), dtype=float)
        template[np.arange(ext.num_commodities), ext.commodity_dummies] = (
            ext.commodity_max_rates
        )
        ext._external_inputs_template = template
    return template.copy()


def external_inputs_rows(ext: ExtendedNetwork, lo: int, hi: int) -> np.ndarray:
    """Rows ``[lo, hi)`` of :func:`external_inputs` as a read-only view.

    Sharded workers seed their commodity rows from this without copying the
    whole ``(J, V)`` template every dispatch.
    """
    external_inputs(ext)  # ensure the cached template exists
    return ext._external_inputs_template[lo:hi]


def solve_traffic(ext: ExtendedNetwork, routing: RoutingState) -> np.ndarray:
    """Solve the gain-aware flow balance (eq. (3)) for all commodities.

    Returns ``t`` of shape ``(J, V)``: the traffic rate of each commodity at
    each extended node.  Exact in one topological pass per commodity because
    the allowed subgraphs are DAGs.

    Runs as CSR row-sum sweeps over the depth levels of the cached
    :class:`~repro.core.state.ModelState`, which visit the same
    contributions in the same order as :func:`solve_traffic_scalar` -- bit
    identical, pinned by the property tests.
    """
    t = external_inputs(ext)
    ModelState.of(ext).solve_traffic_into(t.reshape(-1), routing.phi.reshape(-1))
    return t


def solve_traffic_scalar(ext: ExtendedNetwork, routing: RoutingState) -> np.ndarray:
    """Reference scalar implementation of :func:`solve_traffic`.

    One pure-Python topological pass per commodity.  Kept as the ground truth
    the vectorized solver is asserted bit-identical against, and for
    small-instance debugging where stepping through the recursion helps.
    """
    phi = routing.phi
    t = external_inputs(ext)
    for view in ext.commodities:
        j = view.index
        tj = t[j]
        out_lists = ext.commodity_out_edges[j]
        for node in view.topo_order:
            ti = tj[node]
            if ti == 0.0:
                continue
            for e in out_lists[node]:
                frac = phi[j, e]
                if frac != 0.0:
                    tj[ext.edge_head[e]] += ti * frac * ext.gain[j, e]
    return t


def solve_traffic_linear(ext: ExtendedNetwork, routing: RoutingState) -> np.ndarray:
    """Independent cross-check of :func:`solve_traffic` via a sparse solve.

    Builds ``(I - P^T) t = r`` per commodity, where ``P[l, i] = phi_li * beta_li``.
    Works for any loop-free routing set; used in tests to validate the
    topological solver.
    """
    phi = routing.phi
    t = np.zeros((ext.num_commodities, ext.num_nodes), dtype=float)
    r = external_inputs(ext)
    n = ext.num_nodes
    for view in ext.commodities:
        j = view.index
        rows, cols, vals = [], [], []
        for e in view.edge_indices:
            weight = phi[j, e] * ext.gain[j, e]
            if weight != 0.0:
                rows.append(ext.edge_head[e])
                cols.append(ext.edge_tail[e])
                vals.append(weight)
        transfer = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        system = sp.eye(n, format="csr") - transfer
        t[j] = spla.spsolve(system.tocsc(), r[j])
    return t


def commodity_edge_flows(
    ext: ExtendedNetwork, routing: RoutingState, traffic: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-commodity, per-edge flow ``y[j, e] = t_tail(j) * phi[j, e]``.

    This is the commodity flow *entering* edge ``e`` measured in tail-node
    units (pre-processing); multiply by ``gain[j, e]`` for the emitted rate.
    """
    if traffic is None:
        traffic = solve_traffic(ext, routing)
    return traffic[:, ext.edge_tail] * routing.phi


def resource_usage(
    ext: ExtendedNetwork, routing: RoutingState, traffic: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Resource usage per edge and per node (eqs. (4) and (5)).

    Returns ``(edge_usage, node_usage)``: ``edge_usage[e] = f_ik`` is the
    tail-node resource consumed by all commodities crossing ``e``;
    ``node_usage[i] = f_i`` sums ``edge_usage`` over ``i``'s out-edges.

    Computed from the allowed cells only (``O(P + E)`` instead of the
    dense ``O(J * E)`` product) with the same per-edge commodity-order
    association -- see :meth:`repro.core.state.ModelState.resource_usage`.
    """
    if traffic is None:
        traffic = solve_traffic(ext, routing)
    return ModelState.of(ext).resource_usage(
        routing.phi.reshape(-1), traffic.reshape(-1)
    )


def admitted_rates(
    ext: ExtendedNetwork, routing: RoutingState, traffic: Optional[np.ndarray] = None
) -> np.ndarray:
    """Admitted rate ``a_j``: the flow over each dummy input link."""
    if traffic is None:
        traffic = solve_traffic(ext, routing)
    rows = getattr(ext, "_commodity_rows", None)
    if rows is None:
        rows = ext._commodity_rows = np.arange(ext.num_commodities)
    return (
        traffic[rows, ext.commodity_dummies]
        * routing.phi[rows, ext.commodity_input_edges]
    )


def utilization_profile(node_usage: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Per-node utilization ``usage / capacity``, safe for edge capacities.

    Infinite-capacity nodes (sinks, dummies) report 0.  Zero-capacity nodes
    (drained or failed hosts) report 0 when idle and ``inf`` when they carry
    any usage, instead of emitting divide-by-zero warnings and ``nan``.
    """
    utilization = np.zeros_like(node_usage, dtype=float)
    positive = capacity > 0.0  # includes inf: usage / inf == 0.0 exactly
    utilization[positive] = node_usage[positive] / capacity[positive]
    if not positive.all():
        drained = ~positive
        utilization[drained] = np.where(node_usage[drained] > 0.0, np.inf, 0.0)
    return utilization


@dataclass
class FeasibilityReport:
    """Capacity-feasibility summary of a routing state."""

    node_usage: np.ndarray
    utilization: np.ndarray  # usage / capacity (0 where capacity is inf)
    max_utilization: float
    violations: List[Tuple[str, float, float]]  # (node name, usage, capacity)

    @property
    def feasible(self) -> bool:
        return not self.violations


def feasibility_report(
    ext: ExtendedNetwork,
    routing: RoutingState,
    traffic: Optional[np.ndarray] = None,
    rtol: float = 1e-9,
) -> FeasibilityReport:
    """Evaluate the capacity constraints (eq. (6)) for a routing state."""
    __, node_usage = resource_usage(ext, routing, traffic)
    finite = np.isfinite(ext.capacity)
    utilization = utilization_profile(node_usage, ext.capacity)
    violations = [
        (ext.nodes[i].name, float(node_usage[i]), float(ext.capacity[i]))
        for i in np.nonzero(finite & (node_usage > ext.capacity * (1.0 + rtol)))[0]
    ]
    max_util = float(utilization.max()) if utilization.size else 0.0
    return FeasibilityReport(node_usage, utilization, max_util, violations)


def require_feasible(ext: ExtendedNetwork, routing: RoutingState) -> None:
    """Raise :class:`InfeasibleError` if the routing violates any capacity."""
    report = feasibility_report(ext, routing)
    if not report.feasible:
        worst = max(report.violations, key=lambda v: v[1] / v[2])
        raise InfeasibleError(
            f"capacity violated at {len(report.violations)} node(s); worst: "
            f"{worst[0]!r} uses {worst[1]:.4g} of {worst[2]:.4g}"
        )


def physical_link_flows(
    ext: ExtendedNetwork, routing: RoutingState, traffic: Optional[np.ndarray] = None
) -> Dict[Tuple[str, str], float]:
    """Map each used physical link to the total data rate crossing it.

    The wire rate of a physical link equals the resource usage of its
    bandwidth node (one bandwidth unit per unit of post-processing flow).
    """
    edge_usage, __ = resource_usage(ext, routing, traffic)
    result: Dict[Tuple[str, str], float] = {}
    for edge in ext.edges:
        if edge.physical_link is not None and ext.nodes[edge.tail].kind is (
            ExtNodeKind.BANDWIDTH
        ):
            result[edge.physical_link] = (
                result.get(edge.physical_link, 0.0) + float(edge_usage[edge.index])
            )
    return result
