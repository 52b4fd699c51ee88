"""The networkx-free graph walks of the model build, checked against networkx.

``repro.core.graph.topological_order`` fixes every commodity view's
``topo_order`` -- and with it the row order of the CSR wave plans -- so it
must list the nodes exactly as ``networkx.topological_sort`` did, node for
node, or every committed baseline would drift.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import build_extended_network
from repro.core.graph import reachable, topological_order
from repro.core.network import weakly_connected
from repro.scenarios import RandomNetworkSpec, random_stream_network, scenario, scenario_names

NODES = st.integers(min_value=0, max_value=11)


@st.composite
def dag_edges(draw):
    """Edges of a random DAG, with repeats, in a shuffled insertion order."""
    rank = draw(st.permutations(range(12)))
    pairs = draw(st.lists(st.tuples(NODES, NODES), min_size=1, max_size=40))
    edges = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs if a != b]
    edges += draw(st.lists(st.sampled_from(edges), max_size=8)) if edges else []
    return draw(st.permutations(edges)) if edges else [(0, 1)]


def _digraph(edges) -> nx.DiGraph:
    graph = nx.DiGraph()
    for tail, head in edges:
        graph.add_edge(tail, head)
    return graph


class TestTopologicalOrder:
    @given(dag_edges())
    def test_matches_networkx_node_for_node(self, edges):
        assert topological_order(edges) == list(nx.topological_sort(_digraph(edges)))

    @given(dag_edges(), st.data())
    def test_none_on_a_cycle(self, edges, data):
        # an edge back from any node to one of its ancestors closes a cycle
        tail, head = data.draw(st.sampled_from(edges))
        cyclic = edges + [(head, tail)]
        assert not nx.is_directed_acyclic_graph(_digraph(cyclic))
        assert topological_order(cyclic) is None

    def test_self_loop_is_a_cycle(self):
        assert topological_order([(0, 1), (1, 1)]) is None

    def test_empty(self):
        assert topological_order([]) == []


class TestReachable:
    @given(st.lists(st.tuples(NODES, NODES), min_size=1, max_size=40), st.data())
    def test_matches_descendants(self, edges, data):
        graph = _digraph(edges)
        start = data.draw(st.sampled_from(sorted(graph.nodes)))
        succ = {node: list(graph.successors(node)) for node in graph}
        assert reachable(succ, start) == nx.descendants(graph, start) | {start}

    def test_start_without_out_edges(self):
        assert reachable({}, "a") == {"a"}


class TestWeaklyConnected:
    @given(
        st.lists(NODES, max_size=6),
        st.lists(st.tuples(NODES, NODES), max_size=20),
    )
    def test_matches_networkx(self, nodes, edges):
        graph = nx.DiGraph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        expected = graph.number_of_nodes() > 0 and nx.is_weakly_connected(graph)
        assert weakly_connected(nodes, edges) == expected


def _ladder_rung(num_nodes: int, num_commodities: int):
    """A scale-ladder rung of the benchmark (seed 29, the ladder's pin)."""
    width = max(3, num_nodes // (num_commodities * 4))
    spec = RandomNetworkSpec(
        num_nodes=num_nodes,
        num_commodities=num_commodities,
        depth_range=(4, 6),
        layer_width_range=(width, width + 2),
        extra_edge_probability=0.1,
    )
    return random_stream_network(spec, seed=29)


def _assert_views_match_networkx(network) -> None:
    ext = build_extended_network(network)
    for view in ext.commodities:
        graph = _digraph(
            (ext.edges[e].tail, ext.edges[e].head) for e in view.edge_indices
        )
        assert view.topo_order == list(nx.topological_sort(graph)), view.name
        assert view.node_indices == sorted(graph.nodes), view.name


@pytest.mark.parametrize("name", scenario_names())
def test_catalog_views_keep_the_networkx_order(name):
    spec = scenario(name)
    _assert_views_match_networkx(spec.topology.build(spec.seed))


@pytest.mark.parametrize("nodes,commodities", [(250, 4), (1000, 16)])
def test_ladder_views_keep_the_networkx_order(nodes, commodities):
    _assert_views_match_networkx(_ladder_rung(nodes, commodities))
