"""Two small directed-graph walks the model build needs, without networkx.

The model layer checks each commodity DAG, finds what a source reaches and
lays out every commodity view in a topological order.  These functions do
exactly that on plain edge lists and adjacency dicts, so building and
solving a model never imports networkx; it stays the library behind the
scenario generators and the ``to_networkx`` exports.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple, TypeVar

N = TypeVar("N", bound=Hashable)

__all__ = ["topological_order", "reachable"]


def topological_order(edges: Iterable[Tuple[N, N]]) -> Optional[List[N]]:
    """The nodes of the digraph on ``edges`` in Kahn-generation order.

    Nodes are numbered by first appearance (tail before head) and each
    node's successors by first insertion; repeated edges count once.  That
    is how a networkx ``DiGraph`` built by ``add_edge`` stores them, so the
    result equals ``list(networkx.topological_sort(G))`` node for node.
    Returns ``None`` if the graph has a cycle.
    """
    succ: Dict[N, Dict[N, None]] = {}
    indegree: Dict[N, int] = {}
    for tail, head in edges:
        out = succ.setdefault(tail, {})
        succ.setdefault(head, {})
        indegree.setdefault(tail, 0)
        if head not in out:
            out[head] = None
            indegree[head] = indegree.get(head, 0) + 1
    order: List[N] = []
    generation = [node for node in succ if indegree[node] == 0]
    while generation:
        order.extend(generation)
        following: List[N] = []
        for node in generation:
            for child in succ[node]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    following.append(child)
        generation = following
    return order if len(order) == len(succ) else None


def reachable(adjacency: Mapping[N, Iterable[N]], start: N) -> Set[N]:
    """Every node reachable from ``start`` along ``adjacency``, ``start``
    included (networkx's ``descendants(G, start) | {start}``)."""
    seen = {start}
    stack = [start]
    while stack:
        for child in adjacency.get(stack.pop(), ()):
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen
