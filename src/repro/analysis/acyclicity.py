"""Acyclicity post-processing for learned module networks.

The Lemon-Tree algorithm does not enforce the DAG constraint, so a learned
network "may need to be post-processed using an existing method to get the
DAG" (Section 2.2 of the paper; declared out of scope there).  This module
provides that post-processing step: a greedy minimum-feedback-arc-set pass
over the *module graph* that removes the cheapest parent relations until
the graph is acyclic.

The cost of removing an edge ``M_j -> M_k`` is the total weighted-parent
score mass of the parents in ``M_j`` driving ``M_k`` — so weakly-supported
feedback is cut first, preserving the strongest regulatory structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datatypes import Module, ModuleNetwork


@dataclass(frozen=True)
class RemovedEdge:
    """One module-graph edge cut by the post-processing."""

    source_module: int
    target_module: int
    #: parents (variable indices) removed from the target module
    parents: tuple[int, ...]
    #: total parent-score mass removed
    score_mass: float


def _edge_support(network: ModuleNetwork) -> dict[tuple[int, int], dict[int, float]]:
    """Parent scores grouped by the module edge they induce."""
    support: dict[tuple[int, int], dict[int, float]] = {}
    for module in network.modules:
        for parent, score in module.weighted_parents.items():
            src = network.assignment(parent)
            if src is None:
                continue
            support.setdefault((src, module.module_id), {})[parent] = score
    return support


def make_acyclic(network: ModuleNetwork) -> tuple[ModuleNetwork, list[RemovedEdge]]:
    """Return an acyclic copy of ``network`` plus the removed edges.

    Greedy minimum feedback arc set: while a cycle exists, remove the cycle
    edge with the smallest supporting parent-score mass (self-loops — a
    module regulating itself — are always cut first; they are feedback by
    definition).  The corresponding parents are dropped from the target
    module's parent map.
    """
    import networkx as nx  # here, as in datatypes: only graph queries pay for it

    support = _edge_support(network)
    graph = nx.DiGraph()
    for module in network.modules:
        graph.add_node(module.module_id)
    for (src, dst), parents in support.items():
        graph.add_edge(src, dst, mass=sum(parents.values()))

    removed: list[RemovedEdge] = []

    # Self-loops first.
    for src, dst in list(nx.selfloop_edges(graph)):
        removed.append(_cut(graph, support, src, dst))

    while True:
        try:
            cycle = nx.find_cycle(graph)
        except nx.NetworkXNoCycle:
            break
        weakest = min(cycle, key=lambda e: graph.edges[e[0], e[1]]["mass"])
        removed.append(_cut(graph, support, weakest[0], weakest[1]))

    # Build the cleaned network.
    cut_parents: dict[int, set[int]] = {}
    for edge in removed:
        cut_parents.setdefault(edge.target_module, set()).update(edge.parents)
    modules = []
    for module in network.modules:
        dropped = cut_parents.get(module.module_id, set())
        modules.append(
            Module(
                module_id=module.module_id,
                members=list(module.members),
                trees=module.trees,
                weighted_parents={
                    p: s for p, s in module.weighted_parents.items() if p not in dropped
                },
                uniform_parents=dict(module.uniform_parents),
            )
        )
    cleaned = ModuleNetwork(modules, network.var_names, network.n_obs)
    return cleaned, removed


def _cut(graph, support, src: int, dst: int) -> RemovedEdge:
    parents = support.get((src, dst), {})
    graph.remove_edge(src, dst)
    return RemovedEdge(
        source_module=src,
        target_module=dst,
        parents=tuple(sorted(parents)),
        score_mass=sum(parents.values()),
    )
