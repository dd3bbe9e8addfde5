"""The SW graph and replication expansion (§5.1, §5.4, Fig. 4).

"For SW, a weighted directed graph of process FCMs is created ... Nodes
are the FCMs, with unidirectional edges weighted by influence.  Replicas
are connected by edges of weight 0."

:func:`expand_replication` turns each FCM with fault-tolerance requirement
``FT = k > 1`` into ``k`` replica nodes (suffixes ``a``, ``b``, ``c`` ...),
replicating its influence edges to/from every replica and installing the
0-weight replica links.  Each replica carries ``FT = 1`` (it *is* one
copy) and remembers its origin, so allocation can keep replicas on
distinct HW nodes.
"""

from __future__ import annotations

import string

from repro.errors import AllocationError
from repro.influence.influence_graph import InfluenceGraph
from repro.model.fcm import FCM

REPLICA_SUFFIXES = string.ascii_lowercase


def replica_names(name: str, count: int) -> list[str]:
    """Names of the ``count`` replicas of ``name``: p1 -> p1a, p1b, p1c."""
    if count < 2:
        raise AllocationError("replication needs count >= 2")
    if count > len(REPLICA_SUFFIXES):
        raise AllocationError(f"replication count {count} exceeds suffix alphabet")
    return [f"{name}{REPLICA_SUFFIXES[i]}" for i in range(count)]


def expand_replication(graph: InfluenceGraph) -> InfluenceGraph:
    """Fig. 4: expand every FCM with FT > 1 into FT replica nodes.

    Returns a new graph; the input is untouched.  Influence edges incident
    to a replicated FCM are copied to every replica (in both roles), and
    replicas of one module are pairwise linked with weight-0 replica
    edges.  Edges between two replicated FCMs expand to the full
    bipartite pattern, as in the paper's example where the p1-p2 edges
    appear between every p1 and p2 replica.
    """
    expanded = InfluenceGraph()
    # Map original name -> list of node names in the expanded graph.
    images: dict[str, list[str]] = {}

    for fcm in graph.fcms():
        ft = fcm.attributes.fault_tolerance
        if ft > 1:
            names = replica_names(fcm.name, ft)
            images[fcm.name] = names
            for suffix_name in names:
                replica = FCM(
                    name=suffix_name,
                    level=fcm.level,
                    attributes=fcm.attributes.with_fault_tolerance(1),
                    stateless=fcm.stateless,
                    replica_of=fcm.name,
                )
                expanded.add_fcm(replica)
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    expanded.link_replicas(a, b)
        else:
            images[fcm.name] = [fcm.name]
            expanded.add_fcm(graph.fcm(fcm.name))

    # One pass over the source edges, emitting every image pair in
    # source-edge order; a factor edge's images keep its factor tuple.
    expanded.set_influences(
        (src_image, dst_image, None, factors)
        if factors
        else (src_image, dst_image, weight, None)
        for src, dst, weight, factors in graph.influence_edge_factors()
        for src_image in images[src]
        for dst_image in images[dst]
    )
    return expanded


def required_hw_nodes(graph: InfluenceGraph) -> int:
    """Minimum HW node count imposed by replica separation.

    Every replica of one module needs its own processor, so the largest
    replica group size is a hard lower bound ("if SW fault-tolerance
    requires three concurrent copies, then a 2-node HW configuration is a
    problem").
    """
    groups = graph.replica_groups()
    if not groups:
        return 1 if len(graph) else 0
    return max(len(group) for group in groups)


def total_influence_weight(graph: InfluenceGraph) -> float:
    """Sum of all influence edge weights (allocation's reduction target)."""
    return sum(w for _s, _t, w in graph.influence_edges())
