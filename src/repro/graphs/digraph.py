"""A minimal, dependency-free weighted directed graph.

The influence graphs, SW process graphs and HW resource graphs of the DDSI
framework are all small, dense-ish directed graphs with float edge weights
and arbitrary hashable node payloads.  This module implements exactly the
operations the framework needs, from scratch (the paper predates any graph
library we could lean on, and the framework's semantics — replica edges,
influence combination — are easiest to keep honest on a purpose-built
structure).

Nodes are arbitrary hashable objects.  Each node and each edge can carry a
``data`` dictionary for auxiliary payloads (attributes, factor tuples,
replica flags).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any

from repro.errors import GraphError

Node = Hashable


class Digraph:
    """Weighted directed graph with node/edge payload dictionaries.

    Edge weights default to 1.0.  At most one edge may exist per ordered
    node pair; re-adding an existing edge raises unless ``replace=True``.
    """

    def __init__(self) -> None:
        self._succ: dict[Node, dict[Node, float]] = {}
        self._pred: dict[Node, dict[Node, float]] = {}
        self._node_data: dict[Node, dict[str, Any]] = {}
        self._edge_data: dict[tuple[Node, Node], dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, node: Node, **data: Any) -> None:
        """Add ``node``; merging ``data`` if the node already exists."""
        if node not in self._succ:
            self._succ[node] = {}
            self._pred[node] = {}
            self._node_data[node] = {}
        self._node_data[node].update(data)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every incident edge."""
        self._require_node(node)
        for succ in list(self._succ[node]):
            self.remove_edge(node, succ)
        for pred in list(self._pred[node]):
            self.remove_edge(pred, node)
        del self._succ[node]
        del self._pred[node]
        del self._node_data[node]

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def nodes(self) -> list[Node]:
        """All nodes, in insertion order."""
        return list(self._succ)

    def node_data(self, node: Node) -> dict[str, Any]:
        self._require_node(node)
        return self._node_data[node]

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_edge(
        self,
        source: Node,
        target: Node,
        weight: float = 1.0,
        replace: bool = False,
        **data: Any,
    ) -> None:
        """Add a directed edge ``source -> target``.

        Both endpoints are created if absent.  Self-loops are rejected:
        an FCM has no defined influence on itself.
        """
        if source == target:
            raise GraphError(f"self-loop rejected on node {source!r}")
        if not replace and self.has_edge(source, target):
            raise GraphError(f"edge {source!r} -> {target!r} already exists")
        self.add_node(source)
        self.add_node(target)
        self._succ[source][target] = float(weight)
        self._pred[target][source] = float(weight)
        self._edge_data[(source, target)] = dict(data)

    def remove_edge(self, source: Node, target: Node) -> None:
        self._require_edge(source, target)
        del self._succ[source][target]
        del self._pred[target][source]
        del self._edge_data[(source, target)]

    def has_edge(self, source: Node, target: Node) -> bool:
        return source in self._succ and target in self._succ[source]

    def weight(self, source: Node, target: Node) -> float:
        self._require_edge(source, target)
        return self._succ[source][target]

    def set_weight(self, source: Node, target: Node, weight: float) -> None:
        self._require_edge(source, target)
        self._succ[source][target] = float(weight)
        self._pred[target][source] = float(weight)

    def edge_data(self, source: Node, target: Node) -> dict[str, Any]:
        self._require_edge(source, target)
        return self._edge_data[(source, target)]

    def edges(self) -> list[tuple[Node, Node, float]]:
        """All edges as ``(source, target, weight)`` triples."""
        return [
            (src, dst, w)
            for src, targets in self._succ.items()
            for dst, w in targets.items()
        ]

    def adjacency(self) -> dict[Node, dict[Node, float]]:
        """The internal successor mapping ``{src: {dst: weight}}``.

        Exposed for hot paths that iterate every edge; callers must treat
        the returned structure as read-only.
        """
        return self._succ

    def edge_payloads(self) -> dict[tuple[Node, Node], dict[str, Any]]:
        """The internal ``(src, dst) -> payload`` mapping (read-only)."""
        return self._edge_data

    def _install_edge(
        self,
        source: Node,
        target: Node,
        weight: float,
        data: dict[str, Any],
    ) -> None:
        """Unchecked edge insert for bulk graph construction.

        Both endpoints must already exist and the pair must not be a
        self-loop; callers (``InfluenceGraph.set_influences`` and
        ``as_digraph``) guarantee this.  An existing edge is overwritten
        in place and keeps its insertion position.
        """
        self._succ[source][target] = weight
        self._pred[target][source] = weight
        self._edge_data[(source, target)] = data

    def edge_count(self) -> int:
        return len(self._edge_data)

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def successors(self, node: Node) -> list[Node]:
        self._require_node(node)
        return list(self._succ[node])

    def predecessors(self, node: Node) -> list[Node]:
        self._require_node(node)
        return list(self._pred[node])

    def neighbors(self, node: Node) -> list[Node]:
        """Successors and predecessors, deduplicated, insertion order."""
        self._require_node(node)
        seen: dict[Node, None] = {}
        for other in self._succ[node]:
            seen[other] = None
        for other in self._pred[node]:
            seen[other] = None
        return list(seen)

    def out_degree(self, node: Node) -> int:
        self._require_node(node)
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        self._require_node(node)
        return len(self._pred[node])

    def out_edges(self, node: Node) -> list[tuple[Node, float]]:
        self._require_node(node)
        return list(self._succ[node].items())

    def in_edges(self, node: Node) -> list[tuple[Node, float]]:
        self._require_node(node)
        return list(self._pred[node].items())

    # ------------------------------------------------------------------
    # Whole-graph helpers
    # ------------------------------------------------------------------
    def copy(self) -> "Digraph":
        """Deep-ish copy: payload dicts are shallow-copied."""
        clone = Digraph()
        for node in self._succ:
            clone.add_node(node, **self._node_data[node])
        for (src, dst), data in self._edge_data.items():
            clone.add_edge(src, dst, self._succ[src][dst], **data)
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "Digraph":
        """Induced subgraph on ``nodes`` (payloads shared by shallow copy)."""
        keep = set(nodes)
        missing = keep - set(self._succ)
        if missing:
            raise GraphError(f"subgraph nodes not in graph: {sorted(map(repr, missing))}")
        sub = Digraph()
        for node in self._succ:
            if node in keep:
                sub.add_node(node, **self._node_data[node])
        for (src, dst), data in self._edge_data.items():
            if src in keep and dst in keep:
                sub.add_edge(src, dst, self._succ[src][dst], **data)
        return sub

    def reverse(self) -> "Digraph":
        """A copy with every edge direction flipped."""
        rev = Digraph()
        for node in self._succ:
            rev.add_node(node, **self._node_data[node])
        for (src, dst), data in self._edge_data.items():
            rev.add_edge(dst, src, self._succ[src][dst], **data)
        return rev

    def to_undirected_weights(self) -> dict[frozenset, float]:
        """Collapse to undirected weights, summing antiparallel edges.

        Used by min-cut, which operates on mutual (bidirectional) influence.
        """
        out: dict[frozenset, float] = {}
        for src, dst, w in self.edges():
            key = frozenset((src, dst))
            out[key] = out.get(key, 0.0) + w
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Digraph(nodes={len(self)}, edges={self.edge_count()})"

    # ------------------------------------------------------------------
    # Internal
    # ------------------------------------------------------------------
    def _require_node(self, node: Node) -> None:
        if node not in self._succ:
            raise GraphError(f"node {node!r} not in graph")

    def _require_edge(self, source: Node, target: Node) -> None:
        if not self.has_edge(source, target):
            raise GraphError(f"edge {source!r} -> {target!r} not in graph")
