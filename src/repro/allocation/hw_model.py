"""Hardware resource model.

The paper structures HW using a fault-containment-region (FCR) model and
represents it as an interconnection graph (§5.1).  We model:

* :class:`HWNode` — one processor with a resource set (I/O devices,
  co-processors), a memory capacity, and the FCR it belongs to;
* :class:`HWGraph` — nodes plus undirected communication links with
  costs; "a strongly connected network with n HW nodes" is the
  :func:`fully_connected` constructor.

The HW model is deliberately simple ("this paper considers only a fixed
topology; we assume homogeneous processors, with access to equivalent
sets of resources") but carries enough structure for the resource- and
dilation-aware mapping refinements of §6.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.errors import AllocationError


@dataclass(frozen=True)
class HWNode:
    """One processor.

    Attributes:
        name: Unique identifier.
        fcr: Fault containment region label; a HW fault is assumed
            contained within one FCR.
        resources: Named resources locally attached (e.g. ``{"sensor_bus"}``).
        memory: Memory capacity in abstract units (0 = unconstrained).
    """

    name: str
    fcr: str = "fcr0"
    resources: frozenset[str] = frozenset()
    memory: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise AllocationError("HW node needs a non-empty name")
        if not self.memory >= 0:  # NaN fails too
            raise AllocationError(f"memory must be >= 0, got {self.memory}")


class HWGraph:
    """Processors plus undirected, cost-weighted communication links."""

    def __init__(self) -> None:
        self._nodes: dict[str, HWNode] = {}
        self._links: dict[frozenset[str], float] = {}
        self._costs: tuple[dict[str, int], np.ndarray] | None = None

    def add_node(self, node: HWNode) -> None:
        if node.name in self._nodes:
            raise AllocationError(f"HW node {node.name!r} already present")
        self._nodes[node.name] = node
        self._costs = None

    def add_link(self, a: str, b: str, cost: float = 1.0) -> None:
        """Undirected communication link with the given cost (``inf``
        allowed: it costs the same as no link)."""
        for name in (a, b):
            if name not in self._nodes:
                raise AllocationError(f"HW node {name!r} not in graph")
        if a == b:
            raise AllocationError("links join distinct nodes")
        if not cost >= 0:  # NaN fails too
            raise AllocationError(f"link cost must be >= 0, got {cost}")
        self._links[frozenset((a, b))] = float(cost)
        self._costs = None

    def node(self, name: str) -> HWNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise AllocationError(f"HW node {name!r} not in graph") from None

    def nodes(self) -> list[HWNode]:
        return list(self._nodes.values())

    def names(self) -> list[str]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def connected(self, a: str, b: str) -> bool:
        self.node(a)
        self.node(b)
        return frozenset((a, b)) in self._links

    def link_cost(self, a: str, b: str) -> float:
        """Cost of the direct link, or ``inf`` if none exists."""
        self.node(a)
        self.node(b)
        if a == b:
            return 0.0
        return self._links.get(frozenset((a, b)), float("inf"))

    def cost_matrix(self) -> tuple[dict[str, int], np.ndarray]:
        """``(position, costs)``: ``costs[position[a], position[b]]`` is
        :meth:`link_cost` of ``a`` and ``b``, positions in :meth:`names`
        order.  Built once and kept until the graph changes."""
        if self._costs is None:
            position = {name: i for i, name in enumerate(self._nodes)}
            costs = np.full((len(position), len(position)), np.inf)
            np.fill_diagonal(costs, 0.0)
            if self._links:
                ends = np.array([[position[a], position[b]] for a, b in self._links])
                values = list(self._links.values())
                costs[ends[:, 0], ends[:, 1]] = values
                costs[ends[:, 1], ends[:, 0]] = values
            self._costs = (position, costs)
        return self._costs

    def surviving(
        self,
        failed_nodes: Iterable[str] = (),
        failed_links: Iterable[tuple[str, str]] = (),
    ) -> "HWGraph":
        """The graph left when ``failed_nodes`` (with their links) and
        ``failed_links`` (endpoint pairs) fail.

        Shares this graph's nodes and link keys, in order, and slices
        its :meth:`cost_matrix`: the positions and values a rebuild
        link by link would give.  A failed node or link this graph does
        not have raises :class:`AllocationError`; a link stays known
        after one of its endpoints failed.
        """
        failed = set(failed_nodes)
        unknown = failed - self._nodes.keys()
        if unknown:
            raise AllocationError(f"unknown HW nodes failed: {sorted(unknown)!r}")
        down = {frozenset(link): tuple(link) for link in failed_links}
        missing = sorted(link for key, link in down.items() if key not in self._links)
        if missing:
            raise AllocationError(f"unknown HW links failed: {missing!r}")
        position, costs = self.cost_matrix()
        out = HWGraph()
        out._nodes = {
            name: node for name, node in self._nodes.items() if name not in failed
        }
        out._links = {
            key: cost
            for key, cost in self._links.items()
            if key not in down and failed.isdisjoint(key)
        }
        keep = [position[name] for name in out._nodes]
        sliced = costs[np.ix_(keep, keep)]
        out_position = {name: i for i, name in enumerate(out._nodes)}
        for key in down:
            if failed.isdisjoint(key):
                a, b = (out_position[name] for name in key)
                sliced[a, b] = sliced[b, a] = np.inf
        out._costs = (out_position, sliced)
        return out

    def positions(self, names: "list[str]") -> list[int]:
        """:meth:`cost_matrix` positions of ``names``."""
        position = self.cost_matrix()[0]
        try:
            return [position[name] for name in names]
        except KeyError as exc:
            raise AllocationError(f"HW node {exc.args[0]!r} not in graph") from None

    def all_links(self) -> list[tuple[str, str, float]]:
        """Every link as ``(node_a, node_b, cost)`` with sorted endpoints."""
        out = []
        for key, cost in self._links.items():
            a, b = sorted(key)
            out.append((a, b, cost))
        return out

    def fcr_of(self, name: str) -> str:
        return self.node(name).fcr

    def nodes_in_fcr(self, fcr: str) -> list[HWNode]:
        return [node for node in self._nodes.values() if node.fcr == fcr]

    def has_resource(self, name: str, resource: str) -> bool:
        return resource in self.node(name).resources


def fully_connected(
    count: int,
    prefix: str = "hw",
    cost: float = 1.0,
    distinct_fcrs: bool = True,
    resources: dict[str, frozenset[str]] | None = None,
) -> HWGraph:
    """A strongly connected homogeneous HW graph of ``count`` processors.

    ``distinct_fcrs=True`` places each processor in its own FCR (the
    standard dependable-HW assumption); ``resources`` optionally attaches
    resource sets per node name.
    """
    if count < 1:
        raise AllocationError("HW graph needs at least one node")
    graph = HWGraph()
    names = [f"{prefix}{i}" for i in range(1, count + 1)]
    for i, name in enumerate(names):
        graph.add_node(
            HWNode(
                name=name,
                fcr=f"fcr{i + 1}" if distinct_fcrs else "fcr0",
                resources=(resources or {}).get(name, frozenset()),
            )
        )
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            graph.add_link(a, b, cost)
    return graph
