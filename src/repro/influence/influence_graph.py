"""The influence graph: FCM nodes, directed influence edges.

Nodes represent FCMs at one hierarchy level; a labeled unidirectional edge
represents the influence of one FCM on another (§4.2).  Edge labels carry
"a tuple representing the factors in the source FCM that influence the
target, and an associated weight".

Replica semantics (§5.1): "Replicas are connected by edges of weight 0;
there is no edge in any other case of non-influence."  We additionally
carry an explicit ``replica`` flag on those edges so the weight-0
convention and the constraint flag can be cross-checked; replica links are
stored in *both* directions (the relation is symmetric).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

import numpy as np

from repro.errors import GraphError, InfluenceError, ProbabilityError
from repro.graphs.digraph import Digraph
from repro.influence.columns import EdgeColumns
from repro.influence.factors import InfluenceFactor
from repro.influence.probability import influence_from_factors
from repro.model.fcm import FCM

_EMPTY_SET: frozenset[str] = frozenset()


class InfluenceGraph:
    """Directed influence graph among FCMs at one level.

    Edges come in two kinds:

    * *influence edges* — weight in (0, 1], optional factor tuple;
    * *replica links* — weight exactly 0, ``replica=True``, symmetric.

    Plain zero influence is represented by the *absence* of an edge.

    A replica-partner index keeps :meth:`is_replica_link` O(1), and a
    monotonically increasing :attr:`version` lets compiled artifacts
    (:meth:`weight_matrix`, ``repro.faultsim.kernel.compile_graph``, the
    allocation engine's matrices) cache against a graph instance and
    invalidate on mutation.
    Influence edges may be deferred (:meth:`defer_influences`,
    :meth:`defer_columns`) until the first read.
    """

    def __init__(self) -> None:
        self._graph = Digraph()
        self._fcms: dict[str, FCM] = {}
        # name -> set of replica partners (symmetric); mirrors the
        # replica=True edges exactly.
        self._replica_partners: dict[str, set[str]] = {}
        self._version = 0
        self._weights: tuple[int, np.ndarray] | None = None

    @property
    def version(self) -> int:
        """Mutation counter; bumps on any node/edge change."""
        return self._version

    def __getattr__(self, name: str):
        # Python calls this only for an attribute that is not set, and
        # ``_graph`` is unset exactly while deferred edges wait: every
        # dict-edge read and every mutation goes through ``_graph``, so
        # the first one installs them.
        deferred = self.__dict__.pop("_deferred", None) if name == "_graph" else None
        if deferred is None:
            raise AttributeError(name)
        self._graph, install, _columns = deferred
        version = self._version
        install(self)
        self._version = version
        return self._graph

    def defer_influences(
        self,
        make_edges: Callable[
            [], Iterable[tuple[str, str, float | None, Iterable[InfluenceFactor] | None]]
        ],
    ) -> None:
        """Install ``make_edges()`` through :meth:`set_influences` when an
        edge is first read or the graph first changes, instead of now.

        Callers see the same graph as after an eager install, except that
        the install leaves :attr:`version` as it is, so a compile cached
        against the graph beforehand stays valid.  ``make_edges`` must
        not depend on state that can change before it runs.
        """
        self._defer(lambda graph: graph.set_influences(make_edges()), None)

    def defer_columns(
        self, columns: EdgeColumns, replica_links: Iterable[tuple[str, str]]
    ) -> None:
        """Take this graph's influence edges from a document level's
        ``columns``, and link ``replica_links``, without installing a
        dict edge.

        The edges wait as :meth:`defer_influences` edges do; on the first
        read they go in as :meth:`set_influences` would install the
        document's rows in order, followed by the replica links as
        :meth:`link_replicas` installs them.  Until then
        :meth:`influence_edges`, :meth:`influence_edge_factors`,
        :meth:`factor_edges`, :meth:`snapshot_edge_factors` and
        :meth:`weight_matrix` answer from the columns.  The graph must hold
        exactly ``columns.names`` and no edge, and the rows and links
        must be valid (document validation checks both).
        """
        if columns.names != tuple(self._fcms) or self._graph.edge_count():
            raise InfluenceError("edge columns must cover exactly this graph's FCMs")
        links = tuple((a, b) for a, b in replica_links)
        partners = self._replica_partners
        for a, b in links:
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
        self._version += 1 + len(links)

        def install(graph: InfluenceGraph) -> None:
            graph.set_influences(columns.install_rows())
            for a, b in links:
                graph.link_replicas(a, b)

        self._defer(install, columns)

    def _defer(
        self, install: Callable[["InfluenceGraph"], None], columns: EdgeColumns | None
    ) -> None:
        self._deferred = (self._graph, install, columns)
        del self._graph

    def edge_columns(self) -> EdgeColumns | None:
        """The columns this graph's edges wait in (:meth:`defer_columns`),
        or ``None`` once they are installed or when there are none."""
        deferred = self.__dict__.get("_deferred")
        return deferred[2] if deferred is not None else None

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_fcm(self, fcm: FCM) -> None:
        if fcm.name in self._fcms:
            raise InfluenceError(f"FCM {fcm.name!r} already in influence graph")
        self._fcms[fcm.name] = fcm
        self._graph.add_node(fcm.name)
        self._version += 1

    def remove_fcm(self, name: str) -> None:
        self._require(name)
        self._graph.remove_node(name)
        del self._fcms[name]
        partners = self._replica_partners.pop(name, None)
        if partners:
            for other in partners:
                self._replica_partners[other].discard(name)
        self._version += 1

    def has_fcm(self, name: str) -> bool:
        return name in self._fcms

    def fcm(self, name: str) -> FCM:
        self._require(name)
        return self._fcms[name]

    def fcm_names(self) -> list[str]:
        return list(self._fcms)

    def fcms(self) -> list[FCM]:
        return list(self._fcms.values())

    def __len__(self) -> int:
        return len(self._fcms)

    # ------------------------------------------------------------------
    # Influence edges
    # ------------------------------------------------------------------
    def set_influence(
        self,
        source: str,
        target: str,
        value: float | None = None,
        factors: Iterable[InfluenceFactor] | None = None,
    ) -> float:
        """Set the influence of ``source`` on ``target``.

        Either a direct ``value`` (the paper's "relative values suffice"
        path) or a tuple of ``factors`` (Eqs. 1-2) must be given.  Returns
        the stored weight.  Setting an influence of exactly 0 removes the
        edge (absence means no influence); replica links are not touchable
        through this method.  A one-edge call to :meth:`set_influences`.
        """
        self.set_influences(((source, target, value, factors),))
        return self._graph.adjacency()[source].get(target, 0.0)

    def set_influences(
        self,
        edges: Iterable[
            tuple[str, str, float | None, Iterable[InfluenceFactor] | None]
        ],
    ) -> None:
        """Install ``(source, target, value, factors)`` edges, in order.

        The only way this graph gains influence edges.  Each edge is
        checked in this order: both endpoints exist; exactly one of
        ``value`` and ``factors`` is given; factors combine by Eq. (2);
        the value is in [0, 1]; the pair is not a replica link.  A value
        of 0 then removes the edge, and only a non-zero self-loop is
        rejected.  A repeated pair overwrites the edge in place, keeping
        its insertion position.

        ``edges`` is consumed lazily.  When an edge is rejected, the
        edges before it stay installed and the error propagates.
        """
        fcms = self._fcms
        partners = self._replica_partners
        succ = self._graph.adjacency()
        install = self._graph._install_edge
        self._version += 1
        for source, target, value, factors in edges:
            if source not in fcms:
                self._require(source)
            if target not in fcms:
                self._require(target)
            if (value is None) == (factors is None):
                raise InfluenceError("provide exactly one of value= or factors=")
            factor_tuple: tuple[InfluenceFactor, ...] = ()
            if factors is not None:
                factor_tuple = tuple(factors)
                value = influence_from_factors(
                    factor_tuple, context=f"influence {source!r} -> {target!r}"
                )
            if not 0.0 <= value <= 1.0:
                raise ProbabilityError(
                    f"influence {source!r} -> {target!r} must be in [0, 1], "
                    f"got {value}"
                )
            if target in partners.get(source, _EMPTY_SET):
                raise InfluenceError(
                    f"{source!r} and {target!r} are replicas; their link weight "
                    "is fixed at 0"
                )
            if value == 0.0:
                if target in succ[source]:
                    self._graph.remove_edge(source, target)
                continue
            if source == target:
                raise GraphError(f"self-loop rejected on node {source!r}")
            install(
                source, target, float(value),
                {"factors": factor_tuple, "replica": False},
            )

    def influence(self, source: str, target: str) -> float:
        """Influence of ``source`` on ``target``; 0.0 when no edge exists.

        Replica links report 0.0, per the paper's convention.
        """
        self._require(source)
        self._require(target)
        if source == target:
            raise InfluenceError("influence of an FCM on itself is undefined")
        if self._graph.has_edge(source, target):
            return self._graph.weight(source, target)
        return 0.0

    def factors(self, source: str, target: str) -> tuple[InfluenceFactor, ...]:
        """The factor tuple recorded on an edge (may be empty)."""
        if not self._graph.has_edge(source, target):
            raise GraphError(f"no influence edge {source!r} -> {target!r}")
        return self._graph.edge_data(source, target).get("factors", ())

    def influence_edges(self) -> list[tuple[str, str, float]]:
        """All non-replica edges as (source, target, weight)."""
        columns = self.edge_columns()
        if columns is not None:
            return [(src, dst, w) for src, dst, w, _f in columns.edge_factors()]
        partners = self._replica_partners
        return [
            (src, dst, w)
            for src, targets in self._graph.adjacency().items()
            for dst, w in targets.items()
            if dst not in partners.get(src, _EMPTY_SET)
        ]

    def influence_edge_factors(
        self,
    ) -> Iterator[tuple[str, str, float, tuple[InfluenceFactor, ...]]]:
        """One-pass iterator over (source, target, weight, factors).

        Equivalent to :meth:`influence_edges` plus a :meth:`factors` call
        per edge, without the per-edge lookups.
        """
        columns = self.edge_columns()
        if columns is not None:
            return columns.edge_factors()
        graph = self._graph
        return _edge_factors(
            graph.adjacency().items(), graph.edge_payloads(), self._replica_partners
        )

    def factor_edges(self) -> Iterator[tuple[str, str, tuple[InfluenceFactor, ...]]]:
        """(source, target, factors) of every influence edge that records
        factors, in adjacency order — the audit's factor-discipline walk.
        Deferred columns visit their factor rows only."""
        columns = self.edge_columns()
        if columns is not None:
            return columns.factor_edges()
        return (
            (src, dst, factors)
            for src, dst, _w, factors in self.influence_edge_factors()
            if factors
        )

    def snapshot_edge_factors(
        self,
    ) -> Callable[[], Iterator[tuple[str, str, float, tuple[InfluenceFactor, ...]]]]:
        """:meth:`influence_edge_factors` as of now: the returned function
        iterates the edges this graph has at the time of this call,
        whatever changes later.  Deferred columns never change, so it
        reads them when called; otherwise this copies the adjacency dicts
        (not the edges)."""
        columns = self.edge_columns()
        if columns is not None:
            return columns.edge_factors
        graph = self._graph
        adjacency = [(src, dict(targets)) for src, targets in graph.adjacency().items()]
        payloads = dict(graph.edge_payloads())
        partners = {name: frozenset(linked) for name, linked in self._replica_partners.items()}
        return lambda: _edge_factors(adjacency, payloads, partners)

    def mutual_influence(self, a: str, b: str) -> float:
        """Sum of influences in each direction (H1's merge criterion)."""
        return self.influence(a, b) + self.influence(b, a)

    # ------------------------------------------------------------------
    # Replica links
    # ------------------------------------------------------------------
    def link_replicas(self, a: str, b: str) -> None:
        """Record that ``a`` and ``b`` are replicas of one module.

        Installs symmetric weight-0 edges flagged ``replica=True``.  The
        two FCMs must genuinely be replicas (same ``replica_of`` origin, or
        one the origin of the other) when that metadata is available, and
        no influence edge may join them; a rejected call changes nothing.
        """
        self._require(a)
        self._require(b)
        if a == b:
            raise InfluenceError("an FCM is not its own replica")
        fa, fb = self._fcms[a], self._fcms[b]
        origins = {fa.replica_of or fa.name, fb.replica_of or fb.name}
        if len(origins) != 1:
            raise InfluenceError(
                f"{a!r} and {b!r} are not replicas of the same original "
                f"(origins {sorted(origins)!r})"
            )
        graph = self._graph
        for src, dst in ((a, b), (b, a)):
            if graph.has_edge(src, dst) and not graph.edge_data(src, dst).get("replica", False):
                raise InfluenceError(
                    f"influence edge {src!r} -> {dst!r} already exists; "
                    "replicas cannot also influence each other"
                )
        for src, dst in ((a, b), (b, a)):
            if not graph.has_edge(src, dst):
                graph.add_edge(src, dst, 0.0, factors=(), replica=True)
        self._replica_partners.setdefault(a, set()).add(b)
        self._replica_partners.setdefault(b, set()).add(a)
        self._version += 1

    def is_replica_link(self, a: str, b: str) -> bool:
        return b in self._replica_partners.get(a, _EMPTY_SET)

    def replica_partners(self, name: str) -> frozenset[str]:
        """The replica partners of ``name`` (empty when unreplicated)."""
        partners = self._replica_partners.get(name)
        return frozenset(partners) if partners else _EMPTY_SET

    def replica_groups(self) -> list[set[str]]:
        """Partition of replica-linked FCMs into groups (by origin)."""
        groups: dict[str, set[str]] = {}
        partners = self._replica_partners
        for name, fcm in self._fcms.items():
            origin = fcm.replica_of or name
            if fcm.replica_of is not None or partners.get(name):
                groups.setdefault(origin, set()).add(name)
        return [g for g in groups.values() if len(g) > 1]

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def weight_matrix(self) -> np.ndarray:
        """The influence matrix ``P``: ``P[i, j]`` is the weight of the
        edge from the ``i``-th to the ``j``-th FCM of :meth:`fcm_names`,
        0 where there is none and on replica links.

        Built once per :attr:`version` (from deferred columns, without
        installing an edge) and read-only, so the fault kernel's compile,
        separation and the audit share one array.
        """
        cached = self._weights
        if cached is not None and cached[0] == self._version:
            return cached[1]
        columns = self.edge_columns()
        if columns is not None:
            weights = columns.weights()
        else:
            index = {name: i for i, name in enumerate(self._fcms)}
            weights = np.zeros((len(index), len(index)))
            for src, dst, w in self.influence_edges():
                weights[index[src], index[dst]] = w
        weights.flags.writeable = False
        self._weights = (self._version, weights)
        return weights

    def as_digraph(self, include_replica_links: bool = False) -> Digraph:
        """A :class:`Digraph` copy of this influence graph.

        Replica links are weight-0 edges; excluding them (the default)
        leaves the influence edges alone, as :meth:`weight_matrix` does.
        """
        out = Digraph()
        for name in self._fcms:
            out.add_node(name)
        partners = self._replica_partners
        payloads = self._graph.edge_payloads()
        for src, targets in self._graph.adjacency().items():
            skip = partners.get(src, _EMPTY_SET) if not include_replica_links else _EMPTY_SET
            for dst, w in targets.items():
                if dst in skip:
                    continue
                out._install_edge(src, dst, w, dict(payloads[(src, dst)]))
        return out

    def copy(self) -> "InfluenceGraph":
        clone = InfluenceGraph()
        clone._graph = self._graph.copy()
        clone._fcms = dict(self._fcms)
        clone._replica_partners = {
            name: set(partners)
            for name, partners in self._replica_partners.items()
        }
        return clone

    def _require(self, name: str) -> None:
        if name not in self._fcms:
            raise InfluenceError(f"FCM {name!r} not in influence graph")


def _edge_factors(
    adjacency: Iterable[tuple[str, dict[str, float]]],
    payloads: dict[tuple[str, str], dict],
    partners: dict[str, "set[str] | frozenset[str]"],
) -> Iterator[tuple[str, str, float, tuple[InfluenceFactor, ...]]]:
    """(source, target, weight, factors) of every influence edge, in
    adjacency order, replica links skipped."""
    for src, targets in adjacency:
        skip = partners.get(src, _EMPTY_SET)
        for dst, w in targets.items():
            if dst in skip:
                continue
            yield src, dst, w, payloads[(src, dst)].get("factors", ())
