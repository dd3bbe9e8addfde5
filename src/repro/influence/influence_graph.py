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

from collections.abc import Iterable, Iterator

from repro.errors import GraphError, InfluenceError, ProbabilityError
from repro.graphs.digraph import Digraph
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
    (``repro.faultsim.kernel.compile_graph``, the allocation engine's
    matrices) cache against a graph instance and invalidate on mutation.
    """

    def __init__(self) -> None:
        self._graph = Digraph()
        self._fcms: dict[str, FCM] = {}
        # name -> set of replica partners (symmetric); mirrors the
        # replica=True edges exactly.
        self._replica_partners: dict[str, set[str]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter; bumps on any node/edge change."""
        return self._version

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
        per edge, without the per-edge lookups — the audit's hot path.
        """
        partners = self._replica_partners
        payloads = self._graph.edge_payloads()
        for src, targets in self._graph.adjacency().items():
            skip = partners.get(src, _EMPTY_SET)
            for dst, w in targets.items():
                if dst in skip:
                    continue
                yield src, dst, w, payloads[(src, dst)].get("factors", ())

    def reachable(self, start: str) -> set[str]:
        """FCMs reachable from ``start`` along influence edges.

        ``start`` is included.  Replica links carry no influence, so the
        walk never crosses one.
        """
        self._require(start)
        succ = self._graph.adjacency()
        partners = self._replica_partners
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            skip = partners.get(node, _EMPTY_SET)
            for nxt in succ[node]:
                if nxt not in seen and nxt not in skip:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

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
        one the origin of the other) when that metadata is available.
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
        for src, dst in ((a, b), (b, a)):
            if self._graph.has_edge(src, dst):
                if not self._graph.edge_data(src, dst).get("replica", False):
                    raise InfluenceError(
                        f"influence edge {src!r} -> {dst!r} already exists; "
                        "replicas cannot also influence each other"
                    )
            else:
                self._graph.add_edge(src, dst, 0.0, factors=(), replica=True)
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
    def as_digraph(self, include_replica_links: bool = False) -> Digraph:
        """A :class:`Digraph` copy of this influence graph.

        Replica links are weight-0 edges; excluding them (the default)
        gives the pure probability matrix used by separation.
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
