"""The FCM hierarchy container.

Maintains the layered integration DAG of rules R1/R2: parent links only
between adjacent levels (R1), and the DAG is a *tree* — every FCM has at
most one parent, and no FCM is shared between two parents (R2).  The
severe consequence the paper highlights — no function reuse by sharing;
reused functions must be separately duplicated per caller — is enforced
here and realised by :meth:`FCMHierarchy.duplicate_subtree`.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import HierarchyError, ModelError
from repro.model.attributes import AttributeSet
from repro.model.fcm import FCM, Level


class FCMHierarchy:
    """A forest of FCMs with tree-shaped parent/child links.

    The hierarchy owns FCM objects keyed by name.  Structural invariants
    (checked on every mutation):

    * every FCM name is unique;
    * a parent link joins adjacent levels only (child.level + 1 ==
      parent.level), per R1;
    * every FCM has at most one parent, per R2;
    * links never form a cycle (guaranteed by the level discipline).
    """

    def __init__(self) -> None:
        self._fcms: dict[str, FCM] = {}
        self._parent: dict[str, str] = {}
        self._children: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add(self, fcm: FCM, parent: str | None = None) -> FCM:
        """Add ``fcm``; optionally attach to ``parent`` in the same call."""
        if fcm.name in self._fcms:
            raise HierarchyError(f"FCM name {fcm.name!r} already present")
        self._fcms[fcm.name] = fcm
        self._children[fcm.name] = []
        if parent is not None:
            try:
                self.attach(fcm.name, parent)
            except HierarchyError:
                del self._fcms[fcm.name]
                del self._children[fcm.name]
                raise
        return fcm

    def remove(self, name: str) -> None:
        """Remove an FCM.  It must be a leaf of the link forest."""
        fcm = self.get(name)
        if self._children[name]:
            raise HierarchyError(
                f"cannot remove {name!r}: it still has children "
                f"{self._children[name]!r}"
            )
        parent = self._parent.pop(name, None)
        if parent is not None:
            self._children[parent].remove(name)
        del self._children[name]
        del self._fcms[fcm.name]

    def get(self, name: str) -> FCM:
        try:
            return self._fcms[name]
        except KeyError:
            raise HierarchyError(f"no FCM named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._fcms

    def __len__(self) -> int:
        return len(self._fcms)

    def __iter__(self) -> Iterator[FCM]:
        return iter(self._fcms.values())

    def names(self) -> list[str]:
        return list(self._fcms)

    def at_level(self, level: Level) -> list[FCM]:
        """All FCMs at ``level``, in insertion order."""
        return [fcm for fcm in self._fcms.values() if fcm.level is level]

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def link_problems(self, child: str, parent: str) -> list[str]:
        """Each rule the link ``child -> parent`` would break.

        The one statement of R1 (a parent sits exactly one level up, so no
        chain of links closes a cycle) and R2 (one parent per FCM):
        :meth:`attach` raises the first, the document reader reports each
        at the link's JSON path."""
        child_fcm = self.get(child)
        parent_fcm = self.get(parent)
        problems: list[str] = []
        if child_fcm.level.parent_level is not parent_fcm.level:
            problems.append(
                f"R1: {child!r} ({child_fcm.level.name}) cannot attach to {parent!r} "
                f"({parent_fcm.level.name}); a parent sits exactly one level up"
            )
        if child in self._parent:
            problems.append(
                f"R2: {child!r} already has parent {self._parent[child]!r}; "
                "an FCM may not be shared — duplicate it instead"
            )
        return problems

    def attach(self, child: str, parent: str) -> None:
        """Create the parent link ``child -> parent`` (rules R1, R2)."""
        problems = self.link_problems(child, parent)
        if problems:
            raise HierarchyError(problems[0])
        self._parent[child] = parent
        self._children[parent].append(child)

    def detach(self, child: str) -> None:
        """Remove ``child``'s parent link (it becomes a root of its level)."""
        self.get(child)
        parent = self._parent.pop(child, None)
        if parent is None:
            raise HierarchyError(f"{child!r} has no parent to detach")
        self._children[parent].remove(child)

    def parent_of(self, name: str) -> FCM | None:
        self.get(name)
        parent = self._parent.get(name)
        return self._fcms[parent] if parent is not None else None

    def children_of(self, name: str) -> list[FCM]:
        self.get(name)
        return [self._fcms[c] for c in self._children[name]]

    def siblings_of(self, name: str) -> list[FCM]:
        """FCMs sharing this FCM's parent (excluding itself).

        Root FCMs (no parent) have no siblings in the R3 sense: merging is
        only defined among children of one parent.
        """
        parent = self._parent.get(name)
        if parent is None:
            self.get(name)
            return []
        return [self._fcms[c] for c in self._children[parent] if c != name]

    def descendants_of(self, name: str) -> list[FCM]:
        """All transitive children, preorder."""
        self.get(name)
        out: list[FCM] = []
        stack = list(reversed(self._children[name]))
        while stack:
            current = stack.pop()
            out.append(self._fcms[current])
            stack.extend(reversed(self._children[current]))
        return out

    def roots(self) -> list[FCM]:
        """FCMs with no parent."""
        return [fcm for fcm in self._fcms.values() if fcm.name not in self._parent]

    # ------------------------------------------------------------------
    # Aggregation & validation
    # ------------------------------------------------------------------
    def effective_attributes(self, name: str) -> AttributeSet:
        """Attributes of ``name`` combined with all its descendants'.

        A parent FCM's effective requirements must dominate its children's
        (max criticality, min deadline, summed throughput); this computes
        that aggregate per §4.3.
        """
        fcm = self.get(name)
        acc = fcm.attributes
        for child in self.descendants_of(name):
            acc = acc.combine(child.attributes)
        return acc

    def validate(self) -> list[str]:
        """Full structural audit; returns a list of violation messages.

        An empty list means the hierarchy is well-formed.  (Mutations
        already enforce the invariants; this re-checks from first
        principles and is used by the verification battery.)
        """
        problems: list[str] = []
        for child, parent in self._parent.items():
            child_fcm = self._fcms[child]
            parent_fcm = self._fcms[parent]
            if child_fcm.level.parent_level is not parent_fcm.level:
                problems.append(
                    f"R1 violation: {child!r} ({child_fcm.level.name}) linked "
                    f"to {parent!r} ({parent_fcm.level.name})"
                )
        seen_children: set[str] = set()
        for parent, children in self._children.items():
            for child in children:
                if child in seen_children:
                    problems.append(f"R2 violation: {child!r} has multiple parents")
                seen_children.add(child)
                if self._parent.get(child) != parent:
                    problems.append(
                        f"internal inconsistency: child list of {parent!r} "
                        f"disagrees with parent map for {child!r}"
                    )
        return problems

    def duplicate_subtree(self, name: str, suffix: str, parent: str | None = None) -> FCM:
        """Clone ``name`` and its whole subtree with names suffixed.

        This realises the paper's first escape from R2/R3: "the lower level
        FCM(s) can be duplicated and integrated separately with the two
        different parents.  All associated code, text and data of the child
        FCMs is duplicated."  Returns the new subtree root.
        """
        original = self.get(name)
        if parent is not None:
            self.get(parent)
        if not suffix:
            raise ModelError("duplicate_subtree requires a non-empty suffix")

        def clone(fcm: FCM) -> FCM:
            return FCM(
                name=f"{fcm.name}{suffix}",
                level=fcm.level,
                attributes=fcm.attributes,
                stateless=fcm.stateless,
                replica_of=fcm.replica_of,
            )

        new_root = self.add(clone(original), parent=parent)
        stack: list[tuple[str, str]] = [(original.name, new_root.name)]
        while stack:
            old_parent, new_parent = stack.pop()
            for child in self._children[old_parent]:
                new_child = self.add(clone(self._fcms[child]), parent=new_parent)
                stack.append((child, new_child.name))
        return new_root

    def render(self) -> str:
        """ASCII rendering of the forest, for reports and Fig. 1."""
        lines: list[str] = []
        for root in self.roots():
            self._render_node(root.name, "", lines)
        return "\n".join(lines)

    def _render_node(self, name: str, indent: str, lines: list[str]) -> None:
        fcm = self._fcms[name]
        lines.append(f"{indent}{fcm.name} [{fcm.level.name}]")
        for child in self._children[name]:
            self._render_node(child, indent + "  ", lines)
