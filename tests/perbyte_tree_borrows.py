"""Reference tb tracker that keeps its state byte by byte (test oracle).

This is the per-byte form of `seamcheck.tree_borrows`: every node holds a
dict of lazily materialized location states and an access visits every node
for every byte. The differential suite checks that the range-coalesced
tracker raises, records and renders exactly what this one does.

The model itself:

Every allocation owns one tree. The root tag is handed to the allocation's
first owner and is Active everywhere; retags hang child nodes off the parent
tag. Each node tracks a permission per byte location, materialized lazily:
a fresh node asserts nothing at retag time and starts from its initial
permission (ReservedIM inside interior-mutable ranges, otherwise Reserved
for mutable borrows and Frozen for shared ones) the first time the location
is touched at all.

An access through tag `t` is a child access for `t` and its ancestors and a
foreign access for every other node. Transitions follow one table:

    child read:    Reserved, ReservedIM, Active, Frozen keep; Disabled errors
    child write:   Reserved/ReservedIM -> Active; Active keeps;
                   Frozen errors (insufficient); Disabled errors (expired)
    foreign read:  Active -> Frozen; everything else keeps
    foreign write: Reserved -> Disabled; ReservedIM keeps; Active -> Frozen;
                   Frozen -> Disabled; Disabled keeps

The foreign-write cell for Active deliberately freezes instead of disabling;
that choice is observable in parent/child write orderings and is frozen by
the golden tests. A protected node whose initialized location would become
Disabled is an error; protectors are created by function-entry retags, which
immediately perform a read access over the retag range (so protected nodes
are always initialized there). Wildcard accesses touch nothing.

Transitions apply to lazy locations too; laziness only means no assertion at
retag time and no protector error before the first genuine use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from seamcheck.diagnostics import DiagnosticKind, TagEvent, TagHistory
from seamcheck.memory import WILDCARD, Provenance, UbError
from seamcheck.tree_borrows import Permission

Range = tuple[int, int]

_R = Permission.RESERVED
_RIM = Permission.RESERVED_IM
_A = Permission.ACTIVE
_F = Permission.FROZEN
_D = Permission.DISABLED

_EXPIRED = "expired"
_INSUFFICIENT = "insufficient"

# (access kind, relation) -> {old permission: new permission or error marker}
_TRANSITIONS: dict[tuple[str, str], dict[Permission, object]] = {
    ("read", "child"): {_R: _R, _RIM: _RIM, _A: _A, _F: _F, _D: _EXPIRED},
    ("write", "child"): {_R: _A, _RIM: _A, _A: _A, _F: _INSUFFICIENT, _D: _EXPIRED},
    ("read", "foreign"): {_R: _R, _RIM: _RIM, _A: _F, _F: _F, _D: _D},
    ("write", "foreign"): {_R: _D, _RIM: _RIM, _A: _F, _F: _D, _D: _D},
}


@dataclass
class _LocState:
    perm: Permission
    initialized: bool


@dataclass
class _Node:
    tag: int
    label: str
    parent: Optional[int]
    default_perm: Permission
    cell_ranges: tuple[Range, ...]
    protected: bool = False
    created: TagEvent = TagEvent(0, "")
    last_use: Optional[TagEvent] = None
    invalidated: Optional[TagEvent] = None
    invalidated_by: Optional[int] = None  # the acting tag of `invalidated`
    states: dict[int, _LocState] = field(default_factory=dict)

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def initial_perm_at(self, off: int) -> Permission:
        if self.is_root:
            return Permission.ACTIVE
        for a, b in self.cell_ranges:
            if a <= off < b:
                return Permission.RESERVED_IM
        return self.default_perm

    def state_at(self, off: int) -> _LocState:
        st = self.states.get(off)
        if st is None:
            st = _LocState(self.initial_perm_at(off), self.is_root)
            self.states[off] = st
        return st

    def peek_at(self, off: int) -> tuple[Permission, bool]:
        st = self.states.get(off)
        if st is None:
            return self.initial_perm_at(off), self.is_root
        return st.perm, st.initialized


class TreeBorrowTracker:
    """Tree of borrow permissions for a single allocation."""

    model = "tb"

    def __init__(
        self,
        alloc_id: int,
        size: int,
        tag_source: Callable[[], int],
        root_label: str,
        line: int = 0,
    ) -> None:
        self.alloc_id = alloc_id
        self.size = size
        self._tag_source = tag_source
        root = _Node(
            tag=tag_source(),
            label=root_label,
            parent=None,
            default_perm=Permission.ACTIVE,
            cell_ranges=(),
            created=TagEvent(line, f"allocation of alloc#{alloc_id}"),
        )
        self.root_tag = root.tag
        self.nodes: dict[int, _Node] = {root.tag: root}
        self._order: list[int] = [root.tag]

    # ---- structure helpers ---------------------------------------------------

    def _ancestors_and_self(self, tag: int) -> set[int]:
        out = set()
        cur: Optional[int] = tag
        while cur is not None:
            out.add(cur)
            cur = self.nodes[cur].parent
        return out

    def _label(self, tag: int) -> str:
        return self.nodes[tag].label

    # ---- operations ----------------------------------------------------------

    def retag(
        self,
        parent: int,
        rng: Range,
        kind: str,
        cell_ranges: tuple[Range, ...],
        protect: bool,
        label: str,
        line: int = 0,
    ) -> int:
        """New child tag under `parent`. Raw retags return the parent unchanged."""
        if parent not in self.nodes:
            raise ValueError(f"retag from unknown tag#{parent} in alloc#{self.alloc_id}")
        if kind in ("raw-mut", "raw-const", "cell"):
            return parent
        default = {"mutable-ref": Permission.RESERVED, "shared-ref": Permission.FROZEN}[kind]
        node = _Node(
            tag=self._tag_source(),
            label=label,
            parent=parent,
            default_perm=default,
            cell_ranges=cell_ranges,
            protected=protect,
            created=TagEvent(line, f"{kind} retag of [{rng[0]}..{rng[1]}) from tag#{parent}"),
        )
        self.nodes[node.tag] = node
        self._order.append(node.tag)
        if protect:
            # Function-entry protection asserts the borrow right away.
            self.access(node.tag, rng, "read", line)
        return node.tag

    def access(self, prov: Provenance, rng: Range, kind: str, line: int = 0) -> None:
        if prov is WILDCARD:
            return  # exposed-address accesses are unchecked and change nothing
        if not isinstance(prov, int):
            raise ValueError(f"access with no provenance reached the tracker in alloc#{self.alloc_id}")
        if prov not in self.nodes:
            raise ValueError(f"access via unknown tag#{prov} in alloc#{self.alloc_id}")
        child_side = self._ancestors_and_self(prov)
        acting = self.nodes[prov]
        for off in range(rng[0], rng[1]):
            staged: list[tuple[_Node, _LocState, Permission]] = []
            for tag in self._order:
                node = self.nodes[tag]
                relation = "child" if tag in child_side else "foreign"
                state = node.state_at(off)
                result = _TRANSITIONS[(kind, relation)][state.perm]
                if result is _EXPIRED:
                    raise self._error(
                        DiagnosticKind.EXPIRED_PERMISSION,
                        f"{kind} through tag#{prov} ('{acting.label}') at alloc#{self.alloc_id}+{off}: "
                        f"permission of tag#{tag} ('{node.label}') is Disabled"
                        + self._invalidation_note(node),
                        off, prov, tag,
                    )
                if result is _INSUFFICIENT:
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"{kind} through tag#{prov} ('{acting.label}') at alloc#{self.alloc_id}+{off}: "
                        f"permission of tag#{tag} ('{node.label}') is Frozen, which forbids writes"
                        + self._invalidation_note(node),
                        off, prov, tag,
                    )
                new_perm = result
                if (
                    node.protected
                    and state.initialized
                    and new_perm is Permission.DISABLED
                    and state.perm is not Permission.DISABLED
                ):
                    raise self._error(
                        DiagnosticKind.PROTECTED_PERMISSION,
                        f"{kind} through tag#{prov} ('{acting.label}') at alloc#{self.alloc_id}+{off} "
                        f"would disable protected tag#{tag} ('{node.label}')",
                        off, prov, tag,
                    )
                staged.append((node, state, new_perm))
            for node, state, new_perm in staged:
                if new_perm is not state.perm:
                    if new_perm is Permission.DISABLED or (
                        new_perm is Permission.FROZEN and node.tag not in child_side
                    ):
                        if node.invalidated is None:
                            node.invalidated = TagEvent(
                                line,
                                f"{kind} via tag#{prov} ('{acting.label}'): "
                                f"{state.perm.value} -> {new_perm.value}",
                            )
                            node.invalidated_by = prov
                    state.perm = new_perm
            acting_state = acting.states[off]  # materialized by the scan above
            acting_state.initialized = True
        acting.last_use = TagEvent(line, f"{kind} of [{rng[0]}..{rng[1]})")

    def protector_end(self, tag: int) -> None:
        self.nodes[tag].protected = False

    def dealloc_check(self) -> None:
        """Deallocation while any used, still-protected borrow exists is an error."""
        for tag in self._order:
            node = self.nodes[tag]
            if node.protected and any(st.initialized for st in node.states.values()):
                raise self._error(
                    DiagnosticKind.PROTECTED_PERMISSION,
                    f"deallocation of alloc#{self.alloc_id} while tag#{tag} "
                    f"('{node.label}') is protected",
                    None, tag,
                )

    # ---- rendering and history -----------------------------------------------

    def _invalidation_note(self, node: _Node) -> str:
        if node.invalidated is None:
            return ""
        return f" (invalidated at line {node.invalidated.line}: {node.invalidated.description})"

    def _error(self, kind: DiagnosticKind, message: str, off: Optional[int], *named: int) -> UbError:
        """An error with the history and snapshot of the tags it involves, or of every tag if it names none.

        The tags involved are the ones named, the acting tag of each named
        tag's first invalidation, and the ancestors of all of those.
        """
        tags = None
        if named:
            seeds = [*named, *(self.nodes[t].invalidated_by for t in named)]
            involved = set().union(*(self._ancestors_and_self(t) for t in seeds if t is not None))
            tags = [t for t in self._order if t in involved]
        return UbError(
            kind,
            message,
            permission_history=self.history(tags),
            tracker_snapshot=self.render(off, tags),
        )

    def history(self, tags: Optional[list[int]] = None) -> tuple[TagHistory, ...]:
        return tuple(
            TagHistory(
                tag=n.tag,
                label=n.label,
                created=n.created,
                last_valid_use=n.last_use,
                invalidated=n.invalidated,
            )
            for n in (self.nodes[t] for t in (self._order if tags is None else tags))
        )

    def _children(self, tag: int, shown: list[int]) -> list[int]:
        return [t for t in shown if self.nodes[t].parent == tag]

    def _perm_text(self, node: _Node, off: Optional[int]) -> str:
        if off is not None:
            initial = node.initial_perm_at(off)
            current, _ = node.peek_at(off)
            if current is initial:
                return initial.value
            return f"{initial.value} → {current.value}"
        # Whole-allocation form: coalesce equal runs of byte states.
        runs: list[tuple[int, int, str]] = []
        start = 0
        while start < self.size:
            initial = node.initial_perm_at(start)
            current, _ = node.peek_at(start)
            end = start + 1
            while end < self.size and (
                node.initial_perm_at(end),
                node.peek_at(end)[0],
            ) == (initial, current):
                end += 1
            text = initial.value if current is initial else f"{initial.value} → {current.value}"
            runs.append((start, end, text))
            start = end
        if not runs:
            return Permission.ACTIVE.value if node.is_root else node.default_perm.value
        if len(runs) == 1:
            return runs[0][2]
        return ", ".join(f"[{a}..{b}) {text}" for a, b, text in runs)

    def render(self, off: Optional[int] = None, tags: Optional[list[int]] = None) -> str:
        """Tree drawing of the permission state, for goldens and diagnostics.

        With `off` the permissions are those of a single byte; otherwise equal
        runs are coalesced into per-range entries. With `tags` only their
        nodes are drawn.
        """
        lines: list[str] = []
        shown = self._order if tags is None else tags

        def walk(tag: int, indent: str, is_last: bool) -> None:
            node = self.nodes[tag]
            children = self._children(tag, shown)
            branch = "└" if is_last else "├"
            shape = "┬" if children else "─"
            lines.append(f"{indent}{branch}{shape} {node.label}: {self._perm_text(node, off)}")
            child_indent = indent + (" " if is_last else "│")
            for i, c in enumerate(children):
                walk(c, child_indent, i == len(children) - 1)

        walk(self.root_tag, "", True)
        return "\n".join(lines)

    def serialize(self) -> str:
        """Stable full-state dump; used to check that wildcard accesses change nothing."""
        parts = []
        for tag in self._order:
            n = self.nodes[tag]
            states = ";".join(
                f"{off}:{st.perm.value}:{int(st.initialized)}" for off, st in sorted(n.states.items())
            )
            parts.append(f"{tag}|{n.label}|{n.parent}|{int(n.protected)}|{n.default_perm.value}|{states}")
        return "\n".join(parts)
