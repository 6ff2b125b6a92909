"""Per-allocation permission tree (the tb model).

Every allocation owns one tree. The root tag is handed to the allocation's
first owner and is Active everywhere; retags hang child nodes off the parent
tag. The permissions live in one `RangeMap` per allocation, whose segments
each hold every node's state over a run of equal bytes, as Miri's `rperms`
does. A fresh node asserts nothing at retag time: it enters every segment at
its initial permission (ReservedIM inside interior-mutable ranges, otherwise
Reserved for mutable borrows and Frozen for shared ones), uninitialized, and
becomes initialized at a location the first time it is accessed there.

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

Each tag's `TagHistory` (created, last valid use, first invalidation) lives
in the `BorrowTracker` base, shared with the sb model, and so does
protection, one per-tag set that both models read; a `_Node` holds only the
tag's place in the tree. Every access records its source line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Optional

from .diagnostics import DiagnosticKind, TagEvent
from .memory import WILDCARD, BorrowTracker, Provenance, Range
from .rangemap import RangeMap, in_ranges


class Permission(enum.Enum):
    RESERVED = "Reserved"
    RESERVED_IM = "Reserved*"
    ACTIVE = "Active"
    FROZEN = "Frozen"
    DISABLED = "Disabled"


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
class _Node:
    """A tag's place in the tree; its history lives in the tracker's `tags`."""

    parent: Optional[int]
    index: int  # position in creation order, and in every segment's state list
    default_perm: Permission
    children: list[int] = field(default_factory=list)


def _perm_text(initial: Permission, current: Permission) -> str:
    return initial.value if current is initial else f"{initial.value} → {current.value}"


class TreeBorrowTracker(BorrowTracker):
    """Tree of borrow permissions for a single allocation."""

    def __init__(
        self,
        alloc_id: int,
        size: int,
        tag_source: Callable[[], int],
        root_label: str,
        line: int = 0,
    ) -> None:
        super().__init__(alloc_id, tag_source, root_label, line)
        # By tag, in creation order: a node's index is its position here.
        self.nodes: dict[int, _Node] = {self.root_tag: _Node(None, 0, Permission.ACTIVE)}
        # Each segment lists (initial, current, initialized) per node in
        # creation order. The initial permission rides along so that a segment
        # never spans the edge of a node's interior-mutable range.
        self._perms = RangeMap(size, [(_A, _A, True)])

    # ---- structure helpers ---------------------------------------------------

    def _ancestors_and_self(self, tag: int) -> set[int]:
        out = set()
        cur: Optional[int] = tag
        while cur is not None:
            out.add(cur)
            cur = self.nodes[cur].parent
        return out

    def peek_at(self, tag: int, off: int) -> tuple[Permission, bool]:
        """Permission and initialized flag of `tag` at byte `off`."""
        _, perm, initialized = self._perms.at(off)[self.nodes[tag].index]
        return perm, initialized

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
        tag = self._new_tag(parent, rng, kind, label, line, protect)
        self.nodes[tag] = _Node(parent, len(self.nodes), default)
        self.nodes[parent].children.append(tag)
        perms = self._perms
        for a, b in cell_ranges:
            perms.split(a)
            perms.split(b)
        for start, states in zip(perms.starts, perms.values):
            initial = Permission.RESERVED_IM if in_ranges(start, cell_ranges) else default
            states.append((initial, initial, False))
        if protect:
            # Function-entry protection asserts the borrow right away.
            self.access(tag, rng, "read", line)
        return tag

    def access(self, prov: Provenance, rng: Range, kind: str, line: int = 0) -> None:
        if prov is WILDCARD:
            return  # exposed-address accesses are unchecked and change nothing
        if not isinstance(prov, int):
            raise ValueError(f"access with no provenance reached the tracker in alloc#{self.alloc_id}")
        if prov not in self.nodes:
            raise ValueError(f"access via unknown tag#{prov} in alloc#{self.alloc_id}")
        child_side = self._ancestors_and_self(prov)
        acting = self.tags[prov]
        acting_index = self.nodes[prov].index
        nodes, tags, protected = self.nodes, self.tags, self.protected
        order = list(nodes)  # the tag at each node index
        child, foreign = _TRANSITIONS[(kind, "child")], _TRANSITIONS[(kind, "foreign")]
        tables = [child if tag in child_side else foreign for tag in order]
        perms = self._perms
        span = perms.span(*rng)
        # Offset-major, then node order. Every byte of a segment behaves alike,
        # so an error is reported at the first byte that fails, after every
        # earlier byte has been updated.
        for i in span:
            off, states = perms.starts[i], perms.values[i]
            staged: list[tuple[int, Permission]] = []
            for n, (_, perm, initialized) in enumerate(states):
                result = tables[n][perm]
                if result is perm:
                    continue
                tag = order[n]
                if result is _EXPIRED:
                    raise self._error(
                        DiagnosticKind.EXPIRED_PERMISSION,
                        f"{kind} through tag#{prov} ('{acting.label}') at alloc#{self.alloc_id}+{off}: "
                        f"permission of tag#{tag} ('{tags[tag].label}') is Disabled"
                        + self._invalidation_note(tag),
                        off,
                    )
                if result is _INSUFFICIENT:
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"{kind} through tag#{prov} ('{acting.label}') at alloc#{self.alloc_id}+{off}: "
                        f"permission of tag#{tag} ('{tags[tag].label}') is Frozen, which forbids writes"
                        + self._invalidation_note(tag),
                        off,
                    )
                if tag in protected and initialized and result is Permission.DISABLED:
                    raise self._error(
                        DiagnosticKind.PROTECTED_PERMISSION,
                        f"{kind} through tag#{prov} ('{acting.label}') at alloc#{self.alloc_id}+{off} "
                        f"would disable protected tag#{tag} ('{tags[tag].label}')",
                        off,
                    )
                staged.append((n, result))
            for n, new_perm in staged:
                initial, perm, initialized = states[n]
                tag = order[n]
                if new_perm is Permission.DISABLED or (
                    new_perm is Permission.FROZEN and tag not in child_side
                ):
                    self._invalidate(
                        tag, line,
                        f"{kind} via tag#{prov} ('{acting.label}'): {perm.value} -> {new_perm.value}",
                    )
                states[n] = (initial, new_perm, initialized)
            initial, perm, initialized = states[acting_index]
            if not initialized:
                states[acting_index] = (initial, perm, True)
        perms.merge(span)
        acting.last_valid_use = TagEvent(line, f"{kind} of [{rng[0]}..{rng[1]})")

    def dealloc_check(self) -> None:
        """Deallocation while any used, still-protected borrow exists is an error."""
        for tag, node in self.nodes.items():
            if tag in self.protected and any(states[node.index][2] for states in self._perms.values):
                raise self._error(
                    DiagnosticKind.PROTECTED_PERMISSION,
                    f"deallocation of alloc#{self.alloc_id} while tag#{tag} "
                    f"('{self.tags[tag].label}') is protected",
                    None,
                )

    # ---- rendering -----------------------------------------------------------

    def _whole_perm_text(self, node: _Node) -> str:
        """Permissions over the whole allocation, equal runs coalesced."""
        runs = self._perms.runs(lambda states: _perm_text(*states[node.index][:2]))
        if not runs:
            return node.default_perm.value
        if len(runs) == 1:
            return runs[0][2]
        return ", ".join(f"[{a}..{b}) {text}" for a, b, text in runs)

    def render(self, off: Optional[int] = None) -> str:
        """Tree drawing of the permission state, for goldens and diagnostics.

        With `off` the permissions are those of a single byte; otherwise equal
        runs are coalesced into per-range entries.
        """
        at = self._perms.at(off) if off is not None else None
        lines: list[str] = []

        def walk(tag: int, indent: str, is_last: bool) -> None:
            node = self.nodes[tag]
            text = _perm_text(*at[node.index][:2]) if at is not None else self._whole_perm_text(node)
            branch = "└" if is_last else "├"
            shape = "┬" if node.children else "─"
            lines.append(f"{indent}{branch}{shape} {self.tags[tag].label}: {text}")
            child_indent = indent + (" " if is_last else "│")
            for i, c in enumerate(node.children):
                walk(c, child_indent, i == len(node.children) - 1)

        walk(self.root_tag, "", True)
        return "\n".join(lines)

    def serialize(self) -> str:
        """Stable full-state dump; used to check that wildcard accesses change nothing."""
        parts = []
        for tag, n in self.nodes.items():
            states = ";".join(
                f"[{a}..{b}):{initial.value}:{perm.value}:{int(initialized)}"
                for a, b, (initial, perm, initialized) in self._perms.runs(itemgetter(n.index))
            )
            parts.append(f"{tag}|{self.tags[tag].label}|{n.parent}|{int(tag in self.protected)}|{states}")
        return "\n".join(parts)
