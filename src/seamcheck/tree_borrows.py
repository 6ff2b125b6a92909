"""Per-allocation permission tree (the tb model).

Every tracked allocation owns one tree, which `Memory` builds the first
time it is needed, around the root tag the allocation drew when it was made,
and which it alone retags through and ends protectors on. The root tag is
Active everywhere; retags hang child nodes off the parent tag. The
permissions live in one `RangeMap` per allocation, whose segments each hold
every node's state over a run of equal bytes, as Miri's `rperms` does. A fresh node asserts nothing at retag time: it enters every segment at
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

Transitions only move one way (Reserved -> Active -> Frozen -> Disabled), so
an access need not visit every node. Each segment indexes its nodes by
current permission. An access walks the acting node's ancestor path, checks
and applies the child table there, and visits off the path only the nodes
whose permission the foreign table changes: Active for a read; Reserved,
Active and Frozen for a write. Protected nodes are looked up in the
protected set. So an access costs the path it checks plus the states it
changes, and the error raised is still the one at the first failing node in
node order. An access the `BorrowTracker` memo knows to be a no-op costs
O(1).

Each tag's raw events (creation, last use, first invalidation) and its
protection live in the `BorrowTracker` base, shared with the sb model. The
tree is those events too: a node's parent is the one its `created` event
records, and only its index, `_index[tag]`, is kept here; `render` derives
the children from the parents, and for an error draws only the nodes that
error involves. A move to Frozen or Disabled records `(line, kind, acting
tag, (old, new))`, which only an error writes out.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from .diagnostics import DiagnosticKind
from .memory import WILDCARD, Allocation, BorrowTracker, Provenance, Range, UbError
from .rangemap import RangeMap, in_ranges


class Permission(enum.Enum):
    RESERVED = "Reserved"
    RESERVED_IM = "Reserved*"
    ACTIVE = "Active"
    FROZEN = "Frozen"
    DISABLED = "Disabled"

    # Members key every segment's index. Identity hashing keeps those
    # lookups in C; `Enum.__hash__` hashes the member's name in Python.
    __hash__ = object.__hash__


_R = Permission.RESERVED
_RIM = Permission.RESERVED_IM
_A = Permission.ACTIVE
_F = Permission.FROZEN
_D = Permission.DISABLED

# Access kind -> the foreign transitions that change a permission.
_FOREIGN = {"read": ((_A, _F),), "write": ((_R, _D), (_A, _F), (_F, _D))}

# Retag kind (None for the root) -> a node's permission outside interior-mutable
# ranges, and the permission shown for a zero-size allocation.
_DEFAULT = {None: _A, "mutable-ref": _R, "shared-ref": _F}


class _Segment:
    """One segment's permissions: every node's state, and the nodes holding each one.

    `states` lists `(initial, current, initialized)` per node in creation
    order; the initial permission rides along so that a segment never spans
    the edge of a node's interior-mutable range. `index` maps a current
    permission to the indices of the nodes that hold it. A set is made when
    its permission first appears, so a one-node segment holds one set.
    """

    __slots__ = ("states", "index")

    def __init__(
        self, states: list[tuple[Permission, Permission, bool]], index: dict[Permission, set[int]]
    ) -> None:
        self.states = states
        self.index = index

    def copy(self) -> "_Segment":
        return _Segment(self.states[:], {perm: set(nodes) for perm, nodes in self.index.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Segment) and self.states == other.states

    def append(self, state: tuple[Permission, Permission, bool]) -> None:
        self.index.setdefault(state[1], set()).add(len(self.states))
        self.states.append(state)

    def move(self, n: int, perm: Permission, new: Permission) -> None:
        """Node `n` goes from `perm` to `new`."""
        initial, _, initialized = self.states[n]
        self.states[n] = (initial, new, initialized)
        self.index[perm].discard(n)
        self.index.setdefault(new, set()).add(n)


def _perm_text(initial: Permission, current: Permission) -> str:
    return initial.value if current is initial else f"{initial.value} → {current.value}"


class TreeBorrowTracker(BorrowTracker):
    """Tree of borrow permissions for a single allocation."""

    def __init__(self, alloc: Allocation, tag_source: Callable[[], int]) -> None:
        super().__init__(alloc, tag_source)
        # A node's index is its position in creation order and in every
        # segment's state list: `_index` maps a tag to it, `_order` back.
        self._index: dict[int, int] = {self.root_tag: 0}
        self._order: list[int] = [self.root_tag]
        self._perms = RangeMap(alloc.size, _Segment([(_A, _A, True)], {_A: {0}}))

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
        if parent not in self._index:
            raise ValueError(f"retag from unknown tag#{parent} in alloc#{self.alloc_id}")
        if kind in ("raw-mut", "raw-const", "cell"):
            return parent
        default = _DEFAULT[kind]
        tag = self._new_tag(parent, rng, kind, label, line, protect)
        self._index[tag] = len(self._order)
        self._order.append(tag)
        perms = self._perms
        for a, b in cell_ranges:
            perms.split(a)
            perms.split(b)
        for start, segment in zip(perms.starts, perms.values):
            initial = Permission.RESERVED_IM if in_ranges(start, cell_ranges) else default
            segment.append((initial, initial, False))
        if protect:
            # Function-entry protection asserts the borrow right away.
            self.access(tag, rng, "read", line)
        return tag

    def access(self, prov: Provenance, rng: Range, kind: str, line: int = 0) -> None:
        """Apply one access to every segment of `rng`, offset-major.

        Every byte of a segment behaves alike, so an error is reported at the
        first byte that fails, at the first failing node in node order, after
        every earlier byte has been updated.
        """
        if prov is WILDCARD:
            return  # exposed-address accesses are unchecked and change nothing
        if (prov, kind) in self._noops:
            self.last_use[prov] = (kind, rng, line)
            return
        if not isinstance(prov, int):
            raise ValueError(f"access with no provenance reached the tracker in alloc#{self.alloc_id}")
        index_of = self._index
        if prov not in index_of:
            raise ValueError(f"access via unknown tag#{prov} in alloc#{self.alloc_id}")
        created, order, invalidated = self.created, self._order, self.invalidated
        path: list[int] = []  # node indices, from the acting node up to the root
        tag: Optional[int] = prov
        while tag is not None:
            path.append(index_of[tag])
            tag = created[tag][3]
        on_path = set(path)
        acting_index = path[0]
        write = kind == "write"
        # Protected nodes that a foreign write may disable, in node order.
        guarded = sorted(
            i for i in (index_of[t] for t in self.protected) if i not in on_path
        ) if write else ()
        foreign = _FOREIGN[kind]
        perms = self._perms
        span = perms.span(*rng)
        changed = False
        for i in span:
            segment = perms.values[i]
            states, index = segment.states, segment.index
            failing = None
            for n in path:
                perm = states[n][1]
                if (perm is _D or (write and perm is _F)) and (failing is None or n < failing):
                    failing = n
            for n in guarded:
                _, perm, initialized = states[n]
                if initialized and (perm is _R or perm is _F):
                    if failing is None or n < failing:
                        failing = n
                    break
            if failing is not None:
                raise self._access_error(
                    prov, kind, perms.starts[i], order[failing], states[failing][1], failing in on_path
                )
            # Collect every move before making any, so that a node moves once.
            moves = [(n, perm, new) for perm, new in foreign for n in index.get(perm, ()) if n not in on_path]
            if write:
                for n in path:
                    perm = states[n][1]
                    if perm is _R or perm is _RIM:
                        moves.append((n, perm, _A))
            for n, perm, new in moves:
                segment.move(n, perm, new)
                if new is not _A:
                    invalidated.setdefault(order[n], (line, kind, prov, (perm, new)))
            initial, perm, initialized = states[acting_index]
            if not initialized:
                states[acting_index] = (initial, perm, True)
            if moves or not initialized:
                self._noops.clear()
                changed = True
        perms.merge(span)
        self.last_use[prov] = (kind, rng, line)
        if not changed and rng == (0, perms.size):
            self._noops.add((prov, kind))

    def _access_error(self, prov: int, kind: str, off: int, tag: int, perm: Permission, child: bool) -> UbError:
        """The error of a `kind` access through `prov` that fails at node `tag`."""
        head = f"{kind} through tag#{prov} ('{self.labels[prov]}') at alloc#{self.alloc_id}+{off}"
        label = self.labels[tag]
        if not child:
            return self._error(
                DiagnosticKind.PROTECTED_PERMISSION,
                f"{head} would disable protected tag#{tag} ('{label}')",
                off, prov, tag,
            )
        if perm is _D:
            return self._error(
                DiagnosticKind.EXPIRED_PERMISSION,
                f"{head}: permission of tag#{tag} ('{label}') is Disabled" + self._invalidation_note(tag),
                off, prov, tag,
            )
        return self._error(
            DiagnosticKind.INSUFFICIENT_PERMISSION,
            f"{head}: permission of tag#{tag} ('{label}') is Frozen, which forbids writes"
            + self._invalidation_note(tag),
            off, prov, tag,
        )

    def dealloc_check(self) -> None:
        """Deallocation while any used, still-protected borrow exists is an error."""
        for tag, i in self._index.items():
            if tag in self.protected and any(seg.states[i][2] for seg in self._perms.values):
                raise self._error(
                    DiagnosticKind.PROTECTED_PERMISSION,
                    f"deallocation of alloc#{self.alloc_id} while tag#{tag} "
                    f"('{self.labels[tag]}') is protected",
                    None, tag,
                )

    # ---- rendering -----------------------------------------------------------

    def _whole_perm_text(self, tag: int) -> str:
        """Permissions over the whole allocation, equal runs coalesced."""
        i = self._index[tag]
        runs = self._perms.runs(lambda seg: _perm_text(*seg.states[i][:2]))
        if not runs:
            return _DEFAULT[self.created[tag][1]].value
        if len(runs) == 1:
            return runs[0][2]
        return ", ".join(f"[{a}..{b}) {text}" for a, b, text in runs)

    def render(self, off: Optional[int] = None, tags: Optional[list[int]] = None) -> str:
        """Tree drawing of the permission state, for goldens and diagnostics.

        With `off` the permissions are those of a single byte; otherwise equal
        runs are coalesced into per-range entries. With `tags`, in creation
        order and holding every parent of each, only their nodes are drawn.
        """
        at = self._perms.at(off).states if off is not None else None
        order = self._order if tags is None else tags
        children: dict[int, list[int]] = {tag: [] for tag in order}
        for tag in order[1:]:
            children[self.created[tag][3]].append(tag)
        lines: list[str] = []
        # Depth first from a stack, not recursion, so a chain of any depth draws.
        stack = [(self.root_tag, "", True)]
        while stack:
            tag, indent, is_last = stack.pop()
            text = _perm_text(*at[self._index[tag]][:2]) if at is not None else self._whole_perm_text(tag)
            branch = "└" if is_last else "├"
            shape = "┬" if children[tag] else "─"
            lines.append(f"{indent}{branch}{shape} {self.labels[tag]}: {text}")
            child_indent = indent + (" " if is_last else "│")
            kids = children[tag]
            last = len(kids) - 1
            stack.extend((kids[i], child_indent, i == last) for i in range(last, -1, -1))
        return "\n".join(lines)
