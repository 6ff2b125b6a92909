"""Per-location borrow stacks (the sb model).

The stacks live in one `RangeMap` per allocation: a run of bytes with equal
stacks shares one segment, so creating an allocation is O(1) and an operation
costs the segments of its range, not its bytes.

Where the tree model judges accesses lazily, stacks assert at retag time:
creating a mutable reference performs a write-grade assertion through the
parent tag (popping everything above the parent's granting item) before
pushing a Unique item, and a shared reference performs a read-grade
assertion before pushing SharedReadOnly. Raw-pointer casts assert nothing:
a mut cast inserts SharedReadWrite just above the item it derives from, a
const cast pushes SharedReadOnly on top. Interior-mutable locations get
SharedReadWrite wherever a shared form would get SharedReadOnly.

Accesses find the topmost item carrying the accessing tag. Writes pop every
item above it; reads remove only the write-granting items above it. Popping
an item whose tag is protected is an error, as is deallocating while any
item of a protected tag remains. Protection is not stored in the items: it
is the one per-tag set the `BorrowTracker` base keeps for both models. A
tag with no item left in the stack is gone for good: using it reports the
access as out of bounds of what the pointer was ever granted.

Wildcard provenance resolves eagerly to the topmost item that grants the
access, then behaves as if that item had been named.

Each tag's `TagHistory` (created, last valid use, first invalidation) lives
in the `BorrowTracker` base, shared with the tb model: the last use is
recorded per segment as an access passes, and an item's first pop
invalidates its tag.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Optional

from .diagnostics import DiagnosticKind, TagEvent
from .memory import WILDCARD, BorrowTracker, Provenance, Range
from .rangemap import RangeMap, in_ranges


class Grant(enum.Enum):
    UNIQUE = "Unique"
    SHARED_RW = "SharedReadWrite"
    SHARED_RO = "SharedReadOnly"

    @property
    def allows_write(self) -> bool:
        return self is not Grant.SHARED_RO


class _Item(NamedTuple):
    tag: int
    grant: Grant


class StackedBorrowTracker(BorrowTracker):
    """Borrow stacks for a single allocation, one per run of equal bytes."""

    def __init__(
        self,
        alloc_id: int,
        size: int,
        tag_source: Callable[[], int],
        root_label: str,
        line: int = 0,
    ) -> None:
        super().__init__(alloc_id, tag_source, root_label, line)
        self._stacks = RangeMap(size, [_Item(self.root_tag, Grant.UNIQUE)])

    # ---- helpers -------------------------------------------------------------

    def stack_at(self, off: int) -> tuple[_Item, ...]:
        """The borrow stack of byte `off`, bottom to top."""
        return tuple(self._stacks.at(off))

    def _find(self, stack: list[_Item], tag: int) -> Optional[int]:
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].tag == tag:
                return i
        return None

    def _remove_above(
        self, stack: list[_Item], index: int, kind: str, cause: str, line: int, off: int
    ) -> None:
        """Pop items above the granting one at `index`, top-down, invalidating their tags.

        A write pops all of them, a read only the write-granting ones.
        Popping an item whose tag is protected is an error.
        """
        doomed = [
            i for i in range(len(stack) - 1, index, -1)
            if kind == "write" or stack[i].grant.allows_write
        ]
        blocked = next((i for i in doomed if stack[i].tag in self.protected), None)
        if blocked is not None:
            # Cut the segment after `off`: the pops made before the error must
            # reach byte `off` alone, since later bytes are never visited.
            self._stacks.split(off + 1)
        for i in doomed:
            tag = stack[i].tag
            if i == blocked:
                raise self._error(
                    DiagnosticKind.PROTECTED_PERMISSION,
                    f"{cause} at alloc#{self.alloc_id}+{off} would pop protected "
                    f"tag#{tag} ('{self.tags[tag].label}')",
                    off,
                )
            del stack[i]
            self._invalidate(tag, line, cause)

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
        tag = self._new_tag(parent, rng, kind, label, line, protect)
        cause = f"{kind} retag for tag#{tag} ('{label}')"
        stacks = self._stacks
        for a, b in cell_ranges:
            stacks.split(a)
            stacks.split(b)
        span = stacks.span(*rng)
        for i in span:
            off, stack = stacks.starts[i], stacks.values[i]
            idx = self._find(stack, parent)
            if idx is None:
                raise self._error(
                    DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                    f"retag at alloc#{self.alloc_id}+{off}: no item for parent tag#{parent} "
                    f"('{self.tags[parent].label if parent in self.tags else '?'}') in the borrow stack"
                    + self._invalidation_note(parent),
                    off,
                )
            parent_item = stack[idx]
            if kind == "mutable-ref":
                if not parent_item.grant.allows_write:
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"mutable retag at alloc#{self.alloc_id}+{off} through read-only "
                        f"tag#{parent} ('{self.tags[parent].label}')",
                        off,
                    )
                self._remove_above(stack, idx, "write", cause, line, off)
                stack.append(_Item(tag, Grant.UNIQUE))
            elif kind == "shared-ref":
                self._remove_above(stack, idx, "read", cause, line, off)
                grant = Grant.SHARED_RW if in_ranges(off, cell_ranges) else Grant.SHARED_RO
                stack.append(_Item(tag, grant))
            elif kind in ("raw-mut", "cell"):
                stack.insert(idx + 1, _Item(tag, Grant.SHARED_RW))
            elif kind == "raw-const":
                grant = Grant.SHARED_RW if in_ranges(off, cell_ranges) else Grant.SHARED_RO
                stack.append(_Item(tag, grant))
            else:
                raise ValueError(f"unknown retag kind: {kind}")
        stacks.merge(span)
        return tag

    def access(self, prov: Provenance, rng: Range, kind: str, line: int = 0) -> None:
        stacks = self._stacks
        span = stacks.span(*rng)
        for i in span:
            off, stack = stacks.starts[i], stacks.values[i]
            if prov is WILDCARD:
                idx = None
                for j in range(len(stack) - 1, -1, -1):
                    if kind == "read" or stack[j].grant.allows_write:
                        idx = j
                        break
                if idx is None:
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"{kind} via exposed address at alloc#{self.alloc_id}+{off}: "
                        f"no item in the borrow stack grants it",
                        off,
                    )
                cause = f"{kind} via exposed address"
                tag_for_history = stack[idx].tag
            else:
                if not isinstance(prov, int):
                    raise ValueError(
                        f"access with no provenance reached the tracker in alloc#{self.alloc_id}"
                    )
                idx = self._find(stack, prov)
                label = self.tags[prov].label if prov in self.tags else "?"
                if idx is None:
                    raise self._error(
                        DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                        f"{kind} at alloc#{self.alloc_id}+{off}: no item for tag#{prov} "
                        f"('{label}') in the borrow stack" + self._invalidation_note(prov),
                        off,
                    )
                if kind == "write" and not stack[idx].grant.allows_write:
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"write at alloc#{self.alloc_id}+{off} through tag#{prov} ('{label}'), "
                        f"which grants only reads",
                        off,
                    )
                cause = f"{kind} via tag#{prov} ('{label}')"
                tag_for_history = prov
            self._remove_above(stack, idx, kind, cause, line, off)
            info = self.tags.get(tag_for_history)
            if info is not None:
                info.last_valid_use = TagEvent(line, f"{kind} of [{rng[0]}..{rng[1]})")
        stacks.merge(span)

    def dealloc_check(self) -> None:
        for off, stack in zip(self._stacks.starts, self._stacks.values):
            for item in stack:
                if item.tag in self.protected:
                    raise self._error(
                        DiagnosticKind.PROTECTED_PERMISSION,
                        f"deallocation of alloc#{self.alloc_id} while tag#{item.tag} "
                        f"('{self.tags[item.tag].label}') is protected",
                        off,
                    )

    # ---- rendering -----------------------------------------------------------

    def _stack_text(self, stack: list[_Item]) -> str:
        parts = []
        for item in stack:
            text = f"{self.tags[item.tag].label}: {item.grant.value}"
            if item.tag in self.protected:
                text += " (protected)"
            parts.append(text)
        return "[" + ", ".join(parts) + "]"

    def render(self, off: Optional[int] = None) -> str:
        """Bottom-to-top stack drawing, per byte or coalesced over equal runs."""
        if off is not None:
            return self._stack_text(self._stacks.at(off))
        lines = [f"[{a}..{b}) {text}" for a, b, text in self._stacks.runs(self._stack_text)]
        return "\n".join(lines) if lines else "[]"

    def serialize(self) -> str:
        """Stable full-state dump, equal runs coalesced."""
        protected = self.protected
        return "\n".join(
            f"[{a}..{b})|"
            + ";".join(f"{i.tag}:{i.grant.value}:{int(i.tag in protected)}" for i in stack)
            for a, b, stack in self._stacks.runs(tuple)
        )
