"""Per-location borrow stacks (the sb model).

The stacks live in one `RangeMap` per allocation: a run of bytes with equal
stacks shares one segment, so creating a tracker is O(1) and an operation
costs the segments of its range, not its bytes. `Memory` builds the tracker
the first time it is needed, around the root tag the allocation drew when it
was made, and it alone retags through it and ends its protectors.

Where the tree model judges accesses lazily, stacks assert at retag time,
by the rule `_RETAGS` gives each retag kind: a mutable reference makes a
write-grade access through the parent tag (popping everything above the
parent's granting item) and pushes a Unique item, a shared one makes a
read-grade access and pushes SharedReadOnly. Raw-pointer casts access
nothing: a mut cast inserts SharedReadWrite just above its parent's item, a
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

Each stack keeps two indexes beside its items: the index of its topmost
write-granting item, after Miri's `Stack::unique_range`, and each tag's
index, which does the job of Miri's `StackCache`. Finding an item is O(1),
a read at or above the topmost write-granting item pops nothing and returns
at once, and a write pops exactly the items above its own. An access the
`BorrowTracker` memo knows to be a no-op costs O(1).

Each tag's raw events (creation, last use, first invalidation) live in the
`BorrowTracker` base, shared with the tb model: the last use is recorded
per segment as an access passes, and an item's first pop records the raw
cause of the access or retag that popped it as its tag's invalidation. An
error's snapshot lists only the items of the tags that error involves, found
through each stack's tag index, except a wildcard access that no item
grants: it names no tag, so its snapshot keeps every item.
"""

from __future__ import annotations

import enum
from typing import Callable, NamedTuple, Optional

from .diagnostics import DiagnosticKind
from .memory import WILDCARD, Allocation, BorrowTracker, Provenance, Range
from .rangemap import RangeMap


class Grant(enum.Enum):
    UNIQUE = "Unique"
    SHARED_RW = "SharedReadWrite"
    SHARED_RO = "SharedReadOnly"

    __hash__ = object.__hash__  # identity, in C; `Enum.__hash__` runs in Python


class _Item(NamedTuple):
    tag: int
    grant: Grant


# Retag kind -> the access it makes through the parent ("write", "read" or None), its item's grant
# outside and inside cell ranges, and whether the item goes just above the parent's item or on top.
_RETAGS = {
    "mutable-ref": ("write", Grant.UNIQUE, Grant.UNIQUE, False),
    "shared-ref": ("read", Grant.SHARED_RO, Grant.SHARED_RW, False),
    "raw-mut": (None, Grant.SHARED_RW, Grant.SHARED_RW, True),
    "cell": (None, Grant.SHARED_RW, Grant.SHARED_RW, True),
    "raw-const": (None, Grant.SHARED_RO, Grant.SHARED_RW, False),
}


class _Stack:
    """One segment's borrow stack, bottom to top, with two indexes over it.

    `top` is the index of the topmost write-granting item, or -1 if there is
    none, after Miri's `Stack::unique_range`: a read through an item at or
    above it pops nothing. `pos` maps each tag to the index of its item; a
    tag has at most one item per stack, since every retag makes a new tag.
    """

    __slots__ = ("items", "top", "pos")

    def __init__(self, items: list[_Item], top: int, pos: dict[int, int]) -> None:
        self.items = items
        self.top = top
        self.pos = pos

    def copy(self) -> "_Stack":
        return _Stack(self.items[:], self.top, self.pos.copy())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Stack) and self.items == other.items

    def insert(self, i: int, item: _Item) -> None:
        items, pos = self.items, self.pos
        items.insert(i, item)
        for j in range(i, len(items)):
            pos[items[j].tag] = j
        if self.top >= i:
            self.top += 1
        elif item.grant is not Grant.SHARED_RO:
            self.top = i

    def delete(self, doomed: list[int]) -> None:
        """Remove the items at `doomed`, a descending list of indices."""
        items, pos = self.items, self.pos
        for i in doomed:
            del pos[items[i].tag]
        lo = doomed[-1]
        if len(doomed) == len(items) - lo:
            del items[lo:]
        else:
            for i in doomed:
                del items[i]
            for j in range(lo, len(items)):
                pos[items[j].tag] = j
        # Nothing above the old top granted writes, so the new top is at or below it.
        top = min(self.top, len(items) - 1)
        while top >= 0 and items[top].grant is Grant.SHARED_RO:
            top -= 1
        self.top = top


class StackedBorrowTracker(BorrowTracker):
    """Borrow stacks for a single allocation, one per run of equal bytes."""

    def __init__(self, alloc: Allocation, tag_source: Callable[[], int]) -> None:
        super().__init__(alloc, tag_source)
        self._stacks = RangeMap(alloc.size, _Stack([_Item(self.root_tag, Grant.UNIQUE)], 0, {self.root_tag: 0}))

    # ---- helpers -------------------------------------------------------------

    def _remove_above(self, stack: _Stack, index: int, kind: str, cause: tuple, off: int) -> bool:
        """Pop items above the granting one at `index`, top-down, invalidating their tags.

        A write pops all of them, a read only the write-granting ones, of
        which there are none above `top`; a popped tag not yet invalidated
        records `cause`. Popping an item whose tag is protected is an error.
        Returns whether anything was popped.
        """
        items = stack.items
        if kind == "write":
            doomed = list(range(len(items) - 1, index, -1))
        else:
            doomed = [i for i in range(stack.top, index, -1) if items[i].grant is not Grant.SHARED_RO]
        if not doomed:
            return False
        self._noops.clear()
        protected = self.protected
        blocked = next((n for n, i in enumerate(doomed) if items[i].tag in protected), None)
        if blocked is not None:
            # Cut the segment after `off`: the pops made before the error must
            # reach byte `off` alone, since later bytes are never visited.
            self._stacks.split(off + 1)
            guard = items[doomed[blocked]].tag
            doomed = doomed[:blocked]
        if doomed:
            popped = [items[i].tag for i in doomed]
            stack.delete(doomed)
            for tag in popped:
                self.invalidated.setdefault(tag, cause)
        if blocked is not None:
            raise self._error(
                DiagnosticKind.PROTECTED_PERMISSION,
                f"{self._describe(*cause[1:])} at alloc#{self.alloc_id}+{off} would pop protected "
                f"tag#{guard} ('{self.labels[guard]}')",
                off, cause[2], guard,
            )
        return True

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
        """New `kind` tag over `rng` from `parent`, by the rule `_RETAGS` gives `kind`."""
        access, grant, cell_grant, above_parent = _RETAGS[kind]
        tag = self._new_tag(parent, rng, kind, label, line, protect)
        cause = (line, kind, tag, "retag")
        stacks = self._stacks
        in_cell = stacks.split_cells(cell_ranges)
        span = stacks.span(*rng)
        for i in span:
            off, stack = stacks.starts[i], stacks.values[i]
            idx = stack.pos.get(parent)
            if idx is None:
                raise self._error(
                    DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                    f"retag at alloc#{self.alloc_id}+{off}: no item for parent tag#{parent} "
                    f"('{self.labels.get(parent, '?')}') in the borrow stack"
                    + self._invalidation_note(parent),
                    off, tag, parent,
                )
            if access == "write" and stack.items[idx].grant is Grant.SHARED_RO:
                raise self._error(
                    DiagnosticKind.INSUFFICIENT_PERMISSION,
                    f"mutable retag at alloc#{self.alloc_id}+{off} through read-only "
                    f"tag#{parent} ('{self.labels[parent]}')",
                    off, tag, parent,
                )
            if access is not None:
                self._remove_above(stack, idx, access, cause, off)
            item = _Item(tag, cell_grant if in_cell(off) else grant)
            stack.insert(idx + 1 if above_parent else len(stack.items), item)
        stacks.merge(span)
        return tag

    def _access(self, prov: Provenance, rng: Range, kind: str, line: int) -> bool:
        """Apply one access to every segment of `rng`, offset-major.

        Each segment finds the granting item (the tag's own, or for a
        wildcard the topmost that grants the access) and pops above it. A
        tag's last use is the whole range, or under a wildcard the span from
        the first segment it granted to the end of the last.
        """
        use = (kind, rng, line)
        cause = (line, kind, None if prov is WILDCARD else prov, None)
        last_use, stacks = self.last_use, self._stacks
        span = stacks.span(*rng)
        changed = False
        granted: dict[int, int] = {}  # wildcard only: tag -> first offset it granted
        for i in span:
            off, stack = stacks.starts[i], stacks.values[i]
            if prov is WILDCARD:
                idx = len(stack.items) - 1 if kind == "read" else stack.top
                if idx < 0:
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"{kind} via exposed address at alloc#{self.alloc_id}+{off}: "
                        f"no item in the borrow stack grants it",
                        off,
                    )
                tag_for_history = stack.items[idx].tag
                end = rng[1] if i + 1 == span.stop else stacks.starts[i + 1]
                use = (kind, (granted.setdefault(tag_for_history, off), end), line)
            else:
                idx = stack.pos.get(prov)
                if idx is None:
                    raise self._error(
                        DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                        f"{kind} at alloc#{self.alloc_id}+{off}: no item for tag#{prov} "
                        f"('{self.labels.get(prov, '?')}') in the borrow stack" + self._invalidation_note(prov),
                        off, prov,
                    )
                if kind == "write" and stack.items[idx].grant is Grant.SHARED_RO:
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"write at alloc#{self.alloc_id}+{off} through tag#{prov} ('{self.labels[prov]}'), "
                        f"which grants only reads",
                        off, prov,
                    )
                tag_for_history = prov
            if self._remove_above(stack, idx, kind, cause, off):
                changed = True
            last_use[tag_for_history] = use
        stacks.merge(span)
        return changed

    def dealloc_check(self) -> None:
        for off, stack in zip(self._stacks.starts, self._stacks.values):
            for item in stack.items:
                if item.tag in self.protected:
                    raise self._protected_dealloc(item.tag, off)

    # ---- rendering -----------------------------------------------------------

    def _stack_text(self, stack: _Stack, tags: Optional[list[int]] = None) -> str:
        """`stack`'s items, or only those of `tags`, bottom to top."""
        items = stack.items
        if tags is not None:
            pos = stack.pos
            items = [items[i] for i in sorted(pos[tag] for tag in tags if tag in pos)]
        parts = []
        for item in items:
            text = f"{self.labels[item.tag]}: {item.grant.value}"
            if item.tag in self.protected:
                text += " (protected)"
            parts.append(text)
        return "[" + ", ".join(parts) + "]"

    def render(self, off: Optional[int] = None, tags: Optional[list[int]] = None) -> str:
        """Bottom-to-top stack drawing, per byte or coalesced over equal runs, of `tags`' items or all."""
        if off is not None:
            return self._stack_text(self._stacks.at(off), tags)
        lines = [f"[{a}..{b}) {text}" for a, b, text in self._stacks.runs(lambda s: self._stack_text(s, tags))]
        return "\n".join(lines) if lines else "[]"
