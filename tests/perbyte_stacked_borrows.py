"""Reference sb tracker that keeps one stack per byte (test oracle).

This is the per-byte form of `seamcheck.stacked_borrows`: every byte owns a
list of items, built eagerly at allocation. The differential suite checks
that the range-coalesced tracker raises, records and renders exactly what
this one does.

The model itself:

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
a protected item is an error, as is deallocating while any protected item
remains. A tag with no item left in the stack is gone for good: using it
reports the access as out of bounds of what the pointer was ever granted.

Wildcard provenance resolves eagerly to the topmost item that grants the
access, then behaves as if that item had been named.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from seamcheck.diagnostics import DiagnosticKind, TagEvent, TagHistory
from seamcheck.memory import WILDCARD, Provenance, UbError
from seamcheck.stacked_borrows import Grant
from tracker_state import allows_write

Range = tuple[int, int]


@dataclass
class _Item:
    tag: int
    grant: Grant
    protected: bool = False


@dataclass
class _TagInfo:
    label: str
    created: TagEvent
    parent: Optional[int] = None
    last_use: Optional[TagEvent] = None
    invalidated: Optional[TagEvent] = None
    invalidated_by: Optional[int] = None  # the acting tag of `invalidated`


def _in_ranges(off: int, ranges: tuple[Range, ...]) -> bool:
    return any(a <= off < b for a, b in ranges)


class StackedBorrowTracker:
    """Borrow stacks for a single allocation, one stack per byte."""

    model = "sb"

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
        self.root_tag = tag_source()
        self.stacks: dict[int, list[_Item]] = {
            off: [_Item(self.root_tag, Grant.UNIQUE)] for off in range(size)
        }
        self.tags: dict[int, _TagInfo] = {
            self.root_tag: _TagInfo(root_label, TagEvent(line, f"allocation of alloc#{alloc_id}"))
        }
        self._order: list[int] = [self.root_tag]

    # ---- helpers -------------------------------------------------------------

    def _find(self, stack: list[_Item], tag: int) -> Optional[int]:
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].tag == tag:
                return i
        return None

    def _record_pop(self, item: _Item, cause: str, line: int, acting: Optional[int]) -> None:
        info = self.tags[item.tag]
        if info.invalidated is None:
            info.invalidated = TagEvent(line, cause)
            info.invalidated_by = acting

    def _pop_above(
        self, stack: list[_Item], index: int, cause: str, line: int, off: int, acting: Optional[int]
    ) -> None:
        """Write semantics: remove everything above the granting item."""
        while len(stack) > index + 1:
            item = stack[-1]
            if item.protected:
                raise self._error(
                    DiagnosticKind.PROTECTED_PERMISSION,
                    f"{cause} at alloc#{self.alloc_id}+{off} would pop protected "
                    f"tag#{item.tag} ('{self.tags[item.tag].label}')",
                    off, *(t for t in (acting, item.tag) if t is not None),
                )
            stack.pop()
            self._record_pop(item, cause, line, acting)

    def _disable_writers_above(
        self, stack: list[_Item], index: int, cause: str, line: int, off: int, acting: Optional[int]
    ) -> None:
        """Read semantics: remove only write-granting items above the granting one."""
        i = len(stack) - 1
        while i > index:
            item = stack[i]
            if allows_write(item.grant):
                if item.protected:
                    raise self._error(
                        DiagnosticKind.PROTECTED_PERMISSION,
                        f"{cause} at alloc#{self.alloc_id}+{off} would pop protected "
                        f"tag#{item.tag} ('{self.tags[item.tag].label}')",
                        off, *(t for t in (acting, item.tag) if t is not None),
                    )
                stack.pop(i)
                self._record_pop(item, cause, line, acting)
            i -= 1

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
        tag = self._tag_source()
        self.tags[tag] = _TagInfo(
            label, TagEvent(line, f"{kind} retag of [{rng[0]}..{rng[1]}) from tag#{parent}"), parent
        )
        self._order.append(tag)
        cause = f"{kind} retag for tag#{tag} ('{label}')"
        for off in range(rng[0], rng[1]):
            stack = self.stacks[off]
            idx = self._find(stack, parent)
            if idx is None:
                raise self._error(
                    DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                    f"retag at alloc#{self.alloc_id}+{off}: no item for parent tag#{parent} "
                    f"('{self.tags[parent].label if parent in self.tags else '?'}') in the borrow stack"
                    + self._invalidation_note(parent),
                    off, tag, parent,
                )
            parent_item = stack[idx]
            if kind == "mutable-ref":
                if not allows_write(parent_item.grant):
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"mutable retag at alloc#{self.alloc_id}+{off} through read-only "
                        f"tag#{parent} ('{self.tags[parent].label}')",
                        off, tag, parent,
                    )
                self._pop_above(stack, idx, cause, line, off, tag)
                stack.append(_Item(tag, Grant.UNIQUE, protect))
            elif kind == "shared-ref":
                self._disable_writers_above(stack, idx, cause, line, off, tag)
                grant = Grant.SHARED_RW if _in_ranges(off, cell_ranges) else Grant.SHARED_RO
                stack.append(_Item(tag, grant, protect))
            elif kind in ("raw-mut", "cell"):
                stack.insert(idx + 1, _Item(tag, Grant.SHARED_RW, protect))
            elif kind == "raw-const":
                grant = Grant.SHARED_RW if _in_ranges(off, cell_ranges) else Grant.SHARED_RO
                stack.append(_Item(tag, grant, protect))
            else:
                raise ValueError(f"unknown retag kind: {kind}")
        return tag

    def access(self, prov: Provenance, rng: Range, kind: str, line: int = 0) -> None:
        granted: dict[int, int] = {}  # wildcard only: tag -> first byte it granted
        for off in range(rng[0], rng[1]):
            stack = self.stacks[off]
            if prov is WILDCARD:
                idx = None
                for i in range(len(stack) - 1, -1, -1):
                    if kind == "read" or allows_write(stack[i].grant):
                        idx = i
                        break
                if idx is None:
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"{kind} via exposed address at alloc#{self.alloc_id}+{off}: "
                        f"no item in the borrow stack grants it",
                        off,
                    )
                cause = f"{kind} via exposed address"
                acting = None
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
                        off, prov,
                    )
                if kind == "write" and not allows_write(stack[idx].grant):
                    raise self._error(
                        DiagnosticKind.INSUFFICIENT_PERMISSION,
                        f"write at alloc#{self.alloc_id}+{off} through tag#{prov} ('{label}'), "
                        f"which grants only reads",
                        off, prov,
                    )
                cause = f"{kind} via tag#{prov} ('{label}')"
                acting = prov
                tag_for_history = prov
            if kind == "write":
                self._pop_above(stack, idx, cause, line, off, acting)
            else:
                self._disable_writers_above(stack, idx, cause, line, off, acting)
            info = self.tags.get(tag_for_history)
            if info is not None:
                span = (granted.setdefault(tag_for_history, off), off + 1) if prov is WILDCARD else rng
                info.last_use = TagEvent(line, f"{kind} of [{span[0]}..{span[1]})")

    def protector_end(self, tag: int) -> None:
        for stack in self.stacks.values():
            for item in stack:
                if item.tag == tag:
                    item.protected = False

    def dealloc_check(self) -> None:
        for off in sorted(self.stacks):
            for item in self.stacks[off]:
                if item.protected:
                    raise self._error(
                        DiagnosticKind.PROTECTED_PERMISSION,
                        f"deallocation of alloc#{self.alloc_id} while tag#{item.tag} "
                        f"('{self.tags[item.tag].label}') is protected",
                        off, item.tag,
                    )

    # ---- rendering and history -----------------------------------------------

    def _invalidation_note(self, tag: int) -> str:
        info = self.tags.get(tag)
        if info is None or info.invalidated is None:
            return ""
        return f" (invalidated at line {info.invalidated.line}: {info.invalidated.description})"

    def _ancestors_and_self(self, tag: int) -> set[int]:
        out = set()
        cur: Optional[int] = tag
        while cur in self.tags:
            out.add(cur)
            cur = self.tags[cur].parent
        return out

    def _error(self, kind: DiagnosticKind, message: str, off: Optional[int], *named: int) -> UbError:
        """An error with the history and snapshot of the tags it involves, or of every tag if it names none.

        The tags involved are the ones named, the acting tag of each named
        tag's first invalidation, and the ancestors of all of those.
        """
        tags = None
        if named:
            seeds = [*named, *(self.tags[t].invalidated_by for t in named if t in self.tags)]
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
                tag=tag,
                label=info.label,
                created=info.created,
                last_valid_use=info.last_use,
                invalidated=info.invalidated,
            )
            for tag, info in ((t, self.tags[t]) for t in (self._order if tags is None else tags))
        )

    def _stack_text(self, stack: list[_Item], tags: Optional[list[int]]) -> str:
        parts = []
        for item in stack:
            if tags is not None and item.tag not in tags:
                continue
            text = f"{self.tags[item.tag].label}: {item.grant.value}"
            if item.protected:
                text += " (protected)"
            parts.append(text)
        return "[" + ", ".join(parts) + "]"

    def render(self, off: Optional[int] = None, tags: Optional[list[int]] = None) -> str:
        """Bottom-to-top stack drawing, per byte or coalesced over equal runs, of `tags`' items or all."""
        if off is not None:
            return self._stack_text(self.stacks[off], tags)
        lines = []
        start = 0
        while start < self.size:
            text = self._stack_text(self.stacks[start], tags)
            end = start + 1
            while end < self.size and self._stack_text(self.stacks[end], tags) == text:
                end += 1
            lines.append(f"[{start}..{end}) {text}")
            start = end
        return "\n".join(lines) if lines else "[]"

    def serialize(self) -> str:
        parts = []
        for off in sorted(self.stacks):
            items = ";".join(
                f"{i.tag}:{i.grant.value}:{int(i.protected)}" for i in self.stacks[off]
            )
            parts.append(f"{off}|{items}")
        return "\n".join(parts)
