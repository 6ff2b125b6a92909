"""Shared memory model: allocations, abstract bytes, provenance, tag histories.

Both dialects execute over one memory. An allocation keeps its bytes after
Miri's `Allocation`: the values in one `bytearray`, an init mask of the same
length in a second one (1 where a byte is initialized), and a dict of
provenance fragments by offset. An uninitialized byte always holds 0, so two
stores compare by their (bytes, mask) pair and an init claim only sets mask
bytes. A stored pointer spreads one `((alloc id, provenance), index)`
fragment across its eight bytes, and a pointer-typed read reconstructs
provenance only when all eight bytes still carry that fragment in order.
Anything else degrades to a plain integer value. Every mover is a slice
operation on the two arrays, and touches only the fragments its range holds,
so a byte moved costs C time. `read_int` and `read_pointer` share one
uninit-checking byte read; a permissive read, the foreign load mode, returns
None for an uninitialized value where a strict one raises, as an LLVM load
of undef bytes yields a value that is an error only when used.
An untyped copy is a `Blob`, memory's by-value format: `read_blob` returns
the bytes it copies out with their init mask and fragments, `write_blob`
stores one back, and by-value aggregates cross the boundary as one. Only
this module reads a store's fields; the machine asks a `Blob` for its size,
its integer, its first uninitialized byte, its equal pieces and its
(bytes, mask) pair.

Access checks run in a fixed order: liveness, bounds, alignment, borrow
tracker, then byte movement. The alignment check is symbolic by default
(offset modulo the type's alignment, plus a requirement that the allocation
itself is at least that aligned) so that a run never passes just because the
simulated base address happened to line up.

Every event memory records (an allocation, a retag, an access) is stamped
with `Memory.line`, the source line of the statement the machine is
running, which `Machine._step` sets before each statement; a tag's last use
records it beside the access kind and range. There are two exceptions. An
implicit return at the end of a body, and the frame teardown it runs, take
the body's last line (the function's own line for an empty body). A call's
result binds at its call's line, which `Machine._do_return` sets once the
callee's frame is gone.

A `Memory` judges borrows under the tracker type it is built with, and it
is the only owner of that borrow state: it draws every tag, builds every
tracker, retags through it (`retag`), checks accesses and deallocations
against it and ends its protectors (`protector_end`). Every allocation
draws its root tag (`Allocation.tag`) when it is made, but builds its
tracker only when it is first needed: at its first retag, or at the first
access through a provenance other than the root tag, such as a wildcard.
Most allocations are never reborrowed. Until then a root access changes no
state and is kept only as the raw `Allocation.last_use`, which the tracker
adopts as its root's last use; a root tag is never protected, so
deallocation has nothing to check before then.

`BorrowTracker` is the base of both borrow models: it owns an allocation's
tags with their raw events (creation, last use, first invalidation), which
only it writes as text (`history()`). It does so when an error is raised,
and then only for the tags that error involves, so describing a violation
costs those tags and not the allocation's. It also holds protection, one
per-tag set that both models read: a protecting retag adds its tag when it
creates it, and `protector_end` removes it at function exit. Every access
goes through its `access`, whose no-op memo answers a repeated access in
O(1) before the model's own `_access` runs; see `BorrowTracker`.

`Allocation` is the one record of an allocation. A host local of an
integer or pointer type starts immediate, after Miri's `LocalValue`:
`Memory.reserve` draws its id, root tag and base address as `allocate`
would, and it holds one whole `value` and no bytes, which `load` and
`store` read and write as the byte path would. The first address that
reaches it (a retag, an init claim, any pointer access, or an
integer-to-pointer cast into it) materializes it in place, after Miri's
`force_allocation`, with the store the byte path would hold by then. So
every id, tag, address and tag history stays the same whether or not a
local is ever borrowed.

Addresses come from a bump allocator with guard gaps between allocations.
The starting base is perturbed by the seed; no semantic result may depend on
it, which the deduplication tests rely on.
"""

from __future__ import annotations

import enum
import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from .diagnostics import DiagnosticKind, TagEvent, TagHistory
from .rangemap import Range
from .rng import _splitmix64
from .types import Layout

GUARD_GAP = 16
BASE_ADDRESS = 0x10000


class _WildcardType:
    _instance: Optional["_WildcardType"] = None

    def __new__(cls) -> "_WildcardType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "WILDCARD"


WILDCARD = _WildcardType()

# A concrete borrow tag, the wildcard, or no provenance at all.
Provenance = Union[int, _WildcardType, None]


class AllocOrigin(enum.Enum):
    HOST_STACK = "host-stack"
    HOST_HEAP = "host-heap"
    FOREIGN_STACK = "foreign-stack"
    FOREIGN_HEAP = "foreign-heap"


@dataclass(slots=True)
class PointerValue:
    address: int
    alloc_id: Optional[int]
    offset: int
    provenance: Provenance

    def with_byte_offset(self, delta: int) -> "PointerValue":
        return PointerValue(self.address + delta, self.alloc_id, self.offset + delta, self.provenance)


def no_provenance(address: int) -> PointerValue:
    """A bare address, wrapped to 64 bits: no provenance, no allocation, so every access fails."""
    address %= 1 << 64
    return PointerValue(address, None, address, None)


class UbError(Exception):
    """An undefined-behavior finding, raised mid-execution.

    Carries everything the machine cannot reconstruct later: the kind, a
    display message, and `details`, which are `Diagnostic` fields under
    their `Diagnostic` names (for aliasing errors the tag histories and a
    tracker snapshot taken at the moment of the error).
    """

    def __init__(self, kind: DiagnosticKind, message: str, **details) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.details = details


class ScenarioUnsupported(Exception):
    """The scenario steps outside what the engine models; not a finding."""


class BorrowTracker:
    """The tags of one allocation under a borrow model, and their raw events.

    `labels` maps every tag the tracker made to its label, in creation
    order, starting with the root tag that owns the allocation, and
    `protected` holds the tags whose function-entry protector is still
    active. Each model keeps its per-location state in a subclass and
    implements the operations below.

    Per tag, after Miri's `AllocHistory`: `created` holds `(line, kind,
    range, parent)`, `kind` None for the root; `last_use` holds `(kind,
    range, line)`, as `Allocation.last_use` does; `invalidated` holds the
    first `(line, kind, acting tag or None, transition)`, the transition
    being tb's `(old, new)`, "retag" for an sb pop by a retag, or None.
    Only `_describe` writes an event as text, and only for an error, whose
    history and snapshot hold just the tags it involves (`_involved`).

    Every access takes one path, `access`. `_noops` is the no-op memo,
    after Miri's `skip_if_known_noop`: the `(tag, kind)` pairs whose last
    access, over the whole allocation, changed no state anywhere and raised
    nothing. Such an access changes nothing over any range until the state
    changes, so `access` answers a pair found here by recording the tag's
    last use alone; otherwise the model's `_access` applies it and says
    whether it changed any state. Only `access` tests the memo and adds to
    it. `_new_tag` clears it, and so must a model's `_access` wherever it
    changes state, before any error that follows; ending a protector only
    removes errors, so it keeps it.

    Every model is built as `cls(alloc, tag_source)`, only by `Memory`. It
    adopts the `Allocation`'s id, size, root tag, label, line and root last
    use as they are, and `tag_source` draws the run's later tags.
    """

    def __init__(self, alloc: Allocation, tag_source: Callable[[], int]) -> None:
        self.alloc_id, self.size = alloc.id, alloc.size
        self._tag_source = tag_source
        self.root_tag = root = alloc.tag
        self.labels: dict[int, str] = {root: alloc.label}
        self.created: dict[int, tuple] = {root: (alloc.line, None, None, None)}
        self.last_use: dict[int, tuple] = {} if alloc.last_use is None else {root: alloc.last_use}
        self.invalidated: dict[int, tuple] = {}
        self.protected: set[int] = set()
        self._noops: set[tuple[int, str]] = set()

    def _new_tag(self, parent: int, rng: Range, kind: str, label: str, line: int, protect: bool) -> int:
        self._noops.clear()
        tag = self._tag_source()
        self.labels[tag] = label
        self.created[tag] = (line, kind, rng, parent)
        if protect:
            self.protected.add(tag)
        return tag

    def _describe(self, kind: Optional[str], tag: Optional[int] = None, transition=None, rng=None) -> str:
        """An event's text from its fields: `(kind, parent, rng=)`, `(kind, rng=)` or `(kind, acting, transition)`."""
        if kind is None:
            return f"allocation of alloc#{self.alloc_id}"
        if rng is not None:
            span = f"[{rng[0]}..{rng[1]})"
            return f"{kind} of {span}" if tag is None else f"{kind} retag of {span} from tag#{tag}"
        if tag is None:
            return f"{kind} via exposed address"
        if transition == "retag":
            return f"{kind} retag for tag#{tag} ('{self.labels[tag]}')"
        text = f"{kind} via tag#{tag} ('{self.labels[tag]}')"
        return text if transition is None else f"{text}: {transition[0].value} -> {transition[1].value}"

    def _invalidation_note(self, tag: int) -> str:
        event = self.invalidated.get(tag)
        return "" if event is None else f" (invalidated at line {event[0]}: {self._describe(*event[1:])})"

    def _error(self, kind: DiagnosticKind, message: str, off: Optional[int], *named: Optional[int]) -> UbError:
        """An error with the history and snapshot of the tags it involves (`_involved`).

        `named` are the tags its message names; None among them is a
        wildcard's acting tag, which is no tag. An error that names none
        keeps every tag.
        """
        tags = self._involved(named) if named else None
        return UbError(
            kind, message, permission_history=self.history(tags), tracker_snapshot=self.render(off, tags)
        )

    def _involved(self, named: tuple[Optional[int], ...]) -> list[int]:
        """The tags an error naming `named` involves, in creation order.

        Those are `named`, the acting tag of each one's first invalidation,
        and every creation parent of either, up to the root; a None or a
        tag this tracker never made adds nothing. Tags are drawn in
        increasing order, so their order is their creation order.
        """
        created, invalidated = self.created, self.invalidated
        tags = set(named)
        for tag in named:
            event = invalidated.get(tag)
            if event is not None and event[2] is not None:
                tags.add(event[2])
        closed: set[int] = set()
        for tag in tags:
            while tag in created and tag not in closed:
                closed.add(tag)
                tag = created[tag][3]
        return sorted(closed)

    def history(self, tags: Optional[list[int]] = None) -> tuple[TagHistory, ...]:
        """The records of `tags`, or of every tag, in creation order.

        They are written afresh, so later accesses leave them unchanged.
        """
        records = []
        for tag in self.labels if tags is None else tags:
            line, kind, rng, parent = self.created[tag]
            use, gone = self.last_use.get(tag), self.invalidated.get(tag)
            records.append(TagHistory(
                tag, self.labels[tag], TagEvent(line, self._describe(kind, parent, rng=rng)),
                None if use is None else TagEvent(use[2], self._describe(use[0], rng=use[1])),
                None if gone is None else TagEvent(gone[0], self._describe(*gone[1:])),
            ))
        return tuple(records)

    def protector_end(self, tag: int) -> None:
        """The frame that protected `tag` has exited."""
        self.protected.discard(tag)

    def access(self, prov: Provenance, rng: Range, kind: str, line: int = 0) -> None:
        """Apply a `kind` access over `rng` through `prov`, a tag or `WILDCARD`, made at `line`.

        The memo answers a non-empty access only: an empty one, which `Memory` never makes, is each
        model's own, as tb records it as a use and sb does not."""
        if (prov, kind) in self._noops and rng[0] < rng[1]:
            self.last_use[prov] = (kind, rng, line)
            return
        if prov is not WILDCARD and not isinstance(prov, int):
            raise ValueError(f"access with no provenance reached the tracker in alloc#{self.alloc_id}")
        if not self._access(prov, rng, kind, line) and prov is not WILDCARD and rng == (0, self.size):
            self._noops.add((prov, kind))

    def _protected_dealloc(self, tag: int, off: Optional[int]) -> UbError:
        """The error of deallocating while `tag` is protected, drawn at byte `off`."""
        return self._error(
            DiagnosticKind.PROTECTED_PERMISSION,
            f"deallocation of alloc#{self.alloc_id} while tag#{tag} ('{self.labels[tag]}') is protected", off, tag,
        )

    # ---- implemented by each model -------------------------------------------

    def retag(
        self, parent: int, rng: Range, kind: str, cell_ranges: tuple[Range, ...], protect: bool,
        label: str, line: int = 0,
    ) -> int:
        raise NotImplementedError

    def _access(self, prov: Provenance, rng: Range, kind: str, line: int) -> bool:
        """Apply an access the memo does not know, through a tag or `WILDCARD`; whether any state changed."""
        raise NotImplementedError

    def dealloc_check(self) -> None:
        raise NotImplementedError

    def render(self, off: Optional[int] = None, tags: Optional[list[int]] = None) -> str:
        """The state of byte `off`, or of every run of equal bytes, drawn for `tags` or every tag."""
        raise NotImplementedError


# A pointer byte's provenance: ((alloc id, provenance), index within the pointer).
Fragment = tuple[tuple[Optional[int], Provenance], int]

_ONE = b"\x01"  # an initialized byte's mask byte


@dataclass(slots=True)
class Allocation:
    """One allocation, made at `line`, with root tag `tag`.

    Its store is `octets`, its bytes; `initmask`, one byte per byte, 1 where
    it is initialized (an uninitialized byte holds 0 in `octets`); and
    `fragments`, the provenance fragment of each byte that holds one, by
    offset. An immediate local has no store, only its whole `value` (None
    while uninitialized): an int of its type, or a pointer as `read_pointer`
    would return it. A dead allocation has no store either. Until `tracker`
    is built, `last_use` is the root's last use as `(kind, range, line)`.
    """

    id: int
    base: int
    size: int
    align: int
    origin: AllocOrigin
    label: str
    line: int
    tag: int
    immediate: bool
    octets: Optional[bytearray] = None
    initmask: Optional[bytearray] = None
    fragments: Optional[dict[int, Fragment]] = None
    value: Union[int, PointerValue, None] = None
    live: bool = True
    last_use: Optional[tuple[str, Range, int]] = None
    tracker: Optional[BorrowTracker] = None  # built by `Memory.tracker` on first need


@dataclass(slots=True)
class Blob:
    """By-value bytes in an allocation's store format: `octets`, `initmask` and `fragments` by index."""

    octets: bytearray
    initmask: bytearray
    fragments: dict[int, Fragment] = field(default_factory=dict)

    @classmethod
    def from_int(cls, value: int, size: int) -> "Blob":
        """`value`, wrapped to `size` bytes, as initialized little-endian bytes without provenance."""
        return cls(bytearray((value % (1 << (8 * size))).to_bytes(size, "little")), bytearray(_ONE * size))

    @property
    def size(self) -> int:
        return len(self.octets)

    def to_int(self) -> int:
        """The bytes as an unsigned little-endian integer, whatever their init state."""
        return int.from_bytes(self.octets, "little")

    def first_uninit(self) -> Optional[int]:
        """The index of the first uninitialized byte, or None if every byte is initialized."""
        i = self.initmask.find(0)
        return None if i < 0 else i

    def split(self, n: int) -> list["Blob"]:
        """`n` equal pieces, in order, without provenance."""
        width = self.size // n
        return [Blob(self.octets[i * width : (i + 1) * width], self.initmask[i * width : (i + 1) * width])
                for i in range(n)]

    def contents(self) -> tuple[bytearray, bytearray]:
        """The (bytes, mask) pair that two by-value blobs compare by; fragments play no part."""
        return self.octets, self.initmask


def _fragment_offsets(fragments: dict[int, Fragment], lo: int, hi: int) -> list[int]:
    """The offsets in [lo, hi) that hold a fragment, by walking the range or the fragments, whichever is shorter."""
    if hi - lo <= len(fragments):
        return [off for off in range(lo, hi) if off in fragments]
    return [off for off in fragments if lo <= off < hi]


def _drop_fragments(alloc: Allocation, lo: int, hi: int) -> None:
    """Forget the provenance fragments of bytes [lo, hi), which were just overwritten."""
    fragments = alloc.fragments
    if fragments:
        for off in _fragment_offsets(fragments, lo, hi):
            del fragments[off]


def _put(alloc: Allocation, off: int, data: bytes) -> None:
    """Store initialized `data` at `off`, with no provenance."""
    end = off + len(data)
    alloc.octets[off:end] = data
    alloc.initmask[off:end] = _ONE * len(data)
    _drop_fragments(alloc, off, end)


def _put_int(alloc: Allocation, off: int, size: int, value: int) -> None:
    """Store `value` little-endian in bytes [off, off + size), with no provenance."""
    _put(alloc, off, value.to_bytes(size, "little", signed=value < 0))


def _put_pointer(alloc: Allocation, off: int, value: PointerValue) -> None:
    """Store `value`'s address, wrapped to 64 bits, at `off`, spreading its provenance fragment."""
    _put(alloc, off, (value.address % (1 << 64)).to_bytes(8, "little"))
    if value.provenance is not None or value.alloc_id is not None:
        key = (value.alloc_id, value.provenance)
        alloc.fragments.update({off + i: (key, i) for i in range(8)})


def _init_bytes(alloc: Allocation, ptr: PointerValue, size: int, permissive: bool) -> Optional[bytearray]:
    """The `size` bytes at `ptr`, or None if any is uninitialized and the read is `permissive`.

    An uninitialized byte is an error unless `permissive` (the foreign load
    mode), in which case the whole value is uninitialized.
    """
    off = ptr.offset
    i = alloc.initmask.find(0, off, off + size)
    if i < 0:
        return alloc.octets[off : off + size]
    if not permissive:
        raise UbError(
            DiagnosticKind.UNINITIALIZED_READ,
            f"read of uninitialized byte at alloc#{alloc.id}+{i}",
            address=ptr.address + i - off,
        )
    return None


class Memory:
    def __init__(
        self,
        *,
        seed: int = 0,
        symbolic_alignment: bool = True,
        strict_provenance: bool = False,
        zero_init_foreign: bool = False,
        tracker: type[BorrowTracker],
    ) -> None:
        self.symbolic_alignment = symbolic_alignment
        self.strict_provenance = strict_provenance
        self.zero_init_foreign = zero_init_foreign
        self._tracker_type = tracker
        self._next_tag = itertools.count(1).__next__  # the run's tags, from 1
        self.allocations: dict[int, Allocation] = {}  # by id, so in id order
        self._bases: list[int] = []  # of every allocation, in id order, so increasing
        # Base perturbation only moves addresses, never semantics.
        _, word = _splitmix64(seed)
        self._bump = BASE_ADDRESS + 0x1000 * (word % 256)
        self.line = 0  # the source line of the statement being run

    # ---- allocation ----------------------------------------------------------

    def _new(self, size: int, align: int, origin: AllocOrigin, label: str, immediate: bool) -> Allocation:
        """The next allocation, with the next id, base address and root tag, and no store yet.

        Ids count from 1, one per base address.
        """
        if size < 0 or align < 1:
            raise ValueError("bad allocation request")
        base = (self._bump + align - 1) // align * align
        self._bump = base + size + GUARD_GAP
        self._bases.append(base)
        alloc = Allocation(len(self._bases), base, size, align, origin, label, self.line, self._next_tag(), immediate)
        self.allocations[alloc.id] = alloc
        return alloc

    def allocate(self, size: int, align: int, origin: AllocOrigin, label: str = "") -> Allocation:
        alloc = self._new(size, align, origin, label, False)
        zeroed = self.zero_init_foreign and origin in (AllocOrigin.FOREIGN_STACK, AllocOrigin.FOREIGN_HEAP)
        alloc.octets, alloc.fragments = bytearray(size), {}
        alloc.initmask = bytearray(_ONE) * size if zeroed else bytearray(size)
        return alloc

    def reserve(self, size: int, align: int, label: str = "") -> Allocation:
        """A host stack local that memory keeps whole until an address reaches it.

        Draws the alloc id, base address and root tag that `allocate` would
        draw at this point, and builds no store.
        """
        return self._new(size, align, AllocOrigin.HOST_STACK, label, True)

    def _materialize(self, alloc: Allocation) -> None:
        """Give immediate local `alloc` the store the byte path would hold by now."""
        alloc.immediate = False
        alloc.octets, alloc.initmask, alloc.fragments = bytearray(alloc.size), bytearray(alloc.size), {}
        value = alloc.value
        if isinstance(value, PointerValue):
            _put_pointer(alloc, 0, value)
        elif value is not None:
            _put_int(alloc, 0, alloc.size, value)

    def load(self, local: Allocation) -> Union[int, PointerValue]:
        """An immediate local's value, read whole as `read_int` or `read_pointer` reads its bytes."""
        local.last_use = ("read", (0, local.size), self.line)
        if local.value is None:
            raise UbError(
                DiagnosticKind.UNINITIALIZED_READ,
                f"read of uninitialized byte at alloc#{local.id}+0",
                address=local.base,
            )
        return local.value

    def store(self, local: Allocation, value: Union[int, PointerValue]) -> None:
        """Write an immediate local whole: an int of its type, or a pointer.

        A pointer is kept as `read_pointer` returns it after `write_pointer`:
        its address wrapped to 64 bits and its offset taken from its
        allocation's base.
        """
        if isinstance(value, PointerValue):
            address = value.address % (1 << 64)
            offset = address if value.alloc_id is None else address - self._bases[value.alloc_id - 1]
            if address != value.address or offset != value.offset:
                value = PointerValue(address, value.alloc_id, offset, value.provenance)
        local.value = value
        local.last_use = ("write", (0, local.size), self.line)

    def tracker(self, alloc: Allocation) -> BorrowTracker:
        """`alloc`'s borrow tracker, built on first call around its root tag."""
        if alloc.tracker is None:
            alloc.tracker = self._tracker_type(alloc, self._next_tag)
        return alloc.tracker

    def base_pointer(self, alloc: Allocation) -> PointerValue:
        """A pointer to `alloc`'s first byte, carrying its root tag."""
        return PointerValue(alloc.base, alloc.id, 0, alloc.tag)

    def retag(self, ptr: PointerValue, pointee: Layout, kind: str, label: str, protect: bool = False) -> PointerValue:
        """`ptr` with a fresh `kind` tag over its `pointee`'s bytes, derived from the tag it carries.

        The pointee's cell ranges, its interior-mutable bytes, move to the
        pointer's offset. It must be live and in bounds when the borrow is
        made, as Miri requires it to be dereferenceable at retag;
        `check_bounds` also rejects a pointer into no allocation. A borrow
        through an exposed address hangs off the allocation's root tag.
        """
        size = pointee.size
        alloc = self.check_bounds(ptr, size, f"{kind} retag")
        parent = alloc.tag if ptr.provenance is WILDCARD else ptr.provenance
        off = ptr.offset
        cells = tuple((a + off, b + off) for a, b in pointee.cell_ranges) if pointee.cell_ranges else ()
        tag = self.tracker(alloc).retag(parent, (off, off + size), kind, cells, protect, label, self.line)
        return PointerValue(ptr.address, ptr.alloc_id, ptr.offset, tag)

    def protector_end(self, alloc_id: int, tag: int) -> None:
        """The frame that protected `tag` in `alloc_id` has exited; its retag built the tracker."""
        self.allocations[alloc_id].tracker.protector_end(tag)

    def deallocate(self, ptr: PointerValue, via: str) -> Allocation:
        """Free a heap allocation through `ptr`. `via` is "host" or "foreign"."""
        alloc = self._require_allocation(ptr)
        if not alloc.live:
            raise UbError(
                DiagnosticKind.DOUBLE_FREE,
                f"dealloc of alloc#{alloc.id} ({alloc.label}) which was already freed",
            )
        if ptr.offset != 0:
            raise UbError(
                DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                f"dealloc of alloc#{alloc.id} at interior offset {ptr.offset}, not the allocation base",
            )
        if alloc.origin not in (AllocOrigin.HOST_HEAP, AllocOrigin.FOREIGN_HEAP):
            raise UbError(
                DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                f"dealloc of non-heap alloc#{alloc.id} ({alloc.origin.value})",
            )
        if alloc.tracker is not None:
            alloc.tracker.dealloc_check()
        expected = AllocOrigin.HOST_HEAP if via == "host" else AllocOrigin.FOREIGN_HEAP
        if alloc.origin is not expected:
            raise UbError(
                DiagnosticKind.CROSS_LANGUAGE_DEALLOC,
                f"alloc#{alloc.id} ({alloc.label}) was allocated by the {alloc.origin.value} allocator "
                f"but freed by {via} code",
                allocation_origin=alloc.origin.value,
            )
        self._die(alloc)
        return alloc

    def release_stack(self, alloc_id: int) -> None:
        """Tear down one stack slot at frame exit. Protector checks still apply.

        A local that no address ever reached leaves `allocations` for good.
        """
        alloc = self.allocations.get(alloc_id)
        if alloc is None or not alloc.live:
            return
        if alloc.immediate:
            del self.allocations[alloc_id]
        elif alloc.tracker is not None:
            alloc.tracker.dealloc_check()
        self._die(alloc)

    @staticmethod
    def _die(alloc: Allocation) -> None:
        """Mark `alloc` dead and drop its store: every access stops at `check_bounds`'s liveness check, and
        what reads a dead allocation (`leak_report`, a pointee guess) reads only its size and origin."""
        alloc.live = False
        alloc.octets = alloc.initmask = alloc.fragments = None

    def leak_report(self) -> list[Allocation]:
        return [
            a
            for a in self.allocations.values()
            if a.live and a.origin in (AllocOrigin.HOST_HEAP, AllocOrigin.FOREIGN_HEAP)
        ]

    # ---- access checks -------------------------------------------------------

    def _require_allocation(self, ptr: PointerValue) -> Allocation:
        """The allocation `ptr` points into, materialized first if it is an immediate local."""
        if ptr.alloc_id is None:
            raise UbError(
                DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                f"pointer 0x{ptr.address:x} has no provenance and points into no allocation",
                address=ptr.address,
            )
        alloc = self.allocations[ptr.alloc_id]
        if alloc.immediate:
            self._materialize(alloc)
        return alloc

    def check_bounds(self, ptr: PointerValue, size: int, what: str) -> Allocation:
        """Liveness, then bounds, of `size` bytes at `ptr`; the tracker is not consulted.

        `what` names the operation in the message ("read", "write", "init
        claim", or a retag kind such as "mutable-ref retag"). A negative
        `size` overruns, as LLVM's `memset` and `memcpy` read their size
        unsigned, past every allocation.
        """
        alloc = self._require_allocation(ptr)
        if not alloc.live:
            raise UbError(
                DiagnosticKind.USE_AFTER_FREE,
                f"{what} of {size} bytes in alloc#{alloc.id} ({alloc.label}) after it was freed",
                address=ptr.address,
            )
        if size < 0 or ptr.offset < 0 or ptr.offset + size > alloc.size:
            raise UbError(
                DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                f"{what} of {size} bytes at alloc#{alloc.id}+{ptr.offset} overruns the "
                f"{alloc.size}-byte allocation",
                address=ptr.address,
            )
        return alloc

    def check_access(
        self,
        ptr: PointerValue,
        size: int,
        align: int,
        kind: str,  # "read" or "write"
    ) -> Allocation:
        """Liveness, bounds, alignment, then the borrow tracker, in that order."""
        alloc = self.check_bounds(ptr, size, kind)
        if align > 1:
            if self.symbolic_alignment:
                misaligned = ptr.offset % align != 0 or alloc.align < align
            else:
                misaligned = ptr.address % align != 0
            if misaligned:
                raise UbError(
                    DiagnosticKind.MISALIGNED_ACCESS,
                    f"{kind} requiring {align}-byte alignment at alloc#{alloc.id}+{ptr.offset} "
                    f"(allocation aligned to {alloc.align})",
                    address=ptr.address,
                )
        if size > 0:
            rng = (ptr.offset, ptr.offset + size)
            if alloc.tracker is None and ptr.provenance == alloc.tag:
                alloc.last_use = (kind, rng, self.line)
            else:
                self.tracker(alloc).access(ptr.provenance, rng, kind, self.line)
        return alloc

    # ---- typed and raw data movement ----------------------------------------

    def read_int(
        self, ptr: PointerValue, size: int, signed: bool, permissive: bool = False
    ) -> Optional[int]:
        """Read one size-aligned integer; None only for a `permissive` read, see `_init_bytes`."""
        alloc = self.check_access(ptr, size, size, "read")
        raw = _init_bytes(alloc, ptr, size, permissive)
        return None if raw is None else int.from_bytes(raw, "little", signed=signed)

    def write_int(self, ptr: PointerValue, size: int, value: int) -> None:
        """Write one size-aligned integer, with no provenance."""
        alloc = self.check_access(ptr, size, size, "write")
        _put_int(alloc, ptr.offset, size, value)

    def write_uninit(self, ptr: PointerValue, size: int) -> None:
        """A size-aligned write whose bytes end up uninitialized, with no provenance."""
        alloc = self.check_access(ptr, size, size, "write")
        off, end = ptr.offset, ptr.offset + size
        alloc.octets[off:end] = alloc.initmask[off:end] = bytes(size)
        _drop_fragments(alloc, off, end)

    def write_pointer(self, ptr: PointerValue, value: PointerValue) -> None:
        alloc = self.check_access(ptr, 8, 8, "write")
        _put_pointer(alloc, ptr.offset, value)

    def read_pointer(self, ptr: PointerValue, permissive: bool = False) -> Optional[PointerValue]:
        """Read 8 bytes as a pointer, reconstructing provenance if intact; see `_init_bytes`."""
        alloc = self.check_access(ptr, 8, 8, "read")
        raw = _init_bytes(alloc, ptr, 8, permissive)
        if raw is None:
            return None
        address = int.from_bytes(raw, "little")
        frags = alloc.fragments
        if frags:
            first = frags.get(ptr.offset)
            if first is not None and all(
                frags.get(ptr.offset + i) == (first[0], i) for i in range(8)
            ):
                target_alloc, prov = first[0]
                if target_alloc is not None:
                    base = self._bases[target_alloc - 1]
                    return PointerValue(address, target_alloc, address - base, prov)
                return PointerValue(address, None, address, prov)
        # Broken or absent fragments: the value is just an integer.
        return no_provenance(address)

    def read_blob(self, ptr: PointerValue, size: int) -> Blob:
        """Untyped copy-out of the bytes, init mask and provenance fragments. No init check."""
        alloc = self.check_access(ptr, size, 1, "read")
        off, end = ptr.offset, ptr.offset + size
        blob = Blob(alloc.octets[off:end], alloc.initmask[off:end])
        fragments = alloc.fragments
        if fragments:
            blob.fragments = {i - off: fragments[i] for i in _fragment_offsets(fragments, off, end)}
        return blob

    def write_blob(self, ptr: PointerValue, blob: Blob) -> None:
        """Untyped copy-in: preserves the init mask and provenance fragments."""
        alloc = self.check_access(ptr, blob.size, 1, "write")
        off, end = ptr.offset, ptr.offset + blob.size
        alloc.octets[off:end] = blob.octets
        alloc.initmask[off:end] = blob.initmask
        _drop_fragments(alloc, off, end)
        if blob.fragments:
            alloc.fragments.update({off + i: fragment for i, fragment in blob.fragments.items()})

    def assume_init(self, ptr: PointerValue, size: int) -> None:
        """Assert that a range is initialized: missing bytes become zero, which they already hold.

        Performs no access (it models a claim, not a use), so the borrow
        tracker is not consulted; liveness and bounds still are.
        """
        alloc = self.check_bounds(ptr, size, "init claim")
        alloc.initmask[ptr.offset : ptr.offset + size] = _ONE * size

    def memset(self, ptr: PointerValue, byte: int, size: int) -> None:
        alloc = self.check_access(ptr, size, 1, "write")
        off, end = ptr.offset, ptr.offset + size
        # One statement per array, so only one `size`-byte temporary is alive at a time.
        alloc.octets[off:end] = bytes((byte & 0xFF,)) * size
        alloc.initmask[off:end] = _ONE * size
        _drop_fragments(alloc, off, end)

    def memcpy(self, dest: PointerValue, src: PointerValue, size: int) -> None:
        self.write_blob(dest, self.read_blob(src, size))

    # ---- provenance boundary -------------------------------------------------

    def expose(self, ptr: PointerValue) -> int:
        """A pointer's address as an integer (a pointer-to-integer cast).

        Exposure is not recorded: a wildcard access checks no exposed set.
        """
        return ptr.address % (1 << 64)

    def from_exposed(self, address: int) -> PointerValue:
        """Rebuild a pointer from an integer address, wrapped to 64 bits.

        Inside a live allocation the result carries wildcard provenance;
        otherwise it has none and every later access fails. Under strict
        provenance this operation is itself an error. Allocations are
        disjoint and their bases increase with their ids, so the only one
        that can hold `address` is the last one based at or below it. A live
        immediate local that holds it is materialized.
        """
        address %= 1 << 64
        if self.strict_provenance:
            raise UbError(
                DiagnosticKind.STRICT_PROVENANCE_VIOLATION,
                f"integer-to-pointer conversion of 0x{address:x} under strict provenance",
                address=address,
            )
        i = bisect_right(self._bases, address)  # the candidate's id, since ids count from 1
        alloc = self.allocations.get(i)
        if alloc is not None and alloc.live and address < alloc.base + alloc.size:
            if alloc.immediate:
                self._materialize(alloc)
            return PointerValue(address, i, address - alloc.base, WILDCARD)
        return no_provenance(address)
