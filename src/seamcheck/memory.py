"""Shared memory model: allocations, abstract bytes, provenance.

Both dialects execute over one memory. Every byte is either uninitialized or
holds a value plus an optional provenance fragment; a stored pointer spreads
one fragment across its eight bytes, and a pointer-typed read reconstructs
provenance only when all eight bytes still carry that fragment in order.
Anything else degrades to a plain integer value.

Access checks run in a fixed order: liveness, bounds, alignment, borrow
tracker, then byte movement. The alignment check is symbolic by default
(offset modulo the type's alignment, plus a requirement that the allocation
itself is at least that aligned) so that a run never passes just because the
simulated base address happened to line up.

Addresses come from a bump allocator with guard gaps between allocations.
The starting base is perturbed by the seed; no semantic result may depend on
it, which the deduplication tests rely on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import DiagnosticKind, TagHistory
from .rng import _splitmix64

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
    STATIC = "static"


@dataclass(frozen=True)
class PointerValue:
    address: int
    alloc_id: Optional[int]
    offset: int
    provenance: Provenance

    def with_byte_offset(self, delta: int) -> "PointerValue":
        return PointerValue(self.address + delta, self.alloc_id, self.offset + delta, self.provenance)


NULL = PointerValue(0, None, 0, None)


class UbError(Exception):
    """An undefined-behavior finding, raised mid-execution.

    Carries everything the machine cannot reconstruct later: the kind, a
    display message, and (for aliasing errors) tag histories plus a rendered
    tracker snapshot taken at the moment of the error.
    """

    def __init__(
        self,
        kind: DiagnosticKind,
        message: str,
        *,
        history: tuple[TagHistory, ...] = (),
        snapshot: Optional[str] = None,
        origin: Optional[str] = None,
        address: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.message = message
        self.history = history
        self.snapshot = snapshot
        self.origin = origin
        self.address = address


@dataclass
class AccessContext:
    """Where an access comes from, for tracker history and error messages."""

    line: int = 0


@dataclass
class Allocation:
    id: int
    base: int
    size: int
    align: int
    origin: AllocOrigin
    label: str
    live: bool = True
    values: list[Optional[int]] = field(default_factory=list)
    fragments: dict[int, tuple[tuple, int]] = field(default_factory=dict)
    exposed: set = field(default_factory=set)
    tracker: object = None  # set by the machine; duck-typed borrow tracker

    def init_mask(self) -> tuple[bool, ...]:
        return tuple(v is not None for v in self.values)


def _ub(kind: DiagnosticKind, message: str, **kw) -> UbError:
    return UbError(kind, message, **kw)


def _drop_fragments(alloc: Allocation, lo: int, hi: int) -> None:
    """Forget the provenance fragments of bytes [lo, hi), which were just overwritten."""
    if alloc.fragments:
        for off in range(lo, hi):
            alloc.fragments.pop(off, None)


class Memory:
    def __init__(
        self,
        *,
        seed: int = 0,
        symbolic_alignment: bool = True,
        strict_provenance: bool = False,
        zero_init_foreign: bool = False,
    ) -> None:
        self.symbolic_alignment = symbolic_alignment
        self.strict_provenance = strict_provenance
        self.zero_init_foreign = zero_init_foreign
        self.allocations: dict[int, Allocation] = {}
        self._next_id = 1
        # Base perturbation only moves addresses, never semantics.
        _, word = _splitmix64(seed)
        self._bump = BASE_ADDRESS + 0x1000 * (word % 256)

    # ---- allocation ----------------------------------------------------------

    def allocate(self, size: int, align: int, origin: AllocOrigin, label: str = "") -> Allocation:
        if size < 0 or align < 1:
            raise ValueError("bad allocation request")
        base = (self._bump + align - 1) // align * align
        self._bump = base + size + GUARD_GAP
        alloc = Allocation(
            id=self._next_id,
            base=base,
            size=size,
            align=align,
            origin=origin,
            label=label,
            values=[None] * size,
        )
        if self.zero_init_foreign and origin in (AllocOrigin.FOREIGN_STACK, AllocOrigin.FOREIGN_HEAP):
            alloc.values = [0] * size
        self._next_id += 1
        self.allocations[alloc.id] = alloc
        return alloc

    def base_pointer(self, alloc: Allocation, tag: Provenance) -> PointerValue:
        return PointerValue(alloc.base, alloc.id, 0, tag)

    def deallocate(self, ptr: PointerValue, via: str, ctx: Optional[AccessContext] = None) -> Allocation:
        """Free a heap allocation through `ptr`. `via` is "host" or "foreign"."""
        alloc = self._require_allocation(ptr, ctx)
        if not alloc.live:
            raise _ub(
                DiagnosticKind.DOUBLE_FREE,
                f"dealloc of alloc#{alloc.id} ({alloc.label}) which was already freed",
            )
        if ptr.offset != 0:
            raise _ub(
                DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                f"dealloc of alloc#{alloc.id} at interior offset {ptr.offset}, not the allocation base",
            )
        if alloc.origin not in (AllocOrigin.HOST_HEAP, AllocOrigin.FOREIGN_HEAP):
            raise _ub(
                DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                f"dealloc of non-heap alloc#{alloc.id} ({alloc.origin.value})",
            )
        if alloc.tracker is not None:
            alloc.tracker.dealloc_check(ctx or AccessContext())
        expected = AllocOrigin.HOST_HEAP if via == "host" else AllocOrigin.FOREIGN_HEAP
        if alloc.origin is not expected:
            raise _ub(
                DiagnosticKind.CROSS_LANGUAGE_DEALLOC,
                f"alloc#{alloc.id} ({alloc.label}) was allocated by the {alloc.origin.value} allocator "
                f"but freed by {via} code",
                origin=alloc.origin.value,
            )
        alloc.live = False
        return alloc

    def release_stack(self, alloc_id: int, ctx: Optional[AccessContext] = None) -> None:
        """Tear down one stack slot at frame exit. Protector checks still apply."""
        alloc = self.allocations[alloc_id]
        if not alloc.live:
            return
        if alloc.tracker is not None:
            alloc.tracker.dealloc_check(ctx or AccessContext())
        alloc.live = False

    def leak_report(self) -> list[Allocation]:
        return [
            a
            for a in sorted(self.allocations.values(), key=lambda a: a.id)
            if a.live and a.origin in (AllocOrigin.HOST_HEAP, AllocOrigin.FOREIGN_HEAP)
        ]

    # ---- access checks -------------------------------------------------------

    def _require_allocation(self, ptr: PointerValue, ctx: Optional[AccessContext]) -> Allocation:
        if ptr.alloc_id is None:
            raise _ub(
                DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                f"pointer 0x{ptr.address:x} has no provenance and points into no allocation",
                address=ptr.address,
            )
        return self.allocations[ptr.alloc_id]

    def check_bounds(self, ptr: PointerValue, size: int, what: str) -> Allocation:
        """Liveness, then bounds, of `size` bytes at `ptr`; the tracker is not consulted.

        `what` names the operation in the message ("read", "write", or a retag
        kind such as "mutable-ref retag").
        """
        alloc = self._require_allocation(ptr, None)
        if not alloc.live:
            raise _ub(
                DiagnosticKind.USE_AFTER_FREE,
                f"{what} of {size} bytes in alloc#{alloc.id} ({alloc.label}) after it was freed",
                address=ptr.address,
            )
        if ptr.offset < 0 or ptr.offset + size > alloc.size:
            raise _ub(
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
        ctx: Optional[AccessContext] = None,
    ) -> Allocation:
        """Liveness, bounds, alignment, then the borrow tracker, in that order."""
        ctx = ctx or AccessContext()
        alloc = self.check_bounds(ptr, size, kind)
        if align > 1:
            if self.symbolic_alignment:
                misaligned = ptr.offset % align != 0 or alloc.align < align
            else:
                misaligned = ptr.address % align != 0
            if misaligned:
                raise _ub(
                    DiagnosticKind.MISALIGNED_ACCESS,
                    f"{kind} requiring {align}-byte alignment at alloc#{alloc.id}+{ptr.offset} "
                    f"(allocation aligned to {alloc.align})",
                    address=ptr.address,
                )
        if alloc.tracker is not None and size > 0:
            alloc.tracker.access(ptr.provenance, (ptr.offset, ptr.offset + size), kind, ctx)
        return alloc

    # ---- typed and raw data movement ----------------------------------------

    def read_int(
        self,
        ptr: PointerValue,
        size: int,
        signed: bool,
        *,
        align: Optional[int] = None,
        ctx: Optional[AccessContext] = None,
        permissive: bool = False,
    ) -> tuple[int, bool]:
        """Read one integer. Returns (value, tainted).

        Uninitialized bytes are an error unless `permissive` (the foreign
        load mode), in which case they read as zero and taint the result.
        """
        alloc = self.check_access(ptr, size, align if align is not None else size, "read", ctx)
        raw = []
        tainted = False
        for i in range(size):
            v = alloc.values[ptr.offset + i]
            if v is None:
                if not permissive:
                    raise _ub(
                        DiagnosticKind.UNINITIALIZED_READ,
                        f"read of uninitialized byte at alloc#{alloc.id}+{ptr.offset + i}",
                        address=ptr.address + i,
                    )
                tainted = True
                v = 0
            raw.append(v)
        value = int.from_bytes(bytes(raw), "little", signed=signed)
        return value, tainted

    def write_int(
        self,
        ptr: PointerValue,
        size: int,
        value: int,
        *,
        align: Optional[int] = None,
        ctx: Optional[AccessContext] = None,
    ) -> None:
        alloc = self.check_access(ptr, size, align if align is not None else size, "write", ctx)
        raw = value.to_bytes(size, "little", signed=value < 0)
        alloc.values[ptr.offset : ptr.offset + size] = raw
        _drop_fragments(alloc, ptr.offset, ptr.offset + size)

    def write_uninit(self, ptr: PointerValue, size: int, ctx: Optional[AccessContext] = None) -> None:
        """A size-aligned write whose bytes end up uninitialized, with no provenance."""
        alloc = self.check_access(ptr, size, size, "write", ctx)
        alloc.values[ptr.offset : ptr.offset + size] = [None] * size
        _drop_fragments(alloc, ptr.offset, ptr.offset + size)

    def _fragment_key(self, value: PointerValue) -> tuple:
        prov = value.provenance
        prov_key = ("tag", prov) if isinstance(prov, int) else ("wildcard",) if prov is WILDCARD else ("none",)
        return (value.alloc_id, prov_key)

    def write_pointer(self, ptr: PointerValue, value: PointerValue, ctx: Optional[AccessContext] = None) -> None:
        alloc = self.check_access(ptr, 8, 8, "write", ctx)
        raw = (value.address % (1 << 64)).to_bytes(8, "little")
        key = self._fragment_key(value)
        carry_fragment = value.provenance is not None or value.alloc_id is not None
        for i in range(8):
            off = ptr.offset + i
            alloc.values[off] = raw[i]
            if carry_fragment:
                alloc.fragments[off] = (key, i)
            else:
                alloc.fragments.pop(off, None)

    def read_pointer(
        self,
        ptr: PointerValue,
        *,
        ctx: Optional[AccessContext] = None,
        permissive: bool = False,
    ) -> tuple[PointerValue, bool]:
        """Read 8 bytes as a pointer, reconstructing provenance if intact."""
        alloc = self.check_access(ptr, 8, 8, "read", ctx)
        raw = []
        tainted = False
        for i in range(8):
            v = alloc.values[ptr.offset + i]
            if v is None:
                if not permissive:
                    raise _ub(
                        DiagnosticKind.UNINITIALIZED_READ,
                        f"read of uninitialized byte at alloc#{alloc.id}+{ptr.offset + i}",
                        address=ptr.address + i,
                    )
                tainted = True
                v = 0
            raw.append(v)
        address = int.from_bytes(bytes(raw), "little")
        if not tainted:
            frags = [alloc.fragments.get(ptr.offset + i) for i in range(8)]
            if all(f is not None for f in frags):
                key = frags[0][0]
                if all(f == (key, i) for i, f in enumerate(frags)):
                    target_alloc, prov_key = key
                    prov: Provenance
                    if prov_key[0] == "tag":
                        prov = prov_key[1]
                    elif prov_key[0] == "wildcard":
                        prov = WILDCARD
                    else:
                        prov = None
                    if target_alloc is not None:
                        base = self.allocations[target_alloc].base
                        return PointerValue(address, target_alloc, address - base, prov), False
                    return PointerValue(address, None, address, prov), False
        # Broken or absent fragments: the value is just an integer.
        return PointerValue(address, None, address, None), tainted

    def read_blob(
        self, ptr: PointerValue, size: int, ctx: Optional[AccessContext] = None
    ) -> tuple[list[Optional[int]], dict[int, tuple[tuple, int]]]:
        """Untyped copy-out: values (None where uninit) plus fragments. No init check."""
        alloc = self.check_access(ptr, size, 1, "read", ctx)
        values = alloc.values[ptr.offset : ptr.offset + size]
        if not alloc.fragments:
            return values, {}
        frags = {
            i: alloc.fragments[ptr.offset + i]
            for i in range(size)
            if ptr.offset + i in alloc.fragments
        }
        return values, frags

    def write_blob(
        self,
        ptr: PointerValue,
        values: list[Optional[int]],
        frags: dict[int, tuple[tuple, int]],
        ctx: Optional[AccessContext] = None,
    ) -> None:
        """Untyped copy-in: preserves the uninit mask and provenance fragments."""
        alloc = self.check_access(ptr, len(values), 1, "write", ctx)
        alloc.values[ptr.offset : ptr.offset + len(values)] = values
        _drop_fragments(alloc, ptr.offset, ptr.offset + len(values))
        for i, frag in frags.items():
            alloc.fragments[ptr.offset + i] = frag

    def assume_init(self, ptr: PointerValue, size: int, ctx: Optional[AccessContext] = None) -> None:
        """Assert that a range is initialized: missing bytes become zero.

        Performs no access (it models a claim, not a use), so the borrow
        tracker is not consulted; liveness and bounds still are.
        """
        alloc = self._require_allocation(ptr, ctx)
        if not alloc.live:
            raise _ub(
                DiagnosticKind.USE_AFTER_FREE,
                f"init claim over alloc#{alloc.id} ({alloc.label}) after it was freed",
                address=ptr.address,
            )
        if ptr.offset < 0 or ptr.offset + size > alloc.size:
            raise _ub(
                DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                f"init claim of {size} bytes at alloc#{alloc.id}+{ptr.offset} overruns the "
                f"{alloc.size}-byte allocation",
                address=ptr.address,
            )
        for i in range(size):
            off = ptr.offset + i
            if alloc.values[off] is None:
                alloc.values[off] = 0

    def memset(self, ptr: PointerValue, byte: int, size: int, ctx: Optional[AccessContext] = None) -> None:
        alloc = self.check_access(ptr, size, 1, "write", ctx)
        alloc.values[ptr.offset : ptr.offset + size] = [byte & 0xFF] * size
        _drop_fragments(alloc, ptr.offset, ptr.offset + size)

    def memcpy(self, dest: PointerValue, src: PointerValue, size: int, ctx: Optional[AccessContext] = None) -> None:
        values, frags = self.read_blob(src, size, ctx)
        self.write_blob(dest, values, frags, ctx)

    # ---- provenance boundary -------------------------------------------------

    def expose(self, ptr: PointerValue) -> int:
        """Expose a pointer's tag and return its address as an integer."""
        if ptr.alloc_id is not None and isinstance(ptr.provenance, int):
            self.allocations[ptr.alloc_id].exposed.add(ptr.provenance)
        return ptr.address % (1 << 64)

    def from_exposed(self, address: int, ctx: Optional[AccessContext] = None) -> PointerValue:
        """Rebuild a pointer from an integer address.

        Inside a live allocation the result carries wildcard provenance;
        otherwise it has none and every later access fails. Under strict
        provenance this operation is itself an error.
        """
        if self.strict_provenance:
            raise _ub(
                DiagnosticKind.STRICT_PROVENANCE_VIOLATION,
                f"integer-to-pointer conversion of 0x{address:x} under strict provenance",
                address=address,
            )
        for alloc in self.allocations.values():
            if alloc.live and alloc.base <= address < alloc.base + alloc.size:
                return PointerValue(address, alloc.id, address - alloc.base, WILDCARD)
        return PointerValue(address, None, address, None)
