"""Reference byte store that keeps one list element per byte (test oracle).

This is the per-byte form of the store in `seamcheck.memory`: an
allocation's bytes are a list with one element per byte, each an int or None
where the byte is uninitialized, beside a dict of provenance fragments by
offset, and every mover walks its range byte by byte. The differential suite
in `test_properties.py` checks that the compact store (bytes, init mask and
fragments) moves, reads and rejects exactly as this one does.

`PerByteMemory` keeps its lists and fragment dicts by allocation id, beside
allocations that hold no store of their own. It judges every access through
`Memory.check_access` and `Memory.check_bounds`, so liveness, bounds,
alignment and borrow checks are the model's own and only byte movement is
compared. It has no immediate locals: it allocates, and moves bytes.
"""

from __future__ import annotations

from typing import Optional

from seamcheck.diagnostics import DiagnosticKind
from seamcheck.memory import AllocOrigin, Allocation, Fragment, Memory, PointerValue, UbError, no_provenance

# A by-value copy: each byte (None where uninitialized), then fragments by index.
ListBlob = tuple[list[Optional[int]], dict[int, Fragment]]


class PerByteMemory(Memory):
    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self.values: dict[int, list[Optional[int]]] = {}
        self.frags: dict[int, dict[int, Fragment]] = {}

    def allocate(self, size: int, align: int, origin: AllocOrigin, label: str = "") -> Allocation:
        alloc = self._new(size, align, origin, label, False)
        zeroed = self.zero_init_foreign and origin in (AllocOrigin.FOREIGN_STACK, AllocOrigin.FOREIGN_HEAP)
        self.values[alloc.id] = [0 if zeroed else None] * size
        self.frags[alloc.id] = {}
        return alloc

    def _drop_fragments(self, alloc: Allocation, lo: int, hi: int) -> None:
        frags = self.frags[alloc.id]
        for off in range(lo, hi):
            frags.pop(off, None)

    def _init_bytes(self, alloc: Allocation, ptr: PointerValue, size: int, permissive: bool) -> Optional[bytes]:
        raw = self.values[alloc.id][ptr.offset : ptr.offset + size]
        if None not in raw:
            return bytes(raw)
        if not permissive:
            i = raw.index(None)
            raise UbError(
                DiagnosticKind.UNINITIALIZED_READ,
                f"read of uninitialized byte at alloc#{alloc.id}+{ptr.offset + i}",
                address=ptr.address + i,
            )
        return None

    def read_int(self, ptr: PointerValue, size: int, signed: bool, permissive: bool = False) -> Optional[int]:
        alloc = self.check_access(ptr, size, size, "read")
        raw = self._init_bytes(alloc, ptr, size, permissive)
        return None if raw is None else int.from_bytes(raw, "little", signed=signed)

    def write_int(self, ptr: PointerValue, size: int, value: int) -> None:
        alloc = self.check_access(ptr, size, size, "write")
        self.values[alloc.id][ptr.offset : ptr.offset + size] = value.to_bytes(size, "little", signed=value < 0)
        self._drop_fragments(alloc, ptr.offset, ptr.offset + size)

    def write_uninit(self, ptr: PointerValue, size: int) -> None:
        alloc = self.check_access(ptr, size, size, "write")
        self.values[alloc.id][ptr.offset : ptr.offset + size] = [None] * size
        self._drop_fragments(alloc, ptr.offset, ptr.offset + size)

    def write_pointer(self, ptr: PointerValue, value: PointerValue) -> None:
        alloc = self.check_access(ptr, 8, 8, "write")
        off = ptr.offset
        self.values[alloc.id][off : off + 8] = (value.address % (1 << 64)).to_bytes(8, "little")
        if value.provenance is not None or value.alloc_id is not None:
            for i in range(8):
                self.frags[alloc.id][off + i] = ((value.alloc_id, value.provenance), i)
        else:
            self._drop_fragments(alloc, off, off + 8)

    def read_pointer(self, ptr: PointerValue, permissive: bool = False) -> Optional[PointerValue]:
        alloc = self.check_access(ptr, 8, 8, "read")
        raw = self._init_bytes(alloc, ptr, 8, permissive)
        if raw is None:
            return None
        address = int.from_bytes(raw, "little")
        frags = self.frags[alloc.id]
        first = frags.get(ptr.offset)
        if first is not None and all(frags.get(ptr.offset + i) == (first[0], i) for i in range(8)):
            target, prov = first[0]
            if target is not None:
                return PointerValue(address, target, address - self.allocations[target].base, prov)
            return PointerValue(address, None, address, prov)
        return no_provenance(address)

    def read_blob(self, ptr: PointerValue, size: int) -> ListBlob:
        alloc = self.check_access(ptr, size, 1, "read")
        frags = self.frags[alloc.id]
        values = self.values[alloc.id][ptr.offset : ptr.offset + size]
        return values, {i: frags[ptr.offset + i] for i in range(size) if ptr.offset + i in frags}

    def write_blob(self, ptr: PointerValue, blob: ListBlob) -> None:
        values, frags = blob
        size = len(values)
        alloc = self.check_access(ptr, size, 1, "write")
        self.values[alloc.id][ptr.offset : ptr.offset + size] = values
        self._drop_fragments(alloc, ptr.offset, ptr.offset + size)
        for i, frag in frags.items():
            self.frags[alloc.id][ptr.offset + i] = frag

    def assume_init(self, ptr: PointerValue, size: int) -> None:
        alloc = self.check_bounds(ptr, size, "init claim")
        values = self.values[alloc.id]
        for i in range(size):
            if values[ptr.offset + i] is None:
                values[ptr.offset + i] = 0

    def memset(self, ptr: PointerValue, byte: int, size: int) -> None:
        alloc = self.check_access(ptr, size, 1, "write")
        self.values[alloc.id][ptr.offset : ptr.offset + size] = [byte & 0xFF] * size
        self._drop_fragments(alloc, ptr.offset, ptr.offset + size)

    def memcpy(self, dest: PointerValue, src: PointerValue, size: int) -> None:
        self.write_blob(dest, self.read_blob(src, size))
