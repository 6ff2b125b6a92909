"""Flat memory store: allocation, access checks, init tracking, provenance."""

import pytest

from seamcheck.diagnostics import DiagnosticKind
from seamcheck.memory import (
    WILDCARD,
    AllocOrigin,
    Memory,
    PointerValue,
    UbError,
)
from seamcheck.tree_borrows import TreeBorrowTracker

from conftest import init_mask


def _mem(**kw):
    return Memory(tracker=TreeBorrowTracker, **kw)


def _ptr(alloc, offset=0, provenance=None):
    """A pointer into `alloc`, through its root tag unless `provenance` is given."""
    return PointerValue(alloc.base + offset, alloc.id, offset, alloc.tag if provenance is None else provenance)


def test_allocations_get_distinct_ids_and_disjoint_ranges():
    mem = _mem()
    a = mem.allocate(16, 8, AllocOrigin.HOST_STACK, "a")
    b = mem.allocate(16, 8, AllocOrigin.HOST_STACK, "b")
    assert a.id != b.id
    assert a.base + a.size <= b.base or b.base + b.size <= a.base


def test_seed_perturbs_addresses_not_ids():
    a0 = _mem(seed=0).allocate(8, 8, AllocOrigin.HOST_STACK)
    a1 = _mem(seed=1).allocate(8, 8, AllocOrigin.HOST_STACK)
    assert a0.id == a1.id == 1
    assert a0.base != a1.base


def test_fresh_memory_starts_uninitialized():
    mem = _mem()
    alloc = mem.allocate(4, 4, AllocOrigin.HOST_STACK)
    assert init_mask(alloc) == (False, False, False, False)
    with pytest.raises(UbError) as e:
        mem.read_int(_ptr(alloc), 4, False)
    assert e.value.kind is DiagnosticKind.UNINITIALIZED_READ


def test_zero_init_foreign_mode_prefills_foreign_allocations():
    mem = _mem(zero_init_foreign=True)
    foreign = mem.allocate(4, 4, AllocOrigin.FOREIGN_HEAP)
    host = mem.allocate(4, 4, AllocOrigin.HOST_STACK)
    assert init_mask(foreign) == (True,) * 4
    assert init_mask(host) == (False,) * 4


def test_write_then_read_round_trip():
    mem = _mem()
    alloc = mem.allocate(8, 8, AllocOrigin.HOST_STACK)
    mem.write_int(_ptr(alloc), 8, -12345)
    assert mem.read_int(_ptr(alloc), 8, True) == -12345


def test_permissive_read_of_uninit_is_none():
    mem = _mem()
    alloc = mem.allocate(2, 2, AllocOrigin.FOREIGN_STACK)
    assert mem.read_int(_ptr(alloc), 2, False, permissive=True) is None


def test_out_of_bounds_access_rejected():
    mem = _mem()
    alloc = mem.allocate(4, 4, AllocOrigin.HOST_STACK)
    with pytest.raises(UbError) as e:
        mem.write_int(_ptr(alloc, 2), 4, 0)
    assert e.value.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS


def test_use_after_free_rejected():
    mem = _mem()
    alloc = mem.allocate(4, 4, AllocOrigin.HOST_HEAP)
    mem.write_int(_ptr(alloc), 4, 1)
    mem.deallocate(_ptr(alloc), "host")
    with pytest.raises(UbError) as e:
        mem.read_int(_ptr(alloc), 4, False)
    assert e.value.kind is DiagnosticKind.USE_AFTER_FREE


def test_double_free_rejected():
    mem = _mem()
    alloc = mem.allocate(4, 4, AllocOrigin.HOST_HEAP)
    mem.deallocate(_ptr(alloc), "host")
    with pytest.raises(UbError) as e:
        mem.deallocate(_ptr(alloc), "host")
    assert e.value.kind is DiagnosticKind.DOUBLE_FREE


def test_a_dead_allocation_holds_no_store():
    mem = _mem()
    heap = mem.allocate(16, 8, AllocOrigin.FOREIGN_HEAP, "buf")
    mem.memset(_ptr(heap), 1, 16)
    mem.deallocate(_ptr(heap), "foreign")
    local = mem.reserve(8, 8, "x")
    mem.write_pointer(_ptr(local), _ptr(heap))  # an address reaches it, so it is materialized
    mem.release_stack(local.id)
    for alloc in (heap, local):
        assert not alloc.live and (alloc.octets, alloc.initmask, alloc.fragments) == (None, None, None)
    with pytest.raises(UbError) as e:
        mem.read_int(_ptr(local), 8, False)
    assert e.value.message == "read of 8 bytes in alloc#2 (x) after it was freed"


def test_interior_free_rejected():
    mem = _mem()
    alloc = mem.allocate(8, 8, AllocOrigin.FOREIGN_HEAP)
    with pytest.raises(UbError) as e:
        mem.deallocate(_ptr(alloc, 4), "foreign")
    assert e.value.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS


def test_freeing_stack_memory_rejected():
    mem = _mem()
    alloc = mem.allocate(8, 8, AllocOrigin.HOST_STACK)
    with pytest.raises(UbError):
        mem.deallocate(_ptr(alloc), "host")


def test_cross_language_dealloc_rejected_both_directions():
    mem = _mem()
    host_alloc = mem.allocate(8, 8, AllocOrigin.HOST_HEAP)
    foreign_alloc = mem.allocate(8, 8, AllocOrigin.FOREIGN_HEAP)
    with pytest.raises(UbError) as e:
        mem.deallocate(_ptr(host_alloc), "foreign")
    assert e.value.kind is DiagnosticKind.CROSS_LANGUAGE_DEALLOC
    with pytest.raises(UbError) as e:
        mem.deallocate(_ptr(foreign_alloc), "host")
    assert e.value.kind is DiagnosticKind.CROSS_LANGUAGE_DEALLOC


def test_symbolic_alignment_uses_offset_and_declared_align():
    mem = _mem(symbolic_alignment=True)
    alloc = mem.allocate(16, 4, AllocOrigin.HOST_STACK)
    # Offset misalignment is always caught.
    with pytest.raises(UbError) as e:
        mem.write_int(_ptr(alloc, 2), 4, 0)
    assert e.value.kind is DiagnosticKind.MISALIGNED_ACCESS
    # An 8-byte access in a 4-aligned allocation is symbolically misaligned
    # even though the concrete address might happen to be 8-aligned.
    with pytest.raises(UbError) as e:
        mem.write_int(_ptr(alloc, 8), 8, 0)
    assert e.value.kind is DiagnosticKind.MISALIGNED_ACCESS


def test_concrete_alignment_uses_the_actual_address():
    mem = _mem(symbolic_alignment=False)
    alloc = mem.allocate(16, 16, AllocOrigin.HOST_STACK)
    mem.write_int(_ptr(alloc, 8), 8, 7)  # address is genuinely 8-aligned
    with pytest.raises(UbError):
        mem.write_int(_ptr(alloc, 4), 8, 7)


def test_byte_accesses_skip_alignment_checks():
    mem = _mem()
    alloc = mem.allocate(3, 1, AllocOrigin.FOREIGN_STACK)
    mem.write_int(_ptr(alloc, 1), 1, 0xAB)
    assert mem.read_int(_ptr(alloc, 1), 1, False) == 0xAB


def test_pointer_round_trip_preserves_provenance():
    mem = _mem()
    slot = mem.allocate(8, 8, AllocOrigin.HOST_STACK, "slot")
    target = mem.allocate(4, 4, AllocOrigin.HOST_STACK, "target")
    value = _ptr(target, 0, provenance=17)
    mem.write_pointer(_ptr(slot), value)
    got = mem.read_pointer(_ptr(slot))
    assert got.alloc_id == target.id
    assert got.provenance == 17
    assert got.address == target.base


def test_partially_overwritten_pointer_loses_provenance():
    mem = _mem()
    slot = mem.allocate(8, 8, AllocOrigin.HOST_STACK)
    target = mem.allocate(4, 4, AllocOrigin.HOST_STACK)
    mem.write_pointer(_ptr(slot), _ptr(target, 0, provenance=5))
    mem.write_int(_ptr(slot, 0).with_byte_offset(0), 1, 0xFF)
    got = mem.read_pointer(_ptr(slot))
    assert got.alloc_id is None
    assert got.provenance is None


def test_memcpy_preserves_uninit_and_fragments():
    mem = _mem()
    src = mem.allocate(16, 8, AllocOrigin.FOREIGN_STACK)
    dst = mem.allocate(16, 8, AllocOrigin.FOREIGN_STACK)
    target = mem.allocate(4, 4, AllocOrigin.HOST_STACK)
    mem.write_pointer(_ptr(src), _ptr(target, 0, provenance=9))
    # Bytes 8..16 of src stay uninitialized.
    mem.memcpy(_ptr(dst), _ptr(src), 16)
    assert init_mask(dst)[:8] == (True,) * 8
    assert init_mask(dst)[8:] == (False,) * 8
    got = mem.read_pointer(_ptr(dst))
    assert got.alloc_id == target.id and got.provenance == 9


def test_memset_initializes_and_clears_fragments():
    mem = _mem()
    alloc = mem.allocate(8, 8, AllocOrigin.FOREIGN_HEAP)
    target = mem.allocate(4, 4, AllocOrigin.HOST_STACK)
    mem.write_pointer(_ptr(alloc), _ptr(target, 0, provenance=3))
    mem.memset(_ptr(alloc), 0xCC, 8)
    assert init_mask(alloc) == (True,) * 8
    got = mem.read_pointer(_ptr(alloc))
    assert got.alloc_id is None


class _ProbedFragments(dict):
    """A fragment dict that counts the offsets looked up in it one by one."""

    probes = 0

    def __contains__(self, off):
        self.probes += 1
        return super().__contains__(off)


def test_a_large_copy_or_fill_costs_the_fragments_it_holds_not_its_bytes():
    mem = _mem()
    size = 1 << 16
    src = mem.allocate(size, 8, AllocOrigin.FOREIGN_HEAP, "src")
    dst = mem.allocate(size, 8, AllocOrigin.FOREIGN_HEAP, "dst")
    target = mem.allocate(4, 4, AllocOrigin.HOST_STACK, "target")
    mem.memset(_ptr(src), 7, size)
    mem.write_pointer(_ptr(src, 4096), _ptr(target, 0, provenance=9))
    src.fragments, dst.fragments = _ProbedFragments(src.fragments), _ProbedFragments(dst.fragments)
    mem.memcpy(_ptr(dst), _ptr(src), size)
    got = mem.read_pointer(_ptr(dst, 4096))
    assert (got.alloc_id, got.offset, got.provenance) == (target.id, 0, 9)
    assert mem.read_int(_ptr(dst, size - 1), 1, False) == 7
    mem.memset(_ptr(dst), 0, size)
    assert mem.read_pointer(_ptr(dst, 4096)) == PointerValue(0, None, 0, None)
    assert dst.fragments == {} and len(src.fragments) == 8
    assert src.fragments.probes == dst.fragments.probes == 0  # no walk over the 64 KiB


def test_assume_init_fills_missing_bytes_with_zero():
    mem = _mem()
    alloc = mem.allocate(4, 4, AllocOrigin.HOST_STACK)
    mem.write_int(_ptr(alloc, 0), 1, 7)
    mem.assume_init(_ptr(alloc), 4)
    assert mem.read_int(_ptr(alloc), 4, False) == 7


def test_assume_init_past_the_end_overruns():
    mem = _mem()
    alloc = mem.allocate(4, 4, AllocOrigin.HOST_STACK, "buf")
    with pytest.raises(UbError) as e:
        mem.assume_init(_ptr(alloc, 2), 4)
    assert e.value.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS
    assert e.value.message == "init claim of 4 bytes at alloc#1+2 overruns the 4-byte allocation"


def test_assume_init_after_free_is_use_after_free():
    mem = _mem()
    alloc = mem.allocate(4, 4, AllocOrigin.HOST_HEAP, "buf")
    mem.deallocate(_ptr(alloc), "host")
    with pytest.raises(UbError) as e:
        mem.assume_init(_ptr(alloc), 4)
    assert e.value.kind is DiagnosticKind.USE_AFTER_FREE
    assert e.value.message == "init claim of 4 bytes in alloc#1 (buf) after it was freed"


def test_expose_and_from_exposed_round_trip():
    mem = _mem()
    alloc = mem.allocate(8, 8, AllocOrigin.HOST_STACK)
    addr = mem.expose(_ptr(alloc, 4, provenance=2))
    assert addr == alloc.base + 4
    back = mem.from_exposed(addr)
    assert back.alloc_id == alloc.id
    assert back.offset == 4
    assert back.provenance is WILDCARD


def test_from_exposed_outside_live_memory_has_no_provenance():
    mem = _mem()
    back = mem.from_exposed(0x10)
    assert back.alloc_id is None
    with pytest.raises(UbError) as e:
        mem.read_int(back, 1, False)
    assert e.value.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS


def test_from_exposed_finds_the_one_allocation_holding_the_address():
    mem = _mem()
    allocs = [mem.allocate(8, 8, AllocOrigin.HOST_STACK, f"a{i}") for i in range(5)]
    empty = mem.allocate(0, 1, AllocOrigin.HOST_STACK, "empty")
    local = mem.reserve(4, 4, "local")
    gone = mem.reserve(8, 8, "gone")  # released before any address reached it
    last = mem.allocate(8, 8, AllocOrigin.HOST_HEAP, "last")
    freed = allocs[3]
    mem.release_stack(freed.id)
    mem.release_stack(gone.id)
    for alloc, off in ((allocs[0], 0), (allocs[2], 5), (local, 3), (last, 7)):
        back = mem.from_exposed(alloc.base + off)
        assert (back.alloc_id, back.offset, back.provenance) == (alloc.id, off, WILDCARD)
    assert not local.immediate and init_mask(local) == (False,) * 4
    gap = allocs[1].base + allocs[1].size  # the guard gap after a live allocation
    for address in (freed.base, empty.base, gone.base, gap, last.base + last.size, allocs[0].base - 1):
        back = mem.from_exposed(address)
        assert (back.address, back.alloc_id, back.provenance) == (address, None, None)


def test_strict_provenance_forbids_integer_to_pointer():
    mem = _mem(strict_provenance=True)
    alloc = mem.allocate(8, 8, AllocOrigin.HOST_STACK)
    with pytest.raises(UbError) as e:
        mem.from_exposed(alloc.base)
    assert e.value.kind is DiagnosticKind.STRICT_PROVENANCE_VIOLATION


def test_leak_report_lists_live_heap_allocations_in_id_order():
    mem = _mem()
    mem.allocate(8, 8, AllocOrigin.HOST_STACK)  # stack never leaks
    h1 = mem.allocate(8, 8, AllocOrigin.HOST_HEAP, "first")
    h2 = mem.allocate(8, 8, AllocOrigin.FOREIGN_HEAP, "second")
    h3 = mem.allocate(8, 8, AllocOrigin.HOST_HEAP, "third")
    mem.deallocate(_ptr(h2), "foreign")
    leaks = mem.leak_report()
    assert [a.id for a in leaks] == [h1.id, h3.id]


def test_release_stack_is_idempotent():
    mem = _mem()
    alloc = mem.allocate(8, 8, AllocOrigin.HOST_STACK)
    local = mem.reserve(8, 8)  # never reached by an address
    for released in (alloc, local):
        mem.release_stack(released.id)
        mem.release_stack(released.id)
        assert not released.live
    assert list(mem.allocations) == [alloc.id]


def test_pointer_with_no_provenance_cannot_access():
    mem = _mem()
    bare = PointerValue(0x9999, None, 0x9999, None)
    with pytest.raises(UbError) as e:
        mem.check_access(bare, 1, 1, "read")
    assert e.value.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS
