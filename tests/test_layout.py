"""Byte-level layout: sizes, alignment, padding ranges, cell ranges."""

import pytest

from seamcheck.types import (
    ArrayType,
    CellType,
    FieldDef,
    IntType,
    Layout,
    LayoutError,
    PhantomType,
    PtrKind,
    PtrType,
    StructType,
    UnitType,
    align_of,
    layout_of,
    size_of,
    struct_field_range,
)

I8 = IntType(8, True)
U8 = IntType(8, False)
I16 = IntType(16, True)
I32 = IntType(32, True)
I64 = IntType(64, True)
U64 = IntType(64, False)


def _struct(name, *fields):
    return StructType(name, tuple(FieldDef(n, t, off) for n, t, off in fields))


def test_integer_sizes_and_alignment():
    for bits in (8, 16, 32, 64):
        t = IntType(bits, True)
        assert size_of(t) == bits // 8
        assert align_of(t) == bits // 8


def test_unsupported_integer_width_rejected():
    with pytest.raises(ValueError):
        IntType(24, False)


def test_unit_is_zero_sized():
    assert size_of(UnitType()) == 0
    assert align_of(UnitType()) == 1


def test_pointers_are_eight_bytes():
    for kind in (PtrKind.SHARED_REF, PtrKind.MUT_REF, PtrKind.RAW_CONST, PtrKind.RAW_MUT):
        t = PtrType(kind, I32)
        assert size_of(t) == 8
        assert align_of(t) == 8
    assert size_of(PtrType(PtrKind.OPAQUE, None)) == 8


def test_opaque_pointer_requires_no_pointee():
    with pytest.raises(ValueError):
        PtrType(PtrKind.OPAQUE, I32)
    with pytest.raises(ValueError):
        PtrType(PtrKind.RAW_MUT, None)


def test_array_layout():
    t = ArrayType(I32, 5)
    layout = layout_of(t)
    assert layout.size == 20
    assert layout.align == 4
    assert layout.padding_ranges == ()


def test_zero_length_array():
    assert size_of(ArrayType(I64, 0)) == 0
    with pytest.raises(ValueError):
        ArrayType(I64, -1)


def test_struct_c_style_placement():
    t = _struct("Mixed", ("a", I8, None), ("b", I32, None), ("c", I8, None))
    layout = layout_of(t)
    assert layout.field_offsets == (0, 4, 8)
    assert layout.size == 12  # trailing padding rounds up to align 4
    assert layout.align == 4
    assert layout.padding_ranges == ((1, 4), (9, 12))


def test_struct_no_padding_when_ordered():
    t = _struct("Tight", ("a", I64, None), ("b", I32, None), ("c", I32, None))
    layout = layout_of(t)
    assert layout.field_offsets == (0, 8, 12)
    assert layout.size == 16
    assert layout.padding_ranges == ()


def test_struct_explicit_offsets():
    t = _struct("Spread", ("a", I8, 0), ("b", I8, 7))
    layout = layout_of(t)
    assert layout.field_offsets == (0, 7)
    assert layout.size == 8
    assert layout.padding_ranges == ((1, 7),)


def test_explicit_offset_must_respect_alignment():
    t = _struct("Bad", ("a", I32, 2))
    with pytest.raises(LayoutError):
        layout_of(t)


def test_explicit_offsets_must_not_overlap():
    t = _struct("Clash", ("a", I32, 0), ("b", I32, 2))
    with pytest.raises(LayoutError):
        layout_of(t)


def test_recursive_struct_without_indirection_rejected():
    inner = _struct("Node", ("next", I32, None))
    rec = StructType("Node", (FieldDef("next", StructType("Node", ()), None),))
    with pytest.raises(LayoutError):
        layout_of(rec)
    # Indirection through a pointer breaks the cycle.
    linked = _struct("List", ("next", PtrType(PtrKind.RAW_MUT, inner), None))
    assert size_of(linked) == 8


def test_cell_matches_inner_layout_and_marks_cells():
    t = CellType(I32)
    layout = layout_of(t)
    assert layout.size == 4
    assert layout.align == 4
    assert layout.cell_ranges == ((0, 4),)


def test_phantom_is_zero_sized_and_cell_free():
    t = PhantomType(CellType(I64))
    layout = layout_of(t)
    assert layout.size == 0
    assert layout.cell_ranges == ()


def test_cell_ranges_propagate_through_structs():
    t = _struct("Mix", ("flag", CellType(U8), None), ("n", I32, None))
    layout = layout_of(t)
    assert layout.cell_ranges == ((0, 1),)
    assert layout.padding_ranges == ((1, 4),)


def test_adjacent_cell_ranges_coalesce_in_arrays():
    t = ArrayType(CellType(U8), 4)
    assert layout_of(t).cell_ranges == ((0, 4),)


def test_struct_field_range_uses_layout():
    t = _struct("Pair", ("lo", I16, None), ("hi", I64, None))
    off, ty = struct_field_range(t, "hi")
    assert off == 8
    assert ty == I64
    with pytest.raises(KeyError):
        struct_field_range(t, "missing")


def test_layout_result_is_immutable_value():
    t = ArrayType(I8, 3)
    assert layout_of(t) == Layout(size=3, align=1)
    forms = (I8, UnitType(), PtrType(PtrKind.OPAQUE, None), PhantomType(I64), CellType(I16), ArrayType(I64, 0),
             _struct("Empty"))
    assert all(lo.align >= 1 and lo.size % lo.align == 0 for lo in map(layout_of, forms))
