"""Type descriptions and byte-level layout for scenario values.

The target is fixed: 64-bit, little-endian, pointers 8 bytes wide and
8-aligned. Structs use C-style placement (each field at the next multiple of
its alignment, struct alignment is the max field alignment, trailing padding
rounds the size up to the alignment).

Layout also records two derived byte-range sets the trackers and checkers
need: padding ranges (bytes no declared field occupies) and cell ranges
(bytes under interior mutability). A `cell(T)` has the same size and
alignment as `T` and contributes its whole extent as a cell range; a
`phantom(T)` is a zero-sized marker and contributes nothing.

A type's layout is worked out by its first `layout_of` and kept on the type
object, after rustc's `layout_of` query: a lookup reads one attribute and
never hashes the type, and a layout lives as long as its type.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

POINTER_SIZE = 8
POINTER_ALIGN = 8


class PtrKind(enum.Enum):
    SHARED_REF = "shared-ref"
    MUT_REF = "mutable-ref"
    RAW_CONST = "raw-const"
    RAW_MUT = "raw-mut"
    OPAQUE = "opaque"


@dataclass(frozen=True)
class IntType:
    bits: int
    signed: bool

    def __post_init__(self) -> None:
        if self.bits not in (8, 16, 32, 64):
            raise ValueError(f"unsupported integer width: {self.bits}")

    @property
    def size(self) -> int:
        return self.bits // 8

    def __str__(self) -> str:
        return f"{'i' if self.signed else 'u'}{self.bits}"


@dataclass(frozen=True)
class UnitType:
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class PtrType:
    kind: PtrKind
    pointee: Optional["TypeDesc"]  # None only for OPAQUE

    def __post_init__(self) -> None:
        if (self.pointee is None) != (self.kind is PtrKind.OPAQUE):
            raise ValueError("opaque pointers and only opaque pointers lack a pointee")

    def __str__(self) -> str:
        if self.kind is PtrKind.OPAQUE:
            return "ptr"
        prefix = {
            PtrKind.SHARED_REF: "&",
            PtrKind.MUT_REF: "&mut ",
            PtrKind.RAW_CONST: "*const ",
            PtrKind.RAW_MUT: "*mut ",
        }[self.kind]
        return f"{prefix}{self.pointee}"


@dataclass(frozen=True)
class ArrayType:
    elem: "TypeDesc"
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("array count must be non-negative")

    def __str__(self) -> str:
        return f"[{self.elem}; {self.count}]"


@dataclass(frozen=True)
class CellType:
    inner: "TypeDesc"

    def __str__(self) -> str:
        return f"cell({self.inner})"


@dataclass(frozen=True)
class PhantomType:
    inner: "TypeDesc"

    def __str__(self) -> str:
        return f"phantom({self.inner})"


@dataclass(frozen=True)
class FieldDef:
    name: str
    type: "TypeDesc"
    explicit_offset: Optional[int] = None


@dataclass(frozen=True)
class StructType:
    name: str
    fields: tuple[FieldDef, ...]

    def __str__(self) -> str:
        return self.name

    def field_named(self, name: str) -> tuple[int, FieldDef]:
        for i, f in enumerate(self.fields):
            if f.name == name:
                return i, f
        raise KeyError(name)


TypeDesc = Union[IntType, UnitType, PtrType, ArrayType, CellType, PhantomType, StructType]

UNIT = UnitType()
I8 = IntType(8, True)
I16 = IntType(16, True)
I32 = IntType(32, True)
I64 = IntType(64, True)
U8 = IntType(8, False)
U16 = IntType(16, False)
U32 = IntType(32, False)
U64 = IntType(64, False)

Range = tuple[int, int]  # half-open [start, end)


@dataclass(frozen=True)
class Layout:
    size: int
    align: int
    field_offsets: tuple[int, ...] = ()
    padding_ranges: tuple[Range, ...] = ()
    cell_ranges: tuple[Range, ...] = ()


class LayoutError(ValueError):
    """Raised for ill-formed types: recursion without indirection, bad explicit offsets."""


def _round_up(n: int, align: int) -> int:
    return (n + align - 1) // align * align


def _merge_ranges(ranges: list[Range]) -> tuple[Range, ...]:
    """Sort and coalesce adjacent/overlapping half-open ranges, dropping empties."""
    out: list[Range] = []
    for start, end in sorted(r for r in ranges if r[0] < r[1]):
        if out and start <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], end))
        else:
            out.append((start, end))
    return tuple(out)


def _shift(ranges: tuple[Range, ...], by: int) -> list[Range]:
    return [(a + by, b + by) for a, b in ranges]


_POINTER = Layout(size=POINTER_SIZE, align=POINTER_ALIGN)  # every pointer's


def layout_of(t: TypeDesc) -> Layout:
    return getattr(t, "_layout", None) or _layout_of(t, ())


def _layout_of(t: TypeDesc, stack: tuple[str, ...]) -> Layout:
    out = getattr(t, "_layout", None)
    if out is not None:
        return out
    if isinstance(t, IntType):
        out = Layout(size=t.size, align=t.size)
    elif isinstance(t, PtrType):
        out = _POINTER
    elif isinstance(t, (UnitType, PhantomType)):
        # A phantom is a marker type: it occupies nothing and confers no
        # interior mutability, whatever it wraps.
        out = Layout(size=0, align=1)
    elif isinstance(t, CellType):
        inner = _layout_of(t.inner, stack)
        cells = [(0, inner.size)] if inner.size > 0 else []
        out = Layout(
            size=inner.size,
            align=inner.align,
            padding_ranges=inner.padding_ranges,
            cell_ranges=_merge_ranges(cells),
        )
    elif isinstance(t, ArrayType):
        elem = _layout_of(t.elem, stack)
        cells: list[Range] = []
        padding: list[Range] = []
        # Elements without cells or padding add no ranges, so a large plain
        # array, such as an untyped `heap_from_raw`'s whole allocation, lays
        # out in O(1).
        for i in range(t.count if elem.cell_ranges or elem.padding_ranges else 0):
            cells.extend(_shift(elem.cell_ranges, i * elem.size))
            padding.extend(_shift(elem.padding_ranges, i * elem.size))
        out = Layout(
            size=elem.size * t.count,
            align=elem.align,
            padding_ranges=_merge_ranges(padding),
            cell_ranges=_merge_ranges(cells),
        )
    elif isinstance(t, StructType):
        if t.name in stack:
            raise LayoutError(f"recursive type without indirection: {t.name}")
        out = _layout_struct(t, stack + (t.name,))
    else:
        raise TypeError(f"not a type description: {t!r}")
    # A non-field attribute, which equality, hashing and `repr` ignore, set past the frozen guard.
    object.__setattr__(t, "_layout", out)
    return out


def _layout_struct(t: StructType, stack: tuple[str, ...]) -> Layout:
    offsets: list[int] = []
    occupied: list[Range] = []
    cells: list[Range] = []
    cursor = 0
    align = 1
    for f in t.fields:
        fl = _layout_of(f.type, stack)
        align = max(align, fl.align)
        if f.explicit_offset is not None:
            off = f.explicit_offset
            if off < 0 or off % fl.align != 0:
                raise LayoutError(
                    f"{t.name}.{f.name}: explicit offset {off} breaks {fl.align}-alignment"
                )
        else:
            off = _round_up(cursor, fl.align)
        new_range = (off, off + fl.size)
        for a, b in occupied:
            if new_range[0] < b and a < new_range[1]:
                raise LayoutError(f"{t.name}.{f.name}: field range {new_range} overlaps earlier field")
        offsets.append(off)
        if fl.size > 0:
            occupied.append(new_range)
        cells.extend(_shift(fl.cell_ranges, off))
        cursor = max(cursor, off + fl.size)
    size = _round_up(cursor, align)
    covered = _merge_ranges(occupied)
    padding: list[Range] = []
    prev = 0
    for a, b in covered:
        if prev < a:
            padding.append((prev, a))
        prev = b
    if prev < size:
        padding.append((prev, size))
    return Layout(
        size=size,
        align=align,
        field_offsets=tuple(offsets),
        padding_ranges=tuple(padding),
        cell_ranges=_merge_ranges(cells),
    )


def struct_field_range(t: StructType, name: str) -> tuple[int, TypeDesc]:
    """Offset and type of a named field, through the struct's computed layout."""
    layout = layout_of(t)
    idx, f = t.field_named(name)
    return layout.field_offsets[idx], f.type


def is_reference(t: TypeDesc) -> bool:
    return isinstance(t, PtrType) and t.kind in (PtrKind.SHARED_REF, PtrKind.MUT_REF)


def size_of(t: TypeDesc) -> int:
    return layout_of(t).size


def align_of(t: TypeDesc) -> int:
    return layout_of(t).align
