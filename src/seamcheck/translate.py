"""Boundary signature checking and value conversion plans.

A binding is the caller's declared view of a function on the other side.
Nothing forces it to agree with the definition, so every call is planned
against both signatures and mismatches surface as invalid-binding findings
at the call site.

The ground rule is byte-size equality per position. On top of that:

* integers cross when widths match; signedness is reinterpreted
* pointers cross as pointers, carrying provenance
* a pointer crossing into an integer slot must be 8 bytes wide and is
  exposed; an 8-byte integer crossing into a pointer slot is rehydrated
  with wildcard provenance
* aggregates cross by value when size and field count both match, as raw
  bytes when the other side declares one same-size integer, or spread over
  several scalar parameters when the aggregate is homogeneous and padding
  free and the definition has enough parameters left to absorb the fields
* an aggregate in a variadic tail is out of scope rather than wrong

Plans are computed from types alone; applying them to values is the
machine's job.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .ir import BindingSignature, FnDef
from .types import (
    ArrayType,
    CellType,
    IntType,
    PhantomType,
    PtrKind,
    PtrType,
    StructType,
    TypeDesc,
    UnitType,
    layout_of,
    size_of,
)


class TranslationError(Exception):
    def __init__(self, message: str, *, unsupported: bool = False) -> None:
        super().__init__(message)
        self.message = message
        self.unsupported = unsupported


class ArgMode(enum.Enum):
    SCALAR = "scalar"          # integer, width preserved, sign reinterpreted
    POINTER = "pointer"        # pointer to pointer, provenance intact
    EXPOSE = "expose"          # pointer leaves as an 8-byte integer
    REHYDRATE = "rehydrate"    # 8-byte integer arrives as a wildcard pointer
    BLOB = "blob"              # aggregate bytes reinterpreted as one integer
    AGGREGATE = "aggregate"    # by-value bytes, structure preserved
    FLATTEN = "flatten"        # homogeneous aggregate spread over scalars
    UNIT = "unit"
    DISCARD = "discard"        # return value the caller never declared


@dataclass(frozen=True)
class ArgPlan:
    mode: ArgMode
    source: TypeDesc
    targets: tuple[TypeDesc, ...]  # several only for FLATTEN


@dataclass(frozen=True)
class CallPlan:
    args: tuple[ArgPlan, ...]
    ret: ArgPlan


def _is_aggregate(t: TypeDesc) -> bool:
    return isinstance(t, (StructType, ArrayType, CellType))


def field_count(t: TypeDesc) -> int:
    if isinstance(t, StructType):
        return len(t.fields)
    if isinstance(t, ArrayType):
        return t.count
    if isinstance(t, CellType):
        return field_count(t.inner)
    if isinstance(t, PhantomType):
        return 0
    return 1


def flatten_fields(t: TypeDesc) -> Optional[tuple[IntType, ...]]:
    """Scalar fields of a homogeneous, padding-free aggregate, else None."""
    if isinstance(t, StructType):
        if not t.fields:
            return None
        first = t.fields[0].type
        if not isinstance(first, IntType):
            return None
        if any(f.type != first for f in t.fields):
            return None
        elem, count = first, len(t.fields)
    elif isinstance(t, ArrayType):
        if t.count == 0 or not isinstance(t.elem, IntType):
            return None
        elem, count = t.elem, t.count
    else:
        return None
    layout = layout_of(t)
    if layout.padding_ranges or layout.cell_ranges:
        return None
    return (elem,) * count


def _pair_mode(src: TypeDesc, dst: TypeDesc) -> ArgMode:
    """Conversion mode for one value moving src -> dst, or raise."""
    if isinstance(src, UnitType) and isinstance(dst, UnitType):
        return ArgMode.UNIT
    ssize, dsize = size_of(src), size_of(dst)
    if isinstance(src, IntType) and isinstance(dst, IntType):
        if ssize != dsize:
            raise TranslationError(
                f"integer width mismatch: {ssize}-byte {src} against {dsize}-byte {dst}"
            )
        return ArgMode.SCALAR
    if isinstance(src, PtrType) and isinstance(dst, PtrType):
        return ArgMode.POINTER
    if isinstance(src, PtrType) and isinstance(dst, IntType):
        if dsize != ssize:
            raise TranslationError(
                f"pointer against {dsize}-byte integer {dst}: only 8-byte integers carry addresses"
            )
        return ArgMode.EXPOSE
    if isinstance(src, IntType) and isinstance(dst, PtrType):
        if ssize != dsize:
            raise TranslationError(
                f"{ssize}-byte integer {src} against pointer: only 8-byte integers carry addresses"
            )
        return ArgMode.REHYDRATE
    if _is_aggregate(src) and isinstance(dst, IntType):
        if ssize != dsize:
            raise TranslationError(
                f"size mismatch: {ssize}-byte {src} against {dsize}-byte {dst}"
            )
        return ArgMode.BLOB
    if isinstance(src, IntType) and _is_aggregate(dst):
        if ssize != dsize:
            raise TranslationError(
                f"size mismatch: {ssize}-byte {src} against {dsize}-byte {dst}"
            )
        return ArgMode.BLOB
    if _is_aggregate(src) and _is_aggregate(dst):
        if ssize != dsize:
            raise TranslationError(
                f"size mismatch: {ssize}-byte {src} against {dsize}-byte {dst}"
            )
        if field_count(src) != field_count(dst):
            raise TranslationError(
                f"shape mismatch: {src} has {field_count(src)} fields, "
                f"{dst} has {field_count(dst)}"
            )
        return ArgMode.AGGREGATE
    raise TranslationError(f"no conversion between {src} and {dst}")


def plan_call(binding: BindingSignature, callee: FnDef) -> CallPlan:
    """Match a binding's parameter list onto a definition's, position by position.

    One aggregate binding parameter may absorb several definition parameters
    (the flatten rule); everything else is one-to-one.
    """
    dparams = callee.params
    plans: list[ArgPlan] = []
    j = 0
    for i, bt in enumerate(binding.params):
        if j >= len(dparams):
            raise TranslationError(
                f"binding '{binding.name}' passes more parameters than "
                f"'{callee.name}' declares"
            )
        remaining_after = len(binding.params) - i - 1
        flat = flatten_fields(bt) if _is_aggregate(bt) else None
        if flat is not None and len(dparams) - j >= len(flat) + remaining_after:
            targets = tuple(p.type for p in dparams[j : j + len(flat)])
            widths_fit = all(
                isinstance(t, IntType) and t.size == f.size
                for t, f in zip(targets, flat)
            )
            # A same-size single integer prefers the blob path over flattening.
            if widths_fit and not _compatible(bt, targets[0]):
                plans.append(ArgPlan(ArgMode.FLATTEN, bt, targets))
                j += len(flat)
                continue
        mode = _pair_mode(bt, dparams[j].type)
        plans.append(ArgPlan(mode, bt, (dparams[j].type,)))
        j += 1
    if j < len(dparams):
        raise TranslationError(
            f"'{callee.name}' declares {len(dparams)} parameters, binding "
            f"'{binding.name}' supplies values for {j}"
        )
    return CallPlan(args=tuple(plans), ret=plan_return(binding, callee))


def _compatible(src: TypeDesc, dst: TypeDesc) -> bool:
    try:
        _pair_mode(src, dst)
        return True
    except TranslationError:
        return False


def plan_return(binding: BindingSignature, callee: FnDef) -> ArgPlan:
    """Return value flows definition -> binding."""
    src, dst = callee.ret, binding.ret
    if isinstance(dst, UnitType):
        mode = ArgMode.UNIT if isinstance(src, UnitType) else ArgMode.DISCARD
        return ArgPlan(mode, src, (dst,))
    if isinstance(src, UnitType):
        raise TranslationError(
            f"binding '{binding.name}' declares a {dst} return, "
            f"'{callee.name}' returns nothing"
        )
    return ArgPlan(_pair_mode(src, dst), src, (dst,))


def plan_variadic_arg(host_type: TypeDesc) -> ArgPlan:
    """Mode for an argument in the variadic tail, typed by the caller alone."""
    if _is_aggregate(host_type):
        raise TranslationError(
            f"aggregate {host_type} passed through a variadic boundary",
            unsupported=True,
        )
    if isinstance(host_type, PtrType):
        return ArgPlan(ArgMode.POINTER, host_type, (host_type,))
    if isinstance(host_type, IntType):
        return ArgPlan(ArgMode.SCALAR, host_type, (IntType(64, host_type.signed),))
    raise TranslationError(f"cannot pass {host_type} variadically")


def reinterpret(value: int, dst: IntType) -> int:
    """Two's-complement reinterpretation of an integer into a target width/sign."""
    masked = value & ((1 << dst.bits) - 1)
    if dst.signed and masked >= 1 << (dst.bits - 1):
        masked -= 1 << dst.bits
    return masked


_RAW_FOR = {
    PtrKind.MUT_REF: (PtrKind.RAW_MUT, PtrKind.RAW_CONST),
    PtrKind.SHARED_REF: (PtrKind.RAW_CONST,),
    PtrKind.RAW_MUT: (PtrKind.RAW_CONST,),
}


def assignable(src: TypeDesc, dst: TypeDesc) -> bool:
    """Host-side assignability: exact match plus the usual pointer decay."""
    if src == dst:
        return True
    if isinstance(src, PtrType) and isinstance(dst, PtrType):
        if dst.kind is PtrKind.OPAQUE:
            return True
        if src.pointee == dst.pointee and dst.kind in _RAW_FOR.get(src.kind, ()):
            return True
    return False
