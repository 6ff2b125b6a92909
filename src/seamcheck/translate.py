"""Boundary signature checking and conversion plans.

A binding is the caller's declared view of a function on the other side.
Nothing forces it to agree with the definition, so every call is planned
against both signatures and mismatches surface as invalid-binding findings
at the call site: `TranslationError` is the `UbError` of that kind, which
the machine reports like any other finding. A crossing the engine does not
model raises `ScenarioUnsupported` instead.

A plan pairs each value's source type with the type it lands in; the
pairings a value may cross are:

* integer to integer of the same width; signedness is reinterpreted
* pointer to pointer, carrying provenance
* pointer to an 8-byte integer (exposed), 8-byte integer to pointer
  (rehydrated with wildcard provenance)
* aggregate to aggregate of the same size and field count, by value
* aggregate to or from one integer of the same size, as raw bytes
* a homogeneous, padding-free aggregate spread over several integer
  parameters of the definition (flattening), when enough are left
* in a variadic tail, an integer promoted to 8 bytes or a pointer as is;
  an aggregate there is out of scope rather than wrong

Plans come from types alone; `Machine._convert` applies them to values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagnostics import DiagnosticKind
from .ir import BindingSignature, FnDef
from .memory import ScenarioUnsupported, UbError
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


class TranslationError(UbError):
    def __init__(self, message: str) -> None:
        super().__init__(DiagnosticKind.INVALID_BINDING, message)


@dataclass(slots=True)
class ArgPlan:
    source: TypeDesc
    targets: tuple[TypeDesc, ...]  # several only for a flattened aggregate


_AGGREGATES = (StructType, ArrayType, CellType)


def _is_aggregate(t: TypeDesc) -> bool:
    return isinstance(t, _AGGREGATES)


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


def _check_pair(src: TypeDesc, dst: TypeDesc) -> None:
    """Raise unless a value of type src may cross into dst."""
    if isinstance(src, PtrType) and isinstance(dst, PtrType):
        return
    if isinstance(src, UnitType) and isinstance(dst, UnitType):
        return
    ssize, dsize = size_of(src), size_of(dst)
    if isinstance(src, IntType) and isinstance(dst, IntType):
        if ssize != dsize:
            raise TranslationError(
                f"integer width mismatch: {ssize}-byte {src} against {dsize}-byte {dst}"
            )
    elif isinstance(src, (IntType, PtrType)) and isinstance(dst, (IntType, PtrType)):
        if ssize != dsize:
            number = src if isinstance(dst, PtrType) else dst
            raise TranslationError(
                f"pointer against {size_of(number)}-byte integer {number}: "
                f"only 8-byte integers carry addresses"
            )
    elif isinstance(src, (IntType, *_AGGREGATES)) and isinstance(dst, (IntType, *_AGGREGATES)):
        if ssize != dsize:
            raise TranslationError(
                f"size mismatch: {ssize}-byte {src} against {dsize}-byte {dst}"
            )
        if _is_aggregate(src) and _is_aggregate(dst) and field_count(src) != field_count(dst):
            raise TranslationError(
                f"shape mismatch: {src} has {field_count(src)} fields, "
                f"{dst} has {field_count(dst)}"
            )
    else:
        raise TranslationError(f"no conversion between {src} and {dst}")


def plan_call(binding: BindingSignature, callee: FnDef) -> tuple[ArgPlan, ...]:
    """Match a binding's parameter list onto a definition's, position by position.

    One aggregate binding parameter may absorb several definition parameters
    (the flatten rule); everything else is one-to-one. Both must agree on a
    variadic tail, and the return types are checked too, by `plan_return`.
    """
    if binding.variadic != callee.variadic:
        b, c = ("", "not ") if binding.variadic else ("not ", "")
        raise TranslationError(
            f"binding '{binding.name}' is {b}variadic, '{callee.name}' is {c}variadic"
        )
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
                plans.append(ArgPlan(bt, targets))
                j += len(flat)
                continue
        _check_pair(bt, dparams[j].type)
        plans.append(ArgPlan(bt, (dparams[j].type,)))
        j += 1
    if j < len(dparams):
        raise TranslationError(
            f"'{callee.name}' declares {len(dparams)} parameters, binding "
            f"'{binding.name}' supplies values for {j}"
        )
    plan_return(binding, callee)
    return tuple(plans)


def _compatible(src: TypeDesc, dst: TypeDesc) -> bool:
    try:
        _check_pair(src, dst)
        return True
    except TranslationError:
        return False


def plan_return(binding: BindingSignature, callee: FnDef) -> TypeDesc:
    """The type a returned value lands in, flowing definition -> binding."""
    src, dst = callee.ret, binding.ret
    if isinstance(dst, UnitType):
        return dst
    if isinstance(src, UnitType):
        raise TranslationError(
            f"binding '{binding.name}' declares a {dst} return, "
            f"'{callee.name}' returns nothing"
        )
    _check_pair(src, dst)
    return dst


def plan_variadic_arg(host_type: TypeDesc) -> ArgPlan:
    """Plan for an argument in the variadic tail, typed by the caller alone."""
    if _is_aggregate(host_type):
        raise ScenarioUnsupported(f"aggregate {host_type} passed through a variadic boundary")
    if isinstance(host_type, PtrType):
        return ArgPlan(host_type, (host_type,))
    if isinstance(host_type, IntType):
        return ArgPlan(host_type, (IntType(64, host_type.signed),))
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
