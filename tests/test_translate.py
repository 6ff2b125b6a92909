"""Boundary planning: accepted pairings, flattening, variadic rules, reinterpretation."""

import pytest

from seamcheck.diagnostics import DiagnosticKind
from seamcheck.ir import BindingSignature, Dialect, FnDef, Param
from seamcheck.memory import ScenarioUnsupported
from seamcheck.translate import (
    TranslationError,
    assignable,
    field_count,
    flatten_fields,
    plan_call,
    plan_return,
    plan_variadic_arg,
    reinterpret,
)
from seamcheck.types import (
    ArrayType,
    CellType,
    FieldDef,
    IntType,
    PtrKind,
    PtrType,
    StructType,
    UnitType,
)

I8 = IntType(8, True)
I32 = IntType(32, True)
U32 = IntType(32, False)
I64 = IntType(64, True)
U64 = IntType(64, False)
OPAQUE = PtrType(PtrKind.OPAQUE, None)


def _binding(params, ret=UnitType(), variadic=False):
    return BindingSignature("b", "c_f", tuple(params), ret, variadic)


def _callee(param_types, ret=UnitType(), variadic=False):
    params = tuple(Param(f"p{i}", t) for i, t in enumerate(param_types))
    return FnDef("c_f", Dialect.FOREIGN, params, ret, (), variadic)


def _targets(binding_params, callee_params):
    plan = plan_call(_binding(binding_params), _callee(callee_params))
    return [p.targets for p in plan]


def test_matching_integers_cross_as_scalars():
    assert _targets([I32], [U32]) == [(U32,)]


def test_integer_width_mismatch_is_invalid_binding():
    with pytest.raises(TranslationError) as e:
        _targets([I32], [I64])
    assert e.value.kind is DiagnosticKind.INVALID_BINDING


def test_pointers_cross_as_pointers():
    assert _targets([PtrType(PtrKind.RAW_MUT, I32)], [OPAQUE]) == [(OPAQUE,)]


def test_pointer_into_integer_slot_is_exposed():
    assert _targets([PtrType(PtrKind.RAW_CONST, I32)], [U64]) == [(U64,)]


def test_pointer_into_narrow_integer_rejected():
    with pytest.raises(TranslationError):
        _targets([PtrType(PtrKind.RAW_CONST, I32)], [U32])


def test_integer_into_pointer_slot_is_rehydrated():
    assert _targets([U64], [OPAQUE]) == [(OPAQUE,)]


def test_narrow_integer_into_pointer_rejected():
    with pytest.raises(TranslationError):
        _targets([U32], [OPAQUE])


def test_same_size_aggregate_as_integer_uses_blob():
    pair = StructType("Pair", (FieldDef("a", U32, None), FieldDef("b", U32, None)))
    assert _targets([pair], [U64]) == [(U64,)]


def test_aggregate_to_aggregate_by_value():
    src = StructType("S", (FieldDef("a", U32, None), FieldDef("b", U32, None)))
    dst = ArrayType(U32, 2)
    assert _targets([src], [dst]) == [(dst,)]


def test_aggregate_size_mismatch_rejected():
    src = ArrayType(U32, 2)
    with pytest.raises(TranslationError) as e:
        _targets([src], [ArrayType(U32, 3)])
    assert "size mismatch" in str(e.value)


def test_aggregate_field_count_mismatch_rejected():
    src = ArrayType(U32, 2)
    dst = ArrayType(IntType(16, False), 4)  # same 8 bytes, different shape
    with pytest.raises(TranslationError) as e:
        _targets([src], [dst])
    assert "shape mismatch" in str(e.value)


def test_homogeneous_aggregate_flattens_over_scalars():
    pair = ArrayType(U32, 2)
    plan = plan_call(_binding([pair]), _callee([U32, U32]))
    assert [p.targets for p in plan] == [(U32, U32)]


def test_flatten_requires_enough_definition_parameters():
    pair = ArrayType(U32, 2)
    # Only one slot left: flattening cannot apply and the pair check fails.
    with pytest.raises(TranslationError):
        plan_call(_binding([pair]), _callee([U32]))


def test_flatten_leaves_room_for_later_binding_parameters():
    pair = ArrayType(U32, 2)
    plan = plan_call(_binding([pair, I32]), _callee([U32, U32, I32]))
    assert [p.targets for p in plan] == [(U32, U32), (I32,)]


def test_single_integer_prefers_blob_over_flatten():
    wrapped = StructType("W", (FieldDef("v", U64, None),))
    plan = plan_call(_binding([wrapped]), _callee([U64]))
    assert [p.targets for p in plan] == [(U64,)]


def test_flatten_needs_matching_scalar_widths():
    pair = ArrayType(U32, 2)
    with pytest.raises(TranslationError):
        plan_call(_binding([pair]), _callee([U32, U64]))


def test_padded_aggregate_does_not_flatten():
    padded = StructType("P", (FieldDef("a", I8, None), FieldDef("b", U32, None)))
    assert flatten_fields(padded) is None


def test_cell_wrapped_aggregate_counts_inner_fields():
    pair = StructType("Pair", (FieldDef("a", U32, None), FieldDef("b", U32, None)))
    assert field_count(CellType(pair)) == 2


def test_parameter_count_mismatches_rejected_both_ways():
    with pytest.raises(TranslationError):
        plan_call(_binding([I32, I32]), _callee([I32]))
    with pytest.raises(TranslationError):
        plan_call(_binding([I32]), _callee([I32, I32]))


def test_return_plan_unit_both_sides():
    assert plan_return(_binding([], ret=UnitType()), _callee([], ret=UnitType())) == UnitType()


def test_return_plan_discards_undeclared_value():
    assert plan_return(_binding([], ret=UnitType()), _callee([], ret=I64)) == UnitType()


def test_return_plan_missing_value_rejected():
    with pytest.raises(TranslationError) as e:
        plan_return(_binding([], ret=I64), _callee([], ret=UnitType()))
    assert "returns nothing" in str(e.value)


def test_return_plan_scalar():
    assert plan_return(_binding([], ret=I64), _callee([], ret=U64)) == I64


def test_variadic_integer_promotes_to_eight_bytes():
    assert plan_variadic_arg(I32).targets == (IntType(64, True),)
    assert plan_variadic_arg(U32).targets == (IntType(64, False),)


def test_variadic_pointer_passes_through():
    ptr = PtrType(PtrKind.RAW_CONST, I32)
    assert plan_variadic_arg(ptr).targets == (ptr,)


def test_variadic_aggregate_is_unsupported_not_a_bug():
    with pytest.raises(ScenarioUnsupported):
        plan_variadic_arg(ArrayType(U32, 2))


def test_reinterpret_wraps_and_signs():
    assert reinterpret(-1, U32) == 0xFFFFFFFF
    assert reinterpret(0xFF, I8) == -1
    assert reinterpret(0x1_0000_0001, U32) == 1
    assert reinterpret(42, I64) == 42


def test_reinterpret_round_trip_within_width():
    for v in (-128, -1, 0, 1, 127):
        assert reinterpret(reinterpret(v, IntType(8, False)), I8) == v


def test_assignable_exact_and_decay():
    mut = PtrType(PtrKind.MUT_REF, I32)
    assert assignable(I32, I32)
    assert assignable(mut, PtrType(PtrKind.RAW_MUT, I32))
    assert assignable(mut, PtrType(PtrKind.RAW_CONST, I32))
    assert assignable(PtrType(PtrKind.SHARED_REF, I32), PtrType(PtrKind.RAW_CONST, I32))
    assert assignable(PtrType(PtrKind.RAW_MUT, I32), PtrType(PtrKind.RAW_CONST, I32))
    assert assignable(mut, OPAQUE)


def test_assignable_rejects_upgrades_and_type_changes():
    assert not assignable(PtrType(PtrKind.RAW_CONST, I32), PtrType(PtrKind.RAW_MUT, I32))
    assert not assignable(PtrType(PtrKind.SHARED_REF, I32), PtrType(PtrKind.MUT_REF, I32))
    assert not assignable(PtrType(PtrKind.RAW_MUT, I32), PtrType(PtrKind.RAW_MUT, I64))
    assert not assignable(I32, I64)
