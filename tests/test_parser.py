"""Scenario language parsing: grammar, validation, rendering round-trips."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from seamcheck.diagnostics import Classification, DiagnosticKind
from seamcheck.ir import (
    AssertEqStmt,
    CallStmt,
    CastRhs,
    Dialect,
    Expectation,
    LiteralRhs,
    OutcomeTag,
    Place,
    StoreStmt,
    WriteStmt,
)
from seamcheck.machine import MachineConfig, run_program
from seamcheck.parser import ParseError, parse_text, render_program
from seamcheck.types import ArrayType, CellType, IntType, PtrKind, PtrType, UnitType

from conftest import REPO_ROOT, corpus_files

_MINIMAL = """
host fn main()
end
"""


def _parse(text):
    return parse_text(text)


def _main_body(text):
    return _parse(text).function("main").body


def test_minimal_program():
    program = _parse(_MINIMAL)
    assert program.entry.name == "main"
    assert program.entry.dialect is Dialect.HOST
    assert program.entry.ret == UnitType()


def test_comments_and_blank_lines_ignored():
    program = _parse("# leading comment\n\nhost fn main()\n  # inner\nend\n")
    assert program.entry.body == ()


def test_scalar_type_names():
    body = _main_body(
        """
host fn main()
  let a: i8 = 1
  let b: u16 = 2
  let c: isize = 3
  let d: usize = 4
  let e: bool = 1
end
"""
    )
    types = [s.type for s in body]
    assert types == [
        IntType(8, True),
        IntType(16, False),
        IntType(64, True),
        IntType(64, False),
        IntType(8, False),
    ]


def test_pointer_array_and_cell_types():
    body = _main_body(
        """
host fn main()
  let a: [u8; 4] = zeroed
  let b: *mut [u8; 4] = &raw mut a
  let c: cell(u32) = 9
  let d: *const cell(u32) = &raw const c
end
"""
    )
    assert body[0].type == ArrayType(IntType(8, False), 4)
    assert body[1].type == PtrType(PtrKind.RAW_MUT, ArrayType(IntType(8, False), 4))
    assert body[2].type == CellType(IntType(32, False))


def test_struct_block_with_explicit_offset():
    program = _parse(
        """
type Header
  magic: u32
  size: u64 @ 8
end

host fn main()
  let h: Header = zeroed
end
"""
    )
    struct = program.struct("Header")
    assert [f.name for f in struct.fields] == ["magic", "size"]
    assert struct.fields[1].explicit_offset == 8


def test_struct_must_be_declared_before_use():
    with pytest.raises(ParseError):
        _parse("host fn main()\n  let x: Later = zeroed\nend\ntype Later\nend\n")


def test_duplicate_type_rejected():
    with pytest.raises(ParseError):
        _parse("type T\nend\ntype T\nend\nhost fn main()\nend\n")


def test_ill_formed_struct_layout_is_a_parse_error():
    with pytest.raises(ParseError):
        _parse("type Bad\n  a: u32 @ 2\nend\nhost fn main()\nend\n")


def test_place_grammar_deref_field_index():
    body = _main_body(
        """
type Pair
  xs: [u32; 3]
end

host fn main()
  let p: Pair = zeroed
  p.xs[1] = 7
  let r: *mut Pair = &raw mut p
  *r = p
end
"""
    )
    write = body[1]
    assert isinstance(write, WriteStmt)
    assert write.place == Place(base="p", steps=("xs", 1), deref=False)
    deref_write = body[3]
    assert deref_write.place == Place(base="r", steps=(), deref=True)


_POINTER_FIELD = """
type Pair
  a: u32
  b: u32
end

host fn main()
  let p: Pair = zeroed
  let r: *mut Pair = &raw mut p
  {write} = 7
  let v: u32 = p.b
  assert_eq v 7
end
"""


def test_explicit_deref_with_steps_is_kept_as_written():
    program = _parse(_POINTER_FIELD.format(write="*r.b"))
    write = program.function("main").body[2]
    assert write.place == Place(base="r", deref=True, steps=("b",))
    assert str(write.place) == "*r.b"
    assert parse_text(render_program(program)) == program
    assert run_program(program, MachineConfig()).classification is Classification.PASS


def test_steps_on_a_pointer_local_read_through_it_without_a_written_deref():
    program = _parse(_POINTER_FIELD.format(write="r.b"))
    write = program.function("main").body[2]
    assert write.place == Place(base="r", deref=False, steps=("b",))
    assert str(write.place) == "r.b"
    for model in ("tb", "sb"):
        assert run_program(program, MachineConfig(model=model)).classification is Classification.PASS


def test_cell_get_and_offset_calls():
    body = _main_body(
        """
host fn main()
  let c: cell(u32) = 1
  let g: *mut u32 = c.get()
  let q: *mut u32 = g.offset(1)
end
"""
    )
    assert type(body[1].rhs).__name__ == "CellGetRhs"
    assert type(body[2].rhs).__name__ == "OffsetRhs"


def test_borrow_forms():
    body = _main_body(
        """
host fn main()
  let x: i32 = 0
  let a: &mut i32 = &mut x
  let b: &i32 = &x
  let c: *mut i32 = &raw mut x
  let d: *const i32 = &raw const x
end
"""
    )
    kinds = [s.rhs.kind for s in body[1:]]
    assert kinds == [
        PtrKind.MUT_REF,
        PtrKind.SHARED_REF,
        PtrKind.RAW_MUT,
        PtrKind.RAW_CONST,
    ]


def test_cast_folds_into_declaration():
    body = _main_body(
        """
host fn main()
  let x: i32 = 0
  let p: *mut i32 = &raw mut x
  let q: *const i32 = p as *const i32
end
"""
    )
    assert body[2].rhs == CastRhs("p")
    assert body[2].type == PtrType(PtrKind.RAW_CONST, IntType(32, True))


def test_cast_target_must_match_declared_type():
    with pytest.raises(ParseError) as e:
        _parse(
            """
host fn main()
  let x: i32 = 0
  let p: *mut i32 = &raw mut x
  let q: *const i32 = p as *mut i32
end
"""
        )
    assert "disagrees" in e.value.message


def test_integer_literal_forms():
    body = _main_body(
        """
host fn main()
  let a: i32 = -5
  let b: u32 = 0x10
end
"""
    )
    assert body[0].rhs == LiteralRhs(-5)
    assert body[1].rhs == LiteralRhs(16)


def test_expect_annotations_with_model_prefixes():
    program = _parse(
        """
expect tb: expired-permission
expect sb: access-out-of-bounds
expect pass

host fn main()
end
"""
    )
    assert Expectation(OutcomeTag.EXPIRED_PERMISSION, "tb") in program.expectations
    assert Expectation(OutcomeTag.ACCESS_OUT_OF_BOUNDS, "sb") in program.expectations
    assert Expectation(OutcomeTag.PASS, None) in program.expectations
    assert program.expectation_for("tb") is OutcomeTag.EXPIRED_PERMISSION
    assert program.expectation_for("sb") is OutcomeTag.ACCESS_OUT_OF_BOUNDS


@pytest.mark.parametrize("outcome", list(OutcomeTag), ids=lambda o: o.value)
def test_every_outcome_tag_is_an_expect_value(outcome):
    program = _parse(f"expect {outcome.value}\nhost fn main()\nend\n")
    assert program.expectations == (Expectation(outcome, None),)


def test_outcome_tags_are_the_non_bug_results_then_every_diagnostic_kind():
    assert [o.value for o in OutcomeTag] == ["pass", "timeout", "unsupported"] + [
        k.value for k in DiagnosticKind
    ]


def test_scenario_language_doc_lists_the_outcome_vocabulary():
    doc = (REPO_ROOT / "docs" / "scenario-language.md").read_text(encoding="utf-8")
    section = doc.split("## Outcome vocabulary for `expect`")[1].split("\n## ")[0]
    listed = re.findall(r"`([a-z-]+)`", section.split("\n\n")[1])
    assert listed == [o.value for o in OutcomeTag]


def test_unknown_expect_outcome_rejected():
    with pytest.raises(ParseError) as e:
        _parse("expect no-such-outcome\nhost fn main()\nend\n")
    assert "unknown outcome" in e.value.message


def test_tag_labels_collected():
    program = _parse("tag aliasing\ntag fixed-variant\nhost fn main()\nend\n")
    assert program.tags == ("aliasing", "fixed-variant")


def test_bindings_with_variadic_tail():
    program = _parse(
        """
bind logf = c_logf(*const u8, ...) -> i64

foreign fn c_logf(fmt: ptr, ...) -> i64
  return 0
end

host fn main()
end
"""
    )
    binding = program.binding("logf")
    assert binding.target == "c_logf"
    assert binding.variadic
    assert binding.ret == IntType(64, True)
    assert program.function("c_logf").variadic


def test_bind_without_alias_uses_target_name():
    program = _parse(
        """
bind c_poke(*mut i32)

foreign fn c_poke(p: ptr)
end

host fn main()
end
"""
    )
    assert program.binding("c_poke").target == "c_poke"


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as e:
        parse_text("host fn main()\n  let x: wat = 1\nend\n")
    assert e.value.line == 2
    assert "unknown type" in e.value.message


def test_missing_main_rejected():
    with pytest.raises(ParseError) as e:
        _parse("foreign fn only()\nend\n")
    assert "no 'main'" in str(e.value)


def test_main_must_be_host_and_nullary():
    with pytest.raises(ParseError):
        _parse("foreign fn main()\nend\n")
    with pytest.raises(ParseError):
        _parse("host fn main(x: i32)\nend\n")


def test_duplicate_function_rejected():
    with pytest.raises(ParseError):
        _parse("host fn main()\nend\nhost fn main()\nend\n")


def test_duplicate_binding_rejected():
    with pytest.raises(ParseError):
        _parse(
            "bind f = c_f()\nbind f = c_f()\n"
            "foreign fn c_f()\nend\nhost fn main()\nend\n"
        )


def test_host_only_statements_rejected_in_foreign_code():
    with pytest.raises(ParseError):
        _parse(
            "foreign fn c_f()\n  let x: i32 = heap_new i32 1\nend\n"
            "host fn main()\nend\n"
        )


def test_foreign_only_statements_rejected_in_host_code():
    with pytest.raises(ParseError):
        _parse("host fn main()\n  let p: ptr = malloc 8\nend\n")


def test_spawn_targets_must_be_host_functions():
    with pytest.raises(ParseError) as e:
        _parse(
            "foreign fn c_w()\nend\n"
            "host fn main()\n  spawn h = c_w()\n  join h\nend\n"
        )
    assert "spawn" in str(e.value)


def test_foreign_code_cannot_call_foreign_functions():
    with pytest.raises(ParseError):
        _parse(
            "foreign fn c_a()\nend\n"
            "foreign fn c_b()\n  call c_a()\nend\n"
            "host fn main()\nend\n"
        )


def test_host_call_to_undeclared_name_rejected():
    with pytest.raises(ParseError):
        _parse("host fn main()\n  call nowhere()\nend\n")


def test_store_statement_shape():
    program = _parse(
        """
bind put = c_put(*mut i32)

foreign fn c_put(p: ptr)
  store i32 p 13
end

host fn main()
end
"""
    )
    stmt = program.function("c_put").body[0]
    assert isinstance(stmt, StoreStmt)
    assert stmt.type == IntType(32, True)
    assert stmt.pointer == "p"
    assert stmt.value == 13


def test_call_with_destination():
    body = _main_body(
        """
bind get = c_get() -> i64

foreign fn c_get() -> i64
  return 9
end

host fn main()
  let got: i64 = call get()
  assert_eq got 9
end
"""
    )
    call = body[0]
    assert isinstance(call, CallStmt)
    assert call.dest == "got"
    assert call.dest_type == IntType(64, True)
    assert isinstance(body[1], AssertEqStmt)


def test_statement_lines_recorded():
    body = _main_body("host fn main()\n  let x: i32 = 1\n  let y: i32 = 2\nend\n")
    assert [s.line for s in body] == [2, 3]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO_ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


# Every bundled scenario by file name, then every scenario the benchmark
# generates at seed 1 by workload and case name: (path, text).
_ROUND_TRIP = {p.rsplit("/", 1)[-1]: (p, Path(p).read_text()) for p in corpus_files()}
for _workload in ("tags", "buffers", "crossings"):
    for _case in _load_workloads().build(_workload, 1, str(REPO_ROOT / "corpus")):
        _ROUND_TRIP[f"{_workload}/{_case.name}"] = (f"<{_workload}/{_case.name}>", _case.text)


@pytest.mark.parametrize("name", _ROUND_TRIP)
def test_render_round_trip_over_corpus(name):
    path, text = _ROUND_TRIP[name]
    program = parse_text(text, path)
    rendered = render_program(program)
    assert parse_text(rendered, path=program.path) == program
