"""Scenario language parsing: grammar, validation, rendering round-trips."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from seamcheck.diagnostics import Classification, DiagnosticKind
from seamcheck.ir import (
    AssertEqStmt,
    BindingSignature,
    CallStmt,
    CastRhs,
    Dialect,
    Expectation,
    FnDef,
    LetStmt,
    LiteralRhs,
    OutcomeTag,
    Place,
    ScenarioProgram,
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
    (struct,) = [t for t in program.types if t.name == "Header"]
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


_MAIN = "host fn main()\nend\n"

# One case per place the parser raises ParseError: (text, line, col, message).
# Columns count from 1 in the line with its comment and leading whitespace
# removed; 0 means the error has no column (end of line, or a whole line or
# program).
_ERROR_POSITIONS = {
    # the tokenizer: a bad character comes before any grammar error on its line
    "bad_character": ("host fn main()\n  let x: i32 = 1 $ 2\nend\n", 2, 16, "unexpected character '$'"),
    "bad_character_before_grammar_error": (
        "host fn main()\n  let = 1 ? \nend\n", 2, 9, "unexpected character '?'"
    ),
    "bad_greater_than": ("host fn main() > i32\nend\n", 1, 16, "unexpected character '>'"),
    "column_after_unicode_digit": (
        "host fn main()\n  let x: i32 = \u0663 \u00e9\nend\n", 2, 16, "unexpected character '\u00e9'"
    ),
    # expected X, found Y: mid-line, at the end of a line, after a tab indent
    "expected_mid_line": ("host fn main()\n  let x i32 = 1\nend\n", 2, 7, "expected ':', found 'i32'"),
    "expected_at_end_of_line": (
        "host fn main(\nend\n", 1, 0, "expected parameter name, found 'end of line'"
    ),
    "expected_integer": ("host fn main()\n  let a: [u8; n] = zeroed\nend\n", 2, 13, "expected integer, found 'n'"),
    "expected_after_keyword": ("host fn main()\n  spawn = f()\nend\n", 2, 7, "expected handle, found '='"),
    "expected_after_comment_strip": (
        "host fn main()\n\t  assert_eq 1 (  # note\nend\n", 2, 13, "expected value, found '('"
    ),
    # trailing input, including a token whose text also appears earlier
    "trailing_input": ("host fn main()\n  let x: i32 = 1 2\nend\n", 2, 16, "trailing input starting at '2'"),
    "repeated_token_text": ("host fn main()\n  assert_eq x x x\nend\n", 2, 15, "trailing input starting at 'x'"),
    "tab_indent_trailing": ("host fn main()\n\t\tjoin h h\nend\n", 2, 8, "trailing input starting at 'h'"),
    # blocks
    "block_never_closed": ("type T\n  a: u32\n", 1, 0, "type 'T' never closed with 'end'"),
    # types
    "type_missing": ("host fn main()\n  let x: = 1\nend\n", 2, 8, "expected a type, found '='"),
    "type_missing_at_end": ("host fn main()\n  let x:\nend\n", 2, 0, "expected a type"),
    "type_expected_punct": ("host fn main()\n  let x: ( = 1\nend\n", 2, 8, "expected a type, found '('"),
    "raw_pointer_needs_qualifier": (
        "host fn main()\n  let p: *i32 = 0\nend\n", 2, 8, "raw pointer needs 'mut' or 'const'"
    ),
    "nested_raw_pointer": (
        "host fn main()\n  let p: &[*i32; 2] = 0\nend\n", 2, 10, "raw pointer needs 'mut' or 'const'"
    ),
    "unknown_type": ("host fn main()\n  let x: &mut wat = 1\nend\n", 2, 13, "unknown type 'wat'"),
    "field_type_unknown": ("type T\n  a: [Q; 2]\nend\n" + _MAIN, 2, 5, "unknown type 'Q'"),
    "foreign_store_bad_type": (
        "foreign fn f(p: ptr)\n  store & p 1\nend\n" + _MAIN, 2, 9, "unknown type 'p'"
    ),
    "type_already_defined": ("type T\nend\ntype T\nend\n" + _MAIN, 3, 0, "type 'T' already defined"),
    "type_shadows_scalar": ("type u8\nend\n" + _MAIN, 1, 0, "type 'u8' already defined"),
    "struct_layout_error": (
        "type Bad\n  a: u32 @ 2\nend\n" + _MAIN, 1, 0, "Bad.a: explicit offset 2 breaks 4-alignment"
    ),
    # values and right-hand sides
    "value_missing": ("host fn main()\n  assert_eq 1\nend\n", 2, 0, "expected a value"),
    "rhs_missing": ("host fn main()\n  let x: i32 =\nend\n", 2, 0, "missing right-hand side"),
    "foreign_rhs_missing": ("foreign fn f()\n  let x =\nend\n" + _MAIN, 2, 0, "missing right-hand side"),
    "cast_disagrees": (
        "host fn main()\n  let x: i32 = 0\n  let y: i64 = x as i32\nend\n",
        3, 0, "cast target i32 disagrees with declared type i64",
    ),
    "unknown_foreign_statement": (
        "foreign fn f()\n  jump p\nend\n" + _MAIN, 2, 1, "unknown foreign statement starting with 'jump'"
    ),
    # top level
    "unknown_outcome": ("expect tb: no-such\n" + _MAIN, 1, 0, "unknown outcome 'no-such'"),
    "expect_model_only": ("expect tb:\n" + _MAIN, 1, 0, "unknown outcome ''"),
    "tag_without_label": ("tag\n" + _MAIN, 1, 0, "tag needs a label"),
    "unexpected_top_level": (_MAIN + "let x: i32 = 1\n", 3, 1, "unexpected top-level input 'let'"),
    # validation
    "function_defined_twice": (_MAIN + "\n" + _MAIN, 4, 0, "function 'main' defined twice"),
    "binding_declared_twice": (
        "bind f = c_f()\nbind f = c_f()\nforeign fn c_f()\nend\n" + _MAIN,
        2, 0, "binding 'f' declared twice",
    ),
    "no_main": ("foreign fn only()\nend\n", 1, 0, "no 'main' function"),
    "main_not_host": ("foreign fn main()\nend\n", 1, 0, "'main' must be a host function"),
    "main_with_params": ("\nhost fn main(x: i32)\nend\n", 2, 0, "'main' takes no parameters"),
    "spawn_target_foreign": (
        "foreign fn c_w()\nend\nhost fn main()\n  spawn h = c_w()\n  join h\nend\n",
        4, 0, "spawn target 'c_w' is not a host function",
    ),
    "binding_target_not_foreign": (
        "bind f = g()\nhost fn g()\nend\nhost fn main()\n  call f()\nend\n",
        5, 0, "binding 'f' names 'g', which is not a foreign function",
    ),
    "host_calls_foreign_directly": (
        "foreign fn c_f()\nend\nhost fn main()\n  call c_f()\nend\n",
        4, 0, "calls into foreign code go through a binding; none declares 'c_f'",
    ),
    "host_calls_unknown": ("host fn main()\n  call nowhere()\nend\n", 2, 0, "unknown function 'nowhere'"),
    "foreign_calls_unknown": (
        "foreign fn c_f()\n  call nowhere()\nend\n" + _MAIN, 2, 0, "unknown function 'nowhere'"
    ),
    "foreign_calls_foreign": (
        "foreign fn c_a()\nend\nforeign fn c_b()\n  call c_a()\nend\n" + _MAIN,
        4, 0, "foreign-to-foreign calls are out of scope; only host functions may be called back",
    ),
}


@pytest.mark.parametrize("name", _ERROR_POSITIONS)
def test_parse_error_position(name):
    text, line, col, message = _ERROR_POSITIONS[name]
    with pytest.raises(ParseError) as e:
        parse_text(text)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, message)


def test_bad_characters_in_comments_are_ignored():
    program = parse_text("# $ and > are fine here\nhost fn main()\n  let x: i32 = 1 # ? too\nend\n")
    assert program.entry.body == (LetStmt("x", IntType(32, True), LiteralRhs(1)),)


@pytest.mark.parametrize("literal", ["08", "-01", "0٣"])
def test_integer_literal_with_a_leading_zero_is_a_parse_error(literal):
    with pytest.raises(ParseError) as e:
        parse_text(f"host fn main()\n  let x: i32 = {literal}\nend\n")
    assert (e.value.line, e.value.col, e.value.message) == (2, 14, f"invalid integer literal '{literal}'")


def test_zero_digits_and_unicode_digits_are_integer_literals():
    body = _main_body("host fn main()\n  let a: i32 = 00\n  let b: i32 = ٣\n  let c: i32 = -0\nend\n")
    assert [s.rhs for s in body] == [LiteralRhs(0), LiteralRhs(3), LiteralRhs(0)]


def test_negative_array_count_is_a_parse_error():
    with pytest.raises(ParseError) as e:
        parse_text("host fn main()\n  let a: [u8; -4] = zeroed\nend\n")
    assert (e.value.line, e.value.col, e.value.message) == (2, 13, "array count must be non-negative")


def _nested_refs(n):
    return f"host fn main()\n  let y: {'&' * n}i32 = 0\nend\n"


def _struct_chain(n):
    blocks = ["type S1\n  a: i32\nend"] + [f"type S{i}\n  a: S{i - 1}\nend" for i in range(2, n + 1)]
    return "\n".join(blocks) + f"\nhost fn main()\n  let y: S{n} = zeroed\nend\n"


@pytest.mark.parametrize(
    "text, line, col",
    [
        (_nested_refs(3000), 2, 108),  # overflowed the type parser
        (_nested_refs(400), 2, 108),  # parsed, then overflowed printing the type in a trace
        (_struct_chain(400), 302, 4),  # overflowed hashing the struct for its layout
        # A hundred structs, the innermost field an array: struct fields count.
        (_struct_chain(100).replace("  a: i32", "  a: [i32; 1]"), 299, 4),
    ],
    ids=["3000-refs", "400-refs", "400-structs", "100-structs-and-array"],
)
def test_a_type_nested_more_than_100_levels_is_a_parse_error(text, line, col):
    with pytest.raises(ParseError) as e:
        parse_text(text)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, "type nested more than 100 levels deep")


@pytest.mark.parametrize(
    "text",
    [
        _nested_refs(100),
        f"host fn main()\n  let y: {'[' * 100}i32{'; 1]' * 100} = zeroed\nend\n",
        f"host fn main()\n  let y: {'cell(' * 100}i32{')' * 100} = zeroed\nend\n",
        _struct_chain(100),
        # Ninety-nine levels of struct, and one of array around the innermost field.
        _struct_chain(99).replace("  a: i32", "  a: [i32; 1]"),
    ],
    ids=["refs", "arrays", "cells", "structs", "structs-and-array"],
)
def test_a_type_nested_100_levels_parses_and_runs(text):
    program = parse_text(text)
    for model in ("tb", "sb"):
        assert run_program(program, MachineConfig(model=model)).classification in (
            Classification.PASS,
            Classification.BUG,
        )


def test_name_lookups_return_the_first_definition():
    functions = tuple(
        FnDef(f"f{i % 500}", Dialect.HOST, (), UnitType(), (), line=i) for i in range(1000)
    )
    bindings = (
        BindingSignature("b", "first", (), UnitType(), line=1),
        BindingSignature("b", "second", (), UnitType(), line=2),
    )
    program = ScenarioProgram(path="many", types=(), functions=functions, bindings=bindings)
    assert program.function("f499").line == 499
    assert program.function("f0") is functions[0]
    assert program.binding("b").target == "first"
    with pytest.raises(KeyError):
        program.function("f500")
    with pytest.raises(KeyError):
        program.binding("c")
    # The name maps are neither compared nor shown.
    again = ScenarioProgram(path="other", types=(), functions=functions, bindings=bindings)
    assert again == program
    assert "by_name" not in repr(program)


# Each composite type is built once per parse, so the many writings of one type are one object;
# programs still compare, render and hash their types structurally.
_INTERNED = """
type Pair
  a: &i32
  b: [cell(u8); 4]
end

bind g = c_g(*mut i32, &i32) -> *mut i32

foreign fn c_g(p: *mut i32, q: &i32) -> *mut i32
  let v = load i32 q
  return p
end

host fn main()
  let x: i32 = 1
  let a: &i32 = &x
  let b: &i32 = &x
  let c: [cell(u8); 4] = zeroed
  let d: *mut i32 = &raw mut x
  let e: cell([&i32; 2]) = zeroed
  let f: cell([&i32; 2]) = zeroed
  let r: *mut i32 = call g(d, a)
end
"""


def test_equal_types_of_one_parse_are_one_object():
    program = parse_text(_INTERNED)
    (pair,), body = program.types, program.entry.body
    ref, array, raw = pair.fields[0].type, pair.fields[1].type, body[4].type
    assert all(t is ref for t in (body[1].type, body[2].type, program.function("c_g").params[1].type))
    assert body[3].type is array and isinstance(array.elem, CellType)
    assert program.binding("g").params[0] is raw and program.binding("g").ret is raw and body[7].dest_type is raw
    assert body[5].type is body[6].type and body[5].type.inner.elem is ref


def test_interned_programs_still_compare_structurally():
    first, second = parse_text(_INTERNED), parse_text(_INTERNED)
    assert first == second
    assert first.entry.body[1].type is not second.entry.body[1].type
    assert parse_text(render_program(first)) == first


def test_an_interned_type_hashes_structurally_and_keeps_its_own_layout():
    from seamcheck import types

    first, second = (parse_text(_INTERNED).entry.body[5].type for _ in range(2))
    assert first == second and first is not second and hash(first) == hash(second)
    layout = types.layout_of(first)
    assert types.layout_of(first) is layout and types.layout_of(second) == layout
    assert layout.cell_ranges == ((0, 16),)
