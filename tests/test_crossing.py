"""Values crossing the boundary: one conversion for arguments, returns and callbacks."""

import pytest

from seamcheck import ir
from seamcheck.cli import main
from seamcheck.diagnostics import Classification, DiagnosticKind
from seamcheck.machine import MachineConfig, _Lowering, run_program
from seamcheck.parser import parse_text

_PT = """
type Pt
  x: u32
  y: u32
end
"""


def _run(text, **config_kw):
    return run_program(parse_text(text), MachineConfig(**config_kw))


def _expect_bug(text, kind, **config_kw):
    outcome = _run(text, **config_kw)
    assert outcome.classification is Classification.BUG
    assert outcome.diagnostics[0].kind is kind
    return outcome.diagnostics[0]


_HALF_INIT_RETURN = _PT + """
bind pass = c_pass(Pt) -> i64

foreign fn c_pass(p: Pt) -> Pt
  return p
end

host fn main()
  let pt: Pt = uninit
  pt.x = 1
  let bits: i64 = call pass(pt)
end
"""


def test_by_value_return_with_uninitialized_bytes_into_an_integer_is_an_uninitialized_read():
    diag = _expect_bug(_HALF_INIT_RETURN, DiagnosticKind.UNINITIALIZED_READ)
    assert diag.message == "foreign call returned a value derived from uninitialized memory"


def test_by_value_return_with_uninitialized_bytes_fails_at_the_crossing_without_permissive_loads():
    diag = _expect_bug(
        _HALF_INIT_RETURN, DiagnosticKind.UNINITIALIZED_READ, permissive_foreign_loads=False
    )
    assert "uninitialized byte 4" in diag.message


def test_pointer_register_returned_into_a_narrow_integer_binding_is_invalid_binding():
    diag = _expect_bug(
        """
bind give = c_give(*mut i32) -> i32

foreign fn c_give(p: ptr) -> i32
  return p
end

host fn main()
  let x: i32 = 1
  let raw: *mut i32 = &raw mut x
  let got: i32 = call give(raw)
end
""",
        DiagnosticKind.INVALID_BINDING,
    )
    assert "4-byte integer" in diag.message


def _callback_with_struct_argument(param_type, check=""):
    return _PT + f"""
bind drive = c_drive(Pt)

foreign fn c_drive(p: Pt)
  call take(p)
end

host fn take(v: {param_type})
{check}
end

host fn main()
  let pt: Pt = zeroed
  pt.x = 1
  pt.y = 2
  call drive(pt)
end
"""


def test_callback_aggregate_argument_into_same_size_integer_reinterprets_its_bytes():
    outcome = _run(_callback_with_struct_argument("i64", "  assert_eq v 8589934593"))
    assert outcome.classification is Classification.PASS


def test_callback_aggregate_argument_into_other_size_integer_is_invalid_binding():
    diag = _expect_bug(_callback_with_struct_argument("i32"), DiagnosticKind.INVALID_BINDING)
    assert "8-byte aggregate" in diag.message


def test_callback_aggregate_argument_into_other_size_aggregate_is_invalid_binding():
    diag = _expect_bug(_callback_with_struct_argument("[u32; 3]"), DiagnosticKind.INVALID_BINDING)
    assert "8-byte aggregate" in diag.message


def test_callback_integer_argument_into_an_aggregate_parameter_becomes_its_bytes():
    outcome = _run(
        _PT
        + """
bind drive = c_drive()

foreign fn c_drive()
  call take(8589934593)
end

host fn take(v: Pt)
  let y: u32 = v.y
  assert_eq y 2
end

host fn main()
  call drive()
end
"""
    )
    assert outcome.classification is Classification.PASS


def test_literal_into_a_pointer_binding_is_an_address_even_under_strict_provenance():
    outcome = _run(
        """
bind take = c_take(*mut i32)

foreign fn c_take(p: ptr)
end

host fn main()
  call take(0)
end
""",
        strict_provenance=True,
    )
    assert outcome.classification is Classification.PASS


_EXPOSE = """
bind addr = c_addr(*mut u32) -> u64

foreign fn c_addr(a: u64) -> u64
  return a
end

host fn main()
  let x: u32 = 7
  let raw: *mut u32 = &raw mut x
  let got: u64 = call addr(raw)
  let want: u64 = raw as u64
  assert_eq got want
end
"""


def test_bound_pointer_into_an_integer_parameter_is_exposed():
    assert _run(_EXPOSE).classification is Classification.PASS


_REHYDRATE = """
bind put = c_put(u64)

foreign fn c_put(p: ptr)
  store u32 p 9
end

host fn main()
  let x: u32 = 7
  let raw: *mut u32 = &raw mut x
  let a: u64 = raw as u64
  call put(a)
  let v: u32 = x
  assert_eq v 9
end
"""


def test_bound_integer_into_a_pointer_parameter_is_rehydrated():
    assert _run(_REHYDRATE).classification is Classification.PASS
    _expect_bug(
        _REHYDRATE.replace("  let a: u64 = raw as u64\n", "  let a: u64 = 4096\n"),
        DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
    )


def test_undeclared_return_value_is_discarded_unread():
    outcome = _run(
        """
bind ask = c_ask()

foreign fn c_ask() -> i64
  let s = alloca 8
  let v = load i64 s
  return v
end

host fn main()
  call ask()
end
"""
    )
    assert outcome.classification is Classification.PASS


def test_variadic_pointer_keeps_its_provenance():
    outcome = _run(
        """
bind first = c_first(i64, ...) -> i64

foreign fn c_first(n: i64, ...) -> i64
  let p = vararg0
  let v = load i64 p
  return v
end

host fn main()
  let x: i64 = 42
  let raw: *mut i64 = &raw mut x
  let got: i64 = call first(1, raw)
  assert_eq got 42
end
"""
    )
    assert outcome.classification is Classification.PASS


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize(
    "bound, defined, message",
    [
        ("i32, ...", "a: i32", "binding 'f' is variadic, 'c_f' is not variadic"),
        ("i32", "a: i32, ...", "binding 'f' is not variadic, 'c_f' is variadic"),
    ],
    ids=["binding-only", "definition-only"],
)
def test_a_binding_and_a_definition_that_disagree_on_the_ellipsis_are_an_invalid_binding(
    model, bound, defined, message
):
    # C11 6.7.6.3p15: compatible function types agree on the ellipsis; a call
    # through an incompatible one is undefined (6.5.2.2p9).
    text = f"""
bind f = c_f({bound})

foreign fn c_f({defined})
end

host fn main()
  call f(1)
end
"""
    diag = _expect_bug(text, DiagnosticKind.INVALID_BINDING, model=model)
    assert diag.message == message


@pytest.mark.parametrize("rhs", ["malloc -1", "alloca -8"])
def test_negative_allocation_size_is_unsupported(rhs, tmp_path, capsys):
    text = f"""
bind grab = c_grab()

foreign fn c_grab()
  let q = {rhs}
end

host fn main()
  call grab()
end
"""
    outcome = _run(text)
    assert outcome.classification is Classification.UNSUPPORTED
    assert f"{rhs.split()[1]} bytes" in outcome.note
    path = tmp_path / "negative.sc"
    path.write_text(text)
    assert main([str(path)]) == 2


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("stmt, what", [("memset p 0 n", "write"), ("memcpy p q n", "read")])
def test_a_negative_fill_or_copy_size_overruns(stmt, what, model):
    text = f"""
bind go = c_go() -> i32

foreign fn c_go() -> i32
  let p = malloc 8
  let q = malloc 8
  store i32 p 5
  let n = -1
  {stmt}
  let r = gep p 4
  let v = load i32 r
  return v
end

host fn main()
  let x: i32 = call go()
end
"""
    diag = _expect_bug(text, DiagnosticKind.ACCESS_OUT_OF_BOUNDS, model=model)
    assert diag.message == f"{what} of -1 bytes at alloc#{1 if what == 'write' else 2}+0 overruns the 8-byte allocation"


_HALF_INIT_ARGUMENT = _PT + """
bind pass = c_pass(Pt) -> i64

foreign fn c_pass(p: i64) -> i64
  return p
end

host fn main()
  let pt: Pt = uninit
  pt.x = 1
  let bits: i64 = call pass(pt)
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_by_value_argument_with_uninitialized_bytes_into_an_integer_is_an_uninitialized_read(model):
    diag = _expect_bug(_HALF_INIT_ARGUMENT, DiagnosticKind.UNINITIALIZED_READ, model=model)
    assert diag.message == "foreign call returned a value derived from uninitialized memory"
    diag = _expect_bug(
        _HALF_INIT_ARGUMENT, DiagnosticKind.UNINITIALIZED_READ, model=model, permissive_foreign_loads=False
    )
    assert diag.message == "by-value crossing reads uninitialized byte 4 of an aggregate"


_UNIT_CROSSINGS = """
bind f = c_f(unit)

foreign fn c_f(u: unit)
  let s = alloca 8
  let v = load u64 s
  USE
end

host fn cb(w: unit)
end

host fn main()
  let u: unit = zeroed
  call f(u)
end
"""


def _unit_used(register):
    return (f"register '{register}' holds a unit, which has no value; foreign code may only pass it to a unit "
            "parameter or return it as a unit")


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_a_unit_parameter_used_as_a_malloc_size_is_unsupported(model):
    outcome = _run(_UNIT_CROSSINGS.replace("USE", "let p = malloc u\n  free p"), model=model)
    assert (outcome.classification, outcome.note) == (Classification.UNSUPPORTED, _unit_used("u"))


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_a_unit_parameter_crosses_back_into_a_unit_parameter(model):
    assert _run(_UNIT_CROSSINGS.replace("USE", "call cb(u)"), model=model).classification is Classification.PASS


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_an_uninitialized_register_cannot_cross_back_into_a_unit_parameter(model):
    diag = _expect_bug(_UNIT_CROSSINGS.replace("USE", "call cb(v)"), DiagnosticKind.UNINITIALIZED_READ, model=model)
    assert diag.message == "value derived from uninitialized memory passed into host code"


_UNIT_RESULT = """
bind f = c_f() -> RET

foreign fn c_f() -> RET
  let r = call nothing()
  BODY
end

host fn nothing()
end

host fn take(w: unit)
end

host fn seven() -> u64
  return 7
end

host fn main()
  let x: RET = call f()
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("ret, body, outcome", [
    ("u64", "return r", "unsupported"),  # no value for the binding's result
    ("u64", "let c = r\n  return 7", "unsupported"),  # a copy is a use
    ("u64", "store u64 r 1\n  return 7", "unsupported"),
    ("unit", "return r", "pass"),
    ("u64", "call take(r)\n  return 7", "pass"),
    ("u64", "let r = 7\n  return r", "pass"),  # a later `let` of the name holds a value
    ("u64", "let r = call seven()\n  return r", "pass"),  # so does a callback result with a value
])
def test_a_callback_result_without_a_value_is_a_unit(model, ret, body, outcome):
    result = _run(_UNIT_RESULT.replace("RET", ret).replace("BODY", body), model=model)
    assert result.classification.value == outcome, result
    if outcome == "unsupported":
        assert result.note == _unit_used("r")


_SHARED_CALLBACK = """
bind f = c_f(unit)
bind g = c_g(u64)

foreign fn c_f(u: unit)
  EARLY
  call wide(u)
end

foreign fn c_g(u: u64)
  call wide(u)
end

host fn wide(w: u64)
end

host fn main()
  let u: unit = zeroed
  let n: u64 = 1
  FIRST
  SECOND
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_equal_callback_lines_share_no_unit_fact(model):
    # Equal callback lines share one lowered step. Passing `u` to a `u64` parameter is unsupported in
    # `c_f`, where it is a unit, whichever function is lowered first, and passes in `c_g`.
    def run(early, first, second):
        text = _SHARED_CALLBACK.replace("EARLY", early).replace("FIRST", first).replace("SECOND", second)
        return _run(text, model=model)
    outcome = run("", "call g(n)", "call f(u)")
    assert (outcome.classification, outcome.note) == (Classification.UNSUPPORTED, _unit_used("u"))
    assert run("return", "call f(u)", "call g(n)").classification is Classification.PASS


_UNIT_READ = """
bind f = c_f(unit) -> u64

foreign fn c_f(u: unit) -> u64
  let p = malloc 8
  let n = 8
  STMT
  free p
  return 0
end

host fn wide(w: u64)
end

host fn main()
  let u: unit = zeroed
  let x: u64 = call f(u)
end
"""

# Each foreign statement form and `let` right-hand side, by its lowering table's key, written once per
# register operand it reads, with the unit `u` in that operand's place.
_UNIT_READS = {
    ir.StoreStmt: ["store u64 u 1", "store u64 p u"],
    ir.FreeStmt: ["free u"],
    ir.MemsetStmt: ["memset u 0 8", "memset p u 8", "memset p 0 u"],
    ir.MemcpyStmt: ["memcpy u p 8", "memcpy p u 8", "memcpy p p u"],
    ir.CallStmt: ["call wide(u)"],
    ir.ReturnStmt: ["return u"],  # from a foreign fn that returns a `u64`
    ir.LetStmt: ["let c = u"],
    ir.LiteralRhs: [],
    ir.PlaceRhs: ["let c = u"],
    ir.LoadRhs: ["let c = load u64 u"],
    ir.MallocRhs: ["let c = malloc u"],
    ir.AllocaRhs: ["let c = alloca u"],
    ir.GepRhs: ["let c = gep u 0", "let c = gep p u"],
}


def test_every_foreign_form_has_its_unit_reads_listed():
    assert set(_UNIT_READS) == set(_Lowering.FOREIGN_STMTS) | set(_Lowering.FOREIGN_RHS)


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("stmt", [stmt for stmts in _UNIT_READS.values() for stmt in stmts] + [
    "let u = u",  # the name is a unit's until after its right-hand side
    "let u = call wide(u)",  # and until after the callback's arguments
    "call wide(u, n)",  # the unit wins over the parameter count
    "store [u8; 3] p u",  # and over the store's width
    "store [u8; 3] u 1",
])
def test_a_unit_read_as_a_value_in_any_operand_is_unsupported(model, stmt):
    outcome = _run(_UNIT_READ.replace("STMT", stmt), model=model)
    assert (outcome.classification, outcome.note) == (Classification.UNSUPPORTED, _unit_used("u"))
