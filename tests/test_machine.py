"""Whole-scenario execution: calls, threads, heap ownership, config flags."""

import gc
import hashlib
import re
import weakref
from pathlib import Path
from typing import get_args

import pytest

from seamcheck.diagnostics import (
    Classification,
    Diagnostic,
    DiagnosticKind,
    Outcome,
    TagEvent,
    TraceFrame,
    json_dumps,
    render_diagnostic,
)
from seamcheck import ir
from seamcheck import machine as machine_module
from seamcheck.machine import Machine, MachineConfig, run_program
from seamcheck.memory import GUARD_GAP, AllocOrigin
from seamcheck.parser import parse_text
from seamcheck.rng import Xoshiro256
from seamcheck.runner import exit_code, single_report
from seamcheck.types import ArrayType

from conftest import bench_workloads, corpus_path


def _run(text, **config_kw):
    return run_program(parse_text(text), MachineConfig(**config_kw))


def _expect_bug(text, kind, **config_kw):
    outcome = _run(text, **config_kw)
    assert outcome.classification is Classification.BUG
    assert outcome.diagnostics[0].kind is kind
    return outcome


def test_empty_main_passes():
    outcome = _run("host fn main()\nend\n")
    assert outcome.classification is Classification.PASS
    assert outcome.diagnostics == ()
    assert outcome.leaks == ()


def test_locals_and_assert_eq():
    outcome = _run(
        """
host fn main()
  let x: i32 = 41
  x = 42
  let y: i32 = x
  assert_eq y 42
end
"""
    )
    assert outcome.classification is Classification.PASS


def test_failed_assertion_is_a_bug():
    outcome = _expect_bug(
        "host fn main()\n  let x: i32 = 1\n  assert_eq x 2\nend\n",
        DiagnosticKind.ASSERTION_FAILED,
    )
    assert "1 != 2" in outcome.diagnostics[0].message


def test_struct_field_and_array_access():
    outcome = _run(
        """
type Pair
  a: u32
  b: [u8; 4]
end

host fn main()
  let p: Pair = zeroed
  p.a = 7
  p.b[2] = 9
  let va: u32 = p.a
  let vb: u8 = p.b[2]
  assert_eq va 7
  assert_eq vb 9
end
"""
    )
    assert outcome.classification is Classification.PASS


def test_array_index_out_of_bounds():
    _expect_bug(
        """
host fn main()
  let xs: [u8; 3] = zeroed
  let v: u8 = xs[3]
end
""",
        DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
    )


def test_uninitialized_local_read_is_a_bug():
    _expect_bug(
        "host fn main()\n  let x: i32 = uninit\n  let y: i32 = x\nend\n",
        DiagnosticKind.UNINITIALIZED_READ,
    )


def test_host_to_host_call_with_return():
    outcome = _run(
        """
host fn helper(n: i32) -> i32
  return n
end

host fn main()
  let got: i32 = call helper(5)
  assert_eq got 5
end
"""
    )
    assert outcome.classification is Classification.PASS


def test_foreign_call_scalar_round_trip():
    outcome = _run(
        """
bind double = c_double(i32) -> i32

foreign fn c_double(n: i64) -> i64
  return n
end

host fn main()
  let got: i32 = call double(21)
  assert_eq got 21
end
"""
    )
    # The binding claims i32 against an i64 definition: width mismatch.
    assert outcome.classification is Classification.BUG
    assert outcome.diagnostics[0].kind is DiagnosticKind.INVALID_BINDING


def test_foreign_write_through_passed_pointer():
    outcome = _run(
        """
bind put = c_put(*mut i32)

foreign fn c_put(p: ptr)
  store i32 p 13
end

host fn main()
  let x: i32 = 0
  let xp: *mut i32 = &raw mut x
  call put(xp)
  assert_eq x 13
end
"""
    )
    assert outcome.classification is Classification.PASS


def test_foreign_callback_into_host():
    outcome = _run(
        """
bind drive = c_drive(*mut u32)

foreign fn c_drive(p: ptr)
  call bump(p)
end

host fn bump(q: *mut u32)
  *q = 5
end

host fn main()
  let x: u32 = 0
  let xp: *mut u32 = &raw mut x
  call drive(xp)
  assert_eq x 5
end
"""
    )
    assert outcome.classification is Classification.PASS


def test_boundary_round_trip_runs_on_one_thread():
    program = parse_text(
        """
bind drive = c_drive(*mut u32) -> u32

foreign fn c_drive(p: ptr) -> u32
  let r = call bump(p)
  return r
end

host fn bump(q: *mut u32) -> u32
  *q = 5
  return 6
end

host fn main()
  let x: u32 = 0
  let xp: *mut u32 = &raw mut x
  let got: u32 = call drive(xp)
  assert_eq x 5
  assert_eq got 6
end
"""
    )
    machine = Machine(program, MachineConfig())
    assert machine.run().classification is Classification.PASS
    assert len(machine.threads) == 1


# Two workers and main each load and store through p; main then writes to x, which
# invalidates p. Under sb a load through p after that write fails, so a failing store
# needs the write to land between a worker's load and its store, inside the foreign call.
_RACE = """
bind bump = c_bump(*mut i32)

foreign fn c_bump(p: ptr)
  let v = load i32 p
  store i32 p v
end

host fn worker(p: *mut i32)
  call bump(p)
end

host fn main()
  let x: i32 = 0
  let r: &mut i32 = &mut x
  let p: *mut i32 = r as *mut i32
  spawn a = worker(p)
  spawn b = worker(p)
  call bump(p)
  x = 1
  join a
  join b
end
"""

# Each worker reborrows p as q, spawns a leaf that writes through p, then reads through q;
# main writes through r between its joins. Whether a write lands between a reborrow and its
# read, and on which thread the error shows, depends on the interleaving.
_SPAWN_JOIN = """
host fn leaf(p: *mut i32)
  *p = 3
end

host fn worker(p: *mut i32)
  let q: &i32 = &*p
  spawn c = leaf(p)
  let v: i32 = *q
  join c
end

host fn main()
  let x: i32 = 0
  let r: &mut i32 = &mut x
  let p: *mut i32 = r as *mut i32
  spawn a = worker(p)
  spawn b = worker(p)
  join a
  *r = 5
  join b
end
"""


def test_boundary_calls_interleave_with_other_threads():
    program = parse_text(_RACE)
    tb = [run_program(program, MachineConfig(seed=s)) for s in range(64)]
    assert {o.classification for o in tb} == {Classification.PASS, Classification.BUG}
    sb = [run_program(program, MachineConfig(model="sb", seed=s)) for s in range(64)]
    assert any(
        o.diagnostics and o.diagnostics[0].foreign_trace[0].statement == "store i32 p v"
        for o in sb
    )


# The scheduler draws from the seeded generator only while two or more threads are ready, so
# which thread runs each step, and so every report, is a function of (program, seed). These
# digests pin the reports of seeds 0-63, so a rewrite of the scheduler that moves any draw,
# step or report byte fails here.
@pytest.mark.parametrize(
    "scenario, model, expected",
    [
        ("race", "tb", "d7159797d4ab0e7d"),
        ("race", "sb", "0fe3235d0fb6fd27"),
        ("spawn-join", "tb", "a7b8e55835170bee"),
        ("spawn-join", "sb", "7149ad73b4863180"),
    ],
)
def test_reports_of_every_seed_are_pinned(scenario, model, expected):
    program = parse_text(_RACE if scenario == "race" else _SPAWN_JOIN, scenario)
    digest = hashlib.sha256()
    for seed in range(64):
        config = MachineConfig(model=model, seed=seed)
        digest.update(json_dumps(single_report(program, config, run_program(program, config))).encode())
    assert digest.hexdigest()[:16] == expected


_CALLBACK_TWICE = """
bind drive = c_drive(*mut u32) -> u32

foreign fn c_drive(p: ptr) -> u32
  let r = call bump(p)
  let s = call bump(p)
  return s
end

host fn bump(q: *mut u32) -> u32
  *q = 5
  return 6
end

host fn main()
  let x: u32 = 0
  let xp: *mut u32 = &raw mut x
  let got: u32 = call drive(xp)
  assert_eq got 6
end
"""

# main ends while the spinning thread is still ready, so every step of main but its first
# is taken with two threads ready.
_TWO_READY = """
host fn spin()
  let a: i32 = 1
  let b: i32 = 2
  let c: i32 = 3
  let d: i32 = 4
  let e: i32 = 5
  let f: i32 = 6
end

host fn main()
  spawn h = spin()
  let x: i32 = 1
  let y: i32 = 2
  let z: i32 = 3
end
"""


@pytest.mark.parametrize(
    "text, seed, needed",
    [(_CALLBACK_TWICE, 0, 12), (_TWO_READY, 0, 5), (_TWO_READY, 5, 11)],
    ids=["callback", "two-ready-seed-0", "two-ready-seed-5"],
)
def test_a_run_passes_with_exactly_the_steps_it_needs(text, seed, needed):
    program = parse_text(text)
    exact = Machine(program, MachineConfig(seed=seed, steps=needed))
    assert exact.run().classification is Classification.PASS
    assert exact.steps == needed
    short = Machine(program, MachineConfig(seed=seed, steps=needed - 1))
    assert short.run() == Outcome(Classification.TIMEOUT, note=f"step budget of {needed - 1} exhausted")
    assert short.steps == needed - 1


def test_a_lone_ready_thread_draws_nothing_from_the_scheduler():
    machine = Machine(parse_text(_CALLBACK_TWICE), MachineConfig(seed=7))
    assert machine.run().classification is Classification.PASS
    assert machine.rng.next_u64() == Xoshiro256(7).next_u64()


def test_argument_count_mismatch_is_invalid_binding():
    _expect_bug(
        """
bind f = c_f(i32, i32)

foreign fn c_f(a: i64)
end

host fn main()
  call f(1)
end
""",
        DiagnosticKind.INVALID_BINDING,
    )


def test_spawn_and_join():
    outcome = _run(
        """
host fn worker(p: *mut i32)
  *p = 9
end

host fn main()
  let x: i32 = 0
  let xp: *mut i32 = &raw mut x
  spawn h = worker(xp)
  join h
  assert_eq x 9
end
"""
    )
    assert outcome.classification is Classification.PASS


def test_spawned_thread_trace_leaves_out_the_spawners_boundary_call():
    program = parse_text(
        """
bind spin = c_spin()

foreign fn c_spin()
  let a = 1
  let b = 2
end

host fn worker()
  assert_eq 1 2
end

host fn main()
  spawn h = worker()
  call spin()
  join h
end
"""
    )
    for seed in range(16):
        diag = run_program(program, MachineConfig(seed=seed)).diagnostics[0]
        assert [f.function for f in diag.host_trace] == ["worker", "main"]
        assert diag.foreign_trace == ()


def test_spawned_thread_trace_shows_the_spawner_where_it_spawned():
    # `main` has moved on to `call spin()` or further by the time `worker`
    # fails on most seeds; the trace must still name the `spawn` line.
    program = parse_text(
        """
bind spin = c_spin()

foreign fn c_spin()
  let a = 1
  let b = 2
end

host fn worker()
  assert_eq 1 2
end

host fn main()
  spawn h = worker()
  call spin()
  join h
end
"""
    )
    for seed in range(32):
        diag = run_program(program, MachineConfig(seed=seed)).diagnostics[0]
        assert [(f.function, f.line) for f in diag.host_trace] == [("worker", 10), ("main", 14)]
        assert diag.host_trace[1].statement == "spawn h = worker()"


def test_spawn_inside_a_callback_keeps_the_foreign_caller_in_the_trace():
    outcome = _run(
        """
bind run = c_run()

foreign fn c_run()
  call cb()
  let a = 1
end

host fn worker()
  assert_eq 1 2
end

host fn cb()
  spawn h = worker()
  join h
end

host fn main()
  call run()
end
"""
    )
    diag = outcome.diagnostics[0]
    assert [(f.function, f.line) for f in diag.host_trace] == [("worker", 10), ("cb", 14), ("main", 19)]
    assert [(f.function, f.line) for f in diag.foreign_trace] == [("c_run", 5)]


def test_heap_new_and_rewrap_has_no_leak():
    outcome = _run(
        """
host fn main()
  let b: *mut i64 = heap_new i64 7
  let v: i64 = *b
  assert_eq v 7
end
"""
    )
    assert outcome.classification is Classification.PASS
    assert outcome.leaks == ()


def test_into_raw_without_rewrap_leaks():
    outcome = _run(
        """
host fn main()
  let b: *mut i64 = heap_new i64 7
  let raw: *mut i64 = heap_into_raw b
end
"""
    )
    assert outcome.classification is Classification.PASS
    assert len(outcome.leaks) == 1
    leak = outcome.leaks[0]
    assert leak.kind is DiagnosticKind.MEMORY_LEAK
    assert "never freed" in leak.message
    assert "host" in leak.message


def test_from_raw_restores_ownership():
    outcome = _run(
        """
host fn main()
  let b: *mut i64 = heap_new i64 7
  let raw: *mut i64 = heap_into_raw b
  let back: *mut i64 = heap_from_raw raw
end
"""
    )
    assert outcome.leaks == ()


def test_expose_and_rehydrate_round_trip():
    outcome = _run(
        """
bind echo = c_echo(usize) -> usize

foreign fn c_echo(a: u64) -> u64
  return a
end

host fn main()
  let x: u32 = 77
  let xp: *mut u32 = &raw mut x
  let addr: usize = xp as usize
  let got: usize = call echo(addr)
  assert_eq got addr
  let back: *mut u32 = got as *mut u32
  let v: u32 = *back
  assert_eq v 77
end
"""
    )
    assert outcome.classification is Classification.PASS


def test_strict_provenance_flags_integer_to_pointer():
    _expect_bug(
        """
host fn main()
  let x: u32 = 1
  let xp: *mut u32 = &raw mut x
  let addr: usize = xp as usize
  let back: *mut u32 = addr as *mut u32
end
""",
        DiagnosticKind.STRICT_PROVENANCE_VIOLATION,
        strict_provenance=True,
    )


def test_permissive_foreign_load_taints_instead_of_failing():
    text = """
bind peek = c_peek(*const u32) -> u32

foreign fn c_peek(p: ptr) -> u32
  let v = load u32 p
  return v
end

host fn main()
  let x: u32 = uninit
  let xp: *const u32 = &raw const x
  let got: u32 = call peek(xp)
end
"""
    # Default mode: the load succeeds, the host-side consumption fails.
    permissive = _run(text)
    assert permissive.classification is Classification.BUG
    assert permissive.diagnostics[0].kind is DiagnosticKind.UNINITIALIZED_READ
    assert permissive.diagnostics[0].host_trace
    # Opting out moves the error to the foreign load itself.
    eager = _run(text, permissive_foreign_loads=False)
    assert eager.diagnostics[0].kind is DiagnosticKind.UNINITIALIZED_READ
    assert eager.diagnostics[0].foreign_trace
    assert "load u32" in eager.diagnostics[0].foreign_trace[0].statement


_TAINTED_STORE = """
bind smear = c_smear(*mut u32, *mut u32)

foreign fn c_smear(src: ptr, dst: ptr)
  let v = load u32 src
  let q = gep dst OFFSET
  store u32 q v
end

host fn main()
  let junk: u32 = uninit
  let xs: [u32; 2] = zeroed
  let jp: *mut u32 = &raw mut junk
  let base: *mut [u32; 2] = &raw mut xs
  let xp: *mut u32 = base as *mut u32
  call smear(jp, xp)
  let y: u32 = xs[1]
end
"""


def test_tainted_store_writes_uninitialized_bytes():
    # The store keeps the taint: the host's later read of the bytes fails.
    outcome = _expect_bug(_TAINTED_STORE.replace("OFFSET", "4"), DiagnosticKind.UNINITIALIZED_READ)
    assert outcome.diagnostics[0].host_trace[0].statement == "let y: u32 = xs[1]"
    # It is still a 4-byte write, so it must be 4-byte aligned.
    _expect_bug(_TAINTED_STORE.replace("OFFSET", "2"), DiagnosticKind.MISALIGNED_ACCESS)


def test_zero_init_foreign_makes_foreign_memory_defined():
    text = """
bind grab = c_grab() -> u64

foreign fn c_grab() -> u64
  let tmp = alloca 8
  let v = load u64 tmp
  return v
end

host fn main()
  let got: u64 = call grab()
  assert_eq got 0
end
"""
    assert _run(text).classification is Classification.BUG
    zeroed = _run(text, zero_init_foreign=True)
    assert zeroed.classification is Classification.PASS


def test_zero_init_forces_permissive_off():
    config = MachineConfig(zero_init_foreign=True)
    assert not config.permissive_foreign_loads


def test_unique_as_mutable_flag_controls_box_retag():
    text = """
host fn main()
  let b: *mut i64 = heap_new i64 1
end
"""
    program = parse_text(text)
    on = Machine(program, MachineConfig())
    on.run()
    tree_on = on.memory.allocations[1].tracker.render()
    assert "└─ b: Reserved" in tree_on
    off = Machine(program, MachineConfig(unique_as_mutable=False))
    off.run()
    tree_off = off.memory.tracker(off.memory.allocations[1]).render()
    assert tree_off == "└─ b (alloc): Active"


def test_step_budget_exhaustion_is_a_timeout():
    outcome = _run(
        """
host fn main()
  let a: i32 = 1
  let b: i32 = 2
  let c: i32 = 3
end
""",
        steps=2,
    )
    assert outcome.classification is Classification.TIMEOUT
    assert "step budget" in outcome.note


def test_join_of_unknown_handle_is_unsupported():
    outcome = _run("host fn main()\n  join nothing\nend\n")
    assert outcome.classification is Classification.UNSUPPORTED


def test_misaligned_typed_access():
    _expect_bug(
        """
host fn main()
  let xs: [u8; 8] = zeroed
  let base: *mut [u8; 8] = &raw mut xs
  let bp: *mut u8 = base as *mut u8
  let off: *mut u8 = bp.offset(1)
  let wide: *mut u32 = off as *mut u32
  let v: u32 = *wide
end
""",
        DiagnosticKind.MISALIGNED_ACCESS,
    )


def test_symbolic_alignment_can_be_disabled():
    text = """
host fn main()
  let xs: [u8; 16] = zeroed
  let base: *mut [u8; 16] = &raw mut xs
  let bp: *mut u8 = base as *mut u8
  let off: *mut u8 = bp.offset(8)
  let wide: *mut u64 = off as *mut u64
  *wide = 1
end
"""
    # Symbolically the 1-aligned allocation can never satisfy an 8-byte
    # access; concretely offset 8 from a 16-aligned base is fine.
    assert _run(text).classification is Classification.BUG
    program = parse_text(text)
    machine = Machine(program, MachineConfig(symbolic_alignment=False))
    machine.memory.allocations  # freshly constructed, no allocations yet
    outcome = machine.run()
    assert outcome.classification is Classification.PASS


def test_double_free_across_the_boundary():
    _expect_bug(
        """
bind release = c_release(*mut u8)

foreign fn c_release(p: ptr)
  free p
end

host fn main()
  let buf: *mut u8 = call acquire()
  call release(buf)
  call release(buf)
end

bind acquire = c_acquire() -> *mut u8

foreign fn c_acquire() -> ptr
  let m = malloc 4
  return m
end
""",
        DiagnosticKind.DOUBLE_FREE,
    )


def test_diagnostics_carry_split_traces():
    outcome = _run(
        """
bind stomp = c_stomp(*mut i32)

foreign fn c_stomp(p: ptr)
  let q = gep p 64
  store i32 q 1
end

host fn main()
  let x: i32 = 0
  let xp: *mut i32 = &raw mut x
  call stomp(xp)
end
"""
    )
    diag = outcome.diagnostics[0]
    assert diag.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS
    assert diag.foreign_trace[0].function == "c_stomp"
    assert diag.host_trace[0].function == "main"


def test_same_config_runs_identically():
    text = """
bind fill = c_fill(*mut u8, usize)

foreign fn c_fill(p: ptr, n: u64)
  memset p 7 n
end

host fn main()
  let xs: [u8; 4] = uninit
  let base: *mut [u8; 4] = &raw mut xs
  let bp: *mut u8 = base as *mut u8
  call fill(bp, 4)
  let last: u8 = xs[3]
  assert_eq last 7
end
"""
    program = parse_text(text)
    first = run_program(program, MachineConfig(seed=11))
    second = run_program(program, MachineConfig(seed=11))
    assert first == second


def test_seed_never_changes_classification():
    text = """
host fn main()
  let b: *mut i64 = heap_new i64 3
  let v: i64 = *b
  assert_eq v 3
end
"""
    program = parse_text(text)
    outcomes = {run_program(program, MachineConfig(seed=s)).classification for s in range(5)}
    assert outcomes == {Classification.PASS}


def test_machine_records_step_count():
    program = parse_text("host fn main()\n  let x: i32 = 1\nend\n")
    machine = Machine(program, MachineConfig())
    machine.run()
    assert machine.steps > 0


def test_invalid_model_rejected():
    with pytest.raises(ValueError):
        MachineConfig(model="nope")


def test_negative_step_budget_rejected():
    with pytest.raises(ValueError, match="not -5"):
        MachineConfig(steps=-5)
    assert MachineConfig(steps=0).steps == 0


_RETAG_FREED = """
bind make = c_make() -> *mut i32

foreign fn c_make() -> ptr
  let q = malloc 4
  store i32 q 1
  free q
  return q
end

host fn main()
  let raw: *mut i32 = call make()
  let r: &mut i32 = &mut *raw
end
"""

_RETAG_PAST_END = """
host fn main()
  let a: [i32; 2] = zeroed
  let p: *mut [i32; 2] = &raw mut a
  let q: *mut [i32; 2] = p.offset(1)
  let r: &mut [i32; 2] = &mut *q
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize(
    "text, kind, message",
    [
        (_RETAG_FREED, DiagnosticKind.USE_AFTER_FREE,
         "mutable-ref retag of 4 bytes in alloc#1 (q) after it was freed"),
        (_RETAG_PAST_END, DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
         "mutable-ref retag of 8 bytes at alloc#1+8 overruns the 8-byte allocation"),
    ],
    ids=["freed", "past-end"],
)
def test_retag_requires_a_live_in_bounds_pointee(model, text, kind, message):
    outcome = _expect_bug(text, kind, model=model)
    assert outcome.diagnostics[0].message == message


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_cell_get_through_a_dangling_pointer_is_out_of_bounds(model):
    outcome = _expect_bug(
        """
host fn main()
  let a: u64 = 4096
  let p: *mut cell(i32) = a as *mut cell(i32)
  let r: *mut i32 = *p.get()
end
""",
        DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
        model=model,
    )
    assert outcome.diagnostics[0].message == (
        "pointer 0x1000 has no provenance and points into no allocation"
    )


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_unknown_struct_field_is_unsupported(model):
    outcome = _run(
        """
type P
  a: i32
end

host fn main()
  let s: P = zeroed
  let v: i32 = s.b
end
""",
        model=model,
    )
    assert outcome.classification is Classification.UNSUPPORTED
    assert outcome.note == "struct P has no field 'b'"


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("stored", ["[i32; 3]", "unit"])
def test_foreign_store_of_a_non_scalar_width_is_unsupported(model, stored):
    outcome = _run(
        f"""
bind put = c_put()

foreign fn c_put()
  let p = malloc 12
  store {stored} p 1
  free p
end

host fn main()
  call put()
end
""",
        model=model,
    )
    assert outcome.classification is Classification.UNSUPPORTED
    assert outcome.note.startswith("foreign store of ")


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_shadowed_owned_heap_values_drop_at_frame_exit(model):
    outcome = _run(
        """
host fn main()
  let b: &mut i32 = heap_new i32 1
  let b: &mut i32 = heap_new i32 2
end
""",
        model=model,
    )
    assert outcome.classification is Classification.PASS
    assert outcome.leaks == ()


_TAINTED_OPERAND = """
bind f = c_f()

foreign fn c_f()
  let s = alloca 8
  let n = load u64 s
  USE
end

host fn main()
  call f()
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("use", ["let q = malloc n", "memset s 1 n", "let q = gep s n"])
def test_tainted_integer_operand_is_an_uninitialized_read(model, use):
    outcome = _expect_bug(
        _TAINTED_OPERAND.replace("USE", use), DiagnosticKind.UNINITIALIZED_READ, model=model
    )
    assert outcome.diagnostics[0].foreign_trace[0].statement == use


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize(
    "use",
    ["let v = load i32 q", "store i32 q 1", "free q", "memset q 1 4", "memcpy q q 4", "let r = gep q 0"],
)
def test_tainted_pointer_operand_is_an_uninitialized_read(model, use):
    text = _TAINTED_OPERAND.replace("let n = load u64 s", "let q = load ptr s").replace("USE", use)
    outcome = _expect_bug(text, DiagnosticKind.UNINITIALIZED_READ, model=model)
    assert outcome.diagnostics[0].foreign_trace[0].statement == use


def _retag_record(text, model, alloc_id, label):
    """Run `text`, which must pass, and return the creation of tag `label` in `alloc_id`."""
    machine = Machine(parse_text(text), MachineConfig(model=model))
    outcome = machine.run()
    assert outcome.classification is Classification.PASS
    assert outcome.leaks == ()
    tracker = machine.memory.allocations[alloc_id].tracker
    record = next(r for r in tracker.history() if r.label == label)
    return record.created.description, tracker.root_tag


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_borrow_through_an_exposed_address_derives_from_the_root_tag(model):
    created, root = _retag_record(
        """
host fn main()
  let x: i32 = 1
  let xp: *mut i32 = &raw mut x
  let a: u64 = xp as u64
  let q: *mut i32 = a as *mut i32
  let m: &mut i32 = &mut *q
  *m = 2
  let v: i32 = x
  assert_eq v 2
end
""",
        model, 1, "m",
    )
    assert created == f"mutable-ref retag of [0..4) from tag#{root}"


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_heap_from_raw_into_an_untyped_pointer_reclaims_the_whole_allocation(model):
    created, _ = _retag_record(
        """
host fn main()
  let b: *mut i64 = heap_new i64 7
  let raw: *mut i64 = heap_into_raw b
  let back: ptr = heap_from_raw raw
end
""",
        model, 1, "back",
    )
    assert created.startswith("mutable-ref retag of [0..8) from tag#")


_DANGLING_BORROW = """
host fn main()
  let p: *mut i32 = 4096
  let r: &mut i32 = &mut *p
end
"""

_DANGLING_PARAM = """
bind run = c_run()

foreign fn c_run()
  call cb(4096)
end

host fn cb(r: &mut i32)
end

host fn main()
  call run()
end
"""

# A reference parameter is retagged at function entry even if the callee
# never uses it.
_DANGLING_CALL = """
host fn f(r: &mut i32)
end

host fn main()
  call f(4096)
end
"""

_DANGLING_SPAWN = """
host fn f(r: &mut i32)
end

host fn main()
  spawn h = f(4096)
  join h
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize(
    "text",
    [_DANGLING_BORROW, _DANGLING_PARAM, _DANGLING_CALL, _DANGLING_SPAWN],
    ids=["borrow", "parameter", "call", "spawn"],
)
def test_retag_of_an_address_outside_every_allocation_is_out_of_bounds(model, text):
    outcome = _expect_bug(text, DiagnosticKind.ACCESS_OUT_OF_BOUNDS, model=model)
    assert outcome.diagnostics[0].message == (
        "pointer 0x1000 has no provenance and points into no allocation"
    )


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("alloc", ["malloc", "alloca"])
def test_pointer_register_as_an_allocation_size_is_unsupported(model, alloc):
    outcome = _run(
        f"""
bind f = c_f()

foreign fn c_f()
  let s = alloca 8
  let q = {alloc} s
end

host fn main()
  call f()
end
""",
        model=model,
    )
    assert outcome.classification is Classification.UNSUPPORTED
    assert outcome.note == f"{alloc} sized by a pointer register"


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_reference_let_from_a_literal_fails_at_the_let(model):
    outcome = _expect_bug(
        """
host fn main()
  let r: &mut i32 = 4096
  let v: i32 = 1
end
""",
        DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
        model=model,
    )
    assert outcome.diagnostics[0].message == (
        "pointer 0x1000 has no provenance and points into no allocation"
    )
    assert outcome.diagnostics[0].host_trace[0].statement == "let r: &mut i32 = 4096"


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_reference_let_from_a_raw_pointer_retags(model):
    created, root = _retag_record(
        """
host fn main()
  let x: i32 = 1
  let q: *mut i32 = &raw mut x
  let r: &mut i32 = q
  *r = 2
  let v: i32 = x
  assert_eq v 2
end
""",
        model,
        1,
        "r",
    )
    assert created.startswith("mutable-ref retag of [0..4) from tag#")
    # The new tag is one a write through the raw pointer invalidates.
    _expect_bug(
        """
host fn main()
  let x: i32 = 1
  let q: *mut i32 = &raw mut x
  let r: &mut i32 = q
  *q = 3
  let v: i32 = *r
end
""",
        DiagnosticKind.EXPIRED_PERMISSION if model == "tb" else DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
        model=model,
    )


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize(
    "args, note",
    [
        pytest.param("", "spawn of 'worker' passes 0 arguments, it takes 1", id="too-few"),
        pytest.param("q, q", "spawn of 'worker' passes 2 arguments, it takes 1", id="too-many"),
        pytest.param("x", "argument of type i64 where &mut i32 is expected", id="not-assignable"),
    ],
)
def test_spawn_checks_its_arguments_like_call(model, args, note):
    outcome = _run(
        f"""
host fn worker(p: &mut i32)
  *p = 1
end

host fn main()
  let x: i64 = 5
  let y: i32 = 0
  let q: &mut i32 = &mut y
  spawn h = worker({args})
  join h
end
""",
        model=model,
    )
    assert outcome.classification is Classification.UNSUPPORTED
    assert outcome.note == note
    assert exit_code(outcome) == 2


_CALL_RESULT_REFERENCE = """
host fn id(p: &mut i32) -> &mut i32
  return p
end

host fn main()
  let x: i32 = 0
  let q: &mut i32 = &mut x
  let r: &mut i32 = call id(q)
  let s: &mut i32 = &mut x
  *s = 1
  *r = 2
end
"""


def test_reference_bound_from_a_call_result_is_retagged():
    # As `let r: &mut i32 = q` is: `r` gets its own tag, which the write
    # through the sibling `s` invalidates.
    tb = _expect_bug(_CALL_RESULT_REFERENCE, DiagnosticKind.EXPIRED_PERMISSION, model="tb")
    assert re.match(r"write through tag#\d+ \('r'\) at alloc#1\+0:", tb.diagnostics[0].message)
    sb = _expect_bug(_CALL_RESULT_REFERENCE, DiagnosticKind.ACCESS_OUT_OF_BOUNDS, model="sb")
    assert "('r') in the borrow stack" in sb.diagnostics[0].message
    assert "('q')" not in sb.diagnostics[0].message


_CALL_RESULT_ALIASED = """host fn f() -> i32
  let a: i32 = 4
  return a
end

host fn main()
  let y: i32 = call f()
  let r: &mut i32 = &mut y
  let s: &mut i32 = &mut y
  *r = 1
end
"""


def _machine_run(text, model):
    machine = Machine(parse_text(text), MachineConfig(model=model))
    return machine, machine.run()


def _allocation(machine, label):
    return next(a for a in machine.memory.allocations.values() if a.label == label)


def _root_record(alloc):
    """The history record of `alloc`'s root tag, as its tracker writes it."""
    return next(r for r in alloc.tracker.history() if r.tag == alloc.tag)


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_call_result_slot_is_created_and_written_at_the_call_line(model):
    machine, outcome = _machine_run(_CALL_RESULT_ALIASED, model)
    y = _allocation(machine, "y")
    root = _root_record(y)
    # Line 7 is the call, line 3 the callee's `return`. The result's write
    # is a root access made before `y`'s first retag; it must survive into
    # the history of the tracker that the retag builds.
    assert root.created == TagEvent(7, "allocation of alloc#2")
    assert root.last_valid_use == TagEvent(7, "write of [0..4)")
    if model == "tb":
        assert outcome.classification is Classification.PASS
        return
    (diag,) = outcome.diagnostics
    assert diag.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS
    assert diag.permission_history[0] == root
    assert "tag#2 'y' created at line 7: allocation of alloc#2" in render_diagnostic(diag)


_IMPLICIT_RETURN_DROP = """host fn f()
  let b: *mut i32 = heap_new i32 5
  let pb: *mut *mut i32 = &raw mut b
  let z: i32 = 1
end

host fn main()
  call f()
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_frame_exit_without_return_reads_at_the_last_line(model):
    # `f` ends without a `return`, so its frame exits at its last statement,
    # line 4. Dropping the owned `b` reads it there, through its root tag.
    machine, outcome = _machine_run(_IMPLICIT_RETURN_DROP, model)
    assert outcome.classification is Classification.PASS
    root = _root_record(_allocation(machine, "b"))
    assert root.last_valid_use == TagEvent(4, "read of [0..8)")


_PINGPONG = """bind ping = c_ping(*mut i64)

foreign fn c_ping(p: ptr)
  call bump(p)
  call bump(p)
end

host fn bump(q: *mut i64)
  let v: i64 = *q
  *q = 6
end

host fn main()
  let x: i64 = 5
  let raw: *mut i64 = &raw mut x
  call ping(raw)
  let after: i64 = x
  assert_eq after 6
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_only_a_retagged_allocation_builds_a_tracker(model):
    machine, outcome = _machine_run(_PINGPONG, model)
    assert outcome.classification is Classification.PASS
    # Only `x` is borrowed, so only `x` gets bytes and builds a tracker;
    # `raw`, the callbacks' `q` and `v` and `after` stay whole values and
    # leave `allocations` when their frames exit.
    (x,) = machine.memory.allocations.values()
    assert (x.id, x.label, x.tag) == (1, "x", 1)
    assert x.tracker is not None and _root_record(x).last_valid_use is not None
    # Yet all seven locals drew an alloc id, a root tag and an 8-byte slot
    # in order: x, raw, q, v, q, v, after, with sb's `&raw mut x` retag
    # drawing a tag between x's and raw's (tb does not retag a raw borrow).
    probe = machine.memory.allocate(1, 1, AllocOrigin.HOST_HEAP)
    assert (probe.id, probe.tag) == (8, {"tb": 8, "sb": 9}[model])
    assert probe.base == x.base + 7 * (8 + GUARD_GAP)


_EXPOSED_BEFORE_RETAG = """bind probe = c_probe()

foreign fn c_probe()
  let p = alloca 4
  store i32 p 7
  let s = alloca 8
  store u64 s p
  let a = load u64 s
  let v = load i32 a
end

host fn main()
  call probe()
end
"""


@pytest.mark.parametrize("model, last_use", [("tb", 5), ("sb", 9)])
def test_an_exposed_address_access_builds_the_tracker_and_keeps_the_root_use(model, last_use):
    # `a` holds `p`'s address as a plain integer, so the load at line 9 is a
    # wildcard access to an allocation never retagged. A wildcard access
    # leaves tb's root untouched; sb resolves it to the root item, a use.
    machine, outcome = _machine_run(_EXPOSED_BEFORE_RETAG, model)
    assert outcome.classification is Classification.PASS
    p = _allocation(machine, "p")
    assert p.tracker is not None
    assert _root_record(p).last_valid_use.line == last_use
    assert _allocation(machine, "s").tracker is None


_UNTRACKED_FAULTS = {
    "double-free": (
        "  let p = malloc 4\n  free p\n  free p",
        "",
        DiagnosticKind.DOUBLE_FREE, "dealloc of alloc#1 (p) which was already freed",
    ),
    "use-after-free": (
        "  let p = malloc 4\n  store i32 p 1\n  free p\n  store i32 p 2",
        "",
        DiagnosticKind.USE_AFTER_FREE, "write of 4 bytes in alloc#1 (p) after it was freed",
    ),
    "frame-exit": (
        "  let p = alloca 4\n  store i32 p 1",
        "  let v: i32 = *q",
        DiagnosticKind.USE_AFTER_FREE, "read of 4 bytes in alloc#1 (p) after it was freed",
    ),
}


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("case", sorted(_UNTRACKED_FAULTS))
def test_faults_of_a_never_retagged_allocation_keep_their_messages(model, case):
    foreign, host, kind, message = _UNTRACKED_FAULTS[case]
    text = f"""bind make = c_make() -> *mut i32

foreign fn c_make() -> ptr
{foreign}
  return p
end

host fn main()
  let q: *mut i32 = call make()
{host}
end
"""
    machine, outcome = _machine_run(text, model)
    (diag,) = outcome.diagnostics
    assert (diag.kind, diag.message) == (kind, message)
    assert _allocation(machine, "p").tracker is None


# A wildcard pointer whose address lands in a local that was never borrowed
# reaches that local's storage: the bump allocator puts `y` 20 bytes after
# `x` (4 bytes, then a 16-byte guard gap), and `z` 24 bytes and the pointer
# `y` 48 bytes after the 8-byte `x`.
_NEIGHBOUR_INT = """host fn main()
  let x: i32 = 1
  let y: i32 = 2
  let p: *mut i32 = &raw mut x
  let q: *mut i32 = p.offset(5)
  let a: usize = q as usize
  let r: *mut i32 = a as *mut i32
  *r = 5
  assert_eq y 5
end
"""

_NEIGHBOUR_POINTER = """host fn main()
  let x: i64 = 1
  let z: i32 = 3
  let y: *mut i32 = &raw mut z
  let p: *mut i64 = &raw mut x
  let q: *mut i64 = p.offset(6)
  let a: usize = q as usize
  let r: *mut *mut i32 = a as *mut *mut i32
  let w: *mut i32 = *r
  *w = 9
  assert_eq z 9
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("text", [_NEIGHBOUR_INT, _NEIGHBOUR_POINTER], ids=["int", "pointer"])
def test_a_wildcard_pointer_reaches_a_never_borrowed_neighbour(model, text):
    outcome = _run(text, model=model)
    assert outcome.classification is Classification.PASS, outcome.diagnostics


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_callback_with_the_wrong_argument_count_is_invalid_binding(model):
    outcome = _expect_bug(
        """
bind run = c_run()

foreign fn c_run()
  call cb(1, 2)
end

host fn cb(v: i32)
end

host fn main()
  call run()
end
""",
        DiagnosticKind.INVALID_BINDING,
        model=model,
    )
    assert outcome.diagnostics[0].message == "callback 'cb' takes 1 parameters, call passes 2"


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_wide_load_through_an_untyped_pointer_is_invalid_binding(model):
    outcome = _expect_bug(
        """
host fn main()
  let x: i32 = 1
  let xp: *mut i32 = &raw mut x
  let p: ptr = xp as ptr
  let v: i64 = *p
end
""",
        DiagnosticKind.INVALID_BINDING,
        model=model,
    )
    assert outcome.diagnostics[0].message == (
        "load through untyped pointer 'p' resolves to 4 bytes, destination 'v' holds 8"
    )


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_zeroed_integer_local_reads_back_zero(model):
    text = "host fn main()\n  let x: i64 = zeroed\n  assert_eq x WANT\nend\n"
    assert _run(text.replace("WANT", "0"), model=model).classification is Classification.PASS
    outcome = _expect_bug(text.replace("WANT", "1"), DiagnosticKind.ASSERTION_FAILED, model=model)
    assert outcome.diagnostics[0].message == "assertion failed: 0 != 1"


_POINTER_AGAINST_INTEGER = """
host fn main()
  let x: i32 = 1
  let p: *mut i32 = &raw mut x
  let a: u64 = p as u64
  assert_eq p a
  assert_eq p 0
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_assert_eq_compares_a_pointer_by_its_address(model):
    outcome = _expect_bug(_POINTER_AGAINST_INTEGER, DiagnosticKind.ASSERTION_FAILED, model=model)
    diag = outcome.diagnostics[0]
    # The first assertion held; the second names the address in hex.
    assert diag.host_trace[0].statement == "assert_eq p 0"
    assert re.fullmatch(r"assertion failed: 0x[0-9a-f]+ != 0", diag.message)


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_pointer_stored_in_a_struct_field_keeps_its_provenance(model):
    outcome = _run(
        """
type Holder
  p: *mut i32
end

host fn main()
  let x: i32 = 1
  let h: Holder = zeroed
  let xp: *mut i32 = &raw mut x
  h.p = xp
  let q: *mut i32 = h.p
  *q = 5
  assert_eq x 5
end
""",
        model=model,
    )
    assert outcome.classification is Classification.PASS, outcome.diagnostics


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_heap_from_raw_of_an_address_outside_every_allocation_is_out_of_bounds(model):
    outcome = _expect_bug(
        """
host fn main()
  let raw: *mut i64 = 4096
  let b: *mut i64 = heap_from_raw raw
end
""",
        DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
        model=model,
    )
    assert outcome.diagnostics[0].message == (
        "heap_from_raw of 0x1000, which points into no live allocation"
    )


_HEAP_ROUND_TRIP = """
host fn main()
  let b: *mut i64 = heap_new i64 7
  let raw: *mut i64 = heap_into_raw b
  let back: *mut i64 = heap_from_raw raw
end
"""


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_heap_from_raw_without_unique_as_mutable_keeps_the_pointer_untagged(model):
    machine = Machine(parse_text(_HEAP_ROUND_TRIP), MachineConfig(model=model, unique_as_mutable=False))
    outcome = machine.run()
    assert outcome.classification is Classification.PASS
    assert outcome.leaks == ()
    # No retag reached the heap value, so it never built a tracker.
    assert _allocation(machine, "b (alloc)").tracker is None
    machine, _ = _machine_run(_HEAP_ROUND_TRIP, model)
    labels = _allocation(machine, "b (alloc)").tracker.labels.values()
    assert "back" in labels


def test_a_1500_deep_reborrow_chain_reports_its_tb_finding():
    # The final write goes through a reborrow the read of `x` froze; drawing
    # the tree for the diagnostic walks all 1,500 levels.
    n = 1500
    lines = ["host fn main()", "  let x: i32 = 1", "  let r0: &mut i32 = &mut x"]
    lines += [f"  let r{i}: &mut i32 = &mut *r{i - 1}" for i in range(1, n)]
    lines += [f"  *r{n - 1} = 5", "  let v: i32 = x", "  assert_eq v 5", f"  *r{n - 1} = 6", "end", ""]
    outcome = _expect_bug("\n".join(lines), DiagnosticKind.INSUFFICIENT_PERMISSION, model="tb")
    snapshot = outcome.diagnostics[0].tracker_snapshot.splitlines()
    assert len(snapshot) == n + 1
    assert snapshot[-1] == " " * n + "└─ r1499: Reserved → Frozen"


def _wide_bug(n):
    """n shared reborrows of `x`, each read, then a write through `x` and a read through `s0`."""
    lines = ["host fn main()", "  let x: i32 = 7"]
    lines += [f"  let s{i}: &i32 = &x" for i in range(n)]
    lines += [f"  let v{i}: i32 = *s{i}" for i in range(n)]
    lines += ["  assert_eq v0 7", "  x = 9", "  let w: i32 = *s0", "end", ""]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "model, kind", [("tb", DiagnosticKind.EXPIRED_PERMISSION), ("sb", DiagnosticKind.ACCESS_OUT_OF_BOUNDS)]
)
def test_a_diagnostic_holds_the_tags_it_involves_whatever_the_allocation_tag_count(model, kind):
    # The read names `s0`, which the write through `x` invalidated: the history
    # and snapshot describe those two tags, however many siblings `s0` has.
    sizes = []
    for n in (40, 400):
        diag = _expect_bug(_wide_bug(n), kind, model=model).diagnostics[0]
        assert [record.label for record in diag.permission_history] == ["x", "s0"]
        sizes.append((
            len(diag.permission_history),
            len(diag.tracker_snapshot.splitlines()),
            len(render_diagnostic(diag).splitlines()),
        ))
    assert sizes[0] == sizes[1]


# Each of these functions holds an error that its text alone decides. It must be raised only
# when its statement runs, as it would be if each statement were looked at only then.
_STATICALLY_BAD = {
    "unknown-local": ("host fn bad()\n  let y: i32 = z\nend\n", "call bad()"),
    "field-of-int": ("host fn bad()\n  let x: i32 = 1\n  let y: i32 = x.f\nend\n", "call bad()"),
    "plan-call": ("bind bad = c_bad(i32)\n\nforeign fn c_bad(p: ptr)\nend\n", "call bad(a)"),
}
_WHEN_REACHED = {
    "unknown-local": Outcome(Classification.UNSUPPORTED, note="unknown local 'z'"),
    "field-of-int": Outcome(Classification.UNSUPPORTED, note="field access '.f' on non-struct i32"),
    "plan-call": Outcome(Classification.BUG, diagnostics=(Diagnostic(
        DiagnosticKind.INVALID_BINDING,
        "pointer against 4-byte integer i32: only 8-byte integers carry addresses",
        host_trace=(TraceFrame("host", "main", 8, "call bad(a)"),),
    ),)),
}


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("error", sorted(_STATICALLY_BAD))
@pytest.mark.parametrize("reach", ["never-called", "assert-first", "called"])
def test_an_error_the_text_decides_is_raised_only_when_its_statement_runs(model, error, reach):
    bad, call = _STATICALLY_BAD[error]
    body = {"never-called": "", "assert-first": f"  assert_eq a 2\n  {call}\n", "called": f"  {call}\n"}[reach]
    text = f"{bad}\nhost fn main()\n  let a: i32 = 1\n{body}end\n"
    assert_line = text.splitlines().index("  assert_eq a 2") + 1 if reach == "assert-first" else None
    expected = {
        "never-called": Outcome(Classification.PASS),
        "assert-first": Outcome(Classification.BUG, diagnostics=(Diagnostic(
            DiagnosticKind.ASSERTION_FAILED,
            "assertion failed: 1 != 2",
            host_trace=(TraceFrame("host", "main", assert_line, "assert_eq a 2"),),
        ),)),
        "called": _WHEN_REACHED[error],
    }[reach]
    assert _run(text, model=model) == expected


def test_static_work_is_done_once_per_program_not_once_per_execution(monkeypatch):
    # A crossings scenario with 4 times the callbacks and bound calls plans each binding and lays
    # out each type as often as the small one does: the program text fixes both.
    counts = {"plan_call": 0, "layout_of": 0}
    for name in counts:
        def counted(*args, name=name, original=getattr(machine_module, name)):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(machine_module, name, counted)
    seen = []
    for n, m in ((25, 5), (100, 20)):
        counts.update(plan_call=0, layout_of=0)
        outcome = run_program(parse_text(bench_workloads().crossings(n, m)), MachineConfig(model="tb"))
        assert outcome.classification is Classification.PASS
        seen.append(dict(counts))
    assert seen[0] == seen[1]


def test_a_program_types_die_with_the_program():
    program = parse_text(Path(corpus_path("aggregate_passthrough.sc")).read_text())
    assert run_program(program, MachineConfig(model="tb")).classification is Classification.PASS
    structs = [weakref.ref(t) for t in program.types]
    del program
    gc.collect()
    assert len(structs) == 2 and [ref() for ref in structs] == [None, None]


def test_untyped_heap_from_raw_leaves_no_type_behind():
    # Each `heap_from_raw` into a `ptr` retags over its whole allocation, laid out as a fresh `[u8; size]`.
    lines = "\n".join(f"  let q{n}: ptr = call make({n})\n  let b{n}: ptr = heap_from_raw q{n}" for n in range(1, 201))
    text = f"bind make = c_make(u64) -> ptr\nforeign fn c_make(n: u64) -> ptr\n  let p = malloc n\n  return p\nend\n" \
           f"host fn main()\n{lines}\nend\n"
    program = parse_text(text)
    gc.collect()
    before = sum(isinstance(o, ArrayType) for o in gc.get_objects())
    outcome = run_program(program, MachineConfig(model="tb"))
    assert outcome.diagnostics[0].kind is DiagnosticKind.CROSS_LANGUAGE_DEALLOC  # `b200` drops at main's end
    del program, outcome
    gc.collect()
    assert sum(isinstance(o, ArrayType) for o in gc.get_objects()) == before


def test_two_parses_share_their_scalar_movers():
    text = "host fn main()\n  let a: i32 = 1\n  let p: *const i32 = &raw const a\nend\n"
    envs = []
    for _ in range(2):
        lowering = machine_module._Lowering(parse_text(text))
        lowering.code(lowering.program.entry)
        envs.append(lowering.env)
    first, second = envs
    assert first["p"].type is not second["p"].type  # a pointer type is built once per parse
    for name in ("a", "p"):
        assert first[name].read is second[name].read and first[name].write is second[name].write


def test_every_foreign_form_that_reads_a_register_is_checked_for_units():
    lowering = machine_module._Lowering
    read_elsewhere = {ir.CallStmt, ir.ReturnStmt, ir.LetStmt, ir.LiteralRhs}  # see `_Lowering._unit_read`
    assert set(lowering.FOREIGN_READS) | read_elsewhere == set(lowering.FOREIGN_STMTS) | set(lowering.FOREIGN_RHS)


def test_integer_casts_wrap_between_widths():
    assert _run(
        """
host fn main()
  let a: i32 = -1
  let b: u64 = a as u64
  assert_eq b 18446744073709551615
  let c: u8 = b as u8
  assert_eq c 255
  let d: i16 = c as i16
  assert_eq d 255
end
"""
    ) == Outcome(Classification.PASS)


# A host call's result is checked against its destination's type as an argument is against
# its parameter's: a result that is not assignable is Rust's mismatched types, so the run is
# `unsupported` once the arguments are evaluated, and the callee never runs.
@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize(
    "dest, ret, found",
    [
        ("r: &mut i32", " -> i32", "i32"), ("x: u8", " -> i32", "i32"), ("y: unit", " -> i32", "i32"),
        ("z: i32", "", "unit"),
    ],
)
def test_a_host_call_result_of_another_type_is_unsupported(model, dest, ret, found):
    outcome = _run(
        f"""
host fn f(){ret}
  return{" 300" if ret else ""}
end

host fn main()
  let {dest} = call f()
end
""",
        model=model,
    )
    want = dest.split(": ")[1]
    assert outcome == Outcome(Classification.UNSUPPORTED, note=f"call to 'f' returns {found} where {want} is expected")


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_a_mismatched_host_call_evaluates_its_arguments_first(model):
    outcome = _expect_bug(
        """
host fn f(a: i32) -> i32
  return a
end

host fn main()
  let u: i32 = uninit
  let x: u8 = call f(u)
end
""",
        DiagnosticKind.UNINITIALIZED_READ,
        model=model,
    )
    assert outcome.diagnostics[0].host_trace[0].statement == "let x: u8 = call f(u)"


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("dest", ["p: *mut i32", "p: *const i32", "p: &mut i32", "p: ptr"])
def test_a_host_call_result_that_decays_is_assignable(model, dest):
    assert _run(
        f"""
host fn f(q: &mut i32) -> &mut i32
  return q
end

host fn main()
  let x: i32 = 1
  let r: &mut i32 = &mut x
  let {dest} = call f(r)
end
""",
        model=model,
    ).classification is Classification.PASS


# Every other place a value lands takes the host-call rule: a bound call's result against its
# destination and a host `return` against its function's type, each Rust's mismatched types. At
# each, a value that is not assignable ends the run `unsupported` when its statement runs.
_MISMATCHED_LANDINGS = {
    "bound-call-result": (
        """
bind g = c_g() -> i32

foreign fn c_g() -> i32
  return 300
end

host fn main()
  let x: u8 = call g()
  assert_eq x 44
end
""",
        "call to 'g' returns i32 where u8 is expected",
    ),
    "return-of-a-local": (
        """
host fn f() -> u8
  let v: i32 = 300
  return v
end

host fn main()
  let x: u8 = call f()
  assert_eq x 44
end
""",
        "return of type i32 where u8 is expected",
    ),
    "return-without-arrow": (
        """
host fn f()
  return 300
end

host fn main()
  call f()
end
""",
        "return of type u64 where unit is expected",
    ),
    # A function that declares a result returns one on every path (Rust's E0069).
    "bare-return": (
        """
host fn f() -> i32
  return
end

host fn main()
  let x: i32 = call f()
  assert_eq x 0
end
""",
        "return of type unit where i32 is expected",
    ),
    "implicit-return": (
        """
host fn f() -> i32
  let v: i32 = 0
end

host fn main()
  let x: i32 = call f()
  assert_eq x 0
end
""",
        "return of type unit where i32 is expected",
    ),
    "literal-argument-for-unit": (
        """
host fn f(u: unit)
end

host fn main()
  call f(5)
end
""",
        "argument of type u64 where unit is expected",
    ),
}


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize("case", sorted(_MISMATCHED_LANDINGS))
def test_a_value_of_another_type_never_lands(model, case):
    text, note = _MISMATCHED_LANDINGS[case]
    assert _run(text, model=model) == Outcome(Classification.UNSUPPORTED, note=note)


@pytest.mark.parametrize("model", ["tb", "sb"])
def test_a_mismatched_bound_call_evaluates_its_arguments_and_never_runs_its_callee(model):
    outcome = _expect_bug(
        """
bind g = c_g(i32) -> i32

foreign fn c_g(a: i32) -> i32
  return a
end

host fn main()
  let u: i32 = uninit
  let x: u8 = call g(u)
end
""",
        DiagnosticKind.UNINITIALIZED_READ,
        model=model,
    )
    assert outcome.diagnostics[0].host_trace[0].statement == "let x: u8 = call g(u)"
    assert outcome.diagnostics[0].foreign_trace == ()


@pytest.mark.parametrize("model", ["tb", "sb"])
@pytest.mark.parametrize(
    "ret, value",
    [(" -> *mut i32", "r"), (" -> ptr", "r"), (" -> &mut i32", "r"), (" -> u8", "7"), (" -> *mut i32", "0")],
)
def test_a_return_that_is_assignable_lands(model, ret, value):
    assert _run(
        f"""
host fn f(r: &mut i32){ret}
  return {value}
end

host fn main()
  let x: i32 = 1
  let q: &mut i32 = &mut x
  call f(q)
end
""",
        model=model,
    ).classification is Classification.PASS


def test_every_statement_and_right_hand_side_form_has_a_lowering():
    """A new form gets a table entry, or this fails, rather than lowering to a step that reports it as
    not executable."""
    lowering = machine_module._Lowering
    stmts = {c for c in vars(ir).values() if isinstance(c, type) and issubclass(c, ir.Stmt) and c is not ir.Stmt}
    assert stmts and set(lowering.HOST_STMTS) | set(lowering.FOREIGN_STMTS) == stmts
    assert set(lowering.HOST_RHS) | set(lowering.FOREIGN_RHS) == set(get_args(ir.Rhs))
    tables = (lowering.HOST_STMTS, lowering.FOREIGN_STMTS, lowering.HOST_RHS, lowering.FOREIGN_RHS)
    assert all(getattr(lowering, f.__name__) is f for table in tables for f in table.values())
