"""End-to-end acceptance checks, one test per shipped guarantee.

Each test exercises a bundled scenario (or the whole corpus) through the
public entry points and pins the exact diagnostic kind, message, trace, and
borrow-state snapshot the tool must produce.
"""

import time

from seamcheck.diagnostics import Classification, DiagnosticKind
from seamcheck.machine import Machine, MachineConfig
from seamcheck.parser import parse_file
from seamcheck.runner import run_differential, run_program

from conftest import corpus_files, corpus_path


def _run(name, model="tb", **kw):
    program = parse_file(corpus_path(name))
    return run_program(program, MachineConfig(model=model, **kw))


def _primary(outcome):
    assert outcome.classification is Classification.BUG
    assert len(outcome.diagnostics) == 1
    return outcome.diagnostics[0]


def test_criterion_01_sibling_reborrow_disables_the_other_child():
    outcome = _run("reborrow_siblings_disable.sc")
    diag = _primary(outcome)
    assert diag.kind is DiagnosticKind.EXPIRED_PERMISSION
    assert diag.host_trace[-1].statement == "*z = 7"
    assert "is Disabled" in diag.message
    assert diag.tracker_snapshot == (
        "└┬ x: Active\n"
        " ├─ y: Reserved → Active\n"
        " └─ z: Reserved → Disabled"
    )


def test_criterion_02_write_through_shared_pointer_rejected_by_both_models():
    tb = _primary(_run("shared_ref_const_write.sc", "tb"))
    assert tb.kind is DiagnosticKind.INSUFFICIENT_PERMISSION
    assert "is Frozen, which forbids writes" in tb.message

    sb = _primary(_run("shared_ref_const_write.sc", "sb"))
    assert sb.kind is DiagnosticKind.INSUFFICIENT_PERMISSION
    assert "grants only reads" in sb.message
    assert sb.tracker_snapshot == "[x: Unique, s: SharedReadOnly, c: SharedReadOnly]"


def test_criterion_03_protected_argument_blocks_dealloc_raw_param_does_not():
    for model in ("tb", "sb"):
        diag = _primary(_run("protected_arg_freed.sc", model))
        assert diag.kind is DiagnosticKind.PROTECTED_PERMISSION
        assert "while tag#" in diag.message and "is protected" in diag.message
    for model in ("tb", "sb"):
        outcome = _run("raw_param_no_protector.sc", model)
        assert outcome.classification is Classification.PASS
        assert not outcome.leaks


def test_criterion_04_offset_past_borrow_splits_the_models():
    program = parse_file(corpus_path("offset_beyond_borrow.sc"))
    result = run_differential(program, MachineConfig())
    assert result.verdict == "sb-only-violation"
    assert result.tb.classification is Classification.PASS
    sb = result.sb.diagnostics[0]
    assert sb.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS
    assert sb.tracker_snapshot == "[arr: Unique]"


def test_criterion_05_stale_reference_errs_and_cell_fix_passes():
    diag = _primary(_run("stale_ref_foreign_write.sc"))
    assert diag.kind is DiagnosticKind.EXPIRED_PERMISSION
    assert diag.host_trace[-1].statement == "let v: u32 = *mine"
    assert diag.tracker_snapshot == (
        "└┬ s: Active\n"
        " ├─ held: Reserved → Active\n"
        " └─ mine: Reserved → Disabled"
    )

    machine = Machine(parse_file(corpus_path("cell_fix_foreign_write.sc")), MachineConfig())
    outcome = machine.run()
    assert outcome.classification is Classification.PASS
    renders = [
        a.tracker.render()
        for a in machine.memory.allocations.values()
        if a.tracker is not None
    ]
    # The interior-mutable reborrow survives the foreign write instead of
    # being disabled.
    assert (
        "└┬ s: Active\n"
        " ├─ held: Reserved* → Frozen\n"
        " └─ mine: Reserved*"
    ) in renders


def test_criterion_06_heap_loan_discipline_and_leak_check():
    diag = _primary(_run("box_loan_disabled.sc"))
    assert diag.kind is DiagnosticKind.EXPIRED_PERMISSION
    assert [(f.function, f.statement) for f in diag.foreign_trace] == [
        ("c_reader", "let v = load i64 p")
    ]
    assert [(f.function, f.statement) for f in diag.host_trace] == [
        ("main", "let got: i64 = call reader(mp)")
    ]
    assert diag.tracker_snapshot == (
        "└┬ b (alloc): Active\n"
        " └┬ b: Reserved → Active\n"
        "  └─ m: Reserved → Disabled"
    )

    clean = _run("box_raw_loan_clean.sc")
    assert clean.classification is Classification.PASS
    assert not clean.leaks

    leaky = _run("into_raw_leak.sc")
    assert len(leaky.leaks) == 1
    assert leaky.leaks[0].kind is DiagnosticKind.MEMORY_LEAK


def test_criterion_07_access_order_decides_the_error_kind():
    first = _primary(_run("parent_write_first.sc"))
    assert first.kind is DiagnosticKind.EXPIRED_PERMISSION

    second = _primary(_run("child_write_then_parent.sc"))
    assert second.kind is DiagnosticKind.INSUFFICIENT_PERMISSION
    assert "is Frozen" in second.message


def test_criterion_08_binding_mismatches_and_partial_initialization():
    for name in (
        "binding_missing_return.sc",
        "binding_bool_vs_i32.sc",
        "binding_i32_vs_usize.sc",
    ):
        assert _primary(_run(name)).kind is DiagnosticKind.INVALID_BINDING, name
    for name in ("partial_array_assume_init.sc", "partial_init_copyback.sc"):
        assert _primary(_run(name)).kind is DiagnosticKind.UNINITIALIZED_READ, name
    flipped = _run("partial_array_assume_init.sc", zero_init_foreign=True)
    assert flipped.classification is Classification.PASS


def test_criterion_09_leaks_and_wrong_allocator_free():
    for name in ("into_raw_leak.sc", "leak_foreign_buffer.sc"):
        outcome = _run(name)
        assert len(outcome.leaks) == 1, name
        assert outcome.leaks[0].kind is DiagnosticKind.MEMORY_LEAK
        assert "never freed" in outcome.leaks[0].message

    freed_wrong = _primary(_run("foreign_buffer_host_free.sc"))
    assert freed_wrong.kind is DiagnosticKind.CROSS_LANGUAGE_DEALLOC
    assert "allocated by the foreign-heap allocator but freed by host code" in freed_wrong.message


def test_criterion_10_randomized_suites_cover_thousand_cases_each():
    import test_properties

    suites = [
        fn
        for name, fn in vars(test_properties).items()
        if name.startswith("test_") and hasattr(fn, "hypothesis")
    ]
    assert len(suites) >= 6
    for fn in suites:
        assert fn._hypothesis_internal_use_settings.max_examples >= 1000, fn.__name__


def test_criterion_11_corpus_wide_model_agreement_and_speed():
    tagged = 0
    for path in corpus_files():
        program = parse_file(path)
        outcomes = {}
        for model in ("tb", "sb"):
            start = time.perf_counter()
            outcomes[model] = run_program(program, MachineConfig(model=model))
            assert time.perf_counter() - start < 1.0, path
        if "offset-beyond-borrow" in program.tags:
            tagged += 1
            assert outcomes["sb"].classification is Classification.BUG, path
            assert outcomes["tb"].classification is Classification.PASS, path
        tb_only = outcomes["tb"].is_violation and not outcomes["sb"].is_violation
        if tb_only:
            assert outcomes["tb"].bug_kind is not DiagnosticKind.ACCESS_OUT_OF_BOUNDS, path
    assert tagged >= 1
