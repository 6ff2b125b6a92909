"""Diagnostics: normalization, dedup partitioning, serialization stability."""

import json

from seamcheck.diagnostics import (
    Classification,
    DedupKey,
    Diagnostic,
    DiagnosticKind,
    Outcome,
    TagEvent,
    TagHistory,
    TraceFrame,
    dedup,
    json_dumps,
    normalize,
    outcome_key,
    render_diagnostic,
)

from report_dicts import diagnostic_from_dict, outcome_from_dict

_HOST = (
    TraceFrame("host", "main", 12, "call put(yp)"),
    TraceFrame("host", "outer", 4, "call main()"),
)
_FOREIGN = (
    TraceFrame("foreign", "c_put", 3, "store i32 p 13"),
)


def _diag(message="write through tag#4 at alloc#1+0 (0xdeadbeef)", **kw):
    defaults = dict(
        kind=DiagnosticKind.EXPIRED_PERMISSION,
        message=message,
        host_trace=_HOST,
        foreign_trace=_FOREIGN,
    )
    defaults.update(kw)
    return Diagnostic(**defaults)


def _bug(diag):
    return Outcome(Classification.BUG, diagnostics=(diag,))


def test_normalize_strips_addresses_allocs_and_tags():
    key = normalize(_diag())
    assert "0x" not in key.normalized_log
    assert "alloc#1" not in key.normalized_log
    assert "tag#4" not in key.normalized_log
    assert "alloc#<id>" in key.normalized_log
    assert "tag#<id>" in key.normalized_log
    assert "<addr>" in key.normalized_log


def test_normalize_keeps_foreign_frames_plus_boundary():
    key = normalize(_diag())
    assert key.trace_fingerprint == ("foreign:c_put:3", "host:main:12")


def test_normalize_host_only_error_keeps_innermost_host_frame():
    key = normalize(_diag(foreign_trace=()))
    assert key.trace_fingerprint == ("host:main:12",)


def test_same_error_at_different_addresses_dedups_together():
    a = _bug(_diag("write at alloc#1+0 (0x1000)"))
    b = _bug(_diag("write at alloc#7+0 (0x2340)"))
    groups = dedup([("first.sc", a), ("second.sc", b)])
    assert len(groups) == 1
    assert sorted(next(iter(groups.values()))) == ["first.sc", "second.sc"]


def test_different_kinds_never_merge():
    a = _bug(_diag())
    b = _bug(_diag(kind=DiagnosticKind.INSUFFICIENT_PERMISSION))
    assert len(dedup([("a", a), ("b", b)])) == 2


def test_different_trace_lines_never_merge():
    a = _bug(_diag())
    moved = _diag(host_trace=(TraceFrame("host", "main", 99, "call put(yp)"),))
    assert len(dedup([("a", a), ("b", _bug(moved))])) == 2


def test_dedup_group_order_follows_first_occurrence():
    a = _bug(_diag("one tag#1"))
    b = _bug(_diag(kind=DiagnosticKind.DOUBLE_FREE, message="two"))
    groups = dedup([("x", a), ("y", b), ("z", a)])
    assert [sorted(v) for v in groups.values()] == [["x", "z"], ["y"]]


def test_dedup_is_idempotent_on_representatives():
    a = _bug(_diag("one at 0x10"))
    b = _bug(_diag(kind=DiagnosticKind.DOUBLE_FREE, message="two"))
    first = dedup([("a", a), ("a2", _bug(_diag("one at 0x99"))), ("b", b)])
    representatives = [("a", a), ("b", b)]
    second = dedup(representatives)
    assert set(second) == set(first)


def test_outcome_key_for_pass_with_leaks_uses_first_leak():
    leak = Diagnostic(DiagnosticKind.MEMORY_LEAK, "alloc#3 (buf): 8 bytes never freed")
    outcome = Outcome(Classification.PASS, leaks=(leak, leak))
    key = outcome_key(outcome)
    assert key.exit_class == "memory-leak"
    assert "alloc#<id>" in key.normalized_log


def test_outcome_key_for_clean_pass_and_timeout():
    clean = outcome_key(Outcome(Classification.PASS))
    assert clean == DedupKey("pass", "", ())
    timed = outcome_key(Outcome(Classification.TIMEOUT, note="step budget of 5 exhausted"))
    assert timed.exit_class == "timeout"
    assert "step budget" in timed.normalized_log


def test_outcome_key_for_unsupported_uses_note():
    key = outcome_key(Outcome(Classification.UNSUPPORTED, note="join of unknown handle 'h'"))
    assert key.exit_class == "unsupported"
    assert "join" in key.normalized_log


def test_bug_kind_property():
    assert _bug(_diag()).bug_kind is DiagnosticKind.EXPIRED_PERMISSION
    assert Outcome(Classification.PASS).bug_kind is None


def test_diagnostic_dict_round_trip():
    diag = _diag(
        permission_history=(
            TagHistory(4, "z", TagEvent(11, "mutable-ref retag"), TagEvent(12, "write"), None),
        ),
        tracker_snapshot="└┬ x: Active",
        allocation_origin="host-stack",
        address=0x10040,
    )
    assert diagnostic_from_dict(json.loads(json_dumps(diag))) == diag


def test_outcome_dict_round_trip():
    outcome = Outcome(
        Classification.BUG,
        diagnostics=(_diag(),),
        leaks=(Diagnostic(DiagnosticKind.MEMORY_LEAK, "leak"),),
        note="",
    )
    assert outcome_from_dict(json.loads(json_dumps(outcome))) == outcome


def test_render_text_includes_traces_history_and_snapshot():
    diag = _diag(
        permission_history=(
            TagHistory(4, "z", TagEvent(11, "retagged"), None, TagEvent(12, "disabled")),
        ),
        tracker_snapshot="└┬ x: Active\n └─ z: Disabled",
    )
    text = render_diagnostic(diag)
    assert text.startswith("error[expired-permission]:")
    assert "host trace:" in text
    assert "at c_put:3  store i32 p 13" in text
    assert "permission history:" in text
    assert "invalidated at line 12" in text
    assert "borrow state:" in text


def test_render_json_form_is_lossless():
    diag = _diag()
    assert diagnostic_from_dict(json.loads(json_dumps(diag))) == diag


def test_json_dumps_is_stable_and_sorted():
    payload = {"b": 1, "a": {"z": 2, "y": 3}}
    text = json_dumps(payload)
    assert text == json_dumps(payload)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed == payload
    assert text.index('"a"') < text.index('"b"')
