"""Borrow stacks: retag kinds, pop discipline, wildcard resolution."""

import pytest

from conftest import make_tracker
from seamcheck.diagnostics import DiagnosticKind, TagEvent
from seamcheck.memory import WILDCARD, UbError
from seamcheck.stacked_borrows import Grant, StackedBorrowTracker
from tracker_state import serialize_stacks, stack_at


def _tracker(size=4):
    return make_tracker(StackedBorrowTracker, size)


def _ctx(line=1):
    return line


def _stack(t, off=0):
    return [(item.tag, item.grant) for item in stack_at(t, off)]


def test_root_item_is_unique():
    t = _tracker()
    assert _stack(t) == [(t.root_tag, Grant.UNIQUE)]


def test_mutable_retag_pushes_unique_on_top():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    assert _stack(t) == [(t.root_tag, Grant.UNIQUE), (child, Grant.UNIQUE)]


def test_mutable_retag_pops_items_above_the_parent():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx())
    b = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "b", _ctx())
    assert all(tag != a for tag, _ in _stack(t))
    assert _stack(t)[-1] == (b, Grant.UNIQUE)


def test_mutable_retag_through_read_only_parent_is_insufficient():
    t = _tracker()
    shared = t.retag(t.root_tag, (0, 4), "shared-ref", (), False, "shared", _ctx())
    with pytest.raises(UbError) as e:
        t.retag(shared, (0, 4), "mutable-ref", (), False, "bad", _ctx())
    assert e.value.kind is DiagnosticKind.INSUFFICIENT_PERMISSION


def test_shared_retag_pushes_read_only_and_removes_writers_above():
    t = _tracker()
    writer = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "writer", _ctx())
    reader = t.retag(t.root_tag, (0, 4), "shared-ref", (), False, "reader", _ctx())
    tags = [tag for tag, _ in _stack(t)]
    assert writer not in tags
    assert _stack(t)[-1] == (reader, Grant.SHARED_RO)


def test_shared_retag_grants_writes_on_cell_bytes():
    t = _tracker()
    reader = t.retag(t.root_tag, (0, 4), "shared-ref", ((1, 3),), False, "reader", _ctx())
    assert stack_at(t, 0)[-1].grant is Grant.SHARED_RO
    assert stack_at(t, 1)[-1].grant is Grant.SHARED_RW
    assert stack_at(t, 2)[-1].grant is Grant.SHARED_RW
    assert stack_at(t, 3)[-1].grant is Grant.SHARED_RO


def test_raw_mut_retag_inserts_above_granting_item():
    t = _tracker()
    ref = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "ref", _ctx())
    raw = t.retag(t.root_tag, (0, 4), "raw-mut", (), False, "raw", _ctx())
    # The raw alias slots in directly above root, below the reference.
    assert _stack(t) == [
        (t.root_tag, Grant.UNIQUE),
        (raw, Grant.SHARED_RW),
        (ref, Grant.UNIQUE),
    ]


def test_raw_const_retag_pushes_on_top():
    t = _tracker()
    ref = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "ref", _ctx())
    raw = t.retag(ref, (0, 4), "raw-const", (), False, "raw", _ctx())
    assert _stack(t)[-1] == (raw, Grant.SHARED_RO)


def test_write_pops_everything_above_the_granting_item():
    t = _tracker()
    ref = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "ref", _ctx())
    top = t.retag(ref, (0, 4), "mutable-ref", (), False, "top", _ctx())
    t.access(ref, (0, 4), "write", _ctx())
    assert _stack(t) == [(t.root_tag, Grant.UNIQUE), (ref, Grant.UNIQUE)]


def test_read_disables_only_writers_above():
    t = _tracker()
    ref = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "ref", _ctx())
    shared = t.retag(ref, (0, 4), "shared-ref", (), False, "shared", _ctx())
    t.access(ref, (0, 4), "read", _ctx())
    # The read-only item above survives a read through its parent.
    assert _stack(t) == [
        (t.root_tag, Grant.UNIQUE),
        (ref, Grant.UNIQUE),
        (shared, Grant.SHARED_RO),
    ]


def test_use_of_popped_tag_is_out_of_bounds_with_invalidation_note():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx(line=2))
    t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "b", _ctx(line=3))
    with pytest.raises(UbError) as e:
        t.access(a, (0, 4), "write", _ctx(line=4))
    assert e.value.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS
    assert "no item for tag" in str(e.value)
    assert "invalidated at line 3" in str(e.value)


def test_write_through_read_only_item_is_insufficient():
    t = _tracker()
    shared = t.retag(t.root_tag, (0, 4), "shared-ref", (), False, "shared", _ctx())
    with pytest.raises(UbError) as e:
        t.access(shared, (0, 4), "write", _ctx())
    assert e.value.kind is DiagnosticKind.INSUFFICIENT_PERMISSION
    assert "grants only reads" in str(e.value)


def test_shared_rw_on_cell_bytes_allows_writes():
    t = _tracker()
    reader = t.retag(t.root_tag, (0, 4), "shared-ref", ((0, 4),), False, "reader", _ctx())
    t.access(reader, (0, 4), "write", _ctx())  # no error on cell bytes


def test_wildcard_access_resolves_to_topmost_granting_item():
    t = _tracker()
    ref = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "ref", _ctx())
    shared = t.retag(ref, (0, 4), "shared-ref", (), False, "shared", _ctx())
    # A wildcard write acts through the topmost writer (ref), popping shared.
    t.access(WILDCARD, (0, 4), "write", _ctx())
    assert _stack(t) == [(t.root_tag, Grant.UNIQUE), (ref, Grant.UNIQUE)]


def test_wildcard_read_needs_any_item():
    t = _tracker()
    t.access(WILDCARD, (0, 4), "read", _ctx())  # root grants it
    assert _stack(t) == [(t.root_tag, Grant.UNIQUE)]


def test_protected_item_cannot_be_popped():
    t = _tracker()
    guard = t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    with pytest.raises(UbError) as e:
        t.access(t.root_tag, (0, 4), "write", _ctx())
    assert e.value.kind is DiagnosticKind.PROTECTED_PERMISSION
    assert "protected" in str(e.value)


def test_protected_item_survives_reads_but_blocks_writer_removal():
    t = _tracker()
    guard = t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    with pytest.raises(UbError):
        t.access(t.root_tag, (0, 4), "read", _ctx())  # would remove the writer


def test_protector_end_allows_later_pops():
    t = _tracker()
    guard = t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    t.protector_end(guard)
    t.access(t.root_tag, (0, 4), "write", _ctx())
    assert _stack(t) == [(t.root_tag, Grant.UNIQUE)]


def test_dealloc_check_errors_on_protected_items():
    t = _tracker()
    t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    with pytest.raises(UbError) as e:
        t.dealloc_check()
    assert e.value.kind is DiagnosticKind.PROTECTED_PERMISSION


def test_dealloc_check_passes_after_protector_end():
    t = _tracker()
    guard = t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    t.protector_end(guard)
    t.dealloc_check()


def test_retag_of_partial_range_only_touches_those_bytes():
    t = _tracker(size=4)
    child = t.retag(t.root_tag, (0, 2), "mutable-ref", (), False, "child", _ctx())
    assert len(stack_at(t, 0)) == 2
    assert len(stack_at(t, 2)) == 1


def test_retag_with_popped_parent_is_out_of_bounds():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx())
    t.access(t.root_tag, (0, 4), "write", _ctx())
    with pytest.raises(UbError) as e:
        t.retag(a, (0, 4), "mutable-ref", (), False, "child", _ctx())
    assert e.value.kind is DiagnosticKind.ACCESS_OUT_OF_BOUNDS


def test_render_single_byte_lists_bottom_to_top():
    t = _tracker()
    x = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "x", _ctx())
    s = t.retag(x, (0, 4), "shared-ref", (), False, "s", _ctx())
    assert t.render(0) == "[root: Unique, x: Unique, s: SharedReadOnly]"


def test_render_coalesces_equal_stacks():
    t = _tracker(size=4)
    t.retag(t.root_tag, (0, 2), "mutable-ref", (), False, "low", _ctx())
    text = t.render()
    assert text.splitlines() == [
        "[0..2) [root: Unique, low: Unique]",
        "[2..4) [root: Unique]",
    ]


def test_render_marks_protected_items():
    t = _tracker()
    t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    assert "(protected)" in t.render(0)


def test_history_records_pop_causes():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx(line=2))
    t.access(t.root_tag, (0, 4), "write", _ctx(line=5))
    record = {h.tag: h for h in t.history()}[a]
    assert record.invalidated.line == 5
    assert "write via" in record.invalidated.description


def test_history_copies_stay_as_they_were_taken():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx(line=2))
    before = {h.tag: h for h in t.history()}
    t.access(a, (0, 4), "write", _ctx(line=3))
    t.access(t.root_tag, (0, 4), "write", _ctx(line=5))
    assert before[a].last_valid_use is None and before[a].invalidated is None
    assert before[t.root_tag].last_valid_use is None
    after = {h.tag: h for h in t.history()}
    assert after[a].last_valid_use.line == 3 and after[a].invalidated.line == 5
    assert after[t.root_tag].last_valid_use.line == 5


def test_errors_carry_history_and_snapshot():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx())
    t.access(t.root_tag, (0, 4), "write", _ctx())
    with pytest.raises(UbError) as e:
        t.access(a, (0, 4), "read", _ctx())
    assert e.value.details["permission_history"]
    assert "[root: Unique]" in e.value.details["tracker_snapshot"]


def test_serialize_is_stable_under_wildcard_reads():
    t = _tracker()
    t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx())
    before = serialize_stacks(t)
    t.access(WILDCARD, (0, 4), "read", _ctx())
    assert serialize_stacks(t) == before


# ---- the text of every event form an sb history holds ----------------------------


def _record(t, tag):
    return {h.tag: h for h in t.history()}[tag]


def test_history_text_of_the_root_creation():
    t = _tracker()
    assert _record(t, t.root_tag).created == TagEvent(0, "allocation of alloc#1")


def test_history_text_of_a_retag():
    t = _tracker()
    a = t.retag(t.root_tag, (1, 3), "mutable-ref", (), False, "a", _ctx(line=2))
    assert _record(t, a).created == TagEvent(2, "mutable-ref retag of [1..3) from tag#1")


def test_history_text_of_a_last_use():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx(line=2))
    t.access(a, (1, 3), "write", _ctx(line=3))
    t.access(t.root_tag, (0, 2), "read", _ctx(line=4))
    assert _record(t, a).last_valid_use == TagEvent(3, "write of [1..3)")
    assert _record(t, t.root_tag).last_valid_use == TagEvent(4, "read of [0..2)")


def test_history_text_of_a_pop_by_a_tag():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx(line=2))
    t.access(t.root_tag, (0, 4), "write", _ctx(line=3))
    assert _record(t, a).invalidated == TagEvent(3, "write via tag#1 ('root')")


def test_history_text_of_a_pop_by_an_exposed_address():
    t = _tracker()
    s = t.retag(t.root_tag, (0, 4), "shared-ref", (), False, "s", _ctx(line=2))
    t.access(WILDCARD, (0, 4), "write", _ctx(line=3))
    assert _record(t, s).invalidated == TagEvent(3, "write via exposed address")
    assert _record(t, t.root_tag).last_valid_use == TagEvent(3, "write of [0..4)")


def test_wildcard_access_records_each_tag_over_the_span_it_granted():
    t = _tracker(size=8)
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx(line=2))
    t.access(WILDCARD, (0, 8), "write", _ctx(line=3))
    assert _record(t, a).last_valid_use == TagEvent(3, "write of [0..4)")
    assert _record(t, t.root_tag).last_valid_use == TagEvent(3, "write of [4..8)")


def test_history_text_of_a_pop_by_a_retag():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx(line=2))
    t.retag(t.root_tag, (0, 4), "shared-ref", (), False, "b", _ctx(line=3))
    assert _record(t, a).invalidated == TagEvent(3, "shared-ref retag for tag#3 ('b')")


def test_error_message_carries_the_invalidation_note():
    t = _tracker()
    a = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "a", _ctx(line=2))
    t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "b", _ctx(line=3))
    with pytest.raises(UbError) as e:
        t.access(a, (0, 4), "write", _ctx(line=4))
    assert str(e.value) == (
        "write at alloc#1+0: no item for tag#2 ('a') in the borrow stack"
        " (invalidated at line 3: mutable-ref retag for tag#3 ('b'))"
    )


@pytest.mark.parametrize(
    "guard_kind, act, message",
    [
        (
            "mutable-ref",
            lambda t: t.access(t.root_tag, (0, 4), "write", _ctx(line=3)),
            "write via tag#1 ('root') at alloc#1+0 would pop protected tag#2 ('guard')",
        ),
        (
            "shared-ref",
            lambda t: t.access(WILDCARD, (0, 4), "write", _ctx(line=3)),
            "write via exposed address at alloc#1+0 would pop protected tag#2 ('guard')",
        ),
        (
            "mutable-ref",
            lambda t: t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "b", _ctx(line=3)),
            "mutable-ref retag for tag#3 ('b') at alloc#1+0 would pop protected tag#2 ('guard')",
        ),
    ],
    ids=["tag", "exposed", "retag"],
)
def test_would_pop_protected_message_names_the_cause(guard_kind, act, message):
    t = _tracker()
    t.retag(t.root_tag, (0, 4), guard_kind, (), True, "guard", _ctx(line=2))
    with pytest.raises(UbError) as e:
        act(t)
    assert e.value.kind is DiagnosticKind.PROTECTED_PERMISSION
    assert str(e.value) == message


def test_a_protected_zero_size_retag_records_no_use():
    # tb records the protector's read over the empty range as a use (`tests/test_tree_borrows.py`);
    # which rule is right is open with ROADMAP item 8.
    t = _tracker()
    r = t.retag(t.root_tag, (0, 0), "shared-ref", (), True, "r", _ctx(line=5))
    assert r in t.protected and r not in t.last_use
