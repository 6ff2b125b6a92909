"""Permission-tree tracker: transitions, protectors, laziness, rendering."""

import pytest

from conftest import make_tracker
from seamcheck.diagnostics import DiagnosticKind, TagEvent
from seamcheck.memory import WILDCARD, UbError
from seamcheck.tree_borrows import Permission, TreeBorrowTracker
from tracker_state import peek_at, serialize_tree

R = Permission.RESERVED
RIM = Permission.RESERVED_IM
A = Permission.ACTIVE
F = Permission.FROZEN
D = Permission.DISABLED


def _tracker(size=4):
    return make_tracker(TreeBorrowTracker, size)


def _ctx(line=1):
    return line


def _perm(tracker, tag, off=0):
    return peek_at(tracker, tag, off)[0]


def test_root_is_active_everywhere():
    t = _tracker()
    assert _perm(t, t.root_tag) is A
    t.access(t.root_tag, (0, 4), "write", _ctx())
    assert _perm(t, t.root_tag) is A


def test_mutable_retag_starts_reserved():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    assert _perm(t, child) is R


def test_shared_retag_starts_frozen():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "shared-ref", (), False, "child", _ctx())
    assert _perm(t, child) is F


def test_raw_and_cell_retags_return_the_parent_tag():
    t = _tracker()
    for kind in ("raw-mut", "raw-const", "cell"):
        assert t.retag(t.root_tag, (0, 4), kind, (), False, "alias", _ctx()) == t.root_tag


def test_cell_ranges_start_reserved_interior_mutable():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "shared-ref", ((1, 3),), False, "child", _ctx())
    assert _perm(t, child, 0) is F
    assert _perm(t, child, 1) is RIM
    assert _perm(t, child, 2) is RIM
    assert _perm(t, child, 3) is F


def test_child_write_activates():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    t.access(child, (0, 4), "write", _ctx())
    assert _perm(t, child) is A


def test_child_write_through_frozen_is_insufficient():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "shared-ref", (), False, "child", _ctx())
    with pytest.raises(UbError) as e:
        t.access(child, (0, 4), "write", _ctx())
    assert e.value.kind is DiagnosticKind.INSUFFICIENT_PERMISSION
    assert "forbids writes" in str(e.value)


def test_child_use_of_disabled_is_expired():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    t.access(t.root_tag, (0, 4), "write", _ctx(line=3))  # foreign for child: R -> D
    with pytest.raises(UbError) as e:
        t.access(child, (0, 4), "read", _ctx(line=4))
    assert e.value.kind is DiagnosticKind.EXPIRED_PERMISSION
    assert "invalidated at line 3" in str(e.value)


def test_foreign_read_freezes_active():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    t.access(child, (0, 4), "write", _ctx())
    t.access(t.root_tag, (0, 4), "read", _ctx())
    assert _perm(t, child) is F


def test_foreign_read_keeps_reserved():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    t.access(t.root_tag, (0, 4), "read", _ctx())
    assert _perm(t, child) is R


def test_foreign_write_disables_reserved_but_keeps_interior_mutable():
    t = _tracker()
    plain = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "plain", _ctx())
    cellish = t.retag(t.root_tag, (0, 4), "shared-ref", ((0, 4),), False, "cellish", _ctx())
    t.access(t.root_tag, (0, 4), "write", _ctx())
    assert _perm(t, plain) is D
    assert _perm(t, cellish) is RIM


def test_sibling_write_then_use_is_the_reborrow_conflict():
    t = _tracker()
    first = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "first", _ctx())
    second = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "second", _ctx())
    t.access(first, (0, 4), "write", _ctx())
    assert _perm(t, first) is A
    assert _perm(t, second) is D
    with pytest.raises(UbError) as e:
        t.access(second, (0, 4), "write", _ctx())
    assert e.value.kind is DiagnosticKind.EXPIRED_PERMISSION


def test_ancestors_count_as_child_side():
    t = _tracker()
    mid = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "mid", _ctx())
    leaf = t.retag(mid, (0, 4), "mutable-ref", (), False, "leaf", _ctx())
    t.access(leaf, (0, 4), "write", _ctx())
    # The write is a child write for leaf, mid, and root alike.
    assert _perm(t, leaf) is A
    assert _perm(t, mid) is A
    assert _perm(t, t.root_tag) is A


def test_lazy_locations_materialize_on_first_touch():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    assert [peek_at(t, child, off) for off in range(4)] == [(R, False)] * 4
    t.access(child, (2, 3), "read", _ctx())
    assert [peek_at(t, child, off) for off in range(4)] == [(R, False), (R, False), (R, True), (R, False)]


def test_transitions_apply_to_lazy_locations():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    t.access(t.root_tag, (0, 4), "write", _ctx())  # child never touched its bytes
    assert _perm(t, child) is D


def test_protected_retag_reads_immediately():
    t = _tracker()
    t.access(t.root_tag, (0, 4), "write", _ctx())
    guard = t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    assert peek_at(t, guard, 0)[1]


def test_disabling_protected_initialized_tag_is_an_error():
    t = _tracker()
    guard = t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    with pytest.raises(UbError) as e:
        t.access(t.root_tag, (0, 4), "write", _ctx())
    assert e.value.kind is DiagnosticKind.PROTECTED_PERMISSION
    assert "protected" in str(e.value)


def test_protector_end_releases_the_guard():
    t = _tracker()
    guard = t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    t.protector_end(guard)
    t.access(t.root_tag, (0, 4), "write", _ctx())
    assert _perm(t, guard) is D


def test_dealloc_check_errors_on_live_protector():
    t = _tracker()
    t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    with pytest.raises(UbError) as e:
        t.dealloc_check()
    assert e.value.kind is DiagnosticKind.PROTECTED_PERMISSION
    assert "deallocation" in str(e.value)


def test_dealloc_check_ignores_released_and_unused_protectors():
    t = _tracker()
    guard = t.retag(t.root_tag, (0, 4), "mutable-ref", (), True, "guard", _ctx())
    t.protector_end(guard)
    t.dealloc_check()  # no error


def test_wildcard_access_changes_nothing():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    t.access(child, (0, 4), "write", _ctx())
    before = serialize_tree(t)
    t.access(WILDCARD, (0, 4), "write", _ctx())
    t.access(WILDCARD, (0, 4), "read", _ctx())
    assert serialize_tree(t) == before


def test_access_outside_retag_range_uses_initial_permission():
    t = _tracker(size=8)
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    # Locations 4..8 were never part of the retag but share the tree.
    t.access(child, (4, 8), "write", _ctx())
    assert _perm(t, child, 6) is A


def test_render_shows_initial_and_current():
    t = _tracker()
    y = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "y", _ctx())
    z = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "z", _ctx())
    t.access(y, (0, 4), "write", _ctx())
    assert t.render(0) == (
        "└┬ root: Active\n"
        " ├─ y: Reserved → Active\n"
        " └─ z: Reserved → Disabled"
    )


def test_render_coalesces_equal_byte_runs():
    t = _tracker(size=4)
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    t.access(child, (0, 2), "write", _ctx())
    text = t.render()
    assert "[0..2) Reserved → Active" in text
    assert "[2..4) Reserved" in text


def test_render_nests_grandchildren():
    t = _tracker()
    mid = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "mid", _ctx())
    t.retag(mid, (0, 4), "mutable-ref", (), False, "leaf", _ctx())
    assert t.render(0) == (
        "└┬ root: Active\n"
        " └┬ mid: Reserved\n"
        "  └─ leaf: Reserved"
    )


def test_history_records_creation_use_and_invalidation():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx(line=2))
    t.access(child, (0, 4), "write", _ctx(line=3))
    t.access(t.root_tag, (0, 4), "write", _ctx(line=4))
    record = {h.tag: h for h in t.history()}[child]
    assert record.label == "child"
    assert record.created.line == 2
    assert record.last_valid_use.line == 3
    assert record.invalidated.line == 4


def test_history_copies_stay_as_they_were_taken():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx(line=2))
    before = {h.tag: h for h in t.history()}
    t.access(child, (0, 4), "write", _ctx(line=3))
    t.access(t.root_tag, (0, 4), "write", _ctx(line=4))
    assert before[child].last_valid_use is None and before[child].invalidated is None
    assert before[t.root_tag].last_valid_use is None
    after = {h.tag: h for h in t.history()}
    assert after[child].last_valid_use.line == 3 and after[child].invalidated.line == 4
    assert after[t.root_tag].last_valid_use.line == 4


def test_errors_carry_history_and_snapshot():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx())
    t.access(t.root_tag, (0, 4), "write", _ctx())
    with pytest.raises(UbError) as e:
        t.access(child, (0, 4), "read", _ctx())
    assert e.value.details["permission_history"]
    assert "child: Reserved → Disabled" in e.value.details["tracker_snapshot"]


def test_retag_from_unknown_tag_is_internal_error():
    t = _tracker()
    with pytest.raises(ValueError):
        t.retag(999, (0, 4), "mutable-ref", (), False, "x", _ctx())


# ---- the text of every event form a tb history holds ----------------------------


def _record(t, tag):
    return {h.tag: h for h in t.history()}[tag]


def test_history_text_of_the_root_creation():
    t = _tracker()
    assert _record(t, t.root_tag).created == TagEvent(0, "allocation of alloc#1")


def test_history_text_of_a_retag():
    t = _tracker()
    child = t.retag(t.root_tag, (1, 3), "shared-ref", (), False, "child", _ctx(line=2))
    assert _record(t, child).created == TagEvent(2, "shared-ref retag of [1..3) from tag#1")


def test_history_text_of_a_last_use():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx(line=2))
    t.access(child, (1, 3), "write", _ctx(line=3))
    t.access(t.root_tag, (0, 2), "read", _ctx(line=4))
    assert _record(t, child).last_valid_use == TagEvent(3, "write of [1..3)")
    assert _record(t, t.root_tag).last_valid_use == TagEvent(4, "read of [0..2)")


def test_history_text_of_a_transition():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx(line=2))
    t.access(child, (0, 4), "write", _ctx(line=3))
    t.access(t.root_tag, (0, 4), "read", _ctx(line=4))
    t.access(t.root_tag, (0, 4), "write", _ctx(line=5))  # Frozen -> Disabled: the first stands
    assert _record(t, child).invalidated == TagEvent(4, "read via tag#1 ('root'): Active -> Frozen")


def test_error_message_carries_the_invalidation_note():
    t = _tracker()
    child = t.retag(t.root_tag, (0, 4), "mutable-ref", (), False, "child", _ctx(line=2))
    t.access(t.root_tag, (0, 4), "write", _ctx(line=3))
    with pytest.raises(UbError) as e:
        t.access(child, (0, 4), "read", _ctx(line=4))
    assert str(e.value) == (
        "read through tag#2 ('child') at alloc#1+0: permission of tag#2 ('child') is Disabled"
        " (invalidated at line 3: write via tag#1 ('root'): Reserved -> Disabled)"
    )
