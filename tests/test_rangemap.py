"""The range map's cell step: one merge of byte ranges, and the interior-mutability test both retags use."""

import pytest

from conftest import make_tracker
from seamcheck.rangemap import RangeMap, merge_ranges
from seamcheck.stacked_borrows import Grant, StackedBorrowTracker
from seamcheck.tree_borrows import Permission, TreeBorrowTracker
from tracker_state import peek_at, stack_at


def test_merge_sorts_coalesces_and_drops_empty_ranges():
    assert merge_ranges([(6, 8), (0, 2), (1, 3), (5, 5), (3, 4), (9, 7)]) == ((0, 4), (6, 8))
    assert merge_ranges(()) == ()


def test_no_cell_ranges_split_nothing_and_share_one_test():
    a, b = RangeMap(8, []), RangeMap(4, [])
    assert a.split_cells(()) is b.split_cells(())
    assert a.starts == [0] and not a.split_cells(())(3)


def test_the_cell_test_holds_after_later_splits():
    m = RangeMap(12, [])
    in_cell = m.split_cells(((9, 11), (0, 4), (3, 6), (5, 5), (10, 12)))
    assert m.starts == [0, 6, 9]
    m.span(2, 8)
    assert [off for off in range(12) if in_cell(off)] == [0, 1, 2, 3, 4, 5, 9, 10, 11]
    assert [off for off in m.starts if in_cell(off)] == [0, 2, 9]


class _CountingRanges(tuple):
    """Cell ranges that count the ranges their iteration yields."""

    def __iter__(self):
        self.yielded = getattr(self, "yielded", 0)
        for r in super().__iter__():
            self.yielded += 1
            yield r


def _interior_bytes(tracker, tag, size):
    if isinstance(tracker, TreeBorrowTracker):
        return [off for off in range(size) if peek_at(tracker, tag, off)[0] is Permission.RESERVED_IM]
    return [off for off in range(size) if stack_at(tracker, off)[-1].grant is Grant.SHARED_RW]


@pytest.mark.parametrize("cls", [TreeBorrowTracker, StackedBorrowTracker])
def test_a_shared_retag_reads_its_cell_ranges_a_bounded_number_of_times(cls):
    # 2k bytes whose every even byte is a cell: 2k segments, k ranges. Testing each segment
    # against every range would read on the order of k * k ranges.
    k = 500
    cells = _CountingRanges((2 * i, 2 * i + 1) for i in range(k))
    tracker = make_tracker(cls, 2 * k)
    tag = tracker.retag(tracker.root_tag, (0, 2 * k), "shared-ref", cells, False, "r", 1)
    assert cells.yielded <= 2 * k
    assert _interior_bytes(tracker, tag, 2 * k) == list(range(0, 2 * k, 2))


@pytest.mark.parametrize("cls", [TreeBorrowTracker, StackedBorrowTracker])
def test_byte_by_byte_writes_leave_one_segment_for_later_reborrows(cls):
    # Each one-byte write through `r: &mut [u8; 512]` splits the map at its edges. Merging equal
    # neighbours back leaves one segment, so each of the 400 `&mut *r` reborrows that follow
    # visits one segment, not 512.
    tracker = make_tracker(cls, 512)
    r = tracker.retag(tracker.root_tag, (0, 512), "mutable-ref", (), False, "r", 1)
    for i in range(512):
        tracker.access(r, (i, i + 1), "write", 2)
    for _ in range(400):
        tracker.retag(r, (0, 512), "mutable-ref", (), False, "s", 3)
    segments = tracker._perms if cls is TreeBorrowTracker else tracker._stacks
    assert len(segments.values) == 1
