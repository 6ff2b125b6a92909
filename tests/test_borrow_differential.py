"""Differential suite: range-coalesced trackers against the per-byte oracles.

Random retag, access, protector_end and dealloc_check sequences, with cell
ranges, protectors and wildcard provenance, run on a `seamcheck` tracker and
on its per-byte reference in lockstep. After every operation both must have
raised the same error (kind, message, snapshot, history) or none, and agree
on `history()`, `render()`, `render(off)` and every byte's state. An error
describes only the tags it involves: its history must be the full
`history()` cut down to a set of tags that holds every tag its message
names and is closed under creation parents. A sequence
goes on after an error, so the state an error leaves behind is compared too.
The indexes a tracker keeps beside its states (tb: nodes by permission; sb:
the topmost write-granting item and each tag's position) are recomputed from
those states after every operation and must match.
"""

import re

from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from conftest import make_tracker
from perbyte_stacked_borrows import StackedBorrowTracker as ByteStacks
from perbyte_tree_borrows import TreeBorrowTracker as ByteTree
from seamcheck.memory import WILDCARD, UbError
from seamcheck.stacked_borrows import Grant, StackedBorrowTracker
from seamcheck.tree_borrows import TreeBorrowTracker
from tracker_state import peek_at, stack_at

_RETAG_KINDS = ("mutable-ref", "shared-ref", "raw-mut", "raw-const", "cell")
_sel = st.integers(0, 63)

# One operation: what to do (retag, access, protector_end, dealloc_check),
# a tag selector, a range, a retag or access kind, a protect or wildcard
# flag, and up to two cell ranges. A retag counts its parent from the newest
# tag and an access its actor from the root, so small selectors build
# reborrow chains and then act below them, which is where pops and protector
# errors happen.
_op = st.tuples(
    st.integers(0, 7), _sel, _sel, _sel, st.integers(0, 4), st.integers(0, 3),
    st.lists(st.tuples(_sel, _sel), max_size=2),
)
_case = st.tuples(st.integers(1, 12), st.lists(_op, min_size=1, max_size=14))


# A protected borrow with a plain one above it, then a read and a write from
# below: the error strikes after some pops, which must land on one byte only.
_PARTIAL_POPS = [
    (4, [(0, 0, 0, 4, 0, 0, []), (0, 0, 0, 4, 0, 1, []), (3, 0, 0, 4, kind, 1, [])])
    for kind in (0, 1)
]

# Cases that a stale no-op memo or a stale index would get wrong:
# 1. a root access, a retag, then a root write, which the retag made no
#    longer a no-op, then a read through the new tag;
# 2. an access over [0..0) on a fresh tracker, which sb records no use for;
# 3. a protected-pop error partway through a segment's pops, then a read and
#    a write on that segment, which must see the stack the pops left.
_STALE = [
    (4, [(3, 0, 0, 4, 0, 1, []), (0, 0, 0, 4, 0, 1, []), (3, 0, 0, 4, 1, 1, []), (3, 1, 0, 4, 0, 1, [])]),
    (4, [(3, 0, 0, 0, 0, 1, []), (3, 0, 0, 4, 1, 1, [])]),
    (4, [
        (0, 0, 0, 4, 0, 0, []), (0, 0, 0, 4, 0, 1, []), (3, 0, 0, 4, 1, 1, []),
        (3, 1, 0, 4, 0, 1, []), (3, 2, 0, 4, 1, 1, []),
    ]),
]


# A protected borrow, a raw pointer that sb inserts below it, then a write
# through the pointer: the error's sb snapshot lists the two items in stack
# order, which is not their creation order.
_FOCUS = (4, [(0, 0, 0, 4, 0, 0, []), (0, 1, 0, 4, 2, 1, []), (3, 2, 0, 4, 1, 1, [])])


# Six cell ranges in one retag: unsorted, overlapping, one empty, some partly or wholly outside
# the retag's [2..8), which the strategy's two ranges a retag seldom reach together. A write
# through the shared borrow fails at byte 6, its one byte outside every cell.
_CELLS = [(9, 2), (0, 4), (3, 3), (5, 0), (7, 3), (10, 2)]  # [9..11) [0..4) [3..6) [5..5) [7..10) [10..12)
_MANY_CELLS = (12, [
    (0, 0, 2, 6, 1, 1, _CELLS), (3, 1, 2, 6, 1, 1, []), (3, 1, 7, 1, 1, 1, []), (1, 0, 2, 6, 3, 1, _CELLS),
    (2, 2, 0, 12, 1, 0, _CELLS), (3, 0, 0, 12, 1, 1, []), (3, 0, 0, 12, 0, 0, []),
])


# A protected borrow t1, a sibling t2, then a write through t2, which is a foreign write for t1:
# 1. t1 Reserved and initialized: the write would disable it, the error;
# 2. t1 Reserved only over [0..2), so uninitialized where the write over [2..4) disables it: no error;
# 3. t1 a shared borrow of a cell, ReservedIM, which a foreign write keeps: no error;
# 4. t1 a shared borrow, Frozen and initialized: the error.
_PROTECTED = [
    (4, [(0, 0, 0, 4, 0, 0, []), (0, 1, 0, 4, 0, 1, []), (3, 2, 0, 4, 1, 1, [])]),
    (4, [(0, 0, 0, 2, 0, 0, []), (0, 1, 0, 4, 0, 1, []), (3, 2, 2, 2, 1, 1, [])]),
    (4, [(0, 0, 0, 4, 1, 0, [(0, 4)]), (0, 1, 0, 4, 0, 1, []), (3, 2, 0, 4, 1, 1, [])]),
    (4, [(0, 0, 0, 4, 1, 0, []), (0, 1, 0, 4, 0, 1, []), (3, 2, 0, 4, 1, 1, [])]),
]


def _range(size, a, b):
    lo = a % (size + 1)
    return lo, lo + b % (size - lo + 1)


def _apply(tracker, op, size, tags, line):
    what, who, a, b, kind, flag, cells = op
    if what < 3:
        return tracker.retag(
            tags[-1 - who % len(tags)], _range(size, a, b), _RETAG_KINDS[kind],
            tuple(_range(size, x, y) for x, y in cells), flag == 0, f"t{len(tags)}", line,
        )
    if what < 6:
        prov = WILDCARD if flag == 0 else tags[who % len(tags)]
        return tracker.access(prov, _range(size, a, b), "write" if kind % 2 else "read", line)
    if what == 6:
        return tracker.protector_end(tags[who % len(tags)])
    return tracker.dealloc_check()


def _outcome(tracker, op, size, tags, line):
    try:
        return ("ok", _apply(tracker, op, size, tags, line))
    except UbError as e:
        details = e.details
        return ("error", e.kind, e.message, details["tracker_snapshot"], details["permission_history"])


def _lockstep(new, old, size, ops, view):
    tags = [new.root_tag]
    for line, op in enumerate(ops, 1):
        got = _outcome(new, op, size, tags, line)
        assert got == _outcome(old, op, size, tags, line)
        if got[0] == "error":
            _check_focus(new, got[2], got[4])
        if got[0] == "ok" and isinstance(got[1], int) and got[1] not in tags:
            tags.append(got[1])
        assert new.history() == old.history()
        assert new.render() == old.render()
        for off in range(size):
            assert new.render(off) == old.render(off)
            assert view(new, tags, off) == view(old, tags, off)
        _check_indexes(new)


def _check_focus(tracker, message, history):
    """An error's history is the full one filtered to its tags, which hold the message's and their parents."""
    involved = {record.tag for record in history}
    assert history == tuple(record for record in tracker.history() if record.tag in involved)
    assert {int(n) for n in re.findall(r"tag#(\d+)", message)} <= involved
    assert all(tracker.created[tag][3] in involved for tag in involved if tag != tracker.root_tag)


def _check_indexes(tracker):
    """Every segment's indexes, against the same indexes rebuilt from its states."""
    if isinstance(tracker, TreeBorrowTracker):
        for segment in tracker._perms.values:
            index = {}
            for n, (_, perm, _) in enumerate(segment.states):
                index.setdefault(perm, set()).add(n)
            assert {perm: nodes for perm, nodes in segment.index.items() if nodes} == index
        return
    for stack in tracker._stacks.values:
        items = stack.items
        assert stack.pos == {item.tag: i for i, item in enumerate(items)}
        writers = [i for i, item in enumerate(items) if item.grant is not Grant.SHARED_RO]
        assert stack.top == (writers[-1] if writers else -1)


def _counter():
    n = iter(range(1, 10_000))
    return lambda: next(n)


def _tree_view(tracker, tags, off):
    if isinstance(tracker, TreeBorrowTracker):
        return [peek_at(tracker, tag, off) for tag in tags]
    return [tracker.nodes[tag].peek_at(off) for tag in tags]


def _stack_view(tracker, tags, off):
    if isinstance(tracker, StackedBorrowTracker):
        return [(item.tag, item.grant, item.tag in tracker.protected) for item in stack_at(tracker, off)]
    return [(item.tag, item.grant, item.protected) for item in tracker.stacks[off]]


@seed(20240417)
@settings(max_examples=1000, deadline=None)
@given(case=_case)
@example(case=_PARTIAL_POPS[0])
@example(case=_PARTIAL_POPS[1])
@example(case=_STALE[0])
@example(case=_STALE[1])
@example(case=_STALE[2])
@example(case=_FOCUS)
@example(case=_MANY_CELLS)
@example(case=_PROTECTED[0])
@example(case=_PROTECTED[1])
@example(case=_PROTECTED[2])
@example(case=_PROTECTED[3])
def test_tree_tracker_matches_per_byte_oracle(case):
    size, ops = case
    new = make_tracker(TreeBorrowTracker, size)
    old = ByteTree(1, size, _counter(), "root")
    _lockstep(new, old, size, ops, _tree_view)


@seed(20240417)
@settings(max_examples=1000, deadline=None)
@given(case=_case)
@example(case=_PARTIAL_POPS[0])
@example(case=_PARTIAL_POPS[1])
@example(case=_STALE[0])
@example(case=_STALE[1])
@example(case=_STALE[2])
@example(case=_FOCUS)
@example(case=_MANY_CELLS)
def test_stack_tracker_matches_per_byte_oracle(case):
    size, ops = case
    new = make_tracker(StackedBorrowTracker, size)
    old = ByteStacks(1, size, _counter(), "root")
    _lockstep(new, old, size, ops, _stack_view)
