"""Read-only views of a borrow tracker's per-location state, for tests only.

The trackers expose their state through `render` and `history`; these views
read the range maps directly, so tests can assert one byte's permission or
stack and compare whole states.
"""

from seamcheck.stacked_borrows import Grant, StackedBorrowTracker
from seamcheck.tree_borrows import Permission, TreeBorrowTracker


def peek_at(tracker: TreeBorrowTracker, tag: int, off: int) -> tuple[Permission, bool]:
    """Permission and initialized flag of `tag` at byte `off`."""
    _, perm, initialized = tracker._perms.at(off).states[tracker._index[tag]]
    return perm, initialized


def serialize_tree(tracker: TreeBorrowTracker) -> str:
    """Stable full-state dump of a tree; used to check that wildcard accesses change nothing."""
    parts = []
    for tag in tracker._order:
        i = tracker._index[tag]
        states = ";".join(
            f"[{a}..{b}):{initial.value}:{perm.value}:{int(initialized)}"
            for a, b, (initial, perm, initialized) in tracker._perms.runs(lambda seg: seg.states[i])
        )
        parent = tracker.created[tag][3]
        parts.append(f"{tag}|{tracker.labels[tag]}|{parent}|{int(tag in tracker.protected)}|{states}")
    return "\n".join(parts)


def stack_at(tracker: StackedBorrowTracker, off: int) -> tuple:
    """The borrow stack of byte `off`, bottom to top."""
    return tuple(tracker._stacks.at(off).items)


def serialize_stacks(tracker: StackedBorrowTracker) -> str:
    """Stable full-state dump of the stacks, equal runs coalesced."""
    protected = tracker.protected
    return "\n".join(
        f"[{a}..{b})|"
        + ";".join(f"{i.tag}:{i.grant.value}:{int(i.tag in protected)}" for i in stack)
        for a, b, stack in tracker._stacks.runs(lambda stack: tuple(stack.items))
    )


def allows_write(grant: Grant) -> bool:
    """Whether an item with `grant` permits writes."""
    return grant is not Grant.SHARED_RO
