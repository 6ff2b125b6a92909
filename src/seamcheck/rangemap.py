"""Piecewise-constant state over the bytes of one allocation.

Both borrow trackers keep their per-location state in a `RangeMap`, after
Miri's `range_map.rs`. The map covers the offsets [0, size) with sorted
segments; every byte of a segment shares one value, which the tracker
changes in place. A value is anything with `.copy()` and `==`: a list of
immutable elements, or a tracker's segment class, whose `.copy()` must
copy whatever the tracker changes in place and whose `==` compares the
states a tracker reports, not its indexes. Splitting a segment copies its
value, which keeps a change to one part from showing through the other. A
tracker splits at the edges of the range it is about to touch, walks the
segments in offset order, and merges equal neighbours afterwards, so an
operation costs the segments it covers, not their bytes.

Offsets must lie in [0, size]; the memory model checks bounds before any
tracker call.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable


def in_ranges(off: int, ranges: tuple[tuple[int, int], ...]) -> bool:
    """Whether byte `off` lies in any of the half-open `ranges`."""
    return any(a <= off < b for a, b in ranges)


class RangeMap:
    """Sorted segment starts and one value per segment."""

    __slots__ = ("size", "starts", "values")

    def __init__(self, size: int, value: Any) -> None:
        self.size = size
        self.starts: list[int] = [0] if size else []
        self.values: list[Any] = [value] if size else []

    def split(self, off: int) -> int:
        """Make `off` a segment boundary; return the index of the segment starting there."""
        starts = self.starts
        if off >= self.size:
            return len(starts)
        i = bisect_right(starts, off) - 1
        if starts[i] != off:
            i += 1
            starts.insert(i, off)
            self.values.insert(i, self.values[i - 1].copy())
        return i

    def span(self, lo: int, hi: int) -> range:
        """Indices of the segments that exactly cover [lo, hi), splitting as needed."""
        first = self.split(lo)
        return range(first, self.split(hi))

    def at(self, off: int) -> Any:
        """The value of the segment holding byte `off`."""
        return self.values[bisect_right(self.starts, off) - 1]

    def merge(self, span: range) -> None:
        """Merge equal neighbours from the segment before `span` to the one after it."""
        starts, values = self.starts, self.values
        for i in range(min(span.stop, len(values) - 1), max(span.start, 1) - 1, -1):
            if values[i] == values[i - 1]:
                del starts[i], values[i]

    def runs(self, key: Callable[[Any], object]) -> list[tuple[int, int, object]]:
        """`(start, end, key)` over the maximal runs of segments with equal `key(value)`."""
        runs: list[tuple[int, int, object]] = []
        for start, value in zip(self.starts, self.values):
            k = key(value)
            if runs and runs[-1][2] == k:
                continue
            if runs:
                runs[-1] = (runs[-1][0], start, runs[-1][2])
            runs.append((start, self.size, k))
        return runs
