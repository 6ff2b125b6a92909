"""Per-layer spans and counters for the seamcheck benchmark.

`Tracer.install()` wraps public functions of each seamcheck module where
their callers look them up: module-level functions in every seamcheck
module that binds them, methods on their class. Each wrapper records a span;
a layer's self time is the time inside its spans minus the time inside the
wrapped spans they call. Counters are computed only from the arguments and
return values of wrapped calls, never from a module's internal state, so a
rewrite of a layer cannot change what a counter means.

Layers are the modules under `src/seamcheck/`; the report layer is the
`*_report` builders in `runner` plus `diagnostics` rendering and
`json_dumps`. Tracker construction (the root tag and any per-byte state made
eagerly) is `create_s`; `dealloc_check` and `protector_end` count as access
time. `render_stmt` calls made while stepping stay in machine self time.
Time outside every span belongs to the benchmark harness itself.

`machine.steps` and `machine.threads` are read from the public `steps` and
`threads` attributes of the `Machine` whose `run()` just returned: the
scheduler steps it took and the threads it ever spawned. A scheduler
rewrite must keep those two attributes meaning that, or re-record the
baseline.

`tb.render_s` and `sb.render_s` time `history()` and `render()`, which a
tracker only calls to describe a violation. On a workload with no violating
case (`buffers`, `crossings`) they are 0 by construction, and so is any
per-layer metric of a layer a workload never enters; compare those only
where they are not 0.

Which end-to-end metric each layer should move, and where it should not:

    parser.*               runs_per_s on corpus; nothing on buffers
    machine.*              *_verdict_ms_p50 and _tail on crossings; nothing on buffers
    memory.*               *_verdict_ms_p50 on buffers; nothing on tags
    tb.*                   tb_verdict_ms_* on tags and buffers; nothing on crossings
    sb.*                   sb_verdict_ms_* on tags (deep retags) and buffers
    translate.*            *_verdict_ms_p50 on crossings and corpus
    types.*                setup_s on buffers
    report.*               report_bytes, *_verdict_ms_tail on tags (wide-bug) and corpus

`tb.tag_bytes` sums, over accesses, tags created in the allocation so far
times bytes accessed: the work of a tracker that visits every tag for every
byte, which tb does today.
"""

from __future__ import annotations

import inspect
import sys
import weakref
from collections import defaultdict
from typing import Callable, Optional

TIME_METRICS = (
    "parser.self_s", "machine.self_s", "memory.check_s", "memory.move_s",
    "tb.create_s", "tb.access_s", "tb.retag_s", "tb.render_s",
    "sb.create_s", "sb.access_s", "sb.retag_s", "sb.render_s",
    "translate.self_s", "types.layout_s", "report.self_s",
)
COUNT_METRICS = (
    "parser.lines", "machine.steps", "machine.threads",
    "memory.accesses", "memory.bytes", "memory.allocations",
    "tb.accesses", "tb.retags", "tb.tag_bytes",
    "sb.accesses", "sb.retags", "sb.tag_bytes",
    "translate.calls", "types.layout_calls", "report.bytes",
)

_MEMORY_MOVES = (
    "allocate", "read_int", "write_int", "read_pointer", "write_pointer",
    "read_blob", "write_blob", "memset", "memcpy", "assume_init",
)
_TRANSLATE = (
    "field_count", "flatten_fields", "plan_call", "plan_return",
    "plan_variadic_arg", "reinterpret", "assignable",
)
_LAYOUTS = ("layout_of", "size_of", "align_of", "struct_field_range")


def _arg(fn: Callable, name: str) -> Callable[[tuple, dict], object]:
    """Fast getter for one parameter of `fn`, however the caller passed it."""
    pos = list(inspect.signature(fn).parameters).index(name)
    return lambda args, kw: args[pos] if len(args) > pos else kw[name]


class Tracer:
    """Self time per layer and counters, summed over every call while installed."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []  # child time of each open span
        self._tags: "weakref.WeakKeyDictionary[object, int]" = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object]] = []

    # ---- wrappers --------------------------------------------------------------

    def _span(self, bucket: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        times, children, clock = self.times, self._children, self.clock

        def wrapper(*args, **kw):
            children.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kw)
                return result
            finally:
                dt = clock() - t0
                times[bucket] += dt - children.pop()
                if children:
                    children[-1] += dt
                if count is not None:
                    count(args, kw, result)

        return wrapper

    @staticmethod
    def _after(fn: Callable, count: Callable) -> Callable:
        """Count from a call's arguments and result without opening a span."""

        def wrapper(*args, **kw):
            result = fn(*args, **kw)
            count(args, kw, result)
            return result

        return wrapper

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, fn: Callable, wrapper: Callable) -> None:
        """Rebind `fn` in every seamcheck module that looks it up by name."""
        for name, module in list(sys.modules.items()):
            if name == "seamcheck" or name.startswith("seamcheck."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)

    # ---- counters from arguments and return values -------------------------------

    def _tracker_hooks(self, cls: type, prefix: str) -> None:
        counts, tags = self.counts, self._tags
        access_rng = _arg(cls.access, "rng")
        retag_parent = _arg(cls.retag, "parent")

        def created(args, kw, result):
            tags[args[0]] = 1  # the root tag

        def accessed(args, kw, result):
            lo, hi = access_rng(args, kw)
            counts[prefix + ".accesses"] += 1
            counts[prefix + ".tag_bytes"] += tags.get(args[0], 1) * (hi - lo)

        def retagged(args, kw, result):
            counts[prefix + ".retags"] += 1
            if result is not None and result != retag_parent(args, kw):
                tags[args[0]] = tags.get(args[0], 1) + 1

        for attr, bucket, count in (
            ("__init__", "create_s", created),
            ("access", "access_s", accessed),
            ("dealloc_check", "access_s", None),
            ("protector_end", "access_s", None),
            ("retag", "retag_s", retagged),
            ("history", "render_s", None),
            ("render", "render_s", None),
        ):
            self._patch(cls, attr, self._span(f"{prefix}.{bucket}", getattr(cls, attr), count))

    def install(self) -> None:
        from seamcheck import diagnostics, machine, memory, parser, runner, translate, types
        from seamcheck.stacked_borrows import StackedBorrowTracker
        from seamcheck.tree_borrows import TreeBorrowTracker

        counts = self.counts

        lines_of = _arg(parser.parse_text, "text")

        def parsed(args, kw, result):
            counts["parser.lines"] += lines_of(args, kw).count("\n") + 1

        self._patch_function(parser.parse_text, self._span("parser.self_s", parser.parse_text, parsed))

        self._patch_function(runner.run_program, self._span("machine.self_s", runner.run_program))

        def ran(args, kw, result):
            counts["machine.steps"] += args[0].steps
            counts["machine.threads"] += len(args[0].threads)

        self._patch(machine.Machine, "run", self._after(machine.Machine.run, ran))

        size_of = _arg(memory.Memory.check_access, "size")

        def checked(args, kw, result):
            counts["memory.accesses"] += 1
            counts["memory.bytes"] += size_of(args, kw)

        def allocated(args, kw, result):
            counts["memory.allocations"] += 1

        M = memory.Memory
        self._patch(M, "check_access", self._span("memory.check_s", M.check_access, checked))
        for attr in ("deallocate", "release_stack"):
            self._patch(M, attr, self._span("memory.check_s", getattr(M, attr)))
        for attr in _MEMORY_MOVES:
            count = allocated if attr == "allocate" else None
            self._patch(M, attr, self._span("memory.move_s", getattr(M, attr), count))

        self._tracker_hooks(TreeBorrowTracker, "tb")
        self._tracker_hooks(StackedBorrowTracker, "sb")

        def counted(name):
            def count(args, kw, result):
                counts[name] += 1
            return count

        for attr in _TRANSLATE:
            fn = getattr(translate, attr)
            self._patch_function(fn, self._span("translate.self_s", fn, counted("translate.calls")))
        for attr in _LAYOUTS:
            fn = getattr(types, attr)
            count = counted("types.layout_calls") if attr == "layout_of" else None
            self._patch_function(fn, self._span("types.layout_s", fn, count))

        def dumped(args, kw, result):
            if result is not None:
                counts["report.bytes"] += len(result.encode("utf-8"))

        for fn in (runner.single_report, runner.differential_report, diagnostics.render_diagnostic):
            self._patch_function(fn, self._span("report.self_s", fn))
        self._patch_function(diagnostics.json_dumps, self._span("report.self_s", diagnostics.json_dumps, dumped))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
