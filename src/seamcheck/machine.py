"""Execution engine: two dialects, one memory, one borrow model per run.

Every host `let` and parameter gets its own stack allocation, with its own alloc id, root tag
and address, and references are retagged from that tag. A frame's slot for a local is that
allocation; the local's base pointer is built from it only where an address is used (a place
that starts at the local, a read or write of its bytes, a `zeroed` fill), after Miri's
`force_allocation`, as most locals never have their address taken. An integer or pointer local
starts as an immediate allocation, which memory reserves: the machine reads and writes its whole
value until an address reaches it and memory materializes its bytes in place (see `memory`). Foreign
locals are registers holding the same values: an integer, a pointer, an opaque byte blob, or
None, which is uninitialized on both sides of the boundary and an error only where it is used.

A function is lowered when its first frame is made, into one step per statement plus one for the
implicit return (`_Lowering`). Lowering dispatches by table on a statement's class, one table
per dialect, and a `let` on its right-hand side's class, so no chain of `isinstance` tests runs
per statement. Lowering resolves what the text fixes: each host local as an index into its
frame's slot list, with its type and layout; each place as a byte offset and a result type; each
call's callee, and the type checks of every value that lands in a typed slot (an argument, a
call's result, a `return`); which foreign registers hold a unit, which no statement may use as a
value (`_reg`); each binding's `plan_call` result, once per binding; and what a call
does with its result when the callee's frame pops. The lowered code hangs off its
`ScenarioProgram`, so every run of a program, both runs of a `--diff` included, shares it, and
none outlives it. A type's layout comes from `types.layout_of`, which keeps it on the type, and
an integer or pointer type's movers are built once per process, so lowering keeps no memo of
type facts. Steps look memory, tracker, `translate` and `types` functions up when they run.
Lowering never raises: an error the text decides, such as an unknown local, a field step on
a non-struct, or an argument count or binding that does not match, becomes a step that raises it
when its statement runs, after the same side effects, so a scenario that never reaches a bad
line keeps its outcome.

The step context is state, after Miri's active thread and current span: `run` records the
thread it schedules as `_thread`, and `_step` sets `Memory.line`, which stamps every event
memory records (see `memory` for its two exceptions). Every call pushes a frame on the caller's
thread. A call across the boundary converts its arguments, and its result when the callee's
frame pops, through `_convert`, which applies the pairings `translate` checks. Only `spawn`
creates a thread; the scheduler picks among ready threads with a seeded generator, so a run is
a deterministic function of (program, config). It draws only while two or more threads are
ready. `_step` runs the scheduled thread's steps in one loop for as long as no other thread
could be picked: it stops after a step that leaves another thread ready, rebuilds the ready
list (a thread blocked, finished or woke), empties the thread's frames or uses up the step
budget, and `run` schedules again. So a run whose threads never overlap draws nothing and
enters `_step` once per thread switch, not once per step; `steps` still counts every step.

Every borrow, cell pointer, reference-to-raw cast, owned heap value, reference parameter and
reference-typed `let` or call result gets its tag from one retag path, `Memory.retag`. Host frames
tear down in a fixed order: owned heap values not moved out drop in reverse declaration order,
then protectors end, then local storage dies, so a dropped allocation still sees the protectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from .diagnostics import Classification, Diagnostic, DiagnosticKind, Outcome, TraceFrame
from .ir import (
    AllocaRhs, AssertEqStmt, AssumeInitStmt, BorrowRhs, CallStmt, CastRhs, CellGetRhs, Dialect, FnDef,
    FreeStmt, GepRhs, HeapFromRawRhs, HeapIntoRawRhs, HeapNewRhs, JoinStmt, LetStmt, LiteralRhs, LoadRhs,
    MallocRhs, MemcpyStmt, MemsetStmt, OffsetRhs, Operand, Place, PlaceRhs, ReturnStmt, ScenarioProgram,
    SpawnStmt, StoreStmt, UninitRhs, WriteStmt, ZeroedRhs,
)
from .memory import Allocation, AllocOrigin, Blob, Memory, PointerValue, ScenarioUnsupported, UbError, no_provenance
from .parser import render_stmt
from .rng import Xoshiro256
from .stacked_borrows import StackedBorrowTracker
from .translate import ArgPlan, TranslationError, assignable, plan_call, plan_variadic_arg, reinterpret
from .tree_borrows import TreeBorrowTracker
from .types import (
    I8, I16, I32, I64, U8, U16, U32, U64, ArrayType, CellType, IntType, Layout, PtrKind, PtrType, StructType,
    TypeDesc, UnitType, is_reference, layout_of, struct_field_range,
)


@dataclass
class MachineConfig:
    """A run's options. Each field's name is its report key and its CLI flag's `dest`."""

    model: str = "tb"
    seed: int = 0
    steps: int = 1_000_000
    symbolic_alignment: bool = True
    strict_provenance: bool = False
    permissive_foreign_loads: bool = True
    zero_init_foreign: bool = False
    unique_as_mutable: bool = True

    def __post_init__(self) -> None:
        if self.model not in ("tb", "sb"):
            raise ValueError(f"unknown borrow model: {self.model!r}")
        if self.steps < 0:
            raise ValueError(f"a step budget is a count of 0 or more statements, not {self.steps}")
        if self.zero_init_foreign:
            # Zeroed memory has no uninitialized reads to be permissive about; the modes are exclusive.
            self.permissive_foreign_loads = False


Value = Union[int, PointerValue, Blob, None]  # a host local's or a register's; None is uninitialized
Trace = tuple[tuple[TraceFrame, ...], tuple[TraceFrame, ...]]  # (host frames, foreign frames), innermost first
Step = Callable[["Machine", "_Frame"], Value]  # a lowered statement or part of one, run on its frame
_UNSIGNED = {1: U8, 2: U16, 4: U32, 8: U64}  # by size in bytes


class _Local:
    """A host local: its slot's index `k` in a frame, its type and layout, and how to move its bytes;
    an integer or pointer local (`scalar`) is kept whole while memory keeps it immediate. A slot is
    the local's allocation; its base pointer is built where an address is used."""

    __slots__ = ("k", "name", "type", "size", "align", "scalar", "read", "write")

    def make(self, m: Machine, f: _Frame) -> Allocation:
        """Make the local's slot, the next in frame `f`'s list."""
        if self.scalar:
            alloc = m.memory.reserve(self.size, self.align, self.name)
        else:
            alloc = m.memory.allocate(self.size, self.align, AllocOrigin.HOST_STACK, self.name)
        f.slots.append(alloc)
        return alloc

    def get(self, m: Machine, f: _Frame) -> Value:
        alloc = f.slots[self.k]
        if alloc.immediate:
            return m.memory.load(alloc)
        return self.read(m, f, m.memory.base_pointer(alloc))

    def put(self, m: Machine, alloc: Allocation, value: Value, exact: bool = False) -> None:
        """Store `value` in the local's slot `alloc`; an `exact` value is a scalar of its type already."""
        if not alloc.immediate:
            self.write(m, m.memory.base_pointer(alloc), value)
        elif value is not None:
            m.memory.store(alloc, value if exact else m._scalar(self.type, value))


class _Code:
    """A lowered function: a step and a line per statement, then the implicit return's; `lands[pc]` is
    (convert, line, bind), what the call at `pc` does with its result; `owned`, the heap owners."""

    __slots__ = ("steps", "lines", "params", "lands", "owned")


class _Frame:
    __slots__ = ("fn", "code", "pc", "slots", "regs", "handles", "protected", "moved")

    def __init__(self, fn: FnDef, code: _Code, regs: Optional[dict[str, Value]] = None) -> None:
        self.fn, self.code, self.pc, self.regs = fn, code, 0, regs  # `regs`: foreign registers
        self.slots: list[Allocation] = []  # host locals, indexed by `_Local.k`, or foreign `alloca`s
        self.handles: dict[str, int] = {}
        self.protected: tuple[tuple[int, int], ...] = ()  # (alloc id, tag)
        self.moved: tuple[int, ...] = ()  # slots of owned heap values moved out by `heap_into_raw`


@dataclass
class _Thread:
    id: int
    frames: list[_Frame]  # empty once the thread is done
    spawn_trace: Trace = ((), ())  # the spawner's, taken when `spawn` ran
    waiting_on: Optional[int] = None  # blocked in a `join` of this thread


def _fail(error: type, *args, after: Optional[Step] = None) -> Callable:
    """A step that raises `error(*args)`, an error the text decides, when it runs; after `after`, if given."""
    def fail(*context):
        if after is not None:
            after(*context[:2])
        raise error(*args)
    return fail


def _return_nothing(m: Machine, f: _Frame) -> None:
    m._do_return(None)


def _return(get: Optional[Step]) -> Step:
    return _return_nothing if get is None else lambda m, f, get=get: m._do_return(get(m, f))


def _movers(ty: TypeDesc) -> tuple:
    """`read(m, f, ptr)` and `write(m, ptr, value)` of a `ty` place, then a `ty` local's size, alignment
    and whether it is a scalar; a unit reads as None, and writing None leaves the bytes as they are."""
    if isinstance(ty, IntType):
        return _INT_MOVERS[ty.bits, ty.signed]
    return _POINTER_MOVERS if isinstance(ty, PtrType) else _new_movers(ty)


def _new_movers(ty: TypeDesc) -> tuple:
    inner = ty.inner if isinstance(ty, CellType) else ty
    if isinstance(inner, UnitType):
        def read(m, f, ptr):
            m.memory.check_access(ptr, 0, 1, "read")
        def write(m, ptr, value):
            pass
    elif isinstance(inner, (IntType, PtrType)):
        def read(m, f, ptr, ty=inner):
            if isinstance(ty, PtrType):
                return m.memory.read_pointer(ptr, False)
            return m.memory.read_int(ptr, ty.size, ty.signed, False)
        def write(m, ptr, value, ty=inner):
            if isinstance(ty, PtrType) and value is not None:
                m.memory.write_pointer(ptr, m._scalar(ty, value))
            elif value is not None:
                m.memory.write_int(ptr, ty.size, m._scalar(ty, value))
    else:
        def read(m, f, ptr, size=layout_of(inner).size):
            return m.memory.read_blob(ptr, size)
        def write(m, ptr, value, ty=inner, size=layout_of(inner).size):
            if isinstance(value, Blob):
                if value.size != size:
                    raise ScenarioUnsupported(f"aggregate of {value.size} bytes written into {size}-byte slot")
                m.memory.write_blob(ptr, value)
            elif isinstance(value, int):
                raise ScenarioUnsupported(f"integer written into aggregate slot of type {ty}")
            elif value is not None:
                raise ScenarioUnsupported(f"cannot store value into slot of type {ty}")
    layout = layout_of(ty)
    return read, write, layout.size, layout.align, isinstance(ty, (IntType, PtrType))


# Built once per process: an integer type's movers by (bits, signed), and the one set all pointers share.
_INT_MOVERS = {(t.bits, t.signed): _new_movers(t) for t in (I8, I16, I32, I64, U8, U16, U32, U64)}
_POINTER_MOVERS = _new_movers(PtrType(PtrKind.OPAQUE, None))


class _Lowering:
    """What a program's text fixes, worked out on first need and shared by every run of it.

    A step is a function of (machine, frame) that takes what lowering resolved as default arguments.
    A statement is lowered by the entry for its class in its dialect's table, a `let` by the entry
    for its right-hand side's class (the tables close the class body). While a function is lowered,
    `env` maps each host local's name to the `_Local` it names there and `ret` is its return type."""

    def __init__(self, program: ScenarioProgram) -> None:
        self.program = program
        self.codes: dict[str, _Code] = {}
        self.plans: dict[str, Union[tuple[ArgPlan, ...], str]] = {}  # per binding, or its mismatch
        self.callbacks: dict[tuple, Step] = {}  # by (callee, arguments), shared by equal lines

    def code(self, fn: FnDef) -> _Code:
        return self.codes.get(fn.name) or self.codes.setdefault(fn.name, self._lower(fn))

    def _lower(self, fn: FnDef) -> _Code:
        self.env: dict[str, _Local] = {}
        self.nlocals, self.owned, self.lands, self.ret = 0, [], {}, fn.ret
        code, host = _Code(), fn.dialect is Dialect.HOST
        code.params = [self._param(p.name, p.type) for p in fn.params] if host else []
        self.steps = code.steps = []  # a call's result lands by its step's index
        table = self.HOST_STMTS if host else self.FOREIGN_STMTS
        self.units = set() if host else {p.name for p in fn.params if isinstance(p.type, UnitType)}
        for stmt in fn.body:
            lower = table.get(type(stmt))
            self.unit = None
            if lower is None:
                step = _fail(ScenarioUnsupported, f"statement not executable in {fn.dialect.value} code: {stmt!r}")
            else:
                step = lower(self, stmt)
                if self.unit is not None:
                    step = _fail(ScenarioUnsupported, f"register '{self.unit}' holds a unit, which has no value; "
                                 "foreign code may only pass it to a unit parameter or return it as a unit")
            self.steps.append(step)
        code.steps.append(self._bare_return() if host else _return_nothing)
        code.lines = [s.line for s in fn.body] + [fn.body[-1].line if fn.body else fn.line]
        code.lands, code.owned = self.lands, self.owned[::-1]
        return code

    def _local(self, name: str, ty: TypeDesc) -> _Local:
        """A new host local, the next in its frame's slot list, which `name` names from here on."""
        local = _Local()
        local.k, local.name, local.type = self.nlocals, name, ty
        local.read, local.write, local.size, local.align, local.scalar = _movers(ty)
        self.env[name] = local
        self.nlocals += 1
        return local

    def _ref(self, ty: TypeDesc) -> Optional[tuple[Layout, str]]:
        """(pointee layout, retag kind) of a reference type, else None."""
        return (layout_of(ty.pointee), ty.kind.value) if is_reference(ty) else None

    def _bound(self, get: Step, ty: TypeDesc, name: str) -> Step:
        """`get`, retagged as the value of a `ty` local `name`; see `Machine._bind_reference`."""
        ref = self._ref(ty) if isinstance(ty, PtrType) else None
        if ref is None:
            return get
        return lambda m, f, get=get, ref=ref, name=name: m._bind_reference(get(m, f), ref, name)

    def _param(self, name: str, ty: TypeDesc) -> Callable:
        """`bind(m, f, value)`: make a parameter's slot, retag and protect a reference, then store it."""
        ref, local = self._ref(ty), self._local(name, ty)
        def bind(m, f, value, local=local, ref=ref):
            slot = local.make(m, f)
            if ref is not None:
                value = m._bind_reference(value, ref, local.name, True)
                f.protected += ((value.alloc_id, value.provenance),)
            local.put(m, slot, value)
        return bind

    def _operand(self, op: Operand) -> tuple[Step, Optional[TypeDesc]]:
        """A host operand's value and static type; an unknown local has None, and raises when run."""
        if isinstance(op, int):
            return (lambda m, f, op=op: op), (I64 if op < 0 else U64)
        local = self.env.get(op)
        if local is None:
            return _fail(ScenarioUnsupported, f"unknown local '{op}'"), None
        return local.get, local.type

    def _typed(self, get: Step, ty: Optional[TypeDesc], want: TypeDesc, what: str) -> Step:
        """`get`, a value of static type `ty` that lands where a `want` is declared: an argument, a call's
        result or a `return`. A `ty` that is not assignable to `want` is Rust's mismatched types, so the
        step evaluates `get` and then raises `unsupported`; None, an unknown local's, leaves that to `get`."""
        if ty is None or assignable(ty, want):
            return get
        return _fail(ScenarioUnsupported, f"{what} {ty} where {want} is expected", after=get)

    def _typed_operand(self, op: Operand, want: TypeDesc, what: str) -> Step:
        """A host operand landing where a `want` is declared; a literal lands in any slot but a unit's."""
        get, ty = self._operand(op)
        return self._typed(get, None if isinstance(op, int) and not isinstance(want, UnitType) else ty, want, what)

    def _walk(self, ty: TypeDesc, steps: tuple) -> tuple[int, TypeDesc, Optional[Callable]]:
        """(offset, type) of `steps` from a `ty` place, and `fail(ptr)` for a step that cannot be taken."""
        off = 0
        for step in steps:
            if isinstance(ty, CellType):
                ty = ty.inner
            if isinstance(step, str):
                if not isinstance(ty, StructType):
                    return off, ty, _fail(ScenarioUnsupported, f"field access '.{step}' on non-struct {ty}")
                try:
                    field_off, ty = struct_field_range(ty, step)
                except KeyError:
                    return off, ty, _fail(ScenarioUnsupported, f"struct {ty} has no field '{step}'")
                off += field_off
            elif not isinstance(ty, ArrayType):
                return off, ty, _fail(ScenarioUnsupported, f"index [{step}] on non-array {ty}")
            elif step < 0 or step >= ty.count:
                def out_of_bounds(ptr, at=off, message=f"index {step} outside array of {ty.count} elements"):
                    raise UbError(DiagnosticKind.ACCESS_OUT_OF_BOUNDS, message, address=ptr.address + at)
                return off, ty, out_of_bounds
            else:
                off, ty = off + step * layout_of(ty.elem).size, ty.elem
        return off, ty, None

    def _place(self, place: Place) -> tuple[Step, Optional[TypeDesc]]:
        """`resolve(m, f)`, a host place's pointer, and its type; see `_at_place` for None."""
        local = self.env.get(place.base)
        if local is None:
            return _fail(ScenarioUnsupported, f"unknown local '{place.base}'"), None
        ty, steps = local.type, place.steps
        # Steps after a pointer local read through it, as if `*` were written.
        if not (place.deref or (steps and isinstance(ty, PtrType))):
            def base(m, f, k=local.k):
                return m.memory.base_pointer(f.slots[k])
        elif not isinstance(ty, PtrType):
            return _fail(ScenarioUnsupported, f"cannot dereference non-pointer local '{place.base}'"), None
        elif ty.kind is PtrKind.OPAQUE:
            def guess(m, f, get=local.get, steps=steps, walk=self._walk):
                target = get(m, f)
                pointee = m._guess_pointee(target)
                fail = walk(pointee, steps)[2]
                if fail is not None:
                    fail(target)
                return target, pointee
            return guess, None
        else:
            base, ty = local.get, ty.pointee
        off, ty, fail = self._walk(ty, steps) if steps else (0, ty, None)
        if fail is not None:
            return (lambda m, f, base=base, fail=fail: fail(base(m, f))), None
        return (base, ty) if not off else ((lambda m, f, base=base, off=off: base(m, f).with_byte_offset(off)), ty)

    def _at_place(self, place: Place, make: Callable) -> tuple[Step, Optional[TypeDesc]]:
        """`make(type, resolve)`, a step that uses `place`, and the type; None if known only at run time."""
        resolve, ty = self._place(place)
        if ty is not None:
            return make(ty, resolve), ty
        def dynamic(m, f, resolve=resolve, make=make):  # through an untyped pointer, or raising
            ptr, ty = resolve(m, f)
            return make(ty, lambda m, f: ptr)(m, f)
        return dynamic, None

    # ---- host statements, by class (`HOST_STMTS`) ----------------------------

    def _assume_init(self, stmt: AssumeInitStmt) -> Step:
        return self._at_place(stmt.place, lambda ty, at: lambda m, f, at=at, size=layout_of(ty).size: (
            m.memory.assume_init(at(m, f), size)
        ))[0]

    def _assert_eq(self, stmt: AssertEqStmt) -> Step:
        (left, _), (right, _) = self._operand(stmt.left), self._operand(stmt.right)
        return lambda m, f, left=left, right=right: m._assert_eq(left(m, f), right(m, f))

    def _call(self, stmt: CallStmt) -> Step:
        binding = self.program.bindings_by_name.get(stmt.callee)
        if binding is not None:
            return self._bound_call(stmt, binding)
        callee = self.program.function(stmt.callee)
        args = self._args(stmt.args, callee, "call to")
        self._land(None, stmt)
        if stmt.dest is not None:
            args = self._typed(args, callee.ret, stmt.dest_type, f"call to '{callee.name}' returns")
        return lambda m, f, callee=callee, args=args: m._thread.frames.append(m._host_frame(callee, args(m, f)))

    def _spawn(self, stmt: SpawnStmt) -> Step:
        callee = self.program.function(stmt.callee)
        args = self._args(stmt.args, callee, "spawn of")
        return lambda m, f, callee=callee, args=args, h=stmt.handle: m._spawn(f, h, callee, args(m, f))

    def _join(self, stmt: JoinStmt) -> Step:
        return lambda m, f, handle=stmt.handle: m._join(f, handle)

    def _host_return(self, stmt: ReturnStmt) -> Step:
        if stmt.value is None:
            return self._bare_return()
        return _return(self._typed_operand(stmt.value, self.ret, "return of type"))

    def _bare_return(self) -> Step:
        """A host `return` without an operand, or the implicit one at a body's end. It lands a `unit` by
        `_typed`'s rule, where a `unit` is assignable only to a `unit`, so in a function that declares
        another result it ends `unsupported` (Rust's E0069)."""
        if isinstance(self.ret, UnitType):
            return _return_nothing
        return _fail(ScenarioUnsupported, f"return of type unit where {self.ret} is expected")

    def _write(self, stmt: WriteStmt) -> Step:
        place, op = stmt.place, stmt.value
        get, _ = self._operand(op)
        if place.deref or place.steps:
            def put_at(ty, at):
                inner = ty.inner if isinstance(ty, CellType) else ty
                if isinstance(op, int) and isinstance(inner, IntType):
                    value = reinterpret(op, inner)
                    return lambda m, f, at=at, size=inner.size, value=value: m.memory.write_int(at(m, f), size, value)
                return lambda m, f, at=at, write=_movers(ty)[1], get=get: write(m, at(m, f), get(m, f))
            return self._at_place(place, put_at)[0]
        local = self.env.get(place.base)
        if local is None:
            return _fail(ScenarioUnsupported, f"unknown local '{place.base}'")
        if isinstance(op, int) and isinstance(local.type, IntType):
            value = reinterpret(op, local.type)
            return lambda m, f, local=local, value=value: local.put(m, f.slots[local.k], value, True)
        return lambda m, f, local=local, get=get: local.put(m, f.slots[local.k], get(m, f))

    def _let(self, stmt: LetStmt) -> Step:
        lower = self.HOST_RHS.get(type(stmt.rhs))
        if lower is None:
            return _fail(ScenarioUnsupported, f"host let cannot evaluate {type(stmt.rhs).__name__}")
        return lower(self, stmt)

    # ---- host right-hand sides, by class (`HOST_RHS`): each lowers its whole `let` ----

    def _assign(self, stmt: LetStmt, get: Step, exact: bool = False, owned: bool = False) -> Step:
        """A `let` of `get`'s value, lowered before the local is made so that a name in the right-hand side
        means the earlier local; `exact` as for `_Local.put`, and `owned` for an owned heap value."""
        local = self._local(stmt.name, stmt.type)
        if owned:
            self.owned.append(local)
        def let(m, f, get=get, local=local, exact=exact):
            value = get(m, f)  # first, so the slot's root tag is numbered after any tag the value creates
            local.put(m, local.make(m, f), value, exact)
        return let

    def _constant(self, stmt: LetStmt, value: int) -> Step:
        """A `let` of an integer constant, stored whole as the new local is immediate; a zeroed aggregate
        is filled in memory."""
        local = self._local(stmt.name, stmt.type)
        if not local.scalar:
            def zeroed(m, f, local=local):
                m.memory.memset(m.memory.base_pointer(local.make(m, f)), 0, local.size)
            return zeroed
        value = Machine._scalar(stmt.type, value)
        return lambda m, f, local=local, value=value: local.put(m, local.make(m, f), value, True)

    def _zeroed(self, stmt: LetStmt) -> Step:
        return self._constant(stmt, 0)

    def _literal(self, stmt: LetStmt) -> Step:
        ty, value = stmt.type, stmt.rhs.value
        if isinstance(ty, IntType):
            return self._constant(stmt, value)
        return self._assign(stmt, self._bound(lambda m, f, value=value: value, ty, stmt.name))

    def _uninit(self, stmt: LetStmt) -> Step:
        return self._assign(stmt, lambda m, f: None)

    def _copy(self, stmt: LetStmt) -> Step:
        """A `let` of a host place's value; where the source's type is known only at run time, so is
        the load's."""
        place, ty, name = stmt.rhs.place, stmt.type, stmt.name
        if not (place.deref or place.steps):
            get, src = self._operand(place.base)
        else:
            base = self.env.get(place.base)
            if not (place.deref and base is not None and isinstance(base.type, PtrType)) or base.type.pointee:
                get, src = self._at_place(place, self._read_at)
            else:
                want = layout_of(ty).size
                def load(src, at):  # through an untyped pointer, so `src` is known only at run time
                    if src.size != want:
                        return _fail(UbError, DiagnosticKind.INVALID_BINDING, f"load through untyped pointer "
                                     f"'{place.base}' resolves to {src.size} bytes, destination '{name}' holds "
                                     f"{want}", after=at)
                    return self._read_at(src, at)
                get, src = self._at_place(place, load)
        return self._assign(stmt, self._bound(get, ty, name), src == ty and isinstance(ty, IntType))

    def _read_at(self, ty: TypeDesc, at: Step) -> Step:
        return lambda m, f, at=at, read=_movers(ty)[0]: read(m, f, at(m, f))

    def _borrow(self, stmt: LetStmt) -> Step:
        return self._assign(stmt, self._retagged(stmt.rhs.place, stmt.name, stmt.rhs.kind.value))

    def _cell_get(self, stmt: LetStmt) -> Step:
        return self._assign(stmt, self._retagged(stmt.rhs.place, stmt.name, "cell"))

    def _retagged(self, place: Place, name: str, kind: str) -> Step:
        """A borrow of `place` as a `kind` pointer, or for "cell" a `.get()` of it."""
        def retag(src, at):
            if kind == "cell":
                if not isinstance(src, CellType):
                    return _fail(ScenarioUnsupported, ".get() on a place that is not interior-mutable", after=at)
                src = src.inner
            return lambda m, f, at=at, pointee=layout_of(src), kind=kind, name=name: (
                m.memory.retag(at(m, f), pointee, kind, name))
        return self._at_place(place, retag)[0]

    def _heap_new(self, stmt: LetStmt) -> Step:
        rhs, name = stmt.rhs, stmt.name
        def heap_new(m, f, layout=layout_of(rhs.type), init=rhs.init, name=name,
                     write=_movers(rhs.type)[1] if isinstance(rhs.init, int) else None):
            alloc = m.memory.allocate(layout.size, layout.align, AllocOrigin.HOST_HEAP, f"{name} (alloc)")
            base = m.memory.base_pointer(alloc)
            if init == "zeroed":
                m.memory.memset(base, 0, layout.size)
            elif write is not None:
                write(m, base, init)
            return m.memory.retag(base, layout, "mutable-ref", name) if m.config.unique_as_mutable else base
        return self._assign(stmt, heap_new, owned=True)

    def _into_raw(self, stmt: LetStmt) -> Step:
        source = stmt.rhs.source
        local = self.env.get(source)
        if local not in self.owned:
            return self._assign(stmt, _fail(ScenarioUnsupported, f"'{source}' is not an owned heap value"))
        def into_raw(m, f, local=local):
            box = local.get(m, f)
            f.moved += (local.k,)
            return box
        return self._assign(stmt, into_raw)

    def _from_raw(self, stmt: LetStmt) -> Step:
        ty, name = stmt.type, stmt.name
        get = self._operand(stmt.rhs.source)[0]
        layout = layout_of(ty.pointee) if isinstance(ty, PtrType) and ty.pointee is not None else None
        return self._assign(stmt, lambda m, f, get=get, layout=layout, name=name: m._from_raw(get(m, f), layout, name),
                            owned=True)

    def _cast(self, stmt: LetStmt) -> Step:
        return self._assign(stmt, self._converted(*self._operand(stmt.rhs.source), stmt.type, stmt.name))

    def _converted(self, get: Step, src: Optional[TypeDesc], target: TypeDesc, label: str) -> Step:
        if src is None:
            return get  # an unknown local, which raises
        scalars = (IntType, PtrType)
        if not isinstance(src, scalars) or not isinstance(target, scalars):
            return _fail(ScenarioUnsupported, f"no cast from {src} to {target}", after=get)
        if isinstance(src, PtrType) and isinstance(target, PtrType):
            if is_reference(target):
                return _fail(ScenarioUnsupported, "casts cannot create references", after=get)
            if is_reference(src) and target.kind in (PtrKind.RAW_MUT, PtrKind.RAW_CONST):
                def to_raw(m, f, get=get, layout=layout_of(src.pointee), target=target, label=label):
                    value = get(m, f)
                    if value.alloc_id is not None:
                        return m.memory.retag(value, layout, target.kind.value, label)
                    return m._convert(value, target)
                return to_raw
        elif PtrType in (type(src), type(target)) and layout_of(src).size != layout_of(target).size:
            return _fail(ScenarioUnsupported, "pointer addresses only fit 8-byte integers", after=get)
        return lambda m, f, get=get, target=target: m._convert(get(m, f), target)

    def _offset(self, stmt: LetStmt) -> Step:
        (get, src), (count, _) = self._operand(stmt.rhs.source), self._operand(stmt.rhs.count)
        typed = isinstance(src, PtrType) and src.kind is not PtrKind.OPAQUE
        def offset(m, f, get=get, count=count, src=src, stride=layout_of(src.pointee).size if typed else None):
            value, n = get(m, f), count(m, f)
            if not isinstance(value, PointerValue) or not isinstance(src, PtrType):
                raise ScenarioUnsupported("offset() applies to pointer values")
            if not isinstance(n, int):
                raise ScenarioUnsupported("offset() count must be an integer")
            if stride is None:  # an untyped pointer's guessed pointee
                stride = m._guess_pointee(value).size
            return value.with_byte_offset(n * stride)
        return self._assign(stmt, offset)

    # ---- calls ---------------------------------------------------------------

    def _args(self, ops: tuple[Operand, ...], callee: FnDef, what: str) -> Step:
        """The arguments a host `call` or `spawn` passes to host function `callee`, checked against its parameters."""
        parts = tuple(self._typed_operand(op, p.type, "argument of type") for op, p in zip(ops, callee.params))
        if len(ops) == len(callee.params):
            return lambda m, f, parts=parts: [get(m, f) for get in parts]
        message = f"{what} '{callee.name}' passes {len(ops)} arguments, it takes {len(callee.params)}"
        def mismatch(m, f, parts=parts, message=message):
            for get in parts:
                get(m, f)
            raise ScenarioUnsupported(message)
        return mismatch

    def _land(self, convert: Optional[Callable], stmt: CallStmt) -> None:
        """What a host call does with its result: `convert` it, retag it, then make its destination local."""
        bind = None
        if stmt.dest is not None:
            ref, local = self._ref(stmt.dest_type), self._local(stmt.dest, stmt.dest_type)
            def bind(m, f, value, local=local, ref=ref):
                if ref is not None:  # before the slot exists, so its root tag is numbered after the result's
                    value = m._bind_reference(value, ref, local.name)
                local.put(m, local.make(m, f), value)
        if convert is not None or bind is not None:
            self.lands[len(self.steps)] = (convert, stmt.line, bind)

    def _bound_call(self, stmt: CallStmt, binding) -> Step:
        callee = self.program.function(binding.target)
        nargs, nparams = len(stmt.args), len(binding.params)
        plans = self.plans.get(binding.name)
        if plans is None:  # once per binding
            try:
                plans = plan_call(binding, callee)
            except TranslationError as e:
                plans = e.message
            self.plans[binding.name] = plans
        if nargs < nparams or (nargs > nparams and not binding.variadic):
            regs = _fail(UbError, DiagnosticKind.INVALID_BINDING,
                         f"call passes {nargs} arguments, binding '{binding.name}' declares {nparams}")
        elif isinstance(plans, str):
            regs = _fail(TranslationError, plans)
        else:
            parts = [(self._typed_operand(op, plan.source, "argument of type"), self._outbound(plan))
                     for plan, op in zip(plans, stmt.args)]
            for op in stmt.args[nparams:]:
                get, ty = self._operand(op)
                try:
                    parts.append((get, None if ty is None else self._outbound(plan_variadic_arg(ty))))
                except (ScenarioUnsupported, TranslationError) as e:
                    parts.append((_fail(type(e), *e.args, after=get), None))
            # Extras land as vararg0, vararg1, ... in caller order.
            names = tuple(p.name for p in callee.params) + tuple(f"vararg{i}" for i in range(nargs - nparams))
            def regs(m, f, parts=tuple(parts), names=names):
                values = []
                for get, out in parts:
                    values.extend(out(m, get(m, f)))
                return dict(zip(names, values))
        def convert(m, value, ret=binding.ret):
            if isinstance(ret, UnitType):
                return None  # the binding declares no result
            return m._to_host(value, ret, "foreign call returned a value derived from uninitialized memory")
        self._land(convert, stmt)
        if stmt.dest is not None:
            regs = self._typed(regs, binding.ret, stmt.dest_type, f"call to '{binding.name}' returns")
        return lambda m, f, callee=callee, regs=regs: m._thread.frames.append(
            _Frame(callee, m._lowering.code(callee), regs(m, f)))

    @staticmethod
    def _outbound(plan: ArgPlan) -> Callable:
        """`out(m, value)`: the registers one host argument fills on the foreign side."""
        if len(plan.targets) > 1:
            # Only a homogeneous aggregate without padding flattens, so its fields sit at a fixed stride.
            def flatten(m, value, source=plan.source, targets=plan.targets):
                pieces = m._convert(value, source).split(len(targets))
                return [m._convert(piece, t) for piece, t in zip(pieces, targets)]
            return flatten
        def out(m, value, target=plan.targets[0], pointer=isinstance(plan.source, PtrType)):
            if value is None:
                return [0]  # a unit, as a host read of uninitialized memory raises; see `_reg`
            if pointer and isinstance(value, int):
                value = no_provenance(value)  # a literal for a pointer is an address without provenance
            return [m._convert(value, target)]
        return out

    # ---- foreign statements, by class (`FOREIGN_STMTS`) -----------------------

    def _reg(self, op: Operand, unit: bool = False) -> Step:
        """A foreign operand's value, read where a unit may pass if `unit`.

        `units` holds the registers that hold a unit: the `unit` parameters, and the result of a callback
        whose host callee returns nothing (`_callback`), until a later `let` of the name (`_foreign_let`).
        LLVM has no `void` value, and rustc flags `()` in an `extern` signature (`improper_ctypes`), so a
        unit may only pass to a callback's `unit` parameter or return from a foreign fn that returns
        `unit`; any other read, a copy included, is noted in `self.unit`, the first one of a statement,
        and `_lower` makes the statement a step that raises `unsupported`. So a statement reads its
        registers before any other check its lowering makes, and defines its own name after. Foreign
        code runs straight through, so what such a statement would define never matters."""
        if isinstance(op, int):
            return lambda m, f, op=op: op
        if not unit and self.unit is None and op in self.units:
            self.unit = op
        def get(m, f, op=op):
            try:
                return f.regs[op]  # a register may hold None
            except KeyError:
                raise ScenarioUnsupported(f"unknown register '{op}'") from None
        return get

    def _callback(self, stmt: CallStmt) -> Step:
        """A foreign call of a host function; equal calls share one step, so its plan is made once."""
        callee = self.program.function(stmt.callee)
        step = self.callbacks.get((stmt.callee, stmt.args))
        if step is None or self.units:  # read before a shared step is handed back; no unit, no unit read
            args = tuple((self._reg(op, isinstance(p.type, UnitType)), p.type)
                         for op, p in zip(stmt.args, callee.params))
        if stmt.dest is not None:
            self.units.discard(stmt.dest)
            if isinstance(callee.ret, UnitType):
                self.units.add(stmt.dest)
            def land(m, f, value, dest=stmt.dest):
                f.regs[dest] = 0 if value is None else value  # a unit; see `_reg`
            self.lands[len(self.steps)] = (None, stmt.line, land)
        if step is not None:
            return step
        if len(stmt.args) != len(callee.params):
            step = _fail(UbError, DiagnosticKind.INVALID_BINDING,
                         f"callback '{callee.name}' takes {len(callee.params)} parameters, "
                         f"call passes {len(stmt.args)}")
        else:
            message = "value derived from uninitialized memory passed into host code"

            def step(m, f, callee=callee, args=args, message=message):
                values = [m._to_host(get(m, f), ty, message) for get, ty in args]
                m._thread.frames.append(m._host_frame(callee, values))
        self.callbacks[(stmt.callee, stmt.args)] = step
        return step

    def _foreign_let(self, stmt: LetStmt) -> Step:
        lower = self.FOREIGN_RHS.get(type(stmt.rhs))
        if lower is None:
            step = _fail(ScenarioUnsupported, f"foreign let cannot evaluate {type(stmt.rhs).__name__}")
        else:
            step = lambda m, f, name=stmt.name, get=lower(self, stmt): f.regs.__setitem__(name, get(m, f))
        self.units.discard(stmt.name)
        return step

    def _store(self, stmt: StoreStmt) -> Step:
        pointer, get, size = self._reg(stmt.pointer), self._reg(stmt.value), layout_of(stmt.type).size
        if size not in _UNSIGNED:
            return _fail(ScenarioUnsupported, f"foreign store of {size}-byte type {stmt.type}")
        return lambda m, f, pointer=pointer, get=get, size=size: m._foreign_store(
            m._reg_pointer(pointer(m, f)), get(m, f), size
        )

    def _free(self, stmt: FreeStmt) -> Step:
        return lambda m, f, ptr=self._reg(stmt.pointer): m.memory.deallocate(m._reg_pointer(ptr(m, f)), "foreign")

    def _memset(self, stmt: MemsetStmt) -> Step:
        reg = self._reg
        def memset(m, f, pointer=reg(stmt.pointer), byte=reg(stmt.value), count=reg(stmt.size)):
            ptr = m._reg_pointer(pointer(m, f))
            value = m._reg_int(byte(m, f))
            m.memory.memset(ptr, value, m._reg_int(count(m, f)))
        return memset

    def _memcpy(self, stmt: MemcpyStmt) -> Step:
        reg = self._reg
        def memcpy(m, f, dest=reg(stmt.dest), src=reg(stmt.src), count=reg(stmt.size)):
            to = m._reg_pointer(dest(m, f))
            source = m._reg_pointer(src(m, f))
            m.memory.memcpy(to, source, m._reg_int(count(m, f)))
        return memcpy

    def _foreign_return(self, stmt: ReturnStmt) -> Step:
        return _return(None if stmt.value is None else self._reg(stmt.value, isinstance(self.ret, UnitType)))

    # ---- foreign right-hand sides, by class (`FOREIGN_RHS`): each lowers the value -----

    def _reg_literal(self, stmt: LetStmt) -> Step:
        return lambda m, f, value=stmt.rhs.value: value

    def _reg_copy(self, stmt: LetStmt) -> Step:
        return self._reg(stmt.rhs.place.base)

    def _load(self, stmt: LetStmt) -> Step:
        pointer, ty = self._reg(stmt.rhs.pointer), stmt.rhs.type
        if isinstance(ty, IntType):
            return lambda m, f, pointer=pointer, size=ty.size, signed=ty.signed: m.memory.read_int(
                m._reg_pointer(pointer(m, f)), size, signed, m.config.permissive_foreign_loads
            )
        if isinstance(ty, PtrType):
            return lambda m, f, pointer=pointer: m.memory.read_pointer(
                m._reg_pointer(pointer(m, f)), m.config.permissive_foreign_loads
            )
        return _fail(ScenarioUnsupported, f"foreign load of type {ty}",
                     after=lambda m, f: m._reg_pointer(pointer(m, f)))

    def _malloc(self, stmt: LetStmt) -> Step:
        return lambda m, f, n=self._reg(stmt.rhs.size), name=stmt.name: m._foreign_alloc(f, n(m, f), True, name)

    def _alloca(self, stmt: LetStmt) -> Step:
        return lambda m, f, n=self._reg(stmt.rhs.size), name=stmt.name: m._foreign_alloc(f, n(m, f), False, name)

    def _gep(self, stmt: LetStmt) -> Step:
        def gep(m, f, pointer=self._reg(stmt.rhs.pointer), offset=self._reg(stmt.rhs.offset)):
            value = pointer(m, f)
            off = m._reg_int(offset(m, f))
            return m._reg_pointer(value).with_byte_offset(off)
        return gep

    # A statement lowers by its class, in its function's dialect; a `let` by its right-hand side's.
    HOST_STMTS = {
        LetStmt: _let, WriteStmt: _write, AssumeInitStmt: _assume_init, AssertEqStmt: _assert_eq, CallStmt: _call,
        SpawnStmt: _spawn, JoinStmt: _join, ReturnStmt: _host_return,
    }
    HOST_RHS = {
        ZeroedRhs: _zeroed, LiteralRhs: _literal, UninitRhs: _uninit, PlaceRhs: _copy, BorrowRhs: _borrow,
        CellGetRhs: _cell_get, CastRhs: _cast, OffsetRhs: _offset, HeapNewRhs: _heap_new,
        HeapIntoRawRhs: _into_raw, HeapFromRawRhs: _from_raw,
    }
    FOREIGN_STMTS = {
        CallStmt: _callback, LetStmt: _foreign_let, StoreStmt: _store, FreeStmt: _free, MemsetStmt: _memset,
        MemcpyStmt: _memcpy, ReturnStmt: _foreign_return,
    }
    FOREIGN_RHS = {
        LiteralRhs: _reg_literal, PlaceRhs: _reg_copy, LoadRhs: _load, MallocRhs: _malloc, AllocaRhs: _alloca,
        GepRhs: _gep,
    }


class Machine:
    def __init__(self, program: ScenarioProgram, config: Optional[MachineConfig] = None) -> None:
        self.program = program
        self.config = config = config or MachineConfig()
        self.memory = Memory(
            seed=config.seed, symbolic_alignment=config.symbolic_alignment,
            strict_provenance=config.strict_provenance, zero_init_foreign=config.zero_init_foreign,
            tracker=TreeBorrowTracker if config.model == "tb" else StackedBorrowTracker,
        )
        self.rng = Xoshiro256(config.seed)
        self.threads: list[_Thread] = []  # indexed by id, so in spawn order
        self._ready: list[_Thread] = []  # the ready threads, in spawn order
        self._thread: Optional[_Thread] = None  # the one `_step` runs
        self.steps = 0
        if program.lowered is None:
            program.lowered = _Lowering(program)
        self._lowering: _Lowering = program.lowered

    def _spawn_thread(self, frame: _Frame, spawn_trace: Trace = ((), ())) -> _Thread:
        t = _Thread(id=len(self.threads), frames=[frame], spawn_trace=spawn_trace)
        self.threads.append(t)
        self._ready.append(t)
        return t

    def _status_changed(self) -> None:
        """Rebuild the ready list after a thread blocked, finished or woke."""
        self._ready = [t for t in self.threads if t.frames and t.waiting_on is None]

    def run(self) -> Outcome:
        try:
            entry_frame = self._host_frame(self.program.entry, [])
        except UbError as e:
            return self._bug(e, None)
        main = self._spawn_thread(entry_frame)
        while main.frames:
            ready = self._ready
            if not ready:
                return Outcome(Classification.TIMEOUT, note="deadlock: every thread is blocked")
            if self.steps >= self.config.steps:
                return Outcome(Classification.TIMEOUT, note=f"step budget of {self.config.steps} exhausted")
            self._thread = ready[self.rng.below(len(ready))] if len(ready) > 1 else ready[0]
            try:
                self._step(ready)
            except UbError as e:
                return self._bug(e, self._thread)
            except ScenarioUnsupported as e:
                return Outcome(Classification.UNSUPPORTED, note=str(e))
        leaks = tuple(Diagnostic(
            DiagnosticKind.MEMORY_LEAK,
            f"alloc#{a.id} ({a.label}): {a.size} bytes from the {a.origin.value} allocator were never freed",
            allocation_origin=a.origin.value, address=a.base,
        ) for a in self.memory.leak_report())
        return Outcome(Classification.PASS, leaks=leaks)

    def _step(self, ready: list[_Thread]) -> None:
        """Run the running thread's steps, each at its line, while nothing else could be scheduled:
        stop after a step that leaves `ready`, the ready list `run` scheduled from, with more than
        one thread, rebuilds the ready list, empties the thread's frames or uses up the budget."""
        frames = self._thread.frames
        budget = self.config.steps
        while True:
            self.steps += 1
            frame = frames[-1]
            pc = frame.pc
            frame.pc = pc + 1
            code = frame.code
            self.memory.line = code.lines[pc]
            code.steps[pc](self, frame)
            if len(ready) > 1 or ready is not self._ready or not frames or self.steps >= budget:
                return

    def _bug(self, e: UbError, thread: Optional[_Thread]) -> Outcome:
        host_trace, foreign_trace = ((), ()) if thread is None else self._traces(thread)
        diag = Diagnostic(e.kind, e.message, host_trace, foreign_trace, **e.details)
        return Outcome(Classification.BUG, diagnostics=(diag,))

    def _traces(self, thread: _Thread) -> Trace:
        """Innermost frame first, then the spawner's trace where it spawned `thread`."""
        host, foreign = [], []  # of `TraceFrame`s
        for frame in reversed(thread.frames):
            body = frame.fn.body
            if not body:
                continue
            stmt = body[min(max(frame.pc - 1, 0), len(body) - 1)]  # the one the frame is running
            dialect = frame.fn.dialect
            tf = TraceFrame(dialect.value, frame.fn.name, stmt.line, render_stmt(stmt))
            (host if dialect is Dialect.HOST else foreign).append(tf)
        spawn_host, spawn_foreign = thread.spawn_trace
        return tuple(host) + spawn_host, tuple(foreign) + spawn_foreign

    def _host_frame(self, fn: FnDef, args: list[Value]) -> _Frame:
        code = self._lowering.code(fn)
        frame = _Frame(fn, code)
        for bind, value in zip(code.params, args):
            bind(self, frame, value)
        return frame

    def _do_return(self, value: Value) -> None:
        """Pop the frame and hand `value` to its caller."""
        thread = self._thread
        self._exit_frame()
        if not thread.frames:
            for t in self.threads:
                if t.waiting_on == thread.id:
                    t.waiting_on = None
            self._status_changed()
            return
        caller = thread.frames[-1]
        convert, line, bind = caller.code.lands.get(caller.pc - 1, (None, 0, None))  # the call that pushed it
        if convert is not None:
            value = convert(self, value)
        if bind is not None:
            self.memory.line = line  # the result lands at the call, not at the callee's return
            bind(self, caller, value)

    def _exit_frame(self) -> None:
        frames = self._thread.frames
        frame = frames[-1]
        slots = frame.slots
        for local in frame.code.owned:
            if local.k < len(slots) and local.k not in frame.moved:
                self.memory.deallocate(local.get(self, frame), "host")
        for alloc_id, tag in frame.protected:
            self.memory.protector_end(alloc_id, tag)
        for alloc in reversed(slots):
            self.memory.release_stack(alloc.id)
        frames.pop()

    def _bind_reference(self, value: Value, ref: tuple[Layout, str], name: str, protect: bool = False) -> Value:
        """`value` retagged as reference `name`, `ref` its (pointee layout, kind). SB retags every reference
        assignment and, protected, every reference argument (Jung et al., POPL 2020); an int has no provenance."""
        if not isinstance(value, (int, PointerValue)):
            return value
        if isinstance(value, int):
            value = no_provenance(value)
        return self.memory.retag(value, ref[0], ref[1], name, protect)

    def _from_raw(self, value: Value, layout: Optional[Layout], name: str) -> Value:
        """`heap_from_raw` of `value`, retagged over `layout`, or for None over its whole allocation."""
        if not isinstance(value, PointerValue):
            raise ScenarioUnsupported("heap_from_raw needs a pointer value")
        if value.alloc_id is None:
            raise UbError(DiagnosticKind.ACCESS_OUT_OF_BOUNDS, f"heap_from_raw of 0x{value.address:x}, which "
                          "points into no live allocation", address=value.address)
        if not self.config.unique_as_mutable:
            return value
        if layout is None:
            layout = Layout(size=self.memory.allocations[value.alloc_id].size, align=1)
        return self.memory.retag(value, layout, "mutable-ref", name)

    @staticmethod
    def _assert_eq(left: Value, right: Value) -> None:
        # A pointer compares by address, so it can be checked against the integer it was cast to.
        plain = [v.address if isinstance(v, PointerValue) else ("blob", v.contents()) if isinstance(v, Blob) else v
                 for v in (left, right)]
        if plain[0] != plain[1]:
            a, b = (f"0x{v.address:x}" if isinstance(v, PointerValue)
                    else f"<{v.size}-byte value>" if isinstance(v, Blob) else str(v) for v in (left, right))
            raise UbError(DiagnosticKind.ASSERTION_FAILED, f"assertion failed: {a} != {b}")

    def _spawn(self, frame: _Frame, handle: str, callee: FnDef, args: list[Value]) -> None:
        child = self._spawn_thread(self._host_frame(callee, args), self._traces(self._thread))
        frame.handles[handle] = child.id

    def _join(self, frame: _Frame, handle: str) -> None:
        tid = frame.handles.get(handle)
        if tid is None:
            raise ScenarioUnsupported(f"join of unknown handle '{handle}'")
        if self.threads[tid].frames:
            self._thread.waiting_on = tid
            frame.pc -= 1  # re-run the join once the target finishes
            self._status_changed()

    def _foreign_store(self, ptr: PointerValue, value: Value, size: int) -> None:
        if value is None:
            self.memory.write_uninit(ptr, size)  # a value derived from uninitialized memory stays so
        elif isinstance(value, PointerValue) and size == 8:
            self.memory.write_pointer(ptr, value)
        else:
            self.memory.write_int(ptr, size, reinterpret(self._reg_int(value), _UNSIGNED[size]))

    def _foreign_alloc(self, frame: _Frame, value: Value, heap: bool, name: str) -> PointerValue:
        size, what = self._reg_int(value), "malloc" if heap else "alloca"
        if isinstance(value, PointerValue):
            raise ScenarioUnsupported(f"{what} sized by a pointer register")
        if size < 0:
            raise ScenarioUnsupported(f"{what} of {size} bytes")
        alloc = self.memory.allocate(size, 16, AllocOrigin.FOREIGN_HEAP if heap else AllocOrigin.FOREIGN_STACK, name)
        if not heap:
            frame.slots.append(alloc)
        return self.memory.base_pointer(alloc)

    def _guess_pointee(self, ptr: PointerValue) -> IntType:
        """An untyped pointer's pointee: an integer as wide as the stack local it points at, else a byte."""
        if ptr.alloc_id is not None:
            alloc = self.memory.allocations[ptr.alloc_id]
            stack = alloc.origin in (AllocOrigin.HOST_STACK, AllocOrigin.FOREIGN_STACK)
            if stack and ptr.offset == 0 and alloc.size in _UNSIGNED:
                return _UNSIGNED[alloc.size]
        return U8

    @staticmethod
    def _scalar(ty: Union[IntType, PtrType], value: Value) -> Union[int, PointerValue]:
        """`value` as a `ty` place stores it: wrapped to an integer type, or as a pointer (an int is an address)."""
        if isinstance(ty, IntType):
            if isinstance(value, PointerValue):
                raise ScenarioUnsupported(f"pointer value written into integer slot of type {ty}; cast it first")
            if isinstance(value, Blob):
                raise ScenarioUnsupported(f"aggregate value written into {ty} slot")
            return reinterpret(value, ty)
        if isinstance(value, Blob):
            raise ScenarioUnsupported("aggregate value written into pointer slot")
        return no_provenance(value) if isinstance(value, int) else value

    def _reg_pointer(self, value: Value) -> PointerValue:
        """A register used as a pointer; integers act as casts from exposed, uninitialized ones as uninit reads."""
        if isinstance(value, PointerValue):
            return value
        if isinstance(value, int):
            return self.memory.from_exposed(value)
        if value is None:
            raise UbError(DiagnosticKind.UNINITIALIZED_READ,
                          "foreign code used a value derived from uninitialized memory as a pointer")
        raise ScenarioUnsupported("aggregate register used as a pointer")

    def _reg_int(self, value: Value) -> int:
        """A register used as an integer operand; an uninitialized one is an uninitialized read."""
        if isinstance(value, int):
            return value
        if isinstance(value, PointerValue):
            return self.memory.expose(value)
        if value is None:
            raise UbError(DiagnosticKind.UNINITIALIZED_READ,
                          "foreign code used a value derived from uninitialized memory as an integer operand")
        raise ScenarioUnsupported("aggregate register used as an integer")

    def _convert(self, value: Value, target: TypeDesc) -> Value:
        """`value` as a `target` on the other side of a crossing: a bound argument or return, a callback
        argument or an integer/pointer cast. It is None, uninitialized, when `value` is, or when it
        reads uninitialized bytes of a by-value aggregate under permissive loads."""
        if value is None:
            return None
        if isinstance(target, IntType):
            if isinstance(value, PointerValue):
                if target.size != 8:
                    raise UbError(DiagnosticKind.INVALID_BINDING,
                                  f"pointer crosses into {target.size}-byte integer {target}: "
                                  "only 8-byte integers carry addresses")
                return self.memory.expose(value)
            if not isinstance(value, Blob):
                return reinterpret(value, target)
            if value.size != target.size:
                raise UbError(DiagnosticKind.INVALID_BINDING,
                              f"{value.size}-byte aggregate crosses into {target.size}-byte {target}")
            uninit = value.first_uninit()
            if uninit is not None:
                if self.config.permissive_foreign_loads:
                    return None
                raise UbError(DiagnosticKind.UNINITIALIZED_READ,
                              f"by-value crossing reads uninitialized byte {uninit} of an aggregate")
            return reinterpret(value.to_int(), target)
        if isinstance(target, PtrType):
            return self._reg_pointer(value)
        if isinstance(target, CellType):
            return self._convert(value, target.inner)
        if isinstance(target, (StructType, ArrayType)):
            size = layout_of(target).size
            if isinstance(value, int):
                return Blob.from_int(value, size)
            if not isinstance(value, Blob):
                raise ScenarioUnsupported(f"a pointer cannot cross into aggregate {target}")
            if value.size != size:
                raise UbError(DiagnosticKind.INVALID_BINDING,
                              f"{value.size}-byte aggregate crosses into {size}-byte {target}")
            return value
        if isinstance(target, UnitType):
            return 0
        raise ScenarioUnsupported(f"no conversion into {target}")

    def _to_host(self, value: Value, target: TypeDesc, uninit_message: str) -> Value:
        """A foreign value landing in host code as a `target`; an uninitialized one is an error."""
        value = self._convert(value, target)
        if value is None:
            raise UbError(DiagnosticKind.UNINITIALIZED_READ, uninit_message)
        return value


def run_program(program: ScenarioProgram, config: Optional[MachineConfig] = None) -> Outcome:
    return Machine(program, config).run()
