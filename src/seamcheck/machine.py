"""Execution engine: two dialects, one memory, one borrow model per run.

Every host `let` and parameter gets its own stack allocation, with its
own alloc id, root tag and address, and references are retagged from that
tag. An integer or pointer local starts as an immediate allocation, which
memory reserves: the machine reads and writes its whole value
(`_read_slot`, `_write_slot`) until an address reaches it and memory
materializes its bytes in place (see `memory`). Any other local has bytes
from the start. `Memory` owns each allocation's root tag and borrow
tracker; the machine deals in types only. Foreign locals are registers
holding the same values as host locals: an integer, a pointer, an opaque
byte blob, or None. None is uninitialized on both sides of the boundary: a
host slot that was never written, or a register loaded from uninitialized
memory in permissive mode, which is an error only where it is used.

The step context is state, after Miri's active thread and current span:
`run` records the thread it schedules, which every statement handler reads
as `_thread`, and `_step` sets `Memory.line`, which stamps every event
memory records (see `memory` for its two exceptions).

Every call pushes a frame on the caller's thread, whichever dialect the
callee is written in; a frame runs in its function's dialect. A host `call`
or `spawn` of a host function checks its arguments in one place,
`_host_args`. When the callee's frame pops, the caller's `call` statement
says where the result lands. A call across the boundary converts the
arguments on the way in and the return value when the callee's frame pops.
Bound arguments and returns, callback arguments and integer/pointer casts
all convert through `_convert`, which applies the pairings `translate`
checks and passes None through; an uninitialized value landing in host code
is an uninitialized read. Only `spawn` creates a thread. The scheduler picks
among ready threads, in spawn order, with a seeded generator, so a run is a
deterministic function of (program, config).

Every borrow, cell pointer, reference-to-raw cast, owned heap value,
reference parameter and reference-typed `let` or call result gets its tag
from one retag path, `_retag`, which hands `Memory.retag` a size and cell
ranges. Every parameter binds through `_bind_reference`, and a reference
one gets a protector that lasts until its frame exits. A place's steps
after a pointer local read through it whether or not `*` was written.

Host frames tear down in a fixed order at exit: owned heap values that were
not moved out drop in reverse declaration order, shadowed ones too, then
protectors end, then local storage dies. That ordering is load-bearing: a
dropped allocation still sees active protectors from the same frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import Classification, Diagnostic, DiagnosticKind, Outcome, TraceFrame
from .ir import (
    AllocaRhs,
    AssertEqStmt,
    AssumeInitStmt,
    BorrowRhs,
    CallStmt,
    CastRhs,
    CellGetRhs,
    Dialect,
    FnDef,
    FreeStmt,
    GepRhs,
    HeapFromRawRhs,
    HeapIntoRawRhs,
    HeapNewRhs,
    JoinStmt,
    LetStmt,
    LiteralRhs,
    LoadRhs,
    MallocRhs,
    MemcpyStmt,
    MemsetStmt,
    OffsetRhs,
    Operand,
    Place,
    PlaceRhs,
    ReturnStmt,
    ScenarioProgram,
    SpawnStmt,
    Stmt,
    StoreStmt,
    UninitRhs,
    WriteStmt,
    ZeroedRhs,
)
from .memory import (
    Allocation,
    AllocOrigin,
    Blob,
    Memory,
    PointerValue,
    ScenarioUnsupported,
    UbError,
    no_provenance,
)
from .parser import render_stmt
from .rng import Xoshiro256
from .stacked_borrows import StackedBorrowTracker
from .translate import (
    ArgPlan,
    assignable,
    plan_call,
    plan_variadic_arg,
    reinterpret,
)
from .tree_borrows import TreeBorrowTracker
from .types import (
    U8,
    CellType,
    IntType,
    PtrKind,
    PtrType,
    StructType,
    ArrayType,
    TypeDesc,
    UnitType,
    is_reference,
    layout_of,
    size_of,
    struct_field_range,
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
        if self.zero_init_foreign:
            # Zeroed memory has no uninitialized reads to be permissive about;
            # the two modes are exclusive.
            self.permissive_foreign_loads = False


# A host local's or a foreign register's value; None is uninitialized.
Value = Union[int, PointerValue, Blob, None]

# (host frames, foreign frames), innermost first.
Trace = tuple[tuple[TraceFrame, ...], tuple[TraceFrame, ...]]


@dataclass
class _Slot:
    type: TypeDesc
    pointer: PointerValue  # base, root tag
    alloc: Allocation
    owning: bool = False   # heap value dropped at frame exit
    moved: bool = False


@dataclass
class _Frame:
    fn: FnDef
    pc: int = 0
    slots: dict[str, _Slot] = field(default_factory=dict)
    slot_order: list[_Slot] = field(default_factory=list)
    regs: dict[str, Value] = field(default_factory=dict)
    handles: dict[str, int] = field(default_factory=dict)
    protected: list[tuple[int, int]] = field(default_factory=list)  # (alloc id, tag)
    stack_allocs: list[int] = field(default_factory=list)


@dataclass
class _Thread:
    id: int
    frames: list[_Frame]  # empty once the thread is done
    spawn_trace: Trace = ((), ())  # the spawner's, taken when `spawn` ran
    waiting_on: Optional[int] = None  # blocked in a `join` of this thread


class Machine:
    def __init__(self, program: ScenarioProgram, config: Optional[MachineConfig] = None) -> None:
        self.program = program
        self.config = config or MachineConfig()
        self.memory = Memory(
            seed=self.config.seed,
            symbolic_alignment=self.config.symbolic_alignment,
            strict_provenance=self.config.strict_provenance,
            zero_init_foreign=self.config.zero_init_foreign,
            tracker=TreeBorrowTracker if self.config.model == "tb" else StackedBorrowTracker,
        )
        self.rng = Xoshiro256(self.config.seed)
        self.threads: list[_Thread] = []  # indexed by id, so in spawn order
        self._ready: list[_Thread] = []  # the ready threads, in spawn order
        self._thread: Optional[_Thread] = None  # the one `_step` runs
        self.steps = 0

    # ---- plumbing ------------------------------------------------------------

    def _spawn_thread(self, frame: _Frame, spawn_trace: Trace = ((), ())) -> _Thread:
        t = _Thread(id=len(self.threads), frames=[frame], spawn_trace=spawn_trace)
        self.threads.append(t)
        self._ready.append(t)
        return t

    def _status_changed(self) -> None:
        """Rebuild the ready list after a thread blocked, finished or woke."""
        self._ready = [t for t in self.threads if t.frames and t.waiting_on is None]

    # ---- running -------------------------------------------------------------

    def run(self) -> Outcome:
        try:
            entry_frame = self._make_host_frame(self.program.entry, [])
        except UbError as e:
            return self._bug(e, None)
        main = self._spawn_thread(entry_frame)
        while main.frames:
            ready = self._ready
            if not ready:
                return Outcome(
                    Classification.TIMEOUT,
                    note="deadlock: every thread is blocked",
                )
            if self.steps >= self.config.steps:
                return Outcome(
                    Classification.TIMEOUT,
                    note=f"step budget of {self.config.steps} exhausted",
                )
            self.steps += 1
            self._thread = thread = ready[self.rng.below(len(ready))]
            try:
                self._step()
            except UbError as e:
                return self._bug(e, thread)
            except ScenarioUnsupported as e:
                return Outcome(Classification.UNSUPPORTED, note=str(e))
        leaks = tuple(self._leak_diagnostic(a) for a in self.memory.leak_report())
        return Outcome(Classification.PASS, leaks=leaks)

    def _leak_diagnostic(self, alloc: Allocation) -> Diagnostic:
        return Diagnostic(
            kind=DiagnosticKind.MEMORY_LEAK,
            message=(
                f"alloc#{alloc.id} ({alloc.label}): {alloc.size} bytes from the "
                f"{alloc.origin.value} allocator were never freed"
            ),
            allocation_origin=alloc.origin.value,
            address=alloc.base,
        )

    def _bug(self, e: UbError, thread: Optional[_Thread]) -> Outcome:
        host_trace: tuple[TraceFrame, ...] = ()
        foreign_trace: tuple[TraceFrame, ...] = ()
        if thread is not None:
            host_trace, foreign_trace = self._traces(thread)
        diag = Diagnostic(e.kind, e.message, host_trace, foreign_trace, **e.details)
        return Outcome(Classification.BUG, diagnostics=(diag,))

    def _traces(self, thread: _Thread) -> Trace:
        """Innermost frame first, then the spawner's trace where it spawned `thread`."""
        host: list[TraceFrame] = []
        foreign: list[TraceFrame] = []
        for frame in reversed(thread.frames):
            stmt = self._current_stmt(frame)
            if stmt is None:
                continue
            dialect = frame.fn.dialect
            tf = TraceFrame(
                dialect=dialect.value,
                function=frame.fn.name,
                line=stmt.line,
                statement=render_stmt(stmt),
            )
            (host if dialect is Dialect.HOST else foreign).append(tf)
        spawn_host, spawn_foreign = thread.spawn_trace
        return tuple(host) + spawn_host, tuple(foreign) + spawn_foreign

    @staticmethod
    def _current_stmt(frame: _Frame) -> Optional[Stmt]:
        """The statement the frame is executing, or None for an empty body."""
        if not frame.fn.body:
            return None
        return frame.fn.body[min(max(frame.pc - 1, 0), len(frame.fn.body) - 1)]

    # ---- frame setup and teardown --------------------------------------------

    def _make_host_frame(self, fn: FnDef, args: list[Value]) -> _Frame:
        frame = _Frame(fn=fn)
        for param, value in zip(fn.params, args):
            ty = param.type
            slot = self._new_slot(frame, param.name, ty)
            value = self._bind_reference(value, ty, param.name, protect=True)
            if is_reference(ty):
                frame.protected.append((value.alloc_id, value.provenance))
            self._write_slot(slot, value)
        return frame

    def _retag(
        self, ptr: PointerValue, pointee: TypeDesc, kind: str, label: str, protect: bool = False
    ) -> PointerValue:
        """`ptr` with a fresh `kind` tag over its `pointee`; see `Memory.retag`."""
        layout = layout_of(pointee)
        return self.memory.retag(ptr, layout.size, layout.cell_ranges, kind, label, protect)

    def _new_slot(self, frame: _Frame, name: str, ty: TypeDesc) -> _Slot:
        layout = layout_of(ty)
        if isinstance(ty, (IntType, PtrType)):
            alloc = self.memory.reserve(layout.size, layout.align, name)
        else:
            alloc = self.memory.allocate(layout.size, max(layout.align, 1), AllocOrigin.HOST_STACK, name)
        slot = _Slot(ty, self.memory.base_pointer(alloc), alloc)
        frame.slots[name] = slot
        frame.slot_order.append(slot)
        frame.stack_allocs.append(alloc.id)
        return slot

    def _slot(self, name: str) -> _Slot:
        slot = self._thread.frames[-1].slots.get(name)
        if slot is None:
            raise ScenarioUnsupported(f"unknown local '{name}'")
        return slot

    def _read_slot(self, slot: _Slot) -> Value:
        """The local's value: whole while memory keeps it immediate, else from its bytes."""
        if slot.alloc.immediate:
            return self.memory.load(slot.alloc)
        return self._typed_read(slot.pointer, slot.type)

    def _write_slot(self, slot: _Slot, value: Value) -> None:
        """Store `value` into the local, whole while memory keeps it immediate."""
        if not slot.alloc.immediate:
            self._typed_write_value(slot.pointer, slot.type, value)
        elif value is not None:
            self.memory.store(slot.alloc, self._scalar(slot.type, value))

    def _exit_frame(self) -> _Frame:
        frames = self._thread.frames
        frame = frames[-1]
        for slot in reversed(frame.slot_order):
            if slot.owning and not slot.moved:
                self.memory.deallocate(self._read_slot(slot), "host")
        for alloc_id, tag in frame.protected:
            self.memory.protector_end(alloc_id, tag)
        for alloc_id in reversed(frame.stack_allocs):
            self.memory.release_stack(alloc_id)
        return frames.pop()

    # ---- typed data movement -------------------------------------------------

    def _pointee(self, ty: PtrType, ptr: PointerValue) -> TypeDesc:
        if ty.kind is not PtrKind.OPAQUE:
            return ty.pointee
        # Untyped pointer: guess a width from the allocation it points at.
        if ptr.alloc_id is not None:
            alloc = self.memory.allocations[ptr.alloc_id]
            if (
                alloc.origin in (AllocOrigin.HOST_STACK, AllocOrigin.FOREIGN_STACK)
                and ptr.offset == 0
                and alloc.size in (1, 2, 4, 8)
            ):
                return IntType(alloc.size * 8, False)
        return U8

    def _typed_read(self, ptr: PointerValue, ty: TypeDesc, permissive: bool = False) -> Value:
        """The `ty` value at `ptr`: None for a unit, or for uninitialized bytes under a `permissive` read."""
        if isinstance(ty, CellType):
            ty = ty.inner
        if isinstance(ty, UnitType):
            self.memory.check_access(ptr, 0, 1, "read")
            return None
        if isinstance(ty, IntType):
            return self.memory.read_int(ptr, ty.size, ty.signed, permissive)
        if isinstance(ty, PtrType):
            return self.memory.read_pointer(ptr, permissive)
        return self.memory.read_blob(ptr, size_of(ty))

    def _typed_write_value(self, ptr: PointerValue, ty: TypeDesc, value: Value) -> None:
        if isinstance(ty, CellType):
            ty = ty.inner
        if isinstance(ty, UnitType):
            return
        if value is None:
            return  # uninitialized: storage stays untouched
        if isinstance(ty, IntType):
            self.memory.write_int(ptr, ty.size, self._scalar(ty, value))
            return
        if isinstance(ty, PtrType):
            self.memory.write_pointer(ptr, self._scalar(ty, value))
            return
        if isinstance(value, Blob):
            if len(value.values) != size_of(ty):
                raise ScenarioUnsupported(
                    f"aggregate of {len(value.values)} bytes written into {size_of(ty)}-byte slot"
                )
            self.memory.write_blob(ptr, value)
            return
        if isinstance(value, int):
            raise ScenarioUnsupported(f"integer written into aggregate slot of type {ty}")
        raise ScenarioUnsupported(f"cannot store value into slot of type {ty}")

    @staticmethod
    def _scalar(ty: Union[IntType, PtrType], value: Value) -> Union[int, PointerValue]:
        """`value` as a `ty` place stores it: wrapped to the integer type, or as a pointer.

        An integer stored into a pointer place is a bare address, as its
        bytes read back through `Memory.read_pointer` would be.
        """
        if isinstance(ty, IntType):
            if isinstance(value, PointerValue):
                raise ScenarioUnsupported(
                    f"pointer value written into integer slot of type {ty}; cast it first"
                )
            if isinstance(value, Blob):
                raise ScenarioUnsupported(f"aggregate value written into {ty} slot")
            return reinterpret(value, ty)
        if isinstance(value, Blob):
            raise ScenarioUnsupported("aggregate value written into pointer slot")
        return no_provenance(value) if isinstance(value, int) else value

    # ---- places and operands -------------------------------------------------

    def _resolve_place(self, place: Place) -> tuple[PointerValue, TypeDesc]:
        slot = self._slot(place.base)
        ptr: PointerValue = slot.pointer
        ty: TypeDesc = slot.type
        # Steps after a pointer local read through it, as if `*` were written.
        if place.deref or (place.steps and isinstance(ty, PtrType)):
            if not isinstance(ty, PtrType):
                raise ScenarioUnsupported(f"cannot dereference non-pointer local '{place.base}'")
            target = self._read_slot(slot)
            pointee = self._pointee(ty, target)
            ptr, ty = target, pointee
        for step in place.steps:
            if isinstance(ty, CellType):
                ty = ty.inner
            if isinstance(step, str):
                if not isinstance(ty, StructType):
                    raise ScenarioUnsupported(f"field access '.{step}' on non-struct {ty}")
                try:
                    off, ty = struct_field_range(ty, step)
                except KeyError:
                    raise ScenarioUnsupported(f"struct {ty} has no field '{step}'") from None
                ptr = ptr.with_byte_offset(off)
            else:
                if not isinstance(ty, ArrayType):
                    raise ScenarioUnsupported(f"index [{step}] on non-array {ty}")
                if step < 0 or step >= ty.count:
                    raise UbError(
                        DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                        f"index {step} outside array of {ty.count} elements",
                        address=ptr.address,
                    )
                ptr = ptr.with_byte_offset(step * size_of(ty.elem))
                ty = ty.elem
        return ptr, ty

    def _eval_operand(self, op: Operand) -> tuple[Value, TypeDesc]:
        if isinstance(op, int):
            return op, IntType(64, op < 0)
        slot = self._slot(op)
        return self._read_slot(slot), slot.type

    def _foreign_operand(self, op: Operand) -> Value:
        if isinstance(op, int):
            return op
        regs = self._thread.frames[-1].regs
        if op not in regs:  # a register may hold None
            raise ScenarioUnsupported(f"unknown register '{op}'")
        return regs[op]

    def _reg_pointer(self, value: Value) -> PointerValue:
        """A register used as a pointer; integers act as casts from exposed, uninitialized ones as uninit reads."""
        if isinstance(value, PointerValue):
            return value
        if isinstance(value, int):
            return self.memory.from_exposed(value)
        if value is None:
            raise UbError(
                DiagnosticKind.UNINITIALIZED_READ,
                "foreign code used a value derived from uninitialized memory as a pointer",
            )
        raise ScenarioUnsupported("aggregate register used as a pointer")

    def _reg_int(self, value: Value) -> int:
        """A register used as an integer operand; an uninitialized one is an uninitialized read."""
        if isinstance(value, int):
            return value
        if isinstance(value, PointerValue):
            return self.memory.expose(value)
        if value is None:
            raise UbError(
                DiagnosticKind.UNINITIALIZED_READ,
                "foreign code used a value derived from uninitialized memory as an integer operand",
            )
        raise ScenarioUnsupported("aggregate register used as an integer")

    # ---- stepping ------------------------------------------------------------

    def _step(self) -> None:
        """Run the running thread's next statement, at its line."""
        frame = self._thread.frames[-1]
        body = frame.fn.body
        if frame.pc >= len(body):
            # The implicit return at the end of a body, at its last line.
            self.memory.line = body[-1].line if body else frame.fn.line
            self._do_return(None)
            return
        stmt = body[frame.pc]
        frame.pc += 1
        self.memory.line = stmt.line
        if frame.fn.dialect is Dialect.HOST:
            self._exec_host(stmt)
        else:
            self._exec_foreign(stmt)

    # ---- host execution ------------------------------------------------------

    def _exec_host(self, stmt: Stmt) -> None:
        thread = self._thread
        frame = thread.frames[-1]
        if isinstance(stmt, LetStmt):
            self._host_let(stmt)
        elif isinstance(stmt, WriteStmt):
            if stmt.place.deref or stmt.place.steps:
                ptr, ty = self._resolve_place(stmt.place)
                value, _ = self._eval_operand(stmt.value)
                self._typed_write_value(ptr, ty, value)
            else:
                slot = self._slot(stmt.place.base)
                self._write_slot(slot, self._eval_operand(stmt.value)[0])
        elif isinstance(stmt, AssumeInitStmt):
            ptr, ty = self._resolve_place(stmt.place)
            self.memory.assume_init(ptr, size_of(ty))
        elif isinstance(stmt, AssertEqStmt):
            self._assert_eq(stmt)
        elif isinstance(stmt, SpawnStmt):
            callee = self.program.function(stmt.callee)
            args = self._host_args(stmt, callee)
            child = self._spawn_thread(self._make_host_frame(callee, args), self._traces(thread))
            frame.handles[stmt.handle] = child.id
        elif isinstance(stmt, JoinStmt):
            tid = frame.handles.get(stmt.handle)
            if tid is None:
                raise ScenarioUnsupported(f"join of unknown handle '{stmt.handle}'")
            if self.threads[tid].frames:
                thread.waiting_on = tid
                frame.pc -= 1  # re-run the join once the target finishes
                self._status_changed()
        elif isinstance(stmt, CallStmt):
            self._host_call(stmt)
        elif isinstance(stmt, ReturnStmt):
            value = None
            if stmt.value is not None:
                value, _ = self._eval_operand(stmt.value)
            self._do_return(value)
        else:
            raise ScenarioUnsupported(f"statement not executable in host code: {stmt!r}")

    def _host_let(self, stmt: LetStmt) -> None:
        frame = self._thread.frames[-1]
        if isinstance(stmt.rhs, ZeroedRhs):
            slot = self._new_slot(frame, stmt.name, stmt.type)
            if slot.alloc.immediate:
                self._write_slot(slot, 0)
            else:
                self.memory.memset(slot.pointer, 0, size_of(stmt.type))
            return
        # Evaluate first, so the slot's root tag is numbered after any tag
        # the right-hand side creates.
        value = self._host_rhs(stmt)
        slot = self._new_slot(frame, stmt.name, stmt.type)
        slot.owning = isinstance(stmt.rhs, (HeapNewRhs, HeapFromRawRhs))
        self._write_slot(slot, value)

    def _host_rhs(self, stmt: LetStmt) -> Value:
        """The value a host `let` binds; None leaves the new slot uninitialized."""
        frame = self._thread.frames[-1]
        rhs = stmt.rhs
        if isinstance(rhs, UninitRhs):
            return None
        if isinstance(rhs, LiteralRhs):
            return self._bind_reference(rhs.value, stmt.type, stmt.name)
        if isinstance(rhs, PlaceRhs):
            if not (rhs.place.deref or rhs.place.steps):
                value, _ = self._eval_operand(rhs.place.base)
                return self._bind_reference(value, stmt.type, stmt.name)
            src_ptr, src_ty = self._resolve_place(rhs.place)
            base = frame.slots.get(rhs.place.base)
            if (
                rhs.place.deref
                and base is not None
                and isinstance(base.type, PtrType)
                and base.type.kind is PtrKind.OPAQUE
                and size_of(src_ty) != size_of(stmt.type)
            ):
                raise UbError(
                    DiagnosticKind.INVALID_BINDING,
                    f"load through untyped pointer '{rhs.place.base}' resolves to "
                    f"{size_of(src_ty)} bytes, destination '{stmt.name}' holds "
                    f"{size_of(stmt.type)}",
                )
            value = self._typed_read(src_ptr, src_ty)
            return self._bind_reference(value, stmt.type, stmt.name)
        if isinstance(rhs, BorrowRhs):
            ptr, ty = self._resolve_place(rhs.place)
            return self._retag(ptr, ty, rhs.kind.value, stmt.name)
        if isinstance(rhs, CastRhs):
            return self._cast(rhs.source, stmt.type, stmt.name)
        if isinstance(rhs, OffsetRhs):
            return self._offset(rhs)
        if isinstance(rhs, CellGetRhs):
            src_ptr, src_ty = self._resolve_place(rhs.place)
            if not isinstance(src_ty, CellType):
                raise ScenarioUnsupported(".get() on a place that is not interior-mutable")
            return self._retag(src_ptr, src_ty.inner, "cell", stmt.name)
        if isinstance(rhs, HeapNewRhs):
            return self._heap_new(stmt.name, rhs)
        if isinstance(rhs, HeapIntoRawRhs):
            src = frame.slots.get(rhs.source)
            if src is None or not src.owning:
                raise ScenarioUnsupported(f"'{rhs.source}' is not an owned heap value")
            box = self._read_slot(src)
            src.moved = True
            return box
        if isinstance(rhs, HeapFromRawRhs):
            value, _ = self._eval_operand(rhs.source)
            if not isinstance(value, PointerValue):
                raise ScenarioUnsupported("heap_from_raw needs a pointer value")
            if value.alloc_id is None:
                raise UbError(
                    DiagnosticKind.ACCESS_OUT_OF_BOUNDS,
                    f"heap_from_raw of 0x{value.address:x}, which points into no live allocation",
                    address=value.address,
                )
            if not self.config.unique_as_mutable:
                return value
            pointee = stmt.type.pointee if isinstance(stmt.type, PtrType) else None
            if pointee is None:
                # An untyped pointer reclaims the whole allocation.
                pointee = ArrayType(U8, self.memory.allocations[value.alloc_id].size)
            return self._retag(value, pointee, "mutable-ref", stmt.name)
        raise ScenarioUnsupported(f"host let cannot evaluate {type(rhs).__name__}")

    def _bind_reference(self, value: Value, ty: TypeDesc, name: str, protect: bool = False) -> Value:
        """`value` retagged if local or parameter `name` of type `ty` is a reference.

        SB retags every reference assignment, a call's result included, and
        every reference argument at function entry, with a protector
        (Stacked Borrows' function-entry retag, Jung et al., POPL 2020; Miri
        applies it to every reference argument). An integer reads as a
        pointer with no provenance, as it would from a raw pointer slot, so
        the retag rejects it.
        """
        if not is_reference(ty) or not isinstance(value, (int, PointerValue)):
            return value
        if isinstance(value, int):
            value = no_provenance(value)
        return self._retag(value, ty.pointee, ty.kind.value, name, protect)

    def _heap_new(self, name: str, rhs: HeapNewRhs) -> PointerValue:
        layout = layout_of(rhs.type)
        base = self.memory.base_pointer(self.memory.allocate(
            layout.size, max(layout.align, 1), AllocOrigin.HOST_HEAP, f"{name} (alloc)"
        ))
        if rhs.init == "zeroed":
            self.memory.memset(base, 0, layout.size)
        elif isinstance(rhs.init, int):
            self._typed_write_value(base, rhs.type, rhs.init)
        if self.config.unique_as_mutable:
            base = self._retag(base, rhs.type, "mutable-ref", name)
        return base

    def _cast(self, source: str, target: TypeDesc, label: str) -> Value:
        value, src_ty = self._eval_operand(source)
        if not isinstance(src_ty, (IntType, PtrType)) or not isinstance(target, (IntType, PtrType)):
            raise ScenarioUnsupported(f"no cast from {src_ty} to {target}")
        if isinstance(src_ty, PtrType) and isinstance(target, PtrType):
            raw = target.kind in (PtrKind.RAW_MUT, PtrKind.RAW_CONST)
            if is_reference(src_ty) and raw and value.alloc_id is not None:
                return self._retag(value, src_ty.pointee, target.kind.value, label)
            if is_reference(target):
                raise ScenarioUnsupported("casts cannot create references")
        elif (isinstance(src_ty, PtrType) or isinstance(target, PtrType)) and size_of(src_ty) != size_of(target):
            raise ScenarioUnsupported("pointer addresses only fit 8-byte integers")
        return self._convert(value, target)

    def _offset(self, rhs: OffsetRhs) -> PointerValue:
        value, src_ty = self._eval_operand(rhs.source)
        count, _ = self._eval_operand(rhs.count)
        if not isinstance(value, PointerValue) or not isinstance(src_ty, PtrType):
            raise ScenarioUnsupported("offset() applies to pointer values")
        if not isinstance(count, int):
            raise ScenarioUnsupported("offset() count must be an integer")
        elem = self._pointee(src_ty, value)
        return value.with_byte_offset(count * max(size_of(elem), 1))

    def _assert_eq(self, stmt: AssertEqStmt) -> None:
        left, _ = self._eval_operand(stmt.left)
        right, _ = self._eval_operand(stmt.right)
        if self._plain(left) != self._plain(right):
            raise UbError(
                DiagnosticKind.ASSERTION_FAILED,
                f"assertion failed: {self._show(left)} != {self._show(right)}",
            )

    @staticmethod
    def _plain(v: Value):
        # Pointers compare by address so a round-tripped pointer can be
        # checked against the integer it was cast to.
        if isinstance(v, PointerValue):
            return v.address
        if isinstance(v, Blob):
            return ("blob", v.values)
        return v

    @staticmethod
    def _show(v: Value) -> str:
        if isinstance(v, PointerValue):
            return f"0x{v.address:x}"
        if isinstance(v, Blob):
            return f"<{len(v.values)}-byte value>"
        return str(v)

    def _do_return(self, value: Value) -> None:
        """Pop the frame and hand `value` to its caller."""
        thread = self._thread
        callee = self._exit_frame()
        if not thread.frames:
            for t in self.threads:
                if t.waiting_on == thread.id:
                    t.waiting_on = None
            self._status_changed()
            return
        caller = thread.frames[-1]
        call: CallStmt = caller.fn.body[caller.pc - 1]  # the call that pushed `callee`
        if caller.fn.dialect is Dialect.FOREIGN:
            if call.dest is not None:
                # The callee is a host function, whose missing result lands as 0.
                caller.regs[call.dest] = 0 if value is None else value
            return
        if callee.fn.dialect is Dialect.FOREIGN:
            ret = self.program.binding(call.callee).ret
            if isinstance(ret, UnitType):
                value = None  # the binding declares no result
            else:
                value = self._to_host(
                    value, ret, "foreign call returned a value derived from uninitialized memory"
                )
        if call.dest is not None:
            # The result lands at the call, not at the callee's return. Retag
            # before the slot exists, so its root tag is numbered after the result's.
            self.memory.line = call.line
            value = self._bind_reference(value, call.dest_type, call.dest)
            slot = self._new_slot(caller, call.dest, call.dest_type)
            self._write_slot(slot, value)

    # ---- calls ---------------------------------------------------------------

    def _host_call(self, stmt: CallStmt) -> None:
        binding = self.program.bindings_by_name.get(stmt.callee)
        if binding is None:
            callee = self.program.function(stmt.callee)
            args = self._host_args(stmt, callee)
            self._thread.frames.append(self._make_host_frame(callee, args))
            return
        self._call_foreign(stmt, binding)

    def _host_args(self, stmt: Union[CallStmt, SpawnStmt], callee: FnDef) -> list[Value]:
        """The arguments `stmt` passes to host function `callee`, checked against its parameters."""
        args = [self._check_host_arg(a, p.type) for a, p in zip(stmt.args, callee.params)]
        if len(stmt.args) != len(callee.params):
            what = "spawn of" if isinstance(stmt, SpawnStmt) else "call to"
            raise ScenarioUnsupported(
                f"{what} '{callee.name}' passes {len(stmt.args)} arguments, "
                f"it takes {len(callee.params)}"
            )
        return args

    def _check_host_arg(self, op: Operand, want: TypeDesc) -> Value:
        value, ty = self._eval_operand(op)
        if isinstance(op, int):
            return value
        if not assignable(ty, want):
            raise ScenarioUnsupported(f"argument of type {ty} where {want} is expected")
        return value

    def _call_foreign(self, stmt: CallStmt, binding) -> None:
        callee = self.program.function(binding.target)
        if len(stmt.args) < len(binding.params) or (
            len(stmt.args) > len(binding.params) and not binding.variadic
        ):
            raise UbError(
                DiagnosticKind.INVALID_BINDING,
                f"call passes {len(stmt.args)} arguments, binding '{binding.name}' "
                f"declares {len(binding.params)}",
            )
        regs: list[Value] = []
        for arg_plan, op in zip(plan_call(binding, callee), stmt.args):
            value = self._check_host_arg(op, arg_plan.source)
            regs.extend(self._outbound(arg_plan, value))
        for op in stmt.args[len(binding.params):]:
            value, ty = self._eval_operand(op)
            regs.extend(self._outbound(plan_variadic_arg(ty), value))
        frame = _Frame(fn=callee)
        for param, reg in zip(callee.params, regs):
            frame.regs[param.name] = reg
        # Extras land as vararg0, vararg1, ... in caller order.
        for i, reg in enumerate(regs[len(callee.params):]):
            frame.regs[f"vararg{i}"] = reg
        self._thread.frames.append(frame)

    def _outbound(self, plan: ArgPlan, value: Value) -> list[Value]:
        """The registers one host argument fills on the foreign side."""
        if len(plan.targets) > 1:
            # Only a homogeneous aggregate without padding flattens, so its
            # fields sit at a fixed stride.
            values = self._convert(value, plan.source).values
            width = len(values) // len(plan.targets)
            return [
                self._convert(Blob(values[i * width : (i + 1) * width]), target)
                for i, target in enumerate(plan.targets)
            ]
        if value is None:
            # A host read of uninitialized memory raises, so this is a unit,
            # which has no bytes; it lands as 0, as a missing host result does.
            return [0]
        if isinstance(value, int) and isinstance(plan.source, PtrType):
            # A literal where the binding declares a pointer is an address
            # without provenance, not an integer to rehydrate.
            value = no_provenance(value)
        return [self._convert(value, plan.targets[0])]

    def _convert(self, value: Value, target: TypeDesc) -> Value:
        """`value` as a value of type `target` on the other side of a crossing.

        Every crossing converts here: bound arguments and returns, callback
        arguments and integer/pointer casts. The result is None, uninitialized,
        when `value` is, or when it reads uninitialized bytes of a by-value
        aggregate under permissive loads.
        """
        if value is None:
            return None
        if isinstance(target, IntType):
            if isinstance(value, PointerValue):
                if target.size != 8:
                    raise UbError(
                        DiagnosticKind.INVALID_BINDING,
                        f"pointer crosses into {target.size}-byte integer {target}: "
                        f"only 8-byte integers carry addresses",
                    )
                return self.memory.expose(value)
            if not isinstance(value, Blob):
                return reinterpret(value, target)
            if len(value.values) != target.size:
                raise UbError(
                    DiagnosticKind.INVALID_BINDING,
                    f"{len(value.values)}-byte aggregate crosses into {target.size}-byte {target}",
                )
            if None in value.values:
                if self.config.permissive_foreign_loads:
                    return None
                raise UbError(
                    DiagnosticKind.UNINITIALIZED_READ,
                    f"by-value crossing reads uninitialized byte "
                    f"{value.values.index(None)} of an aggregate",
                )
            return reinterpret(int.from_bytes(bytes(value.values), "little"), target)
        if isinstance(target, PtrType):
            return self._reg_pointer(value)
        if isinstance(target, CellType):
            return self._convert(value, target.inner)
        if isinstance(target, (StructType, ArrayType)):
            size = size_of(target)
            if isinstance(value, int):
                return Blob(list((value % (1 << (8 * size))).to_bytes(size, "little")))
            if not isinstance(value, Blob):
                raise ScenarioUnsupported(f"a pointer cannot cross into aggregate {target}")
            if len(value.values) != size:
                raise UbError(
                    DiagnosticKind.INVALID_BINDING,
                    f"{len(value.values)}-byte aggregate crosses into {size}-byte {target}",
                )
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

    # ---- foreign execution ---------------------------------------------------

    def _exec_foreign(self, stmt: Stmt) -> None:
        if isinstance(stmt, LetStmt):
            self._thread.frames[-1].regs[stmt.name] = self._foreign_let(stmt)
        elif isinstance(stmt, StoreStmt):
            size = size_of(stmt.type)
            if size not in (1, 2, 4, 8):
                raise ScenarioUnsupported(f"foreign store of {size}-byte type {stmt.type}")
            ptr = self._reg_pointer(self._foreign_operand(stmt.pointer))
            value = self._foreign_operand(stmt.value)
            if value is None:
                # A value derived from uninitialized memory stays
                # uninitialized when written back.
                self.memory.write_uninit(ptr, size)
            elif isinstance(value, PointerValue) and size == 8:
                self.memory.write_pointer(ptr, value)
            else:
                self.memory.write_int(ptr, size, reinterpret(self._reg_int(value), IntType(8 * size, False)))
        elif isinstance(stmt, FreeStmt):
            ptr = self._reg_pointer(self._foreign_operand(stmt.pointer))
            self.memory.deallocate(ptr, "foreign")
        elif isinstance(stmt, MemsetStmt):
            ptr = self._reg_pointer(self._foreign_operand(stmt.pointer))
            value = self._reg_int(self._foreign_operand(stmt.value))
            size = self._reg_int(self._foreign_operand(stmt.size))
            self.memory.memset(ptr, value, size)
        elif isinstance(stmt, MemcpyStmt):
            dest = self._reg_pointer(self._foreign_operand(stmt.dest))
            src = self._reg_pointer(self._foreign_operand(stmt.src))
            size = self._reg_int(self._foreign_operand(stmt.size))
            self.memory.memcpy(dest, src, size)
        elif isinstance(stmt, CallStmt):
            self._foreign_call(stmt)
        elif isinstance(stmt, ReturnStmt):
            value = None if stmt.value is None else self._foreign_operand(stmt.value)
            self._do_return(value)
        else:
            raise ScenarioUnsupported(f"statement not executable in foreign code: {stmt!r}")

    def _foreign_let(self, stmt: LetStmt) -> Value:
        rhs = stmt.rhs
        if isinstance(rhs, LiteralRhs):
            return rhs.value
        if isinstance(rhs, PlaceRhs):
            return self._foreign_operand(rhs.place.base)
        if isinstance(rhs, LoadRhs):
            ptr = self._reg_pointer(self._foreign_operand(rhs.pointer))
            if not isinstance(rhs.type, (IntType, PtrType)):
                raise ScenarioUnsupported(f"foreign load of type {rhs.type}")
            return self._typed_read(ptr, rhs.type, self.config.permissive_foreign_loads)
        if isinstance(rhs, (MallocRhs, AllocaRhs)):
            value = self._foreign_operand(rhs.size)
            size = self._reg_int(value)
            heap = isinstance(rhs, MallocRhs)
            if isinstance(value, PointerValue):
                raise ScenarioUnsupported(f"{'malloc' if heap else 'alloca'} sized by a pointer register")
            if size < 0:
                raise ScenarioUnsupported(f"{'malloc' if heap else 'alloca'} of {size} bytes")
            origin = AllocOrigin.FOREIGN_HEAP if heap else AllocOrigin.FOREIGN_STACK
            alloc = self.memory.allocate(size, 16, origin, stmt.name)
            if not heap:
                self._thread.frames[-1].stack_allocs.append(alloc.id)
            return self.memory.base_pointer(alloc)
        if isinstance(rhs, GepRhs):
            value = self._foreign_operand(rhs.pointer)
            off = self._reg_int(self._foreign_operand(rhs.offset))
            return self._reg_pointer(value).with_byte_offset(off)
        raise ScenarioUnsupported(f"foreign let cannot evaluate {type(rhs).__name__}")

    def _foreign_call(self, stmt: CallStmt) -> None:
        callee = self.program.function(stmt.callee)
        if len(stmt.args) != len(callee.params):
            raise UbError(
                DiagnosticKind.INVALID_BINDING,
                f"callback '{callee.name}' takes {len(callee.params)} parameters, "
                f"call passes {len(stmt.args)}",
            )
        args = [
            self._to_host(
                self._foreign_operand(op), param.type,
                "value derived from uninitialized memory passed into host code",
            )
            for op, param in zip(stmt.args, callee.params)
        ]
        self._thread.frames.append(self._make_host_frame(callee, args))


def run_program(program: ScenarioProgram, config: Optional[MachineConfig] = None) -> Outcome:
    return Machine(program, config).run()
