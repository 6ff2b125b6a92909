"""Statement-level IR for scenario programs.

Two dialects share this IR. Host statements may borrow, retag, and own heap
values; foreign statements see raw memory only (loads, stores, malloc/free,
byte offsets). Which forms are legal in which dialect is enforced by the
parser's grammar, not here.

Equality is structural and ignores source positions so that a parsed program
compares equal to the parse of its own rendering.

Statements, right-hand sides, places and the parameter, function, binding,
expectation and program records are mutable slotted records, the cheapest a
parse can build: they compare structurally, are never hashed, and nothing
writes them after parsing, except that the machine hangs its lowering off a
program (`ScenarioProgram.lowered`). Types are frozen and compare and hash
structurally; each keeps its own layout once `types.layout_of` has worked
it out, and the parser interns each one once per parse (see `parser`), so
a type written many times is laid out once. Operands are plain ints and
strings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from .diagnostics import OutcomeTag
from .types import PtrKind, StructType, TypeDesc


class Dialect(enum.Enum):
    HOST = "host"
    FOREIGN = "foreign"


@dataclass(slots=True)
class Place:
    """A path to a memory location: optional deref, then field/index steps.

    `deref` records that `*` was written. Steps after a pointer-typed base
    also read through it; the machine decides that from the local's type at
    run time, so `p.f` and `*p.f` reach the same location.
    """

    base: str
    deref: bool = False
    steps: tuple[Union[str, int], ...] = ()

    def __str__(self) -> str:
        text = f"*{self.base}" if self.deref else self.base
        for s in self.steps:
            text += f"[{s}]" if isinstance(s, int) else f".{s}"
        return text


Operand = Union[int, str]  # integer literal or local name


# ---- right-hand sides for `let` ----------------------------------------------


@dataclass(slots=True)
class LiteralRhs:
    value: int


@dataclass(slots=True)
class UninitRhs:
    pass


@dataclass(slots=True)
class ZeroedRhs:
    pass


@dataclass(slots=True)
class PlaceRhs:
    place: Place


@dataclass(slots=True)
class BorrowRhs:
    kind: PtrKind  # of the pointer the borrow makes; never OPAQUE
    place: Place


@dataclass(slots=True)
class CastRhs:
    source: str


@dataclass(slots=True)
class OffsetRhs:
    source: str
    count: Operand  # element count, scaled by pointee size


@dataclass(slots=True)
class CellGetRhs:
    place: Place


@dataclass(slots=True)
class HeapNewRhs:
    type: TypeDesc
    init: Optional[Union[int, str]] = None  # literal, "zeroed", or None for uninit


@dataclass(slots=True)
class HeapIntoRawRhs:
    source: str


@dataclass(slots=True)
class HeapFromRawRhs:
    source: str


@dataclass(slots=True)
class LoadRhs:
    type: TypeDesc
    pointer: str


@dataclass(slots=True)
class MallocRhs:
    size: Operand


@dataclass(slots=True)
class AllocaRhs:
    size: Operand


@dataclass(slots=True)
class GepRhs:
    pointer: str
    offset: Operand  # byte offset


Rhs = Union[
    LiteralRhs,
    UninitRhs,
    ZeroedRhs,
    PlaceRhs,
    BorrowRhs,
    CastRhs,
    OffsetRhs,
    CellGetRhs,
    HeapNewRhs,
    HeapIntoRawRhs,
    HeapFromRawRhs,
    LoadRhs,
    MallocRhs,
    AllocaRhs,
    GepRhs,
]


# ---- statements --------------------------------------------------------------


@dataclass(slots=True)
class Stmt:
    line: int = field(compare=False, kw_only=True, default=0)


@dataclass(slots=True)
class LetStmt(Stmt):
    name: str
    type: Optional[TypeDesc]  # None in foreign code, whose locals are untyped registers
    rhs: Rhs


@dataclass(slots=True)
class WriteStmt(Stmt):
    """`PLACE = operand`, a typed write through the place's tag."""

    place: Place
    value: Operand


@dataclass(slots=True)
class StoreStmt(Stmt):
    """Foreign `store TYPE ptr value`."""

    type: TypeDesc
    pointer: str
    value: Operand


@dataclass(slots=True)
class CallStmt(Stmt):
    callee: str  # binding name for foreign targets, function name for host
    args: tuple[Operand, ...]
    dest: Optional[str] = None
    dest_type: Optional[TypeDesc] = None


@dataclass(slots=True)
class SpawnStmt(Stmt):
    handle: str
    callee: str
    args: tuple[Operand, ...]


@dataclass(slots=True)
class JoinStmt(Stmt):
    handle: str


@dataclass(slots=True)
class ReturnStmt(Stmt):
    value: Optional[Operand] = None


@dataclass(slots=True)
class AssertEqStmt(Stmt):
    left: Operand
    right: Operand


@dataclass(slots=True)
class AssumeInitStmt(Stmt):
    place: Place


@dataclass(slots=True)
class FreeStmt(Stmt):
    pointer: str


@dataclass(slots=True)
class MemsetStmt(Stmt):
    pointer: str
    value: Operand
    size: Operand


@dataclass(slots=True)
class MemcpyStmt(Stmt):
    dest: str
    src: str
    size: Operand


# ---- program structure -------------------------------------------------------


@dataclass(slots=True)
class Param:
    name: str
    type: TypeDesc


@dataclass(slots=True)
class FnDef:
    name: str
    dialect: Dialect
    params: tuple[Param, ...]
    ret: TypeDesc
    body: tuple[Stmt, ...]
    variadic: bool = False
    line: int = field(compare=False, kw_only=True, default=0)


@dataclass(slots=True)
class BindingSignature:
    """A host caller's declared view of a foreign function.

    Deliberately unchecked against the definition at declaration time; the
    boundary translation validates each use.
    """

    name: str        # name used at call sites
    target: str      # foreign function it claims to describe
    params: tuple[TypeDesc, ...]
    ret: TypeDesc
    variadic: bool = False
    line: int = field(compare=False, kw_only=True, default=0)


@dataclass(slots=True)
class Expectation:
    outcome: OutcomeTag
    model: Optional[str] = None  # "tb", "sb", or None for both


@dataclass(slots=True)
class ScenarioProgram:
    path: str = field(compare=False)
    types: tuple[StructType, ...]
    functions: tuple[FnDef, ...]
    bindings: tuple[BindingSignature, ...]
    expectations: tuple[Expectation, ...] = ()
    tags: tuple[str, ...] = ()
    # Name -> first definition of that name, built once per program so that a
    # call finds its callee without a scan; not part of equality or repr.
    functions_by_name: dict[str, FnDef] = field(init=False, compare=False, repr=False)
    bindings_by_name: dict[str, BindingSignature] = field(init=False, compare=False, repr=False)
    lowered: object = field(init=False, default=None, compare=False, repr=False)  # the machine's, see `machine`

    def __post_init__(self) -> None:
        # A dict keeps the last value given for a key, so build each from the end.
        self.functions_by_name = {f.name: f for f in reversed(self.functions)}
        self.bindings_by_name = {b.name: b for b in reversed(self.bindings)}

    def function(self, name: str) -> FnDef:
        return self.functions_by_name[name]

    def binding(self, name: str) -> BindingSignature:
        return self.bindings_by_name[name]

    @property
    def entry(self) -> FnDef:
        return self.function("main")

    def expectation_for(self, model: str) -> Optional[OutcomeTag]:
        specific = None
        general = None
        for e in self.expectations:
            if e.model == model:
                specific = e.outcome
            elif e.model is None:
                general = e.outcome
        return specific if specific is not None else general
