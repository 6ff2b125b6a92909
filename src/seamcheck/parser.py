"""Line-oriented parser for the scenario language.

A scenario file contains, in any order: `type` blocks, `host fn` and
`foreign fn` blocks, `bind` declarations, `expect` annotations, and `tag`
labels. Comments run from `#` to end of line. Statements are one per line;
blocks close with `end`.

The grammar enforces the dialect rules: `let`, `call` and `return` share
one rule across both dialects, and every other statement and right-hand
side belongs to one dialect's rules only, so borrows, heap ownership and
threads parse only in host code and loads, stores and manual allocation
only in foreign code. The parser resolves struct names as it goes (declare
before use) but knows no local's type: a place records only the `*` that
was written, and the machine decides at run time whether steps read through
a pointer local. A validation pass then checks names: one definition per
function and binding, a host `main` without parameters, and call and spawn
targets of the right dialect.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Optional, Union

from .ir import (
    AllocaRhs,
    AssertEqStmt,
    AssumeInitStmt,
    BindingSignature,
    BorrowRhs,
    CallStmt,
    CastRhs,
    CellGetRhs,
    Dialect,
    Expectation,
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
    OutcomeTag,
    Param,
    Place,
    PlaceRhs,
    ReturnStmt,
    Rhs,
    ScenarioProgram,
    SpawnStmt,
    Stmt,
    StoreStmt,
    UninitRhs,
    WriteStmt,
    ZeroedRhs,
)
from .types import (
    UNIT,
    ArrayType,
    CellType,
    FieldDef,
    IntType,
    LayoutError,
    PhantomType,
    PtrKind,
    PtrType,
    StructType,
    TypeDesc,
    layout_of,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 0) -> None:
        super().__init__(f"line {line}: {message}" if col == 0 else f"line {line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<arrow>->)
  | (?P<ellipsis>\.\.\.)
  | (?P<int>-?0x[0-9a-fA-F]+|-?\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()\[\]{}:,.*&=@;-])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_SCALARS: dict[str, TypeDesc] = {
    "i8": IntType(8, True),
    "i16": IntType(16, True),
    "i32": IntType(32, True),
    "i64": IntType(64, True),
    "u8": IntType(8, False),
    "u16": IntType(16, False),
    "u32": IntType(32, False),
    "u64": IntType(64, False),
    "isize": IntType(64, True),
    "usize": IntType(64, False),
    "bool": IntType(8, False),
    "unit": UNIT,
}

# A token is (kind, text, column). Every line ends in `_EOL`, whose column 0
# makes an error at the end of a line carry no column.
Token = tuple[str, str, int]
_EOL: Token = ("eol", "end of line", 0)


def _tokenize(text: str, line: int) -> list[Token]:
    out: list[Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, m.start() + 1)
        out.append((kind, m.group(), m.start() + 1))
    out.append(_EOL)
    return out


class _Line:
    """Token cursor over one logical line."""

    def __init__(self, toks: list[Token], line: int) -> None:
        self.toks = toks
        self.line = line
        self.i = 0

    def peek(self) -> Token:
        return self.toks[self.i]

    def at(self, text: str) -> bool:
        return self.toks[self.i][1] == text

    def at_pair(self, first: str, second: str) -> bool:
        # A token that matches `first` is not `_EOL`, so another follows it.
        return self.toks[self.i][1] == first and self.toks[self.i + 1][1] == second

    def at_end(self) -> bool:
        return self.toks[self.i] is _EOL

    def accept(self, text: str) -> bool:
        """Take the next token if it reads `text`."""
        if self.toks[self.i][1] == text:
            self.i += 1
            return True
        return False

    def take(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def need(self, missing: str) -> Token:
        """The next token; at the end of the line, a ParseError saying `missing`."""
        t = self.toks[self.i]
        if t is _EOL:
            raise ParseError(missing, self.line)
        return t

    def expected(self, what: str) -> ParseError:
        _, text, col = self.toks[self.i]
        return ParseError(f"expected {what}, found {text!r}", self.line, col)

    def expect(self, text: str) -> Token:
        if self.toks[self.i][1] != text:
            raise self.expected(repr(text))
        return self.take()

    def ident(self, what: str = "name") -> str:
        kind, text, _ = self.toks[self.i]
        if kind != "ident":
            raise self.expected(what)
        self.i += 1
        return text

    def integer(self) -> int:
        kind, text, _ = self.toks[self.i]
        if kind != "int":
            raise self.expected("integer")
        self.i += 1
        return int(text, 0)

    def rest(self) -> str:
        """The tokens left on the line, joined without spaces."""
        words = "".join(t[1] for t in self.toks[self.i : -1])
        self.i = len(self.toks) - 1
        return words

    def done(self) -> None:
        t = self.toks[self.i]
        if t is not _EOL:
            raise ParseError(f"trailing input starting at {t[1]!r}", self.line, t[2])


class _Parser:
    def __init__(self, text: str, path: str) -> None:
        self.path = path
        self.lines: list[tuple[int, str]] = []
        for n, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].strip()
            if body:
                self.lines.append((n, body))
        self.pos = 0
        self.structs: dict[str, StructType] = {}
        self.struct_order: list[StructType] = []
        self.functions: list[FnDef] = []
        self.bindings: list[BindingSignature] = []
        self.expectations: list[Expectation] = []
        self.tags: list[str] = []

    def _next_line(self) -> Optional[_Line]:
        if self.pos >= len(self.lines):
            return None
        n, body = self.lines[self.pos]
        self.pos += 1
        return _Line(_tokenize(body, n), n)

    def _block(self, head: _Line, what: str) -> Iterator[_Line]:
        """The lines of the block opened by `head`, up to its `end`."""
        while True:
            ln = self._next_line()
            if ln is None:
                raise ParseError(f"{what} never closed with 'end'", head.line)
            if ln.accept("end"):
                ln.done()
                return
            yield ln

    # ---- types ---------------------------------------------------------------

    def parse_type(self, ln: _Line) -> TypeDesc:
        kind, text, col = ln.need("expected a type")
        if ln.accept("&"):
            if ln.accept("mut"):
                return PtrType(PtrKind.MUT_REF, self.parse_type(ln))
            return PtrType(PtrKind.SHARED_REF, self.parse_type(ln))
        if ln.accept("*"):
            if ln.accept("mut"):
                return PtrType(PtrKind.RAW_MUT, self.parse_type(ln))
            if ln.accept("const"):
                return PtrType(PtrKind.RAW_CONST, self.parse_type(ln))
            raise ParseError("raw pointer needs 'mut' or 'const'", ln.line, col)
        if ln.accept("["):
            elem = self.parse_type(ln)
            ln.expect(";")
            count = ln.integer()
            ln.expect("]")
            return ArrayType(elem, count)
        if kind == "ident":
            ln.take()
            if text == "ptr":
                return PtrType(PtrKind.OPAQUE, None)
            if text in ("cell", "phantom"):
                ln.expect("(")
                inner = self.parse_type(ln)
                ln.expect(")")
                return CellType(inner) if text == "cell" else PhantomType(inner)
            if text in _SCALARS:
                return _SCALARS[text]
            if text in self.structs:
                return self.structs[text]
            raise ParseError(f"unknown type '{text}'", ln.line, col)
        raise ln.expected("a type")

    def _parse_type_block(self, ln: _Line) -> None:
        name = ln.ident("type name")
        ln.done()
        if name in self.structs or name in _SCALARS:
            raise ParseError(f"type '{name}' already defined", ln.line)
        fields: list[FieldDef] = []
        for fl in self._block(ln, f"type '{name}'"):
            fname = fl.ident("field name")
            fl.expect(":")
            ftype = self.parse_type(fl)
            offset = None
            if fl.accept("@"):
                offset = fl.integer()
            fl.done()
            fields.append(FieldDef(fname, ftype, offset))
        struct = StructType(name, tuple(fields))
        try:
            layout_of(struct)
        except LayoutError as e:
            raise ParseError(str(e), ln.line) from None
        self.structs[name] = struct
        self.struct_order.append(struct)

    # ---- places and operands -------------------------------------------------

    def parse_place(self, ln: _Line) -> Place:
        deref = ln.accept("*")
        base = ln.ident("place")
        steps: list[Union[str, int]] = []
        while True:
            if ln.at("."):
                kind, text, _ = ln.toks[ln.i + 1]
                # `.get(` and `.offset(` are method forms, not field steps.
                if kind != "ident" or text in ("get", "offset") and ln.toks[ln.i + 2][1] == "(":
                    break
                ln.i += 2
                steps.append(text)
            elif ln.accept("["):
                steps.append(ln.integer())
                ln.expect("]")
            else:
                break
        return Place(base, deref, tuple(steps))

    def parse_operand(self, ln: _Line) -> Operand:
        if ln.need("expected a value")[0] == "int":
            return ln.integer()
        return ln.ident("value")

    def _parse_args(self, ln: _Line) -> tuple[Operand, ...]:
        ln.expect("(")
        args: list[Operand] = []
        if not ln.at(")"):
            while True:
                args.append(self.parse_operand(ln))
                if not ln.accept(","):
                    break
        ln.expect(")")
        return tuple(args)

    # ---- statements ----------------------------------------------------------

    def _parse_stmt(self, ln: _Line, host: bool) -> Stmt:
        if ln.accept("let"):
            stmt = self._parse_let(ln, host)
        elif ln.accept("call"):
            stmt = self._parse_call(ln)
        elif ln.accept("return"):
            stmt = ReturnStmt(None if ln.at_end() else self.parse_operand(ln), line=ln.line)
        elif host:
            stmt = self._parse_host_stmt(ln)
        else:
            stmt = self._parse_foreign_stmt(ln)
        ln.done()
        return stmt

    def _parse_call(
        self, ln: _Line, dest: Optional[str] = None, dest_type: Optional[TypeDesc] = None
    ) -> CallStmt:
        callee = ln.ident("function name")
        args = self._parse_args(ln)
        return CallStmt(callee, args, dest=dest, dest_type=dest_type, line=ln.line)

    def _parse_let(self, ln: _Line, host: bool) -> Stmt:
        """`let NAME: TYPE = RHS` in host code, `let NAME = RHS` in foreign code."""
        name = ln.ident()
        ty = None
        if host:
            ln.expect(":")
            ty = self.parse_type(ln)
        ln.expect("=")
        if ln.accept("call"):
            return self._parse_call(ln, name, ty)
        if host:
            return LetStmt(name, ty, self._parse_host_rhs(ln, ty), line=ln.line)
        return LetStmt(name, None, self._parse_foreign_rhs(ln), line=ln.line)

    def _parse_host_rhs(self, ln: _Line, ty: TypeDesc) -> Rhs:
        kind, text, _ = ln.need("missing right-hand side")
        if kind == "int":
            return LiteralRhs(ln.integer())
        if ln.accept("&"):
            if ln.accept("raw"):
                if ln.accept("mut"):
                    return BorrowRhs(PtrKind.RAW_MUT, self.parse_place(ln))
                ln.expect("const")
                return BorrowRhs(PtrKind.RAW_CONST, self.parse_place(ln))
            if ln.accept("mut"):
                return BorrowRhs(PtrKind.MUT_REF, self.parse_place(ln))
            return BorrowRhs(PtrKind.SHARED_REF, self.parse_place(ln))
        if ln.accept("uninit"):
            return UninitRhs()
        if ln.accept("zeroed"):
            return ZeroedRhs()
        if ln.accept("heap_new"):
            heap_ty = self.parse_type(ln)
            if ln.accept("zeroed"):
                return HeapNewRhs(heap_ty, "zeroed")
            if ln.peek()[0] == "int":
                return HeapNewRhs(heap_ty, ln.integer())
            return HeapNewRhs(heap_ty, None)
        if ln.accept("heap_into_raw"):
            return HeapIntoRawRhs(ln.ident())
        if ln.accept("heap_from_raw"):
            return HeapFromRawRhs(ln.ident())
        # Remaining forms start with an identifier: cast, offset, get, or place.
        if kind == "ident":
            ln.take()
            if ln.accept("as"):
                target = self.parse_type(ln)
                ln.done()
                if target != ty:
                    raise ParseError(
                        f"cast target {target} disagrees with declared type {ty}", ln.line
                    )
                return CastRhs(text)
            if ln.at_pair(".", "offset"):
                ln.i += 2
                ln.expect("(")
                count = self.parse_operand(ln)
                ln.expect(")")
                return OffsetRhs(text, count)
            ln.i -= 1
        place = self.parse_place(ln)
        if ln.at_pair(".", "get"):
            ln.i += 2
            ln.expect("(")
            ln.expect(")")
            return CellGetRhs(place)
        return PlaceRhs(place)

    def _parse_host_stmt(self, ln: _Line) -> Stmt:
        n = ln.line
        if ln.accept("assume_init"):
            return AssumeInitStmt(self.parse_place(ln), line=n)
        if ln.accept("assert_eq"):
            left = self.parse_operand(ln)
            return AssertEqStmt(left, self.parse_operand(ln), line=n)
        if ln.accept("spawn"):
            handle = ln.ident("handle")
            ln.expect("=")
            callee = ln.ident("function name")
            return SpawnStmt(handle, callee, self._parse_args(ln), line=n)
        if ln.accept("join"):
            return JoinStmt(ln.ident("handle"), line=n)
        place = self.parse_place(ln)
        ln.expect("=")
        return WriteStmt(place, self.parse_operand(ln), line=n)

    def _parse_foreign_rhs(self, ln: _Line) -> Rhs:
        if ln.need("missing right-hand side")[0] == "int":
            return LiteralRhs(ln.integer())
        if ln.accept("load"):
            ty = self.parse_type(ln)
            return LoadRhs(ty, ln.ident("pointer"))
        if ln.accept("malloc"):
            return MallocRhs(self.parse_operand(ln))
        if ln.accept("alloca"):
            return AllocaRhs(self.parse_operand(ln))
        if ln.accept("gep"):
            ptr = ln.ident("pointer")
            return GepRhs(ptr, self.parse_operand(ln))
        return PlaceRhs(Place(ln.ident("value")))

    def _parse_foreign_stmt(self, ln: _Line) -> Stmt:
        n = ln.line
        if ln.accept("store"):
            ty = self.parse_type(ln)
            ptr = ln.ident("pointer")
            return StoreStmt(ty, ptr, self.parse_operand(ln), line=n)
        if ln.accept("free"):
            return FreeStmt(ln.ident("pointer"), line=n)
        if ln.accept("memset"):
            ptr = ln.ident("pointer")
            value = self.parse_operand(ln)
            return MemsetStmt(ptr, value, self.parse_operand(ln), line=n)
        if ln.accept("memcpy"):
            dest = ln.ident("pointer")
            src = ln.ident("pointer")
            return MemcpyStmt(dest, src, self.parse_operand(ln), line=n)
        _, text, col = ln.peek()
        raise ParseError(f"unknown foreign statement starting with {text!r}", n, col)

    # ---- blocks --------------------------------------------------------------

    def _parse_signature(
        self, ln: _Line, param: Callable[[_Line], object]
    ) -> tuple[tuple, bool, TypeDesc]:
        """`(PARAM, ... [, ...]) [-> TYPE]` to the end of the line: params, variadic, return."""
        ln.expect("(")
        params = []
        variadic = False
        if not ln.at(")"):
            while True:
                if ln.accept("..."):
                    variadic = True
                    break
                params.append(param(ln))
                if not ln.accept(","):
                    break
        ln.expect(")")
        ret: TypeDesc = UNIT
        if ln.accept("->"):
            ret = self.parse_type(ln)
        ln.done()
        return tuple(params), variadic, ret

    def _parse_param(self, ln: _Line) -> Param:
        name = ln.ident("parameter name")
        ln.expect(":")
        return Param(name, self.parse_type(ln))

    def _parse_fn(self, ln: _Line, dialect: Dialect) -> None:
        ln.expect("fn")
        name = ln.ident("function name")
        params, variadic, ret = self._parse_signature(ln, self._parse_param)
        host = dialect is Dialect.HOST
        body = tuple(self._parse_stmt(sl, host) for sl in self._block(ln, f"function '{name}'"))
        self.functions.append(FnDef(name, dialect, params, ret, body, variadic, line=ln.line))

    def _parse_bind(self, ln: _Line) -> None:
        alias = target = ln.ident("function name")
        if ln.accept("="):
            target = ln.ident("function name")
        params, variadic, ret = self._parse_signature(ln, self.parse_type)
        self.bindings.append(
            BindingSignature(alias, target, params, ret, variadic, line=ln.line)
        )

    def _parse_expect(self, ln: _Line) -> None:
        model = None
        if ln.at_pair("tb", ":") or ln.at_pair("sb", ":"):
            model = ln.take()[1]
            ln.take()
        tag_text = ln.rest()
        try:
            outcome = OutcomeTag(tag_text)
        except ValueError:
            raise ParseError(f"unknown outcome '{tag_text}'", ln.line) from None
        self.expectations.append(Expectation(outcome, model))

    def parse(self) -> ScenarioProgram:
        while (ln := self._next_line()) is not None:
            if ln.accept("type"):
                self._parse_type_block(ln)
            elif ln.accept("host"):
                self._parse_fn(ln, Dialect.HOST)
            elif ln.accept("foreign"):
                self._parse_fn(ln, Dialect.FOREIGN)
            elif ln.accept("bind"):
                self._parse_bind(ln)
            elif ln.accept("expect"):
                self._parse_expect(ln)
            elif ln.accept("tag"):
                label = ln.rest()
                if not label:
                    raise ParseError("tag needs a label", ln.line)
                self.tags.append(label)
            else:
                _, text, col = ln.peek()
                raise ParseError(f"unexpected top-level input {text!r}", ln.line, col)
        program = ScenarioProgram(
            path=self.path,
            types=tuple(self.struct_order),
            functions=tuple(self.functions),
            bindings=tuple(self.bindings),
            expectations=tuple(self.expectations),
            tags=tuple(self.tags),
        )
        _validate(program)
        return program


def parse_text(text: str, path: str = "<string>") -> ScenarioProgram:
    return _Parser(text, path).parse()


def parse_file(path: str) -> ScenarioProgram:
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read(), path)


# ---- validation --------------------------------------------------------------


def _validate(program: ScenarioProgram) -> None:
    names: dict[str, FnDef] = {}
    for f in program.functions:
        if f.name in names:
            raise ParseError(f"function '{f.name}' defined twice", f.line)
        names[f.name] = f
    binding_names: dict[str, BindingSignature] = {}
    for b in program.bindings:
        if b.name in binding_names:
            raise ParseError(f"binding '{b.name}' declared twice", b.line)
        binding_names[b.name] = b
    try:
        entry = program.entry
    except KeyError:
        raise ParseError("no 'main' function", 1) from None
    if entry.dialect is not Dialect.HOST:
        raise ParseError("'main' must be a host function", entry.line)
    if entry.params:
        raise ParseError("'main' takes no parameters", entry.line)

    for f in program.functions:
        for s in f.body:
            _validate_stmt(f, s, names, binding_names)


def _validate_stmt(
    f: FnDef, s: Stmt, names: dict[str, FnDef], bindings: dict[str, BindingSignature]
) -> None:
    if isinstance(s, SpawnStmt):
        callee = names.get(s.callee)
        if callee is None or callee.dialect is not Dialect.HOST:
            raise ParseError(f"spawn target '{s.callee}' is not a host function", s.line)
    if not isinstance(s, CallStmt):
        return
    if f.dialect is Dialect.HOST:
        if s.callee in bindings:
            target = bindings[s.callee].target
            if target not in names or names[target].dialect is not Dialect.FOREIGN:
                raise ParseError(
                    f"binding '{s.callee}' names '{target}', which is not a foreign function",
                    s.line,
                )
        elif s.callee in names:
            if names[s.callee].dialect is not Dialect.HOST:
                raise ParseError(
                    f"calls into foreign code go through a binding; none declares '{s.callee}'",
                    s.line,
                )
        else:
            raise ParseError(f"unknown function '{s.callee}'", s.line)
    else:
        callee = names.get(s.callee)
        if callee is None:
            raise ParseError(f"unknown function '{s.callee}'", s.line)
        if callee.dialect is not Dialect.HOST:
            raise ParseError(
                "foreign-to-foreign calls are out of scope; only host functions "
                "may be called back",
                s.line,
            )


# ---- rendering ---------------------------------------------------------------


def _render_rhs(rhs: Rhs) -> str:
    if isinstance(rhs, LiteralRhs):
        return str(rhs.value)
    if isinstance(rhs, UninitRhs):
        return "uninit"
    if isinstance(rhs, ZeroedRhs):
        return "zeroed"
    if isinstance(rhs, PlaceRhs):
        return str(rhs.place)
    if isinstance(rhs, BorrowRhs):
        prefix = {
            PtrKind.MUT_REF: "&mut ",
            PtrKind.SHARED_REF: "&",
            PtrKind.RAW_MUT: "&raw mut ",
            PtrKind.RAW_CONST: "&raw const ",
        }[rhs.kind]
        return f"{prefix}{rhs.place}"
    if isinstance(rhs, OffsetRhs):
        return f"{rhs.source}.offset({rhs.count})"
    if isinstance(rhs, CellGetRhs):
        return f"{rhs.place}.get()"
    if isinstance(rhs, HeapNewRhs):
        if rhs.init == "zeroed":
            return f"heap_new {rhs.type} zeroed"
        if rhs.init is None:
            return f"heap_new {rhs.type}"
        return f"heap_new {rhs.type} {rhs.init}"
    if isinstance(rhs, HeapIntoRawRhs):
        return f"heap_into_raw {rhs.source}"
    if isinstance(rhs, HeapFromRawRhs):
        return f"heap_from_raw {rhs.source}"
    if isinstance(rhs, LoadRhs):
        return f"load {rhs.type} {rhs.pointer}"
    if isinstance(rhs, MallocRhs):
        return f"malloc {rhs.size}"
    if isinstance(rhs, AllocaRhs):
        return f"alloca {rhs.size}"
    if isinstance(rhs, GepRhs):
        return f"gep {rhs.pointer} {rhs.offset}"
    raise TypeError(f"unrenderable rhs: {rhs!r}")


def _render_let(name: str, ty: Optional[TypeDesc]) -> str:
    return f"let {name}" if ty is None else f"let {name}: {ty}"


def render_stmt(s: Stmt) -> str:
    """One statement as source text, used for trace display."""
    if isinstance(s, LetStmt):
        rhs = f"{s.rhs.source} as {s.type}" if isinstance(s.rhs, CastRhs) else _render_rhs(s.rhs)
        return f"{_render_let(s.name, s.type)} = {rhs}"
    if isinstance(s, WriteStmt):
        return f"{s.place} = {s.value}"
    if isinstance(s, StoreStmt):
        return f"store {s.type} {s.pointer} {s.value}"
    if isinstance(s, CallStmt):
        call = f"call {s.callee}({', '.join(map(str, s.args))})"
        return call if s.dest is None else f"{_render_let(s.dest, s.dest_type)} = {call}"
    if isinstance(s, SpawnStmt):
        return f"spawn {s.handle} = {s.callee}({', '.join(map(str, s.args))})"
    if isinstance(s, JoinStmt):
        return f"join {s.handle}"
    if isinstance(s, ReturnStmt):
        return "return" if s.value is None else f"return {s.value}"
    if isinstance(s, AssertEqStmt):
        return f"assert_eq {s.left} {s.right}"
    if isinstance(s, AssumeInitStmt):
        return f"assume_init {s.place}"
    if isinstance(s, FreeStmt):
        return f"free {s.pointer}"
    if isinstance(s, MemsetStmt):
        return f"memset {s.pointer} {s.value} {s.size}"
    if isinstance(s, MemcpyStmt):
        return f"memcpy {s.dest} {s.src} {s.size}"
    raise TypeError(f"unrenderable statement: {s!r}")


def _render_signature(params: list[str], variadic: bool, ret: TypeDesc) -> str:
    items = [*params, "..."] if variadic else params
    arrow = "" if ret == UNIT else f" -> {ret}"
    return f"({', '.join(items)}){arrow}"


def render_program(program: ScenarioProgram) -> str:
    """Source text that parses back to an equal program."""
    out: list[str] = []
    for tag in program.tags:
        out.append(f"tag {tag}")
    for t in program.types:
        out.append(f"type {t.name}")
        for f in t.fields:
            suffix = f" @ {f.explicit_offset}" if f.explicit_offset is not None else ""
            out.append(f"  {f.name}: {f.type}{suffix}")
        out.append("end")
    for b in program.bindings:
        head = b.name if b.name == b.target else f"{b.name} = {b.target}"
        signature = _render_signature([str(p) for p in b.params], b.variadic, b.ret)
        out.append(f"bind {head}{signature}")
    for f in program.functions:
        params = [f"{p.name}: {p.type}" for p in f.params]
        out.append(f"{f.dialect.value} fn {f.name}{_render_signature(params, f.variadic, f.ret)}")
        out.extend(f"  {render_stmt(s)}" for s in f.body)
        out.append("end")
    for e in program.expectations:
        prefix = f"{e.model}: " if e.model else ""
        out.append(f"expect {prefix}{e.outcome.value}")
    return "\n".join(out) + "\n"
