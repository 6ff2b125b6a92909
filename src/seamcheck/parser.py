"""Line-oriented parser for the scenario language.

A scenario file contains, in any order: `type` blocks, `host fn` and
`foreign fn` blocks, `bind` declarations, `expect` annotations, and `tag`
labels. Comments run from `#` to end of line. Statements are one per line;
blocks close with `end`. One regular-expression scan turns the whole text
into tokens, and each statement is chosen by its first token; a
`ParseError`'s column is worked out again from its line's text only when
the error is raised.

The grammar enforces the dialect rules: `let`, `call` and `return` share
one rule across both dialects, and every other statement and right-hand
side belongs to one dialect's rules only, so borrows, heap ownership and
threads parse only in host code and loads, stores and manual allocation
only in foreign code. The parser resolves struct names as it goes (declare
before use) but knows no local's type: a place records only the `*` that
was written, and the machine decides at run time whether steps read through
a pointer local. Each composite type is built once per parse (`_intern`),
so a type written many times is one object. A validation pass then checks
names: one definition per function and binding, a host `main` without
parameters, and call and spawn targets of the right dialect.
"""

from __future__ import annotations

import math
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
    I8,
    I16,
    I32,
    I64,
    U8,
    U16,
    U32,
    U64,
    UNIT,
    ArrayType,
    CellType,
    FieldDef,
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


# A token is its text: `->`, `...`, an integer (`-?0x[0-9a-fA-F]+` or `-?\d+`),
# an identifier, one punctuation character, or `_EOL` between lines. Each
# alternative starts with a fixed character or set, so whitespace is skipped fast.
_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*|\.\.\.|[()\[\]{}:,.*&=@;]|-(?:>|0x[0-9a-fA-F]+|\d+)?|0x[0-9a-fA-F]+|\d+|\n"
)
# A character that starts no token: not whitespace, a digit, an ASCII letter,
# `_` or punctuation, or a `>` that does not end `->` (a `-` always starts a
# token, so `->` is taken wherever `-` precedes `>`).
_BAD_RE = re.compile(r"[^\s\dA-Za-z_()\[\]{}:,.*&=@;-](?<!->)")
_COMMENT_RE = re.compile(r"#[^\n]*")
_EOL = "\n"
_OUTCOMES = {o.value: o for o in OutcomeTag}
# How deep types may nest. Types are walked recursively (layout, hashing,
# printing), so the bound keeps any accepted type within Python's recursion limit.
MAX_TYPE_DEPTH = 100
_NESTING = frozenset(("&", "*", "[", "cell", "phantom"))
_TOO_DEEP = f"type nested more than {MAX_TYPE_DEPTH} levels deep"

# Each scalar type by its own name, plus the names Rust gives the same layouts.
_SCALARS: dict[str, TypeDesc] = {str(t): t for t in (I8, I16, I32, I64, U8, U16, U32, U64, UNIT)}
_SCALARS.update(isize=I64, usize=U64, bool=U8)
_OPAQUE = PtrType(PtrKind.OPAQUE, None)
_POINTER_KINDS = {
    "&": PtrKind.SHARED_REF, "&mut": PtrKind.MUT_REF, "*mut": PtrKind.RAW_MUT, "*const": PtrKind.RAW_CONST,
}


def _is_int(tok: str) -> bool:
    """Whether `tok` is an integer literal: a decimal digit first, after an optional `-`."""
    return tok.lstrip("-")[:1].isdecimal()


class _Parser:
    """Recursive descent over the tokens of a whole text, one line at a time.

    `toks` is every token of the text, with `_EOL` before each line; `i` is
    the next token, `start` the first token of the current line and `line`
    its number.
    """

    def __init__(self, text: str, path: str) -> None:
        self.path = path
        # One kind of line break, so that a comment ends where `str.splitlines` ends a line.
        self.code = _COMMENT_RE.sub("", "\n".join(text.splitlines()))
        self.toks = _TOKEN_RE.findall(f"\n{self.code}\n")
        self.i = self.start = self.line = 0
        bad = _BAD_RE.search(self.code)
        # The line of the first character that starts no token; reached, it is an error.
        self.bad_line = self.code.count("\n", 0, bad.start()) + 1 if bad else math.inf
        self.structs: dict[str, StructType] = {}  # in declaration order
        self.struct_levels: dict[str, int] = {}  # name -> levels, see `parse_type`
        self.interned: dict[tuple, TypeDesc] = {}  # composite types, see `_intern`
        self.functions: list[FnDef] = []
        self.bindings: list[BindingSignature] = []
        self.expectations: list[Expectation] = []
        self.tags: list[str] = []

    # ---- the token cursor ----------------------------------------------------

    def _next_line(self) -> bool:
        """Move to the next line that holds a token; False past the last one."""
        last = len(self.toks) - 1  # the `_EOL` that ends the text
        while self.toks[self.i] == _EOL and self.i < last:
            self.i += 1
            self.line += 1
        self.start = self.i
        if self.line >= self.bad_line:
            self.line = self.bad_line
            bad = _BAD_RE.search(self.code.split("\n")[self.line - 1].strip())
            raise ParseError(f"unexpected character {bad.group()!r}", self.line, bad.start() + 1)
        return self.toks[self.i] != _EOL

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """A ParseError at token `at` (by default the next one), its column found from the line's text."""
        i = self.i if at is None else at
        if self.toks[i] == _EOL:
            return ParseError(message, self.line)
        starts = [m.start() for m in _TOKEN_RE.finditer(self.code.split("\n")[self.line - 1].strip())]
        return ParseError(message, self.line, starts[i - self.start] + 1)

    def at_pair(self, first: str, second: str) -> bool:
        # A token that matches `first` is not `_EOL`, so another follows it.
        return self.toks[self.i] == first and self.toks[self.i + 1] == second

    def accept(self, text: str) -> bool:
        """Take the next token if it reads `text`."""
        if self.toks[self.i] == text:
            self.i += 1
            return True
        return False

    def take(self) -> str:
        t = self.toks[self.i]
        self.i += 1
        return t

    def need(self, missing: str) -> str:
        """The next token; at the end of the line, a ParseError saying `missing`."""
        t = self.toks[self.i]
        if t == _EOL:
            raise ParseError(missing, self.line)
        return t

    def expected(self, what: str) -> ParseError:
        t = self.toks[self.i]
        return self.error(f"expected {what}, found {'end of line' if t == _EOL else t!r}")

    def expect(self, text: str) -> None:
        if self.toks[self.i] != text:
            raise self.expected(repr(text))
        self.i += 1

    def ident(self, what: str = "name") -> str:
        t = self.toks[self.i]
        if not t.isidentifier():
            raise self.expected(what)
        self.i += 1
        return t

    def integer(self) -> int:
        t = self.toks[self.i]
        if not _is_int(t):
            raise self.expected("integer")
        try:
            value = int(t, 0)
        except ValueError:  # a leading zero, as in `08`
            raise self.error(f"invalid integer literal {t!r}") from None
        self.i += 1
        return value

    def rest(self) -> str:
        """The tokens left on the line, joined without spaces."""
        end = self.toks.index(_EOL, self.i)
        words = "".join(self.toks[self.i : end])
        self.i = end
        return words

    def done(self) -> None:
        t = self.toks[self.i]
        if t != _EOL:
            raise self.error(f"trailing input starting at {t!r}")

    def _block(self, head: int, what: str) -> Iterator[None]:
        """Move to each line of the block opened at line `head`, up to its `end`."""
        while self._next_line():
            if self.toks[self.i] == "end":
                self.i += 1
                self.done()
                return
            yield
        raise ParseError(f"{what} never closed with 'end'", head)

    # ---- types ---------------------------------------------------------------

    def parse_type(self, depth: int = 1) -> TypeDesc:
        """A type `depth` levels deep.

        A reference, raw pointer, array, `cell` or `phantom` adds a level, a
        struct one more than its deepest field (`_levels`); a level past
        `MAX_TYPE_DEPTH` is an error at its token.
        """
        t = self.need("expected a type")
        ty = _SCALARS.get(t)
        if ty is not None:
            self.i += 1
            return ty
        start = self.i
        self.i += 1
        if depth > MAX_TYPE_DEPTH and t in _NESTING:
            raise self.error(_TOO_DEEP, start)
        if t == "&" or t == "*":
            if self.accept("mut"):
                spelled = t + "mut"
            elif t == "&":
                spelled = t
            elif self.accept("const"):
                spelled = "*const"
            else:
                raise self.error("raw pointer needs 'mut' or 'const'", start)
            pointee = self.parse_type(depth + 1)
            # Keyed by its spelling, as hashing a `PtrKind` runs `Enum.__hash__` in Python.
            return self._intern((spelled, id(pointee)), PtrType, _POINTER_KINDS[spelled], pointee)
        if t == "[":
            elem = self.parse_type(depth + 1)
            self.expect(";")
            at = self.i
            count = self.integer()
            if count < 0:
                raise self.error("array count must be non-negative", at)
            self.expect("]")
            return self._intern((id(elem), count), ArrayType, elem, count)
        if t == "ptr":
            return _OPAQUE
        if t == "cell" or t == "phantom":
            self.expect("(")
            inner = self.parse_type(depth + 1)
            self.expect(")")
            return self._intern((t, id(inner)), CellType if t == "cell" else PhantomType, inner)
        ty = self.structs.get(t)
        if ty is not None:
            if depth + self.struct_levels[t] - 1 > MAX_TYPE_DEPTH:
                raise self.error(_TOO_DEEP, start)
            return ty
        if t.isidentifier():
            raise self.error(f"unknown type '{t}'", start)
        self.i = start
        raise self.expected("a type")

    def _intern(self, key: tuple, make: Callable[..., TypeDesc], *parts: object) -> TypeDesc:
        """The one `make(*parts)` of this parse: `key` names its kind and its parts' ids, and every
        part is interned already, so equal types written twice are one object. Building a type once
        spares the rest of its writings, and it is laid out once, as it keeps its own layout."""
        ty = self.interned.get(key)
        if ty is None:
            ty = self.interned[key] = make(*parts)
        return ty

    def _parse_type_block(self) -> None:
        head = self.line
        name = self.ident("type name")
        self.done()
        if name in self.structs or name in _SCALARS:
            raise ParseError(f"type '{name}' already defined", head)
        fields: list[FieldDef] = []
        for _ in self._block(head, f"type '{name}'"):
            fname = self.ident("field name")
            self.expect(":")
            ftype = self.parse_type(2)
            offset = None
            if self.accept("@"):
                offset = self.integer()
            self.done()
            fields.append(FieldDef(fname, ftype, offset))
        struct = StructType(name, tuple(fields))
        try:
            layout_of(struct)
        except LayoutError as e:
            raise ParseError(str(e), head) from None
        self.structs[name] = struct
        self.struct_levels[name] = 1 + max((_levels(f.type, self.struct_levels) for f in fields), default=0)

    # ---- places and operands -------------------------------------------------

    def parse_place(self) -> Place:
        deref = self.accept("*")
        base = self.ident("place")
        toks = self.toks
        steps: list[Union[str, int]] = []
        while True:
            t = toks[self.i]
            if t == ".":
                name = toks[self.i + 1]
                # `.get(` and `.offset(` are method forms, not field steps.
                if not name.isidentifier() or name in ("get", "offset") and toks[self.i + 2] == "(":
                    break
                self.i += 2
                steps.append(name)
            elif t == "[":
                self.i += 1
                steps.append(self.integer())
                self.expect("]")
            else:
                break
        return Place(base, deref, tuple(steps))

    def parse_operand(self) -> Operand:
        if _is_int(self.need("expected a value")):
            return self.integer()
        return self.ident("value")

    def _parse_args(self) -> tuple[Operand, ...]:
        self.expect("(")
        args: list[Operand] = []
        if not self.accept(")"):
            while True:
                args.append(self.parse_operand())
                if not self.accept(","):
                    break
            self.expect(")")
        return tuple(args)

    # ---- statements ----------------------------------------------------------

    def _parse_stmt(self, host: bool) -> Stmt:
        """One statement, chosen by its first token."""
        first = self.take()
        if first == "let":
            stmt = self._parse_let(host)
        elif first == "call":
            stmt = self._parse_call()
        elif first == "return":
            stmt = ReturnStmt(None if self.toks[self.i] == _EOL else self.parse_operand(), line=self.line)
        elif host:
            stmt = self._parse_host_stmt(first)
        else:
            stmt = self._parse_foreign_stmt(first)
        self.done()
        return stmt

    def _parse_call(self, dest: Optional[str] = None, dest_type: Optional[TypeDesc] = None) -> CallStmt:
        callee = self.ident("function name")
        args = self._parse_args()
        return CallStmt(callee, args, dest=dest, dest_type=dest_type, line=self.line)

    def _parse_let(self, host: bool) -> Stmt:
        """`let NAME: TYPE = RHS` in host code, `let NAME = RHS` in foreign code."""
        name = self.ident()
        ty = None
        if host:
            self.expect(":")
            ty = self.parse_type()
        self.expect("=")
        if self.accept("call"):
            return self._parse_call(name, ty)
        if host:
            return LetStmt(name, ty, self._parse_host_rhs(ty), line=self.line)
        return LetStmt(name, None, self._parse_foreign_rhs(), line=self.line)

    def _parse_host_rhs(self, ty: TypeDesc) -> Rhs:
        t = self.need("missing right-hand side")
        if _is_int(t):
            return LiteralRhs(self.integer())
        self.i += 1
        if t == "&":
            if not self.accept("raw"):
                kind = PtrKind.MUT_REF if self.accept("mut") else PtrKind.SHARED_REF
                return BorrowRhs(kind, self.parse_place())
            if self.accept("mut"):
                return BorrowRhs(PtrKind.RAW_MUT, self.parse_place())
            self.expect("const")
            return BorrowRhs(PtrKind.RAW_CONST, self.parse_place())
        if t == "uninit":
            return UninitRhs()
        if t == "zeroed":
            return ZeroedRhs()
        if t == "heap_new":
            heap_ty = self.parse_type()
            if self.accept("zeroed"):
                return HeapNewRhs(heap_ty, "zeroed")
            if _is_int(self.toks[self.i]):
                return HeapNewRhs(heap_ty, self.integer())
            return HeapNewRhs(heap_ty, None)
        if t == "heap_into_raw":
            return HeapIntoRawRhs(self.ident())
        if t == "heap_from_raw":
            return HeapFromRawRhs(self.ident())
        # Remaining forms start with an identifier (cast, offset) or are a place.
        if t.isidentifier():
            if self.accept("as"):
                target = self.parse_type()
                self.done()
                if target != ty:
                    raise ParseError(f"cast target {target} disagrees with declared type {ty}", self.line)
                return CastRhs(t)
            if self.at_pair(".", "offset"):
                self.i += 2
                self.expect("(")
                count = self.parse_operand()
                self.expect(")")
                return OffsetRhs(t, count)
        self.i -= 1
        place = self.parse_place()
        if self.at_pair(".", "get"):
            self.i += 2
            self.expect("(")
            self.expect(")")
            return CellGetRhs(place)
        return PlaceRhs(place)

    def _parse_host_stmt(self, first: str) -> Stmt:
        n = self.line
        if first == "assume_init":
            return AssumeInitStmt(self.parse_place(), line=n)
        if first == "assert_eq":
            left = self.parse_operand()
            return AssertEqStmt(left, self.parse_operand(), line=n)
        if first == "spawn":
            handle = self.ident("handle")
            self.expect("=")
            callee = self.ident("function name")
            return SpawnStmt(handle, callee, self._parse_args(), line=n)
        if first == "join":
            return JoinStmt(self.ident("handle"), line=n)
        self.i -= 1  # a write, whose place starts at the first token
        place = self.parse_place()
        self.expect("=")
        return WriteStmt(place, self.parse_operand(), line=n)

    def _parse_foreign_rhs(self) -> Rhs:
        t = self.need("missing right-hand side")
        if _is_int(t):
            return LiteralRhs(self.integer())
        self.i += 1
        if t == "load":
            return LoadRhs(self.parse_type(), self.ident("pointer"))
        if t == "malloc":
            return MallocRhs(self.parse_operand())
        if t == "alloca":
            return AllocaRhs(self.parse_operand())
        if t == "gep":
            return GepRhs(self.ident("pointer"), self.parse_operand())
        self.i -= 1
        return PlaceRhs(Place(self.ident("value")))

    def _parse_foreign_stmt(self, first: str) -> Stmt:
        n = self.line
        if first == "store":
            return StoreStmt(self.parse_type(), self.ident("pointer"), self.parse_operand(), line=n)
        if first == "free":
            return FreeStmt(self.ident("pointer"), line=n)
        if first == "memset":
            return MemsetStmt(self.ident("pointer"), self.parse_operand(), self.parse_operand(), line=n)
        if first == "memcpy":
            return MemcpyStmt(self.ident("pointer"), self.ident("pointer"), self.parse_operand(), line=n)
        raise self.error(f"unknown foreign statement starting with {first!r}", self.start)

    # ---- blocks --------------------------------------------------------------

    def _parse_signature(self, param: Callable[[], object]) -> tuple[tuple, bool, TypeDesc]:
        """`(PARAM, ... [, ...]) [-> TYPE]` to the end of the line: params, variadic, return."""
        self.expect("(")
        params = []
        variadic = False
        if self.toks[self.i] != ")":
            while True:
                if self.accept("..."):
                    variadic = True
                    break
                params.append(param())
                if not self.accept(","):
                    break
        self.expect(")")
        ret: TypeDesc = UNIT
        if self.accept("->"):
            ret = self.parse_type()
        self.done()
        return tuple(params), variadic, ret

    def _parse_param(self) -> Param:
        name = self.ident("parameter name")
        self.expect(":")
        return Param(name, self.parse_type())

    def _parse_fn(self, dialect: Dialect) -> None:
        head = self.line
        self.expect("fn")
        name = self.ident("function name")
        params, variadic, ret = self._parse_signature(self._parse_param)
        host = dialect is Dialect.HOST
        body = tuple(self._parse_stmt(host) for _ in self._block(head, f"function '{name}'"))
        self.functions.append(FnDef(name, dialect, params, ret, body, variadic, line=head))

    def _parse_bind(self) -> None:
        alias = target = self.ident("function name")
        if self.accept("="):
            target = self.ident("function name")
        params, variadic, ret = self._parse_signature(self.parse_type)
        self.bindings.append(
            BindingSignature(alias, target, params, ret, variadic, line=self.line)
        )

    def _parse_expect(self) -> None:
        model = None
        if self.at_pair("tb", ":") or self.at_pair("sb", ":"):
            model = self.take()
            self.i += 1
        tag_text = self.rest()
        outcome = _OUTCOMES.get(tag_text)
        if outcome is None:
            raise ParseError(f"unknown outcome '{tag_text}'", self.line)
        self.expectations.append(Expectation(outcome, model))

    def parse(self) -> ScenarioProgram:
        while self._next_line():
            first = self.take()
            if first == "host":
                self._parse_fn(Dialect.HOST)
            elif first == "foreign":
                self._parse_fn(Dialect.FOREIGN)
            elif first == "bind":
                self._parse_bind()
            elif first == "type":
                self._parse_type_block()
            elif first == "expect":
                self._parse_expect()
            elif first == "tag":
                label = self.rest()
                if not label:
                    raise ParseError("tag needs a label", self.line)
                self.tags.append(label)
            else:
                raise self.error(f"unexpected top-level input {first!r}", self.start)
        program = ScenarioProgram(
            path=self.path,
            types=tuple(self.structs.values()),
            functions=tuple(self.functions),
            bindings=tuple(self.bindings),
            expectations=tuple(self.expectations),
            tags=tuple(self.tags),
        )
        _validate(program)
        return program


def _levels(ty: TypeDesc, struct_levels: dict[str, int]) -> int:
    """How many levels deep `ty` nests, as `_Parser.parse_type` counts them."""
    if isinstance(ty, StructType):
        return struct_levels[ty.name]
    if isinstance(ty, PtrType) and ty.pointee is not None:
        return 1 + _levels(ty.pointee, struct_levels)
    if isinstance(ty, ArrayType):
        return 1 + _levels(ty.elem, struct_levels)
    if isinstance(ty, (CellType, PhantomType)):
        return 1 + _levels(ty.inner, struct_levels)
    return 0


def parse_text(text: str, path: str = "<string>") -> ScenarioProgram:
    return _Parser(text, path).parse()


def parse_file(path: str) -> ScenarioProgram:
    with open(path, encoding="utf-8") as fh:
        return parse_text(fh.read(), path)


# ---- validation --------------------------------------------------------------


def _validate(program: ScenarioProgram) -> None:
    names = program.functions_by_name
    for f in program.functions:
        if names[f.name] is not f:
            raise ParseError(f"function '{f.name}' defined twice", f.line)
    binding_names = program.bindings_by_name
    for b in program.bindings:
        if binding_names[b.name] is not b:
            raise ParseError(f"binding '{b.name}' declared twice", b.line)
    entry = names.get("main")
    if entry is None:
        raise ParseError("no 'main' function", 1)
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
