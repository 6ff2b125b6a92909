"""Every import in the package and its tests is used, every local the package assigns is read,
only memory and the two trackers touch an allocation's borrow state, only memory reads a byte
store's fields, only the borrow tracker base writes a tag event or tests and adds to the no-op memo, every detail of a finding is
named as its diagnostic field, no machine or memory method takes a source line, only the
machine's lowering looks at which statement or right-hand side form it has, the trackers read
a retag's cell ranges only through the range map, the tb docstring draws the transition table its
tables hold, and both trackers accept the same retag kinds."""

import ast
from dataclasses import fields

import pytest

from seamcheck import stacked_borrows, tree_borrows
from seamcheck.diagnostics import Diagnostic, DiagnosticKind
from seamcheck.tree_borrows import Permission

from conftest import REPO_ROOT


def _unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    paths = sorted([*REPO_ROOT.glob("src/seamcheck/*.py"), *REPO_ROOT.glob("tests/*.py")])
    unused = {
        str(path.relative_to(REPO_ROOT)): names
        for path in paths
        if (names := _unused_imports(path))
    }
    assert unused == {}


def _unread_locals(path):
    tree = ast.parse(path.read_text(), str(path))
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [node for node in ast.walk(fn) if isinstance(node, ast.Name)]
        read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
        unread.extend(
            f"{fn.name}: {node.id} (line {node.lineno})"
            for node in names
            if isinstance(node.ctx, ast.Store) and not node.id.startswith("_") and node.id not in read
        )
    return unread


def test_no_locals_assigned_but_never_read():
    unread = {
        str(path.relative_to(REPO_ROOT)): names
        for path in sorted(REPO_ROOT.glob("src/seamcheck/*.py"))
        if (names := _unread_locals(path))
    }
    assert unread == {}


# `Memory` owns an allocation's tracker and its root's last use, and hands them only to the trackers.
_BORROW_STATE_OWNERS = {"memory.py", "tree_borrows.py", "stacked_borrows.py"}


def _borrow_state_uses(path):
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("tracker", "last_use")
    ]


def test_only_memory_and_the_trackers_touch_borrow_state():
    uses = {
        str(path.relative_to(REPO_ROOT)): names
        for path in sorted(REPO_ROOT.glob("src/seamcheck/*.py"))
        if path.name not in _BORROW_STATE_OWNERS and (names := _borrow_state_uses(path))
    }
    assert uses == {}


# An allocation and a `Blob` keep their bytes, init mask and fragments in fields only `memory` reads,
# so the byte format can change in one module; the machine asks a `Blob` for what it needs.
_BYTE_STORE_FIELDS = ("octets", "initmask", "fragments", "frags")


def _byte_store_uses(path, source=None):
    tree = ast.parse(path.read_text() if source is None else source, str(path))
    return [
        f"{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in _BYTE_STORE_FIELDS
    ]


def test_only_memory_reads_the_byte_store():
    uses = {
        str(path.relative_to(REPO_ROOT)): names
        for path in sorted(REPO_ROOT.glob("src/seamcheck/*.py"))
        if path.name != "memory.py" and (names := _byte_store_uses(path))
    }
    assert uses == {}


@pytest.mark.parametrize(
    "source",
    [
        "def size(blob):\n    return len(blob.octets)\n",
        "def uninit(alloc, i):\n    return not alloc.initmask[i]\n",
        "def forget(alloc):\n    alloc.fragments = {}\n",
        "def pieces(m, blob):\n    return [m.frags for _ in blob.frags]\n",
    ],
)
def test_byte_store_lint_sees_a_planted_use(source):
    assert _byte_store_uses(REPO_ROOT / "src" / "seamcheck" / "machine.py", source) != []


# Only the parser keys anything by an object's identity: `_intern` keys a composite type by its parts' ids,
# within one parse. Every other module asks `types` for a type's facts, which it keeps on the type.
def _identity_keys(path, source=None):
    tree = ast.parse(path.read_text() if source is None else source, str(path))
    return [
        f"id() (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "id"
    ]


def test_only_the_parser_keys_by_identity():
    uses = {
        str(path.relative_to(REPO_ROOT)): found
        for path in sorted(REPO_ROOT.glob("src/seamcheck/*.py"))
        if path.name != "parser.py" and (found := _identity_keys(path))
    }
    assert uses == {}


def test_identity_key_lint_sees_a_planted_use():
    source = "class _Lowering:\n    def layout(self, ty):\n        return self.layouts[id(ty)]\n"
    assert _identity_keys(REPO_ROOT / "src" / "seamcheck" / "machine.py", source) != []


# The no-op memo has one protocol: `BorrowTracker.access` alone tests it and adds to it (`__init__` makes it),
# and a model only clears it where its state changes.
def _memo_uses(path, source=None):
    tree = ast.parse(path.read_text() if source is None else source, str(path))
    home = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "BorrowTracker":
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "access"):
                    home.update(ast.walk(fn))
    cleared = {
        node.func.value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "clear"
    }
    return [
        f"_noops (line {node.lineno})" for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_noops" and node not in home | cleared
    ]


def test_only_the_tracker_access_tests_or_adds_to_the_noop_memo():
    uses = {
        str(path.relative_to(REPO_ROOT)): found
        for path in sorted(REPO_ROOT.glob("src/seamcheck/*.py"))
        if (found := _memo_uses(path))
    }
    assert uses == {}


@pytest.mark.parametrize(
    "source",
    [
        "class TreeBorrowTracker(BorrowTracker):\n    def _access(self, prov, rng, kind, line):\n"
        "        return (prov, kind) in self._noops\n",
        "class StackedBorrowTracker(BorrowTracker):\n    def _access(self, prov, rng, kind, line):\n"
        "        self._noops.add((prov, kind))\n",
        "class BorrowTracker:\n    def _new_tag(self, tag):\n        self._noops.discard((tag, 'read'))\n",
    ],
)
def test_noop_memo_lint_sees_a_planted_use(source):
    assert _memo_uses(REPO_ROOT / "src" / "seamcheck" / "tree_borrows.py", source) != []


# A retag asks its range map which bytes are interior-mutable: `RangeMap.split_cells` merges the cell
# ranges once and bisects them. Each tracker hands `cell_ranges` to it and reads it nowhere else, so
# no loop that tests every segment against every range grows back.
def _cell_range_reads(path, source=None):
    """Reads of `cell_ranges` handed to `split_cells`, and every other read of it."""
    tree = ast.parse(path.read_text() if source is None else source, str(path))
    handed = {
        arg for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "split_cells"
        for arg in node.args
    }
    reads = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "cell_ranges" and isinstance(node.ctx, ast.Load)
    ]
    return len([n for n in reads if n in handed]), [f"cell_ranges (line {n.lineno})" for n in reads if n not in handed]


def test_the_trackers_read_cell_ranges_only_through_the_range_map():
    found = {
        name: _cell_range_reads(REPO_ROOT / "src" / "seamcheck" / name)
        for name in ("tree_borrows.py", "stacked_borrows.py")
    }
    assert found == {"tree_borrows.py": (1, []), "stacked_borrows.py": (1, [])}


@pytest.mark.parametrize(
    "body",
    [
        "for a, b in cell_ranges:\n        self._stacks.split(a)",
        "return any(a <= off < b for a, b in cell_ranges)",
        "return in_ranges(off, cell_ranges)",
        "cells = cell_ranges\n    return [a for a, _ in cells]",
        "return self._perms.split(cell_ranges)",
    ],
)
def test_cell_range_lint_sees_a_planted_read(body):
    source = f"def retag(self, parent, rng, kind, cell_ranges, off):\n    {body}\n"
    assert _cell_range_reads(REPO_ROOT / "src" / "seamcheck" / "stacked_borrows.py", source)[1] != []


# The tb docstring draws the transition table that `_CHILD`, `_CHILD_ERRORS` and `_FOREIGN` hold:
# one row per relation and access, one cell per permission. Reading the drawing back and comparing
# it with the tables keeps the prose from drifting from the code.
_DRAWN_PERMISSIONS = {
    "Reserved": Permission.RESERVED, "ReservedIM": Permission.RESERVED_IM, "Active": Permission.ACTIVE,
    "Frozen": Permission.FROZEN, "Disabled": Permission.DISABLED,
}
_DRAWN_ERRORS = {"expired": DiagnosticKind.EXPIRED_PERMISSION, "insufficient": DiagnosticKind.INSUFFICIENT_PERMISSION}


def _table_drift(doc, child, errors, foreign):
    """The cells where the table drawn in `doc` and the three tables disagree, as text."""
    rows = [line.split() for line in doc.splitlines()]
    header = next(words for words in rows if words and all(w in _DRAWN_PERMISSIONS for w in words))
    drawn = {tuple(words[:2]): words[2:] for words in rows if words[:1] in (["child"], ["foreign"])}
    drift = []
    for access in ("read", "write"):
        for relation, table in (("child", {**child[access], **errors[access]}), ("foreign", foreign[access])):
            cells = drawn.get((relation, access), [])
            if len(cells) != len(header):
                drift.append(f"{relation} {access}: {len(cells)} cells for {len(header)} permissions")
                continue
            for name, cell in zip(header, cells):
                want = table.get(_DRAWN_PERMISSIONS[name])
                got = None if cell == "keeps" else _DRAWN_PERMISSIONS.get(cell, _DRAWN_ERRORS.get(cell, cell))
                if got != want:
                    drift.append(f"{relation} {access} at {name}: drawn {cell}, table {want}")
    return drift


def test_the_tb_docstring_draws_the_transition_tables():
    tb = tree_borrows
    assert _table_drift(tb.__doc__, tb._CHILD, tb._CHILD_ERRORS, tb._FOREIGN) == []


@pytest.mark.parametrize(
    "doc_edit, table_edit",
    [
        (("insufficient  expired", "expired       expired"), {}),
        (("Frozen  keeps", "Disabled  keeps"), {}),
        (("foreign write  Disabled  keeps", "foreign write  Disabled"), {}),
        ((), {"_FOREIGN": {"read": {Permission.ACTIVE: Permission.DISABLED}, "write": tree_borrows._FOREIGN["write"]}}),
        ((), {"_CHILD": {"read": {}, "write": {Permission.RESERVED: Permission.ACTIVE}}}),
    ],
)
def test_transition_table_lint_sees_a_planted_drift(doc_edit, table_edit):
    tb = tree_borrows
    doc = tb.__doc__.replace(*doc_edit) if doc_edit else tb.__doc__
    tables = {"_CHILD": tb._CHILD, "_CHILD_ERRORS": tb._CHILD_ERRORS, "_FOREIGN": tb._FOREIGN, **table_edit}
    assert _table_drift(doc, tables["_CHILD"], tables["_CHILD_ERRORS"], tables["_FOREIGN"]) != []


# Both models judge the same program, so both accept every retag kind the machine makes: tb's raw
# kinds, which make no node, and its node kinds together are exactly sb's `_RETAGS`.
def _retag_kinds_differ(raw, default, retags):
    """The retag kinds that one tracker accepts and the other does not, sorted."""
    return sorted((set(raw) | (default.keys() - {None})) ^ retags.keys())


def test_both_trackers_accept_the_same_retag_kinds():
    assert _retag_kinds_differ(tree_borrows._RAW, tree_borrows._DEFAULT, stacked_borrows._RETAGS) == []


def test_retag_kind_lint_sees_a_planted_kind():
    raw, default, retags = tree_borrows._RAW, tree_borrows._DEFAULT, stacked_borrows._RETAGS
    assert _retag_kinds_differ(raw, {**default, "box": Permission.RESERVED}, retags) == ["box"]
    assert _retag_kinds_differ(raw, default, {k: v for k, v in retags.items() if k != "cell"}) == ["cell"]


# Trackers keep raw tag events; `BorrowTracker` alone turns them into `TagEvent` and `TagHistory`
# records, when an error is raised, so no access or retag path formats an event.
_EVENT_RECORDS = ("TagEvent", "TagHistory")


def _event_records_built(path):
    tree = ast.parse(path.read_text(), str(path))
    built = []
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in _EVENT_RECORDS:
                    built.append((f"{path.name}:{owner}", f"{name} (line {node.lineno})"))
    return built


def test_only_the_borrow_tracker_builds_tag_events():
    built = [b for path in sorted(REPO_ROOT.glob("src/seamcheck/*.py")) for b in _event_records_built(path)]
    assert {where for where, _ in built} == {"memory.py:BorrowTracker"}, built


# The machine lowers each function once into steps (`machine._Lowering`); a statement's or a
# right-hand side's form is looked at there and nowhere else, so no second, interpreting
# dispatch grows back beside the lowered one. A form is looked at by an `isinstance`, by a
# comparison that names its class (`type(stmt) is LetStmt`, `type(rhs) in (...)`), or by a dict
# literal keyed by its class, the lowering's dispatch tables.
def _names_a_form(nodes):
    names = [n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name)]
    return [name for name in names if name.endswith(("Stmt", "Rhs"))]


def _ir_form_tests(path, source=None):
    tree = ast.parse(path.read_text() if source is None else source, str(path))
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                what, names = "isinstance", _names_a_form(node.args[1:])
            elif isinstance(node, ast.Compare):
                what, names = "comparison", _names_a_form([node.left, *node.comparators])
            elif isinstance(node, ast.Dict):
                what, names = "dict", _names_a_form([k for k in node.keys if k is not None])
            else:
                continue
            if names:
                found.append((owner, f"{what} of {', '.join(names)} (line {node.lineno})"))
    return found


def test_only_the_lowering_tests_statement_forms():
    found = _ir_form_tests(REPO_ROOT / "src" / "seamcheck" / "machine.py")
    assert found and {owner for owner, _ in found} == {"_Lowering"}, found


@pytest.mark.parametrize(
    "source, owner",
    [
        ("def run(stmt):\n    return isinstance(stmt, (LetStmt, CallStmt))\n", "run"),
        ("def run(stmt):\n    if type(stmt) is LetStmt:\n        pass\n", "run"),
        ("def run(rhs):\n    return PlaceRhs == type(rhs)\n", "run"),
        ("def run(rhs):\n    return type(rhs) in (MallocRhs, AllocaRhs)\n", "run"),
        ("class Machine:\n    TABLE = {JoinStmt: None}\n", "Machine"),
        ("class Machine:\n    def run(self, rhs):\n        return {GepRhs: 1, **{}}.get(type(rhs))\n", "Machine"),
    ],
)
def test_statement_form_lint_sees_each_form_test(source, owner):
    found = _ir_form_tests(REPO_ROOT / "src" / "seamcheck" / "machine.py", source)
    assert {o for o, _ in found} == {owner}, found


def test_statement_form_lint_ignores_other_types():
    source = "def run(ty, table):\n    return isinstance(ty, IntType) or type(ty) is PtrType or {CellType: 1}\n"
    assert _ir_form_tests(REPO_ROOT / "src" / "seamcheck" / "machine.py", source) == []


# `UbError(kind, message, **details)` carries `details` unchecked until `Machine._bug` passes them
# to `Diagnostic`, so each keyword must name a field there. The machine fills in both traces.
_UB_ERROR_KEYWORDS = {f.name for f in fields(Diagnostic)} - {"host_trace", "foreign_trace"}


def _ub_error_keywords(path):
    tree = ast.parse(path.read_text(), str(path))
    return [
        f"{kw.arg} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "UbError"
        for kw in node.keywords
        if kw.arg not in _UB_ERROR_KEYWORDS
    ]


def test_ub_error_details_are_diagnostic_fields():
    bad = {
        str(path.relative_to(REPO_ROOT)): names
        for path in sorted(REPO_ROOT.glob("src/seamcheck/*.py"))
        if (names := _ub_error_keywords(path))
    }
    assert bad == {}



# The machine keeps its step context as state: the running thread, and `Memory.line`, the line
# of the statement being run. `_step` sets that line and `_do_return` moves it to the call a
# result binds at; no `Machine` or `Memory` method takes a line. In `machine.py` and `memory.py`
# every store to an attribute named `line` counts as a write of it, whatever the receiver, so
# a write through an alias (`memory = self.memory; memory.line = ...`) counts too, as do an
# augmented assignment and a `setattr` of "line". In every other module a store to
# `<x>.memory.line`, or to `line` inside a class `Memory`, counts.
_LINE_WRITERS = {"machine.py:Machine._step", "machine.py:Machine._do_return", "memory.py:Memory.__init__"}


def _line_receiver(node):
    """The object whose `line` `node` stores to, or None if `node` stores no `line`."""
    if isinstance(node, ast.Attribute):
        return node.value if node.attr == "line" and isinstance(node.ctx, ast.Store) else None
    if (
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("setattr", "__setattr__")
        and any(isinstance(a, ast.Constant) and a.value == "line" for a in node.args)
    ):
        return node.args[0] if isinstance(node.func, ast.Name) else node.func.value
    return None


def _writes_line(node, path, owner):
    receiver = _line_receiver(node)
    return receiver is not None and (
        path.name in ("machine.py", "memory.py") or owner == "Memory"
        or getattr(receiver, "attr", None) == "memory"
    )


def _step_context(path, source=None):
    tree = ast.parse(path.read_text() if source is None else source, str(path))
    params, writers = [], set()
    for top in tree.body:
        owner = top.name if isinstance(top, ast.ClassDef) else None
        for fn in top.body if owner else [top]:
            where = f"{path.name}:{owner}.{getattr(fn, 'name', None)}"
            if owner in ("Machine", "Memory") and isinstance(fn, ast.FunctionDef):
                args = ast.walk(fn.args)
                params += [f"{where} (line {a.lineno})" for a in args if getattr(a, "arg", None) == "line"]
            if any(_writes_line(node, path, owner) for node in ast.walk(fn)):
                writers.add(where)
    return params, writers


def test_step_context_is_state_not_a_parameter():
    found = [_step_context(path) for path in sorted(REPO_ROOT.glob("src/seamcheck/*.py"))]
    assert [p for params, _ in found for p in params] == []
    assert set().union(*(writers for _, writers in found)) == _LINE_WRITERS


@pytest.mark.parametrize(
    "name, source, writer",
    [
        ("machine.py", "class Machine:\n    def run(self):\n        memory = self.memory\n        memory.line = 0\n",
         "machine.py:Machine.run"),
        ("machine.py", "class Machine:\n    def run(self):\n        m = self.memory\n        m.line += 1\n",
         "machine.py:Machine.run"),
        ("memory.py", "def reset(m):\n    setattr(m, 'line', 0)\n", "memory.py:None.reset"),
        ("runner.py", "def go(machine):\n    machine.memory.line = 0\n", "runner.py:None.go"),
        ("cli.py", "def go(machine):\n    setattr(machine.memory, 'line', 0)\n", "cli.py:None.go"),
        ("tracking.py", "class Memory:\n    def reset(self):\n        self.line = 0\n", "tracking.py:Memory.reset"),
    ],
)
def test_step_context_lint_sees_each_line_write(name, source, writer):
    assert _step_context(REPO_ROOT / "src" / "seamcheck" / name, source) == ([], {writer})


def test_step_context_lint_ignores_other_lines_outside_machine_and_memory():
    source = "def show(report):\n    report.line = 3\n    setattr(report, 'line', 3)\n"
    assert _step_context(REPO_ROOT / "src" / "seamcheck" / "reports.py", source) == ([], set())
