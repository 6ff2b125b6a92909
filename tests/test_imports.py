"""Every import in the package and its tests is used, every local the package assigns is read,
only memory and the two trackers touch an allocation's borrow state, only memory reads a byte
store's fields, only the borrow tracker base writes a tag event, every detail of a finding is
named as its diagnostic field, no machine or memory method takes a source line, and only the
machine's lowering looks at which statement or right-hand side form it has."""

import ast
from dataclasses import fields

import pytest

from seamcheck.diagnostics import Diagnostic

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
