"""Every import in the package and its tests is used, every local the package assigns is read,
only memory and the two trackers touch an allocation's borrow state, only the borrow tracker
base writes a tag event, every detail of a finding is named as its diagnostic field, no
machine or memory method takes a source line, and only the machine's lowering looks at which
statement or right-hand side form it has."""

import ast
from dataclasses import fields

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
# dispatch grows back beside the lowered one.
def _ir_form_tests(path):
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
                names = [n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)]
                if any(name.endswith(("Stmt", "Rhs")) for name in names):
                    found.append((owner, f"{', '.join(names)} (line {node.lineno})"))
    return found


def test_only_the_lowering_tests_statement_forms():
    found = _ir_form_tests(REPO_ROOT / "src" / "seamcheck" / "machine.py")
    assert found and {owner for owner, _ in found} == {"_Lowering"}, found


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
# result binds at; no `Machine` or `Memory` method takes a line.
_LINE_WRITERS = {"machine.py:Machine._step", "machine.py:Machine._do_return", "memory.py:Memory.__init__"}


def _step_context(path):
    tree = ast.parse(path.read_text(), str(path))
    params, writers = [], set()
    for top in tree.body:
        for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = top.name if isinstance(top, ast.ClassDef) else None
            where = f"{path.name}:{owner}.{fn.name}"
            if owner in ("Machine", "Memory"):
                args = ast.walk(fn.args)
                params += [f"{where} (line {a.lineno})" for a in args if getattr(a, "arg", None) == "line"]
            for node in ast.walk(fn):
                for t in getattr(node, "targets", [getattr(node, "target", None)]):
                    if isinstance(t, ast.Attribute) and t.attr == "line" and (
                        getattr(t.value, "attr", None) == "memory" or owner == "Memory"
                    ):
                        writers.add(where)
    return params, writers


def test_step_context_is_state_not_a_parameter():
    found = [_step_context(path) for path in sorted(REPO_ROOT.glob("src/seamcheck/*.py"))]
    assert [p for params, _ in found for p in params] == []
    assert set().union(*(writers for _, writers in found)) == _LINE_WRITERS
