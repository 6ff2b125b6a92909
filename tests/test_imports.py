"""Every import in the package and its tests is used."""

import ast

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
