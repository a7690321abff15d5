"""Static checks on how the package's modules import one another."""
from __future__ import annotations

import ast
from pathlib import Path

import pdclass


def private_imports(tree: ast.Module) -> list[str]:
    """``module.name`` for every underscore name the tree imports from the
    package (a relative import, or one that spells out ``pdclass``)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "pdclass":
            continue
        found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    # a private name is free to change with its own module; one that another
    # module or a script needs belongs in the public API, or where it is used
    package = Path(pdclass.__file__).parent
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    assert scripts.is_dir()
    paths = sorted(package.glob("*.py")) + sorted(scripts.glob("*.py"))
    offenders = {
        path.name: names
        for path in paths
        if (names := private_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}
