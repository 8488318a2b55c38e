"""Every module uses every name it imports.

The repo runs no linter, so this AST pass stands in for one: a name bound
by an import in a module under ``src/``, ``tests/`` or ``tools/`` must be
loaded somewhere in that module, or be listed in its ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported(tree: ast.AST) -> dict[str, int]:
    """The names the module's imports bind, with the line of each."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _used(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def unused_imports(paths) -> list[str]:
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        found += [f"{path.relative_to(ROOT)}:{line}: {name}"
                  for name, line in _imported(tree).items() if name not in used]
    return found


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted(p for top in ("src", "tests", "tools") for p in (ROOT / top).rglob("*.py"))
    assert paths
    assert unused_imports(paths) == []
