"""Every public name, and every method and property, has a caller outside
the tests.

A name in ``inferspace.__all__`` stays only if the package itself reads it
(outside ``__init__.py``), an acceptance test or the README quick start
imports it, or the benchmark driver names it.  A package read counts only
where it resolves to the module-level name: a local variable that happens to
share the name is no caller.  A method or property of a class in the package
stays only if one of the same four reads it as an attribute; a read of
``self.<name>`` counts only for a member of the class it is read in.  A name that
only unit tests call is dead weight: it goes, and a test that used it as an
oracle keeps a copy of what it needs.
"""

import ast
import re
import symtable
from pathlib import Path

import inferspace

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "inferspace"

# Methods and properties kept without such a caller, with the reason.
EXEMPT_MEMBERS = {
    "TheoryDensity.mu": "the README documents and_combine(theory.joint, rho, theory.mu) "
                        "as the way to AND a theory with the generic algebra",
}


def _global_loads(source: str) -> set[str]:
    """The names ``source`` reads as module-level names: at module scope, or
    in a function, class, lambda or comprehension that does not bind the
    name itself or take it from an enclosing function."""
    module = symtable.symtable(source, "<package module>", "exec")
    found = {sym.get_name() for sym in module.get_symbols() if sym.is_referenced()}
    scopes = module.get_children()
    while scopes:
        scope = scopes.pop()
        found |= {sym.get_name() for sym in scope.get_symbols()
                  if sym.is_referenced() and sym.is_global()}
        scopes += scope.get_children()
    return found


def _imports(tree: ast.AST) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("inferspace")
            for alias in node.names}


def _attributes(tree: ast.AST) -> set[str]:
    """The attribute reads in ``tree``: ``C.name`` for a read of
    ``self.name`` inside class C, the bare ``name`` for any other."""
    found = set()

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                own = (cls is not None and isinstance(child.value, ast.Name)
                       and child.value.id == "self")
                found.add(f"{cls}.{child.attr}" if own else child.attr)
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return found


def _sources() -> dict[str, list[str]]:
    """The four callers outside the tests, as source texts."""
    (quick_start,) = re.findall(r"^```python\n(.*?)^```",
                                (ROOT / "README.md").read_text(encoding="utf-8"),
                                flags=re.M | re.S)
    return {
        "package": [path.read_text(encoding="utf-8")
                    for path in PACKAGE.glob("*.py") if path.name != "__init__.py"],
        "acceptance": [(ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")],
        "README": [quick_start],
        "perfbench": [(ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")],
    }


def _callers(sources: dict[str, list[str]]) -> dict[str, set[str]]:
    """The public names each caller uses."""
    (acceptance,), (quick_start,), (bench,) = (
        sources[caller] for caller in ("acceptance", "README", "perfbench"))
    return {
        "package": set().union(*map(_global_loads, sources["package"])),
        "acceptance": _imports(ast.parse(acceptance)),
        "README": _imports(ast.parse(quick_start)),
        "perfbench": set(re.findall(r"\w+", bench)),
    }


def _attribute_reads(sources: dict[str, list[str]]) -> set[str]:
    """The attribute reads of all four callers, as ``_attributes`` gives them."""
    return set().union(*(_attributes(ast.parse(text))
                         for texts in sources.values() for text in texts))


def _members(package: list[str]) -> list[tuple[str, str]]:
    """(class, member) for every method and property, dunders aside, of a
    class defined in the ``package`` sources."""
    return [(cls.name, fn.name)
            for tree in map(ast.parse, package)
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))]


def _uncalled(names, sources: dict[str, list[str]]) -> list[str]:
    callers = _callers(sources)
    return [name for name in names if not any(name in found for found in callers.values())]


def _uncalled_members(sources: dict[str, list[str]]) -> list[str]:
    """``class.member`` for each member of a package class that no caller reads."""
    reads = _attribute_reads(sources)
    return [f"{cls}.{name}" for cls, name in _members(sources["package"])
            if name not in reads and f"{cls}.{name}" not in reads]


def test_every_public_name_has_a_caller():
    public = [name for name in inferspace.__all__ if name != "__version__"]
    uncalled = _uncalled(public, _sources())
    assert uncalled == [], f"no caller outside the tests: {uncalled}"


def test_a_local_of_the_same_name_is_no_caller():
    """``scale`` read only as a local, a parameter or an enclosing
    function's variable is uncalled; read as the module-level function, in
    any scope, it is called."""
    shadowed = (
        "def weigh(p, w):\n"
        "    scale = 2.0 * w\n"
        "    return p * scale\n"
        "def spread(scale):\n"
        "    return [scale * k for k in range(3)]\n"
        "def outer():\n"
        "    scale = 1.0\n"
        "    return lambda x: scale * x\n"
    )
    called = "def weigh(p):\n    return [scale(k, p) for k in range(3)]\n"
    for package, expected in ((shadowed, ["scale"]), (called, [])):
        sources = {"package": [package], "acceptance": [""], "README": [""], "perfbench": [""]}
        assert _uncalled(["scale"], sources) == expected


def test_a_self_read_in_another_class_is_no_caller():
    """``Grid.axis`` read only as ``self.axis`` inside another class, which
    reads its own field of that name, is uncalled; read on any other object,
    or as ``self.axis`` inside ``Grid``, it is called."""
    grid = "class Grid:\n    def axis(self, name):\n        return name\n"
    other = "class Summary:\n    def as_dict(self):\n        return {'axis': self.axis}\n"
    on_object = "def width(grid):\n    return grid.axis('T')\n"
    on_self = "class Grid:\n    def axis(self, name):\n        return self.axis(name)\n"
    for package, uncalled in (([grid, other], True), ([grid, other, on_object], False),
                              ([on_self], False)):
        sources = {"package": package, "acceptance": [""], "README": [""], "perfbench": [""]}
        assert ("Grid.axis" in _uncalled_members(sources)) is uncalled


def test_every_method_and_property_has_a_caller():
    uncalled = [qualified for qualified in _uncalled_members(_sources())
                if qualified not in EXEMPT_MEMBERS]
    assert uncalled == [], f"no caller outside the tests: {uncalled}"


def test_exempt_members_exist_and_are_still_uncalled():
    """An exemption lapses once the member gets a caller or is gone."""
    sources = _sources()
    members = {f"{cls}.{name}" for cls, name in _members(sources["package"])}
    uncalled = _uncalled_members(sources)
    for qualified in EXEMPT_MEMBERS:
        assert qualified in members
        assert qualified in uncalled, qualified
