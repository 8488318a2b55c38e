"""Every public name, and every method and property, has a caller outside
the tests.

A name in ``inferspace.__all__`` stays only if the package itself reads it
(outside ``__init__.py``), an acceptance test or the README quick start
imports it, or the benchmark driver names it.  A package read counts only
where it resolves to the module-level name: a local variable that happens to
share the name is no caller.  A method or property of a class in the package
stays only if one of the same four reads it as an attribute.  A name that
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
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


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


def _attribute_callers() -> dict[str, set[str]]:
    """The attribute names each caller reads."""
    return {caller: set().union(*map(_attributes, map(ast.parse, texts)))
            for caller, texts in _sources().items()}


def _members() -> list[tuple[str, str]]:
    """(class, member) for every method and property, dunders aside, of a
    class defined in the package."""
    return [(cls.name, fn.name)
            for tree in map(ast.parse, _sources()["package"])
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))]


def _uncalled(names, sources: dict[str, list[str]]) -> list[str]:
    callers = _callers(sources)
    return [name for name in names if not any(name in found for found in callers.values())]


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


def test_every_method_and_property_has_a_caller():
    callers = _attribute_callers()
    uncalled = [f"{cls}.{name}" for cls, name in _members()
                if f"{cls}.{name}" not in EXEMPT_MEMBERS
                and not any(name in found for found in callers.values())]
    assert uncalled == [], f"no caller outside the tests: {uncalled}"


def test_exempt_members_exist_and_are_still_uncalled():
    """An exemption lapses once the member gets a caller or is gone."""
    callers = _attribute_callers()
    members = {f"{cls}.{name}" for cls, name in _members()}
    for qualified in EXEMPT_MEMBERS:
        assert qualified in members
        name = qualified.split(".")[1]
        assert not any(name in found for found in callers.values()), qualified
