"""Every public name has a caller outside the tests.

A name in ``inferspace.__all__`` stays only if the package itself uses it
(outside ``__init__.py``), an acceptance test or the README quick start
imports it, or the benchmark driver names it.  A name that only unit tests
call is dead weight: it goes, and a test that used it as an oracle keeps a
copy of what it needs.
"""

import ast
import re
from pathlib import Path

import inferspace

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "inferspace"

# Names kept without such a caller, with the reason.
EXEMPT = {
    "make_prior": "the README documents it as the way to evaluate uniform, bounded and "
                  "spherical priors; without it prior_factors' spherical and bounds "
                  "branches would have no caller but tests",
}


def _loads(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _imports(tree: ast.AST) -> set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("inferspace")
            for alias in node.names}


def _callers() -> dict[str, set[str]]:
    package = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            package |= _loads(ast.parse(path.read_text(encoding="utf-8")))
    (quick_start,) = re.findall(r"^```python\n(.*?)^```",
                                (ROOT / "README.md").read_text(encoding="utf-8"),
                                flags=re.M | re.S)
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    bench = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    return {
        "package": package,
        "acceptance": _imports(ast.parse(acceptance)),
        "README": _imports(ast.parse(quick_start)),
        "perfbench": set(re.findall(r"\w+", bench)),
    }


def test_every_public_name_has_a_caller():
    callers = _callers()
    uncalled = [name for name in inferspace.__all__
                if name != "__version__" and name not in EXEMPT
                and not any(name in found for found in callers.values())]
    assert uncalled == [], f"no caller outside the tests: {uncalled}"


def test_exempt_names_are_public_and_still_uncalled():
    """An exemption lapses once the name gets a caller or leaves ``__all__``."""
    callers = _callers()
    for name in EXEMPT:
        assert name in inferspace.__all__
        assert not any(name in found for found in callers.values()), name
