"""One module owns the reals: numeric.py is the only module of the package
that imports mpmath or enters one of its precision contexts.  The others
reach real numbers through ``BigReal`` and numeric's functions."""

import ast
from pathlib import Path

import pytest

import thetaquot

PACKAGE = Path(thetaquot.__file__).parent
MPMATH_NAMES = {"mpmath", "mp", "mpf"}
CONTEXTS = {"workdps", "workprec", "extradps", "extraprec"}


def mpmath_uses(path: Path) -> list[str]:
    """Each import of mpmath (or of its names through another module) and
    each precision context, as ``line: source``."""
    tree = ast.parse(path.read_text(), str(path))
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "mpmath" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").split(".")[0] == "mpmath" or any(
                a.name in MPMATH_NAMES for a in node.names
            )
        elif isinstance(node, ast.Attribute):
            hit = node.attr in CONTEXTS
        else:
            continue
        if hit:
            uses.append(f"{node.lineno}: {ast.unparse(node)}")
    return uses


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_numeric_imports_mpmath(path):
    uses = mpmath_uses(path)
    if path.name == "numeric.py":
        assert uses  # the owner: the scan must see its imports
    else:
        assert uses == [], f"{path.name} reaches mpmath outside numeric.py"
