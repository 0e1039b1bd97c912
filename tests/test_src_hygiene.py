"""Static checks over the package source: no module binds a name it never reads.

No linter ships with the project's toolchain, so this is a small ast pass
in its place. It looks at each module of src/odirl except __init__.py (whose
imports are the package's exports) and flags every module-level import or
assignment whose name the module never loads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "odirl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _bound_names(stmt: ast.stmt) -> list[str]:
    """Names a module-level import or assignment binds; none for other statements."""
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return []
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in stmt.names]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def unread_module_names(source: str) -> list[str]:
    """Module-level imported or assigned names the module never reads, in order."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for stmt in tree.body for name in _bound_names(stmt) if name not in read]


def test_the_check_flags_unread_imports_and_assignments_only():
    source = ("from __future__ import annotations\nimport logging\nimport os.path\n"
              "import numpy as np\nfrom json import dumps, loads\nlogger = logging.getLogger()\n"
              "A, B = 1, 2\nC: int = 3\n\ndef f(x: np.ndarray):\n    return loads(x) + A\n")
    assert unread_module_names(source) == ["os", "dumps", "logger", "B", "C"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_binds_a_name_it_never_reads(path):
    assert unread_module_names(path.read_text()) == [], path.name
