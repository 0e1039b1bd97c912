"""Static checks over the package source: no module binds a name it never
reads, and nothing the package defines goes unread.

No linter ships with the project's toolchain, so these are small ast passes
in its place. The first looks at each module of src/odirl except __init__.py
(whose imports are the package's exports) and flags every module-level
import or assignment whose name the module never loads. The second flags
every function, class and method (dunder methods aside) defined in
src/odirl whose name no module of src/odirl other than __init__.py reads,
nor any file of benchmarks/. A read is a loaded name or an attribute, and
in benchmarks/ also a string constant, such as the attribute names that
benchmarks/tracing.py patches. Tests do not count: a definition only tests
read belongs in tests/.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "odirl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCHMARKS = sorted((SRC.parent.parent / "benchmarks").glob("*.py"))


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


def defined_names(source: str) -> list[str]:
    """Module-level functions and classes in order, each class followed by its
    methods as Class.method (dunder methods aside)."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef)
                      and not (m.name.startswith("__") and m.name.endswith("__"))]
    return names


def read_names(source: str, strings: bool = False) -> set[str]:
    """Loaded names and attribute names of a source, and with strings=True
    its string constants too."""
    names = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            names.add(n.id if isinstance(n, ast.Name) else n.attr)
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.add(n.value)
    return names


def unread_definitions(sources: dict[str, str], readers: set[str]) -> list[str]:
    """module:name of each definition in sources whose bare name is not in readers."""
    return [f"{module}:{name}" for module, source in sources.items()
            for name in defined_names(source) if name.rpartition(".")[2] not in readers]


def test_the_check_flags_definitions_nothing_reads():
    source = ("class A:\n    def __init__(self):\n        self.x = 1\n    def used(self):\n"
              "        return self.x\n    def unused(self):\n        pass\n    @property\n"
              "    def prop(self):\n        return 2\n\n"
              "def f():\n    return A().used() + A().prop\n\n"
              "def g():\n    pass\n\ndef patched():\n    pass\n")
    readers = read_names(source) | read_names("setattr(m, 'patched', None)\n", strings=True)
    assert unread_definitions({"m": source}, readers) == ["m:A.unused", "m:f", "m:g"]


def test_every_function_class_and_method_in_src_is_read_by_name():
    readers = set().union(*(read_names(p.read_text()) for p in MODULES),
                          *(read_names(p.read_text(), strings=True) for p in BENCHMARKS))
    assert unread_definitions({p.name: p.read_text() for p in MODULES}, readers) == []
