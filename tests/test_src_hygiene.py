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
read belongs in tests/. The third flags every defaulted parameter of such a
function, method or constructor that no call in src/odirl or benchmarks/
passes, by keyword, by position or through a *args/**kwargs call; calls are
matched by bare name, and a constructor's calls are those of its class. The
fourth flags every parameter in src/odirl that defaults to None unless it is on
an allow-list that gives the reason for it: a None default is a second shape
of the call, so it has to stand for something the program cannot state as a
value. The fifth flags every module of src/odirl other than config.py that
calls the config field walker `check_fields`: `ExperimentConfig.validate`
checks a config once, and the envs and the policy optimizer take the
sections it has checked. The sixth flags every module of src/odirl other
than config.py that imports yaml: config.py keeps the one YAML reader
(`read_yaml`, which rejects a key given twice) and the one writer.
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


def _defaulted_params(fn: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, position among the arguments a call passes) of each defaulted
    parameter; None for keyword-only ones. A method's position leaves out self."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = 1 if method else 0
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(call name, parameter, position) of each defaulted parameter of the
    module-level functions and the methods of a source; a constructor's
    call name is its class."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            out += [(node.name, *p) for p in _defaulted_params(node, method=False)]
        elif isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    name = node.name if m.name == "__init__" else m.name
                    out += [(name, *p) for p in _defaulted_params(m, method=True)]
    return out


def _callee(call: ast.Call) -> str | None:
    """The bare name a call calls: f for f(...) and obj.f(...)."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def passed_parameters(sources) -> tuple[set, dict, set]:
    """From every call in the sources, by bare callee name: the (name, keyword)
    pairs passed, the most positional arguments passed, and the names called
    with *args or **kwargs."""
    keywords, positions, starred = set(), {}, set()
    for source in sources:
        for call in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)):
            name = _callee(call)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(
                    k.arg is None for k in call.keywords):
                starred.add(name)
            keywords |= {(name, k.arg) for k in call.keywords}
            positions[name] = max(positions.get(name, 0), len(call.args))
    return keywords, positions, starred


def unpassed_defaults(sources: dict[str, str], callers) -> list[str]:
    """module:name(parameter) of each defaulted parameter in sources that no
    call in callers passes."""
    keywords, positions, starred = passed_parameters(callers)
    return [f"{module}:{name}({param})" for module, source in sources.items()
            for name, param, pos in defaulted_parameters(source)
            if name not in starred and (name, param) not in keywords
            and (pos is None or positions.get(name, 0) <= pos)]


def test_the_check_flags_defaulted_parameters_no_call_passes():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
              "def g(x=0):\n    pass\n\n"
              "class K:\n    def __init__(self, p, q=1, r=2):\n        pass\n"
              "    def m(self, u=0, v=1):\n        pass\n")
    callers = [source, "f(0, 1, d=2)\nK(1, 2)\nk.m(r=3, v=0)\nargs = ()\ng(*args)\n"]
    assert unpassed_defaults({"mod": source}, callers) == [
        "mod:f(c)", "mod:f(e)", "mod:K(r)", "mod:m(u)"]


def test_every_defaulted_parameter_in_src_is_passed_by_some_caller():
    callers = [p.read_text() for p in [*SRC.glob("*.py"), *BENCHMARKS]]
    assert unpassed_defaults({p.name: p.read_text() for p in MODULES}, callers) == []


# The src/odirl parameters that may default to None (module:function(parameter),
# a method as Class.method), each with the reason why.
NONE_DEFAULTS_ALLOWED = {
    "cli.py:main(argv)": "argparse reads sys.argv, as the console script needs",
    "config.py:load_config(path)": "a config from the defaults and overrides alone, no YAML file",
    "config.py:load_config(overrides)": "a config from the defaults and the YAML file alone",
    "envs.py:rollouts(rng)": "a deterministic rollout draws nothing",
    "envs.py:_TaskEnv.reset(n)": "one state: the benchmark's one-state form",
}


def none_defaults(source: str) -> list[str]:
    """function(parameter) of each parameter of a source that defaults to None, in
    source order; a method or nested function is named Class.method or f.inner."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                args = child.args
                positional = args.posonlyargs + args.args
                pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                         *zip(args.kwonlyargs, args.kw_defaults)]
                found.extend(f"{prefix}{child.name}({a.arg})" for a, d in pairs
                             if isinstance(d, ast.Constant) and d.value is None)
            visit(child, f"{prefix}{child.name}." if isinstance(
                child, (ast.FunctionDef, ast.ClassDef)) else prefix)

    visit(ast.parse(source), "")
    return found


def test_the_check_finds_every_parameter_that_defaults_to_none():
    source = ("def f(a, b=None, c=0, *, d=None, e=1, g):\n"
              "    def inner(y=None):\n        pass\n\n"
              "class K:\n    def __init__(self, p=None):\n        pass\n"
              "    def m(self, x=None, z='None'):\n        pass\n")
    assert none_defaults(source) == ["f(b)", "f(d)", "f.inner(y)", "K.__init__(p)", "K.m(x)"]


def test_src_parameters_default_to_none_only_where_the_allow_list_says_why():
    found = [f"{p.name}:{name}" for p in MODULES for name in none_defaults(p.read_text())]
    assert sorted(found) == sorted(NONE_DEFAULTS_ALLOWED)


def calls_of(name: str, sources: dict[str, str]) -> list[str]:
    """Each module of sources with a call of name, by bare name or as an attribute."""
    return [module for module, source in sources.items()
            if any(isinstance(n, ast.Call) and _callee(n) == name
                   for n in ast.walk(ast.parse(source)))]


def test_the_check_finds_every_module_that_calls_the_field_walker():
    sources = {"a.py": "from .config import check_fields\n\ndef f(s):\n    check_fields(s, 'p.')\n",
               "b.py": "from . import config\nconfig.check_fields(s, '')\n",
               "c.py": "from .config import check_fields\nwalk = check_fields\n",
               "d.py": "def check_fields(s, path):\n    pass\n"}
    assert calls_of("check_fields", sources) == ["a.py", "b.py"]


def test_only_the_config_module_calls_the_field_walker():
    callers = calls_of("check_fields", {p.name: p.read_text() for p in MODULES})
    assert callers == ["config.py"]


def yaml_importers(sources: dict[str, str]) -> list[str]:
    """Each module of sources with an import of yaml or of a yaml submodule, at any depth."""
    def imports_yaml(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "yaml" for a in node.names)
        return (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "yaml")
    return [module for module, source in sources.items()
            if any(map(imports_yaml, ast.walk(ast.parse(source))))]


def test_the_check_finds_every_module_that_imports_yaml():
    sources = {"a.py": "import yaml\n", "b.py": "def f():\n    import json, yaml.constructor\n",
               "c.py": "from yaml import safe_load\n", "d.py": "from .config import read_yaml\n",
               "e.py": "import yamlish\n", "f.py": "s = 'import yaml'\n",
               "g.py": "from . import yaml\n"}
    assert yaml_importers(sources) == ["a.py", "b.py", "c.py"]


def test_only_the_config_module_imports_yaml():
    assert yaml_importers({p.name: p.read_text() for p in SRC.glob("*.py")}) == ["config.py"]
