"""Static checks of the package sources that need no linter installed."""
import ast
import builtins
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "mhdfem").glob("*.py"))
# the benchmark drives the package through its public API, so what it
# reads counts as reached
BENCH_SOURCES = sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(text):
    """Names a module imports and never reads; an import statement with
    `# noqa: F401` on one of its lines is a deliberate re-export."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        imported.update((a.asname or a.name).split(".")[0]
                        for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def calls_of(text, name):
    """Line numbers where a module calls name, bare or as an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_call_is_caught():
    text = ("from .linalg import solve_direct  # noqa: F401\n"
            "x = solve_direct(a, b)\ny = linalg.solve_direct(a, b)\n"
            "z = solve_direct\n")
    assert calls_of(text, "solve_direct") == [2, 3]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_production_path_factors_the_whole_step(path):
    # a Picard step solves through its block factors only; solve_direct
    # stays as the tests' reference solve
    assert calls_of(path.read_text(), "solve_direct") == []


def test_unused_import_is_caught():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["json"]
    assert unused_imports("from m import (a,  # noqa: F401\n    b)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# all that the package may import, at import time or in a function body
ALLOWED_PACKAGES = sys.stdlib_module_names | {"numpy", "scipy", "mhdfem"}


def foreign_imports(text):
    """Top-level packages a module imports anywhere, other than
    ALLOWED_PACKAGES; relative imports are the package itself."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return sorted(found - ALLOWED_PACKAGES)


def test_import_time_import_is_caught():
    text = ("import os.path\nimport numpy as np\nfrom scipy import sparse\n"
            "from . import mesh\nimport sympy\n"
            "try:\n    from pandas import DataFrame\nexcept ImportError:\n"
            "    pass\nclass C:\n    import yaml\n"
            "def f():\n    import matplotlib\n")
    assert foreign_imports(text) == ["matplotlib", "pandas", "sympy", "yaml"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_import_time_imports_beyond_numpy_and_scipy(path):
    assert foreign_imports(path.read_text()) == []


def test_required_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]

    def names(deps):
        return [re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in deps]

    assert sorted(names(project["dependencies"])) == ["numpy", "scipy"]
    # no extra brings sympy back: expression forces are parsed with numpy
    assert not any("sympy" in names(deps) for deps in
                   project.get("optional-dependencies", {}).values())


def names_read(tree):
    """Names a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(a.name for a in node.names)
    return read


def unused_private_names(texts):
    """Module-level `_name`s (functions, classes, assignments) that no
    module of texts reads, as `module.name`; texts maps module name to
    source."""
    defined, read = [], set()
    for module, text in texts.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        read |= names_read(tree)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read)


def test_unused_private_name_is_caught():
    texts = {"a": "_KEPT = 1\n_DEAD, x = 2, 3\ndef _f():\n    return _KEPT\n"
                  "class _C:\n    pass\n",
             "b": "from .a import _C\n"}
    assert unused_private_names(texts) == ["a._DEAD", "a._f"]


def test_no_unused_private_names():
    assert unused_private_names({p.stem: p.read_text()
                                 for p in SOURCES}) == []


def unread_public_functions(texts, readers=(), kernels=()):
    """Public module-level functions and classes of texts that no module of
    texts or readers (sources) reads, as `module.name`.  A `<k>_elements`
    function counts as read when k is in kernels: the Picard step looks
    those up by kernel name."""
    defined, read = [], {f"{k}_elements" for k in kernels}
    for module, text in texts.items():
        tree = ast.parse(text)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        read |= names_read(tree)
    for text in readers:
        read |= names_read(ast.parse(text))
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read)


def test_unread_public_function_is_caught():
    texts = {"a": "def f():\n    return g()\ndef g():\n    pass\n"
                  "def dead():\n    pass\ndef k_elements():\n    pass\n"
                  "def _private():\n    pass\n"
                  "class Dead(Exception):\n    pass\n",
             "b": "from .a import f\n"}
    assert unread_public_functions(texts) \
        == ["a.Dead", "a.dead", "a.k_elements"]
    assert unread_public_functions(
        texts, ["a.dead()\nraise Dead\n"], ["k"]) == []


def test_no_unread_public_functions():
    from mhdfem.assembly import KERNEL_RULES

    assert unread_public_functions(
        {p.stem: p.read_text() for p in SOURCES},
        [p.read_text() for p in BENCH_SOURCES], KERNEL_RULES) == []


def unread_dataclass_fields(texts, readers=()):
    """Annotated fields of the `@dataclass` classes of texts that no module
    of texts or readers (sources) loads as an attribute, as
    `module.Class.field`."""
    defined, read = [], set()
    for text in [*texts.values(), *readers]:
        read |= {node.attr for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.ctx, ast.Load)}
    for module, text in texts.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(n, ast.Name) and n.id == "dataclass"
                    for d in node.decorator_list for n in ast.walk(d)):
                defined += [(module, node.name, item.target.id)
                            for item in node.body
                            if isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)]
    return sorted(f"{module}.{cls}.{name}" for module, cls, name in defined
                  if name not in read)


def test_unread_dataclass_field_is_caught():
    texts = {"a": "@dataclass(frozen=True)\nclass P:\n    x: int\n"
                  "    dead: int = 0\n    stored: int = 0\n"
                  "class Plain:\n    y: int\n",
             "b": "def f(p):\n    p.stored = p.x\n"}
    assert unread_dataclass_fields(texts) == ["a.P.dead", "a.P.stored"]
    assert unread_dataclass_fields(texts, ["q.dead + q.stored\n"]) == []


def test_no_unread_dataclass_fields():
    assert unread_dataclass_fields(
        {p.stem: p.read_text() for p in SOURCES},
        [p.read_text() for p in BENCH_SOURCES]) == []


def cache_decorators(text):
    """Names of the functions a module decorates with functools.lru_cache,
    functools.cache or functools.cached_property, bare, called or through
    the module."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(target, "id", getattr(target, "attr", None)) \
                        in ("lru_cache", "cache", "cached_property"):
                    found.append(node.name)
    return found


def test_cache_decorator_is_caught():
    text = ("import functools\nfrom functools import cache, lru_cache\n"
            "@lru_cache\ndef a():\n    pass\n"
            "@lru_cache(maxsize=1)\ndef b():\n    pass\n"
            "@functools.lru_cache(maxsize=None)\ndef c():\n    pass\n"
            "@cache\ndef d():\n    pass\n"
            "@functools.cache\ndef e():\n    pass\n"
            "class K:\n    @property\n    def f(self):\n        pass\n"
            "    @cached_property\n    def g(self):\n        pass\n"
            "    @functools.cached_property\n    def h(self):\n"
            "        pass\n")
    assert cache_decorators(text) == ["a", "b", "c", "d", "e", "g", "h"]


def test_only_the_mesh_context_is_cached():
    # one per-mesh context holds what a mesh's runs share; a scattered
    # module cache would keep meshes and their factors alive besides it,
    # and a cached property would keep what one call needed (a basis at
    # every point of every tet, say) for the life of its object
    assert [f"{p.stem}.{name}" for p in SOURCES
            for name in cache_decorators(p.read_text())] \
        == ["operators.discrete_ops"]


BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type)
                      and issubclass(obj, BaseException)}


def exception_classes(texts):
    """Names of the classes of texts (sources) that derive from a builtin
    exception, directly or through one another."""
    bases = {node.name: {getattr(b, "id", getattr(b, "attr", None))
                         for b in node.bases}
             for text in texts for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.ClassDef)}
    found = set()
    while True:
        more = {name for name, of in bases.items()
                if of & (BUILTIN_EXCEPTIONS | found)}
        if more == found:
            return sorted(found)
        found = more


def test_exception_class_is_caught():
    texts = ["class E(Exception):\n    pass\nclass F(E):\n    pass\n"
             "class G(ValueError):\n    pass\nclass P:\n    pass\n"
             "class Q(P):\n    pass\n",
             "class H(a.F):\n    pass\n"]
    assert exception_classes(texts) == ["E", "F", "G", "H"]


def test_exception_classes_are_the_named_outcomes():
    # a bad argument raises ValueError; the package defines only the types
    # the CLI names (ConfigError, SingularSystemError) and the one the
    # Picard loop turns into a termination (LinearStallError)
    assert exception_classes(p.read_text() for p in SOURCES) \
        == ["ConfigError", "LinearStallError", "SingularSystemError"]


def stray_space_builds(texts):
    """`module:line` of every FeSpace construction outside operators, as
    texts maps module name to source: the per-mesh context,
    operators.DiscreteOps, builds every space a run uses."""
    return [f"{module}:{line}" for module, text in texts.items()
            if module != "operators" for line in calls_of(text, "FeSpace")]


def test_stray_space_build_is_caught():
    texts = {"operators": "self.vel = FeSpace('P2', mesh, mask)\n",
             "derham": "def build(mesh, tag):\n"
                       "    return FeSpace(tag, mesh, mask)\n",
             "harness": "rt = derham.FeSpace('RaviartThomas0', m, mask)\n"}
    assert stray_space_builds(texts) == ["derham:2", "harness:1"]


def test_only_the_mesh_context_builds_spaces():
    assert stray_space_builds({p.stem: p.read_text()
                               for p in SOURCES}) == []
