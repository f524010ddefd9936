"""The package's import layers, one home and a reader for each public name,
read from the source with ast: config sits on csg alone, the numerical
kernels import nothing of the package, only cli reaches the command line,
and every name an __all__ lists is read by the package, bench/ or a hook."""

import ast
import fnmatch
import re
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "csgtopo"
SOURCES = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
MODULES = set(SOURCES) - {"__init__"}

# the package modules each of these may import, under TYPE_CHECKING or not
ALLOWED = {"config": {"csg"}, "mma": set(), "csg": set(), "fea": set()}
EXEMPT = {"__all__", "log"}     # every module may define its own


def package_imports(source: str) -> dict[str, bool]:
    """Each package module that source imports, mapped to whether every
    import of it sits under `if TYPE_CHECKING:`."""
    tree = ast.parse(source)
    guarded = {id(node) for branch in ast.walk(tree)
               if isinstance(branch, ast.If)
               and ast.unparse(branch.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
               for stmt in branch.body for node in ast.walk(stmt)}
    found: dict[str, bool] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                base = module
            elif node.level == 0 and module.split(".")[0] == "csgtopo":
                base = module.partition(".")[2]
            else:
                continue
            names = [base.split(".")[0]] if base else [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name.split(".")[1] for alias in node.names
                     if alias.name.startswith("csgtopo.")]
        else:
            continue
        for name in set(names) & MODULES:
            found[name] = found.get(name, True) and id(node) in guarded
    return found


def layering_errors(module: str, imports: dict[str, bool]) -> list[str]:
    errors = []
    extra = set(imports) - ALLOWED.get(module, set(imports))
    if extra:
        errors.append(f"{module} imports {', '.join(sorted(extra))}")
    if module == "geometry" and imports.get("fea") is False:
        errors.append("geometry imports fea outside TYPE_CHECKING")
    if module != "cli" and "cli" in imports:
        errors.append(f"{module} imports cli")
    return errors


def public_definitions(source: str) -> set[str]:
    """Names a module's top level binds by def, class or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return {name for name in names if not name.startswith("_")} - EXEMPT


def repeated_names(sources: dict[str, str]) -> dict[str, list[str]]:
    """Each public name defined in more than one module, with those modules."""
    homes: dict[str, list[str]] = {}
    for module, source in sources.items():
        for name in public_definitions(source):
            homes.setdefault(name, []).append(module)
    return {name: modules for name, modules in homes.items() if len(modules) > 1}


def test_each_module_imports_only_its_layers():
    imports = {module: package_imports(SOURCES[module]) for module in sorted(MODULES)}
    assert {module: layering_errors(module, found)
            for module, found in imports.items()
            if layering_errors(module, found)} == {}
    # the walk sees the imports it rules on
    assert imports["config"] == {"csg": False}
    assert imports["geometry"] == {"fea": True}
    assert {"config", "mma", "fea"} <= set(imports["problem"])


def test_each_public_name_has_one_home():
    assert repeated_names(SOURCES) == {}
    schema = {"ConfigError", "ProblemSpec", "MmaConfig", "config_from_dict", "read_json",
              "spec_to_dict", "BENCHMARKS", "MAX_TAPE_DOUBLES", "shown", "ranged",
              "field_error", "is_int", "is_finite_real"}
    assert schema <= public_definitions(SOURCES["config"])


@pytest.mark.parametrize("module,source", [
    ("config", "from . import csg, fea"),
    ("config", "from .geometry import rasterize_primitive"),
    ("mma", "from .config import MmaConfig"),
    ("mma", "if TYPE_CHECKING:\n    from .config import MmaConfig"),
    ("csg", "import csgtopo.fea"),
    ("fea", "from csgtopo import csg"),
    ("geometry", "from .fea import Mesh"),
    ("geometry", "if TYPE_CHECKING:\n    pass\nfrom . import fea"),
    ("problem", "from . import cli"),
    ("sensitivity", "def f():\n    from .cli import main"),
])
def test_a_forbidden_import_is_flagged(module, source):
    assert layering_errors(module, package_imports(source))


@pytest.mark.parametrize("module,source", [
    ("config", "from . import csg\nimport json"),
    ("geometry", "if TYPE_CHECKING:\n    from .fea import Mesh"),
    ("cli", "from . import csg\nfrom .config import shown\nfrom .problem import Model"),
])
def test_an_allowed_import_passes(module, source):
    assert layering_errors(module, package_imports(source)) == []


def test_a_name_defined_twice_is_flagged():
    assert repeated_names({"a": "def shown(v):\n    pass", "b": "shown = repr",
                           "c": "class ConfigError(ValueError):\n    pass",
                           "d": "ConfigError: type = ValueError"}) == {
        "shown": ["a", "b"], "ConfigError": ["c", "d"]}
    assert repeated_names({"a": "__all__ = []\nlog = 1\n_cache = {}",
                           "b": "__all__ = []\nlog = 2\n_cache = {}"}) == {}


LIBRARY_API = {"ProblemSpec", "MmaConfig", "ConfigError", "Model", "OptimizeResult",
               "SolverAbort", "initialize", "optimize", "MmaState", "mma_update",
               "kkt_residual", "fd_check"}


def test_the_package_exports_the_library_api_alone():
    # the kernels stay importable from their own modules
    init = ast.parse(SOURCES["__init__"])
    assert {alias.name for node in init.body if isinstance(node, ast.ImportFrom)
            and node.module for alias in node.names} == LIBRARY_API
    # what the tests and the benchmark take from the top level is in it
    users = [*SRC.parents[1].glob("tests/*.py"), *SRC.parents[1].glob("bench/*.py")]
    taken = {alias.name for path in users for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom) and node.module == "csgtopo"
             for alias in node.names}
    assert taken - MODULES <= LIBRARY_API


BENCH_SOURCES = [path.read_text() for path in sorted(SRC.parents[1].glob("bench/*.py"))]


def read_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names tree reads as a variable or an attribute, outside subtree skip."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def hook_targets(sources: list[str]) -> set[tuple[str, str]]:
    """(module, name) of each 'module:name' target a string in sources
    spells; a name may end in *, and a method target names its class."""
    return {match.groups() for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (match := re.fullmatch(r"[\w.]*\b(\w+):(\w[\w*]*)[\w.]*", node.value))}


def unread_names(sources: dict[str, str], others: list[str]) -> list[str]:
    """module.name for each name of a module's __all__ that nothing reads:
    not another module of sources, nor its own module outside the statement
    that defines it, nor a file of others, nor a hook target they spell."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    outside = set().union(*(read_names(ast.parse(source)) for source in others))
    hooks = hook_targets(others)
    unread = []
    for module, tree in trees.items():
        exported = next((ast.literal_eval(node.value) for node in tree.body
                         if isinstance(node, ast.Assign)
                         and [ast.unparse(t) for t in node.targets] == ["__all__"]), [])
        read_elsewhere = outside.union(*(read_names(other) for name, other in trees.items()
                                         if name != module))
        for name in exported:
            definition = next((node for node in tree.body if name in public_definitions(
                ast.unparse(node))), None)
            if (name in read_elsewhere or name in read_names(tree, skip=definition)
                    or any(m == module and fnmatch.fnmatchcase(name, pattern)
                           for m, pattern in hooks)):
                continue
            unread.append(f"{module}.{name}")
    return unread


def test_every_public_name_has_a_reader():
    assert unread_names(SOURCES, BENCH_SOURCES) == []


def test_a_public_name_without_a_reader_is_flagged():
    sources = {"a": "__all__ = ['f', 'g', 'h', 'K']\n"
                    "def f(n):\n    return f(n - 1)\n"
                    "def g():\n    pass\n"
                    "def h():\n    pass\n"
                    "K = 1\nprint(K)",
               "b": "from .a import g\ng()"}
    others = ["HOOK = f'{PKG}.a:h'"]
    # f is read only inside its own definition
    assert unread_names(sources, others) == ["a.f"]
    assert unread_names(sources, []) == ["a.f", "a.h"]
