import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import kcol3

LIBRARY_MODULES = ("errors", "gadgets", "graphs", "reduction", "sat_route", "solver")
MODULES = {name: importlib.import_module(f"kcol3.{name}") for name in LIBRARY_MODULES}


def test_every_library_module_declares_its_exports():
    for name, module in MODULES.items():
        assert module.__all__ and len(set(module.__all__)) == len(module.__all__), name


def test_public_names_are_the_union_of_the_module_exports():
    """The package exports what each module's `__all__` lists, and nothing else:
    perfbench's tracer reads the same lists, so the two cannot drift apart."""
    # A fresh interpreter, so that no submodule another test imported (kcol3.cli) is counted.
    code = "import kcol3; print(' '.join(n for n in vars(kcol3) if not n.startswith('_')))"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kcol3.__file__))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    public = set(run.stdout.split())
    exported = {}
    for module in MODULES.values():
        for attr in module.__all__:
            assert attr not in exported, f"{attr} is exported by both {exported[attr].__name__} and {module.__name__}"
            exported[attr] = module
    assert len(exported) == 37
    assert public == set(exported) | set(MODULES)  # so kcol3.cli is not among them
    for attr, module in exported.items():
        assert getattr(kcol3, attr) is getattr(module, attr)
        defined_in = getattr(getattr(module, attr), "__module__", module.__name__)
        assert defined_in == module.__name__, f"{attr} is re-exported by {module.__name__}, not defined there"
    assert kcol3.__version__ == "0.1.0"


def _defined(statement) -> set:
    """The names a top-level statement defines: a def, a class or assignment targets."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", [getattr(statement, "target", None)])
    return {node.id for target in targets if target for node in ast.walk(target) if isinstance(node, ast.Name)}


def test_every_public_name_has_a_caller():
    """A name in a module's `__all__` is read by the library outside its own definition, imported from
    or reached through `kcol3` by the acceptance tests, or by perfbench's code. Other tests do not count."""
    root = Path(__file__).resolve().parent.parent
    called = set()
    for path in (root / "src" / "kcol3").glob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            nodes = list(ast.walk(statement))
            reads = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            reads |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
            called |= reads - _defined(statement)
    perfbench = [path for path in (root / "perfbench").glob("*.py") if not path.name.startswith("test_")]
    for path in [root / "tests" / "test_acceptance.py", *perfbench]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kcol3":
                called.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value).split(".")[0] == "kcol3":
                called.add(node.attr)
    assert sorted(name for module in MODULES.values() for name in module.__all__ if name not in called) == []


def test_every_private_name_has_a_caller():
    """A `_name` defined at module top level or in a class body under src/kcol3 is read somewhere in src/kcol3
    outside its own definition (a method's reads inside itself do not count, nor a class's inside its body)."""
    root = Path(__file__).resolve().parent.parent
    defined, called = set(), set()
    for path in (root / "src" / "kcol3").glob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            if isinstance(statement, ast.ClassDef):  # each member on its own, and the class line's bases apart
                header = [*statement.bases, *statement.keywords, *statement.decorator_list]
                units = [([member], _defined(member) | {statement.name}) for member in statement.body]
                units.append((header, set()))
            else:
                units = [([statement], _defined(statement))]
            for trees, own in units:
                defined |= own
                nodes = [node for tree in trees for node in ast.walk(tree)]
                reads = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                reads |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
                called |= reads - own
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert sorted(private - called) == []
