import importlib
import os
import subprocess
import sys

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
    assert len(exported) == 40
    assert public == set(exported) | set(MODULES)  # so kcol3.cli is not among them
    for attr, module in exported.items():
        assert getattr(kcol3, attr) is getattr(module, attr)
        defined_in = getattr(getattr(module, attr), "__module__", module.__name__)
        assert defined_in == module.__name__, f"{attr} is re-exported by {module.__name__}, not defined there"
    assert kcol3.__version__ == "0.1.0"
