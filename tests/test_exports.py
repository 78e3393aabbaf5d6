"""The package re-exports each public name from the one module that declares it."""

import ast
import importlib
from pathlib import Path

import fsconv

SRC = Path(fsconv.__file__).parent


def test_each_reexport_is_in_exactly_one_modules_all():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.name: node.module for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    declared = {}
    for path in SRC.glob("[!_]*.py"):  # every module but __init__ and __main__
        module = importlib.import_module(f"fsconv.{path.stem}")
        for name in getattr(module, "__all__", ()):
            declared.setdefault(name, []).append(path.stem)
    assert imported
    for name, module in imported.items():
        assert declared.get(name) == [module], (name, module, declared.get(name))
        assert hasattr(fsconv, name)


def test_one_layer_record_and_no_alias_beside_it():
    # the engine rule and the fcfs plan are one record behind one cache: the names
    # they replaced are gone from the package and from fcfs.py
    import fsconv.fcfs

    for module in (fsconv, fsconv.fcfs):
        for name in ("fcfs_fallback", "fcfs_plan"):
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("LayerPlan", "layer_plan"):
        declared = [path.stem for path in SRC.glob("[!_]*.py")
                    if name in getattr(importlib.import_module(f"fsconv.{path.stem}"), "__all__", ())]
        assert declared == ["fcfs"], (name, declared)
