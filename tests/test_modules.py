import ast
import importlib
import pathlib
import types

import gdmagic

PACKAGE = pathlib.Path(gdmagic.__file__).parent


def _private_imports(path):
    """(line, module, name) for every `_`-prefixed name the module imports
    from a sibling module of the package, at any nesting depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").startswith("gdmagic")
        if not sibling:
            continue
        for alias in node.names:
            if alias.name.startswith("_") and alias.name != "__version__":
                found.append((node.lineno, node.module, alias.name))
    return sorted(found)


def test_modules_import_no_private_names_from_each_other():
    offenders = {path.name: _private_imports(path)
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def test_private_import_scan_sees_nested_imports(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .graphs import Graph\n"
                      "def f():\n"
                      "    from .magic import _hidden\n"
                      "from gdmagic.constructors import (auto_label,\n"
                      "    _pow2_host)\n"
                      "from os import _exit\n")
    assert _private_imports(module) == [(3, "magic", "_hidden"),
                                        (4, "gdmagic.constructors",
                                         "_pow2_host")]


def _stale_exports(module):
    """Names the module's __all__ lists but the module does not define."""
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


def test_every_exported_name_exists():
    stale = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the CLI
            continue
        name = "gdmagic" if path.stem == "__init__" else f"gdmagic.{path.stem}"
        missing = _stale_exports(importlib.import_module(name))
        if missing:
            stale[path.name] = missing
    assert stale == {}


def test_stale_export_scan_sees_a_missing_name():
    module = types.ModuleType("m")
    module.__all__ = ["present", "deleted"]
    module.present = object()
    assert _stale_exports(module) == ["deleted"]


def test_package_exports_the_union_of_module_exports():
    union = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            module = importlib.import_module(f"gdmagic.{path.stem}")
            union.update(getattr(module, "__all__", ()))
    public = {name for name, value in vars(gdmagic).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert sorted(gdmagic.__all__) == sorted(union)
    assert public == union
