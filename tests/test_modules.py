import ast
import functools
import importlib
import pathlib
import re
import types

import gdmagic

PACKAGE = pathlib.Path(gdmagic.__file__).parent
README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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


def test_no_module_imports_multiprocessing():
    """Every search runs in the calling process, so nothing in the package
    needs worker processes."""
    importers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "multiprocessing"
                for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "multiprocessing")
    assert importers == []


def _constructor_bypasses(path):
    """(line, text) for every place the module makes an instance without
    its constructor: a call of ``object.__new__`` (or of any ``__new__``),
    and any use of an object's ``__dict__``, directly or through ``vars``,
    through which an instance is filled unchecked."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        call = isinstance(node, ast.Call)
        if (call and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
                or call and isinstance(node.func, ast.Name)
                and node.func.id == "vars" and node.args
                or isinstance(node, ast.Attribute) and node.attr == "__dict__"):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_modules_make_no_instance_without_its_constructor():
    offenders = {path.name: _constructor_bypasses(path)
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in offenders.items() if hits} == {}


def test_constructor_bypass_scan_sees_new_and_dict(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import functools\n"
                      "def f(cls, x):\n"
                      "    made = object.__new__(cls)\n"
                      "    made.__dict__.update(x=x)\n"
                      "    vars(made)['y'] = cls.__new__(cls)\n"
                      "    return functools.partial(cls, x)\n")
    assert _constructor_bypasses(module) == [
        (3, "object.__new__(cls)"), (4, "made.__dict__"),
        (5, "cls.__new__(cls)"), (5, "vars(made)")]


def _unused_imports(path):
    """(line, name) for every name the module imports but never reads,
    neither as a name nor through ``__all__``; ``__future__`` imports are
    left out."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound = alias.asname or alias.name.split(".")[0]
                    imported.append((node.lineno, bound))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for statement in tree.body:
        if (isinstance(statement, ast.Assign)
                and [getattr(t, "id", None) for t in statement.targets]
                == ["__all__"]):
            read.update(node.value for node in ast.walk(statement.value)
                        if isinstance(node, ast.Constant))
    return sorted((line, name) for line, name in imported if name not in read)


def test_modules_import_no_name_they_do_not_read():
    unused = {path.name: _unused_imports(path)
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in unused.items() if hits} == {}


def test_unused_import_scan_sees_an_unread_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os.path\n"
                      "import re as regex\n"
                      "from typing import Optional, Sequence\n"
                      "from .graphs import Graph, cycle\n"
                      "__all__ = ['cycle']\n"
                      "def f(x: Sequence) -> Graph:\n"
                      "    import json\n"
                      "    return os.path.join(x)\n")
    assert _unused_imports(module) == [(3, "regex"), (4, "Optional"),
                                       (8, "json")]


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


def _references(statement):
    """Names a top-level statement reads, as a name or an attribute, less
    the names it defines itself (a recursive call is not a caller)."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        read.discard(statement.name)
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = (statement.targets if isinstance(statement, ast.Assign)
                   else [statement.target])
        read -= {t.id for t in targets if isinstance(t, ast.Name)}
    return read


def _uncalled_exports(package, readme_text):
    """Per module, the names of its __all__ that no module of the package
    reads outside the name's own definition (``__init__``, which only
    re-exports, left out) and that the README does not name in backticks."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))
             if path.name != "__init__.py"}
    read = set().union(*(_references(statement)
                         for tree in trees.values() for statement in tree.body))
    documented = set(re.findall(r"`(\w+)`", readme_text))
    uncalled = {}
    for name, tree in trees.items():
        for statement in tree.body:
            if (isinstance(statement, ast.Assign)
                    and [getattr(t, "id", None) for t in statement.targets]
                    == ["__all__"]):
                exports = ast.literal_eval(statement.value)
                missing = sorted(set(exports) - read - documented)
                if missing:
                    uncalled[name] = missing
    return uncalled


def test_every_exported_name_has_a_caller_or_is_documented():
    assert _uncalled_exports(PACKAGE, README.read_text()) == {}


def test_caller_scan_sees_an_uncalled_name(tmp_path):
    (tmp_path / "a.py").write_text(
        '__all__ = ["used", "unused", "documented", "recursive"]\n'
        "def used(): pass\n"
        "def unused(): return unused\n"
        "def documented(): pass\n"
        "def recursive(n): return recursive(n - 1)\n")
    (tmp_path / "b.py").write_text("from .a import used, unused\n"
                                   "def f(): return used()\n")
    (tmp_path / "__init__.py").write_text("from .a import *\nunused\n")
    assert _uncalled_exports(tmp_path, "see `documented`") == {
        "a.py": ["recursive", "unused"]}


_MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                  if path.stem not in ("__init__", "__main__"))


def _stale_readme_names(readme_text):
    """The backticked dotted names of the README that do not resolve by
    ``getattr``, among those whose first part is ``gdmagic``, a gdmagic
    module or a public gdmagic name (a standard-library name such as
    ``str.splitlines`` is left out); a name written as a call, ``f()``,
    must also be callable."""
    for module in _MODULES:  # so that each is an attribute of the package
        importlib.import_module(f"gdmagic.{module}")
    missing = object()
    stale = []
    for text, dotted, call in re.findall(r"`(([A-Za-z_]\w*(?:\.\w+)+)(\(\))?)`",
                                         readme_text):
        first, *rest = dotted.split(".")
        if first == "gdmagic":
            root = gdmagic
        elif first in _MODULES or first in gdmagic.__all__:
            root = getattr(gdmagic, first)
        else:
            continue
        found = functools.reduce(lambda obj, name: getattr(obj, name, missing),
                                 rest, root)
        if found is missing or call and not callable(found):
            stale.append(text)
    return stale


def test_readme_names_resolve():
    assert _stale_readme_names(README.read_text()) == []


def test_readme_name_scan_sees_a_stale_name():
    text = ("`gdmagic.graphs.TwinPairing`, `Graph.twin_classes()`, "
            "`Graph.twin_classes`, `graphs.find_twin_pairing()`, "
            "`gdmagic.cli`, `str.splitlines`, `magic.no_such_name`, "
            "`lex(C(3),C(4))`")
    assert _stale_readme_names(text) == [
        "gdmagic.graphs.TwinPairing", "Graph.twin_classes()",
        "magic.no_such_name"]


def _caps_not_documented(readme_text, caps):
    """The names among ``caps`` (name -> value) that no README sentence
    names in backticks together with the value, written in digits, with
    thousands separators or as a power such as 10^12, outside backticks
    (a quoted message does not document the cap)."""
    stale = []
    for name, value in caps.items():
        sentences = [s for s in re.split(r"\.\s+", readme_text)
                     if f"`{name}`" in s]
        numbers = {int(base.replace(",", "")) ** int(power or 1)
                   for s in sentences
                   for base, power in re.findall(
                       r"(?<![\w.^])(\d{1,3}(?:,\d{3})+|\d+)(?:\^(\d+))?",
                       re.sub(r"`[^`]*`", "", s))}
        if value not in numbers:
            stale.append(name)
    return stale


def test_readme_caps_match_the_code():
    from gdmagic import abelian, graphs, solver

    caps = {name: getattr(module, name) for module, names in (
        (solver, ("NAIVE_VERTEX_CAP", "PRUNED_VERTEX_CAP", "ALL_MODE_CAP")),
        (graphs, ("MAX_TREE_VERTICES", "MAX_EXPR_DEPTH")),
        (abelian, ("MAX_GROUP_ORDER",))) for name in names}
    assert _caps_not_documented(README.read_text(), caps) == []


def test_readme_cap_scan_sees_a_stale_cap():
    text = ("The search takes at most 13 vertices (`PRUNED_VERTEX_CAP`). "
            "It lists 100,000 labelings at most. The cap is "
            "`ALL_MODE_CAP`. Orders go up to 10^12 (`MAX_GROUP_ORDER`); "
            "trees to 14 vertices (`MAX_TREE_VERTICES`: 3159 trees). "
            "Depth: `MAX_EXPR_DEPTH` is K(1000), `naive over 8`, "
            "`NAIVE_VERTEX_CAP`.")
    caps = {"PRUNED_VERTEX_CAP": 12, "ALL_MODE_CAP": 100_000,
            "MAX_GROUP_ORDER": 10**12, "MAX_TREE_VERTICES": 14,
            "MAX_EXPR_DEPTH": 100, "NAIVE_VERTEX_CAP": 8}
    assert _caps_not_documented(text, caps) == [
        "PRUNED_VERTEX_CAP", "ALL_MODE_CAP", "MAX_EXPR_DEPTH",
        "NAIVE_VERTEX_CAP"]
