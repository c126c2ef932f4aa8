"""Dead-code guards: every definition has a user, every import a reader.

A module-level function or class, and every method that is not a dunder,
of src/valcert must be named in src/valcert (re-exports in __init__.py do
not count) or in demos/.  A method counts as used only where it is read
as an attribute (obj.name), so a free function of the same name does not
keep it alive.  Tests are not users: code only tests reach belongs in the
tests.

Every name a module of src/valcert (but __init__.py, whose imports are
its re-exports) or of tests/ imports must be read in that module;
`from __future__` imports are exempt.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "valcert"


def _trees(paths):
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def definitions():
    """(module, name, is_method) for every checked definition."""
    out = []
    for path, tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((path.stem, node.name, False))
            if isinstance(node, ast.ClassDef):
                out += [(path.stem, f"{node.name}.{item.name}", True)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))]
    return out


def references():
    """Names read as bare names, and names read as attributes."""
    users = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    users += sorted((ROOT / "demos").glob("*.py"))
    names, attrs = set(), set()
    for _, tree in _trees(users):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


def test_scan_sees_the_package():
    defs = definitions()
    assert ("poly", "Poly.hasse_derivative", True) in defs
    assert ("cli", "run_single", False) in defs
    assert not any(name.endswith(".__init__") for _, name, _ in defs)


def test_every_definition_has_a_user():
    names, attrs = references()
    dead = []
    for module, name, is_method in definitions():
        short = name.rsplit(".", 1)[-1]
        used = short in attrs if is_method else (short in names or short in attrs)
        if not used:
            dead.append(f"{module}.{name}")
    assert not dead, f"defined but never used in src/valcert or demos/: {dead}"


def unused_imports(tree):
    """The names a module imports and never reads."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_unused_import_scan():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, sys\nfrom json import dumps as d, loads\n"
                     "sys.exit(loads(os.path.sep))\n")
    assert unused_imports(tree) == ["d"]


def test_every_import_is_read():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = [f"{path.relative_to(ROOT)}: {name}"
              for path, tree in _trees(paths) for name in unused_imports(tree)]
    assert not unused, f"imported but never read: {unused}"
