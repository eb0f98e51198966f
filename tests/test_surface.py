"""gphier's library holds only what its callers run.

Every function, class and method defined in src/gphier must be named
somewhere in src/gphier or perfbench.  A name the tests alone reach belongs
in a test oracle module.  The code is only parsed, never imported.

A module-level definition f of module m counts as named by a bare name f
(inside m, or wherever it was imported), by an import of f, or by an
attribute f of a name bound to module m (`nls.solve_nodes`).  A method
counts as named by an attribute of the same name on anything but an
imported module, so numpy's np.zeros does not name a zeros method.
Strings count where they name a binding: perfbench's WRAPS table names the
functions it wraps as ("gphier.<module>", "<name>", group) rows.  Any other
string is data (the initial-data kind "factorized" names no function).
Dunder methods are called by Python itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gphier"

# the paper's contraction and horizon experiments (acceptance tests 07 and
# 08), kept in the library although only tests run them
ALLOWED = {"apriori_bound_check", "contraction_factor_check"}


def _trees():
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def _definitions():
    """(module, name, is_method) for every def and class in src/gphier,
    nested ones included."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((path.stem, node.name, id(node) in methods))
    return out


def _wrapped(node: ast.Tuple) -> bool:
    """A ("gphier.<module>", "<name>", ..) row, as in perfbench's WRAPS."""
    first = node.elts[:2]
    return (len(first) == 2
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in first)
            and first[0].value.startswith("gphier."))


def _references():
    """(bare names, attribute names, (module, attribute) pairs) over src and
    perfbench."""
    bare, attrs, qualified = set(), set(), set()
    for _, tree in _trees():
        modules = {}  # local name -> module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    modules[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    bare.add(alias.name)
                    if node.module in (None, "gphier"):  # from . import nls
                        modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.add(node.id)
            elif isinstance(node, ast.Tuple) and _wrapped(node):
                module, attr = (elt.value for elt in node.elts[:2])
                qualified.add((module.split(".")[-1], attr))
            elif isinstance(node, ast.Attribute):
                base = node.value
                if isinstance(base, ast.Name) and base.id in modules:
                    qualified.add((modules[base.id].split(".")[-1], node.attr))
                else:
                    attrs.add(node.attr)
    return bare, attrs, qualified


def unnamed() -> list:
    bare, attrs, qualified = _references()
    out = []
    for module, name, is_method in _definitions():
        if name.startswith("__") and name.endswith("__"):
            continue
        if is_method:
            named = name in attrs
        else:
            named = name in bare or (module, name) in qualified
        if not named and name not in ALLOWED:
            out.append(f"{module}.{name}")
    return sorted(out)


def test_every_library_definition_has_a_library_caller():
    assert unnamed() == []


def test_allowed_experiments_still_exist():
    # an allow-list entry whose definition is gone would hide nothing
    defined = {name for _, name, _ in _definitions()}
    assert ALLOWED <= defined


def private_imports() -> list:
    """module: name for every underscore-prefixed name a src/gphier module
    takes from another gphier module, by import or as an attribute of an
    imported gphier module (`operators._shifts`)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()  # local names bound to gphier modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "")
                                                     .split(".")[0] == "gphier"):
                for alias in node.names:
                    if node.module in (None, "gphier"):  # from . import operators
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        out.append(f"{path.stem}: {alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                out.append(f"{path.stem}: {node.value.id}.{node.attr}")
    return sorted(out)


def test_no_module_imports_another_modules_private_names():
    # a decision behind an underscore lives in its own module; a second
    # module that calls it shares the decision without owning it
    assert private_imports() == []
