"""Static checks on the package source that no linter runs here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "artinforge"

# imports that no code of their module reads: bench/tracing.py wraps these
# bindings (each marked `noqa: F401` in the source), until the package times
# itself and they can go
BENCH_WRAPPED = {
    ("paperlab", "colon_ideal"),
    ("paperlab", "annihilator"),
    ("paperlab", "equivariant_graded_trace"),
    ("quotient", "ideal_member"),
}

# (importing module, source module, name) of every private name that one
# module of the package imports from another: the package's known
# reach-arounds; a new one must be named here
PRIVATE_IMPORTS = {
    ("groebner", "polyarith", "_normal_form"),
    ("groebner", "polyarith", "_pack"),
    ("groebner", "polyarith", "_packed_divides"),
    ("groebner", "polyarith", "_packed_lcm"),
    ("groebner", "polyarith", "_reducer_info"),
    ("groebner", "polyarith", "_s_terms"),
    ("paperlab", "groebner", "_shift"),
    ("quotient", "groebner", "_next_level"),
    ("quotient", "groebner", "_shift"),
    ("quotient", "polyarith", "_norm_coeff"),
    ("quotient", "polyarith", "_normal_form"),
    ("quotient", "polyarith", "_reducer_info"),
    ("reptheory", "polyarith", "_norm_coeff"),
}


def _private_imports(tree: ast.Module, module: str) -> set:
    return {
        (module, node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if alias.name.startswith("_")
    }


def _unused_imports(tree: ast.Module) -> set:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations such as "list[SymbolicPoint]" name types too
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            note = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            note = node.returns
        else:
            continue
        for part in ast.walk(note) if note else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                expr = ast.parse(part.value, mode="eval")
                used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(), str(path))
        unused |= {(path.stem, name) for name in _unused_imports(tree)}
    assert unused == BENCH_WRAPPED


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from x import a, b, e\nimport c.d\n"
        "def f(y: 'list[e]') -> 'a':\n    return c.d\n\n'b'\n"
    )
    assert _unused_imports(tree) == {"b"}


def test_private_names_cross_modules_only_where_listed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found |= _private_imports(tree, path.stem)
    assert found == PRIVATE_IMPORTS


def test_the_check_sees_a_private_import():
    tree = ast.parse(
        "from .a import _b, c\nfrom . import _d\nfrom x import _e\n"
        "def f():\n    from .g import _h\n"
    )
    assert _private_imports(tree, "m") == {("m", "a", "_b"), ("m", "g", "_h")}


def _reads(tree: ast.Module, module: str) -> set:
    """(module, name) of each top-level definition of the package that a
    line of ``tree`` (the source of ``module``) reads by name, imports, or
    reaches as an attribute of a package module it imports, outside the
    body of that definition itself."""
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
        for alias in node.names
    }
    own = _definitions(tree)
    inside = {id(part): name for name, node in own.items() for part in ast.walk(node)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in own:
            if inside.get(id(node)) != node.id:  # a recursive call is no reader
                reads.add((module, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                reads.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            reads |= {(node.module, alias.name) for alias in node.names}
    return reads


def _definitions(tree: ast.Module) -> dict:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name: node for node in tree.body if isinstance(node, defs)}


def _unreferenced(sources: dict) -> set:
    """(module, name) of each top-level function or class that no other
    line of ``sources`` (module stem -> source text) reads and that
    ``__init__`` does not export."""
    defined, reads = set(), set()
    for module, text in sources.items():
        tree = ast.parse(text)
        defined |= {(module, name) for name in _definitions(tree)}
        reads |= _reads(tree, module)
    return defined - reads


def test_every_top_level_definition_is_read_or_exported():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unreferenced(sources) == set()


def test_the_check_sees_a_definition_nothing_reads():
    sources = {
        "__init__": "from .a import exported\n",
        "a": (
            "def exported():\n    return 1\n\n"
            "def used():\n    return 2\n\n"
            "def reached():\n    return 3\n\n"
            "def recursive(k):\n    return recursive(k - 1) if k else used()\n\n"
            "def dead():\n    pass\n\n"
            "class Dead:\n    pass\n"
        ),
        # an attribute counts only on a package module: obj.dead and x.read
        # read neither a.dead nor b.read
        "b": (
            "from . import a\nfrom .a import used\nimport x\n\n"
            "x.read\nobj.dead()\na.reached()\n\n"
            "def read():\n    pass\n"
        ),
    }
    assert _unreferenced(sources) == {
        ("a", "recursive"),
        ("a", "dead"),
        ("a", "Dead"),
        ("b", "read"),
    }
