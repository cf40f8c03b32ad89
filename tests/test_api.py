"""Every public top-level definition in src/wittram is used by another
top-level statement of the package, named in the benchmark, or documented
API: a helper that only the tests call belongs under tests/."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
# README documents these as API that nothing in the package calls
DOCUMENTED = {"coeff.lift", "witt.asw_map", "witt.verschiebung"}
SCOPES = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _locals(scope):
    """The names that a function or comprehension binds itself: parameters,
    assignment and loop targets, imports and nested definitions, but not
    what its nested scopes bind."""
    out, todo = set(), list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.arg):
            out.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.alias):
            out.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def _references(node, module, imported, shadowed=frozenset()):
    """The qualified names module.name that node refers to: names imported
    from a package module, attributes of an imported package module, and
    names of node's own module that no local variable shadows.  imported
    maps a local name to the package module it stands for."""
    out = set()
    if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
        out |= {f"{node.module}.{alias.name}" for alias in node.names}
    elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in shadowed:
        out.add(f"{module}.{node.id}")
    elif (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in imported
        and node.value.id not in shadowed
    ):
        out.add(f"{imported[node.value.id]}.{node.attr}")
    if isinstance(node, SCOPES):
        shadowed = shadowed | _locals(node)
    for child in ast.iter_child_nodes(node):
        out |= _references(child, module, imported, shadowed)
    return out


def _imported_modules(tree):
    """Local name -> package module, for `from . import module [as name]`."""
    return {
        alias.asname or alias.name: alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
        for alias in node.names
    }


def test_every_public_definition_is_reached():
    tops = []
    for path in sorted((ROOT / "src" / "wittram").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = _imported_modules(tree)
        tops += [(path.stem, node, _references(node, path.stem, imported)) for node in tree.body]
    bench = "".join(path.read_text() for path in (ROOT / "bench").glob("*.py"))
    bench_words = set(re.findall(r"\w+", bench))
    public = {
        f"{module}.{node.name}": node
        for module, node, _refs in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unreached = [
        qual
        for qual, node in public.items()
        if qual not in DOCUMENTED
        and node.name not in bench_words
        and not any(qual in refs for _module, other, refs in tops if other is not node)
    ]
    assert unreached == []
    assert DOCUMENTED <= set(public)


def test_a_shadowing_local_is_not_a_reference():
    shadowed = [
        "def use(lift): return lift(1)",
        "def use():\n    lift = 1\n    return lift",
        "use = [lift for lift in ()]",
        "use = lambda lift: lift",
        "def use():\n    lift = 1\n    def inner(): return lift",
    ]
    for source in shadowed:
        assert "m.lift" not in _references(ast.parse(source).body[0], "m", {}), source
    # a nested scope's parameter does not shadow the enclosing function
    source = "def use():\n    def inner(lift): return lift\n    return lift"
    assert "m.lift" in _references(ast.parse(source).body[0], "m", {})
    tree = ast.parse("from . import coeff as c\nx = c.lift\ny = other.lift\n")
    imported = _imported_modules(tree)
    assert "coeff.lift" in _references(tree.body[1], "m", imported)
    assert "coeff.lift" not in _references(tree.body[2], "m", imported)
