"""Every public top-level definition in src/wittram is used by another
top-level statement of the package, named in the benchmark, or documented
API: a helper that only the tests call belongs under tests/."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
# README documents these as Witt-vector API; nothing in the package calls them
DOCUMENTED = {"witt.asw_map", "witt.verschiebung"}


def _names(node):
    """Every identifier that node uses: names, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, (ast.Attribute, ast.alias)):
            out.add(sub.attr if isinstance(sub, ast.Attribute) else sub.name)
    return out


def test_every_public_definition_is_reached():
    tops = [
        (path.stem, node)
        for path in sorted((ROOT / "src" / "wittram").glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    uses = [(node, _names(node)) for _module, node in tops]
    bench = "".join(path.read_text() for path in (ROOT / "bench").glob("*.py"))
    bench_words = set(re.findall(r"\w+", bench))
    public = {
        f"{module}.{node.name}": node
        for module, node in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    unreached = [
        qual
        for qual, node in public.items()
        if qual not in DOCUMENTED
        and node.name not in bench_words
        and not any(node.name in names for other, names in uses if other is not node)
    ]
    assert unreached == []
    assert DOCUMENTED <= set(public)
