"""The package's public surface: every top-level public function and class
of src/ossvqa has a reader, and the package exports each name once."""

import ast
import collections
import pathlib
import re

import ossvqa

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ossvqa"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _public_definitions():
    """(path, node) of each top-level public def and class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node


def _code_references():
    """name -> [(path, line)] of every name read as a bare name or an
    attribute in src/ and demos/; an import alone is not a reference."""
    refs = collections.defaultdict(list)
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                refs[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((path, node.lineno))
    return refs


def test_every_public_definition_has_a_reader():
    # a reader is code in src/ or demos/ outside the definition itself, a
    # mention in benchmark/*.py (the tracer names layers in strings) or a
    # mention in README.md; a helper only tests call belongs in the tests
    refs = _code_references()
    mentions = "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "benchmark").glob("*.py")) + [ROOT / "README.md"]
    )
    definitions = list(_public_definitions())
    assert len(definitions) > 50
    orphans = []
    for path, node in definitions:
        own = range(node.lineno, node.end_lineno + 1)
        read = any(p != path or line not in own for p, line in refs[node.name])
        if not read and not re.search(rf"\b{re.escape(node.name)}\b", mentions):
            orphans.append(f"{path.name}:{node.lineno} {node.name}")
    assert not orphans, f"public definitions nothing reads: {orphans}"


def test_each_export_is_written_once():
    source = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert len(ossvqa.__all__) == len(set(ossvqa.__all__)) > 50
    for name in ossvqa.__all__:
        assert len(re.findall(rf"\b{name}\b", source)) == 1, name
        assert getattr(ossvqa, name).__module__.startswith("ossvqa.")
