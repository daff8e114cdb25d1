"""Every public name of the package, and every public method of its public
classes, is reached by the package's own code, its scripts or the benchmark
harness.

A name only the tests call is an oracle or a wrapper the library does not
need; oracles live in tests/oracles.py.  A reference is a name, an
attribute or an import alias in the syntax tree, so a mention in a
docstring or comment does not count, and the package __init__, which only
re-exports, is not searched.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "jflow"


def _public(nodes) -> list:
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions() -> dict:
    """{qualified name: bare name} of the public module-level functions and
    classes and the public methods of those classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in _public(ast.parse(path.read_text()).body):
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body):
                    out[f"{path.stem}.{node.name}.{method.name}"] = \
                        method.name
    return out


def _referenced_names() -> set:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_is_reached():
    referenced = _referenced_names()
    unreached = sorted(qualified
                       for qualified, name in _public_definitions().items()
                       if name not in referenced)
    assert not unreached, (
        "public names reached only from tests; move oracles to "
        f"tests/oracles.py and inline one-caller wrappers: {unreached}")
