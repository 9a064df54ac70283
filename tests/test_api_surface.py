"""Every public function of the package has a caller outside the tests.

A public function or method that nothing in `src/` (apart from the
`__init__.py` re-exports) or `bench/` refers to by name is a second API kept
alive only by its tests; this guard keeps such twins from growing back.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smoothtune"


def _public_functions(tree: ast.Module):
    """(qualified name, name) of module-level functions and class methods
    whose names do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names, attribute names and the dotted parts of string constants (the
    benchmark's span targets name functions as strings)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def test_every_public_function_has_a_caller_outside_the_tests():
    callers = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    callers += sorted((ROOT / "bench").glob("*.py"))
    referenced = set()
    for path in callers:
        referenced |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [f"{path.stem}.{qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in _public_functions(ast.parse(path.read_text(encoding="utf-8")))
              if name not in referenced]
    assert unused == [], f"public functions only tests call: {unused}"
