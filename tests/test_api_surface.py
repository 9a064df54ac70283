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


def _external_modules(tree: ast.Module) -> set[str]:
    """Names bound by `import x` / `import x as y` of modules outside the package."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "smoothtune"}


def _root(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names, attribute names and the dotted parts of string constants (the
    benchmark's span targets name functions as strings). An attribute of a
    module from outside the package (np.exp, math.isfinite) names no function
    of ours."""
    external = _external_modules(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = _root(node)
            if not (isinstance(root, ast.Name) and root.id in external):
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


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that nothing else in the module reads; the
    package's `__init__.py` re-exports and `__future__` imports are exempt."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def test_no_unused_imports_in_src_or_tests():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = {path.relative_to(ROOT).as_posix(): names for path in paths
              if (names := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))}
    assert unused == {}, f"unused imports: {unused}"
