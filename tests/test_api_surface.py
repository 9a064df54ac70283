"""Every public function of the package has a caller outside the tests.

A public function or method that nothing in `src/` (apart from the
`__init__.py` re-exports) or `bench/` refers to by name is a second API kept
alive only by its tests; this guard keeps such twins from growing back.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "smoothtune"


def _public_functions(tree: ast.Module):
    """(qualified name, name, definition node) of module-level functions and
    class methods whose names do not start with an underscore."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item


def _external_modules(tree: ast.Module) -> set[str]:
    """Names bound by `import x` / `import x as y` of modules outside the package."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "smoothtune"}


def _root(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _walk_outside(tree: ast.AST, skip: ast.AST | None):
    """ast.walk that does not enter `skip`."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node) if child is not skip)


def _referenced_names(tree: ast.Module, skip: ast.AST | None = None) -> set[str]:
    """Names, attribute names and the dotted parts of string constants (the
    benchmark's span targets name functions as strings), outside the body of
    `skip`. An attribute of a module from outside the package (np.exp,
    math.isfinite) names no function of ours."""
    external = _external_modules(tree)
    names = set()
    for node in _walk_outside(tree, skip):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = _root(node)
            if not (isinstance(root, ast.Name) and root.id in external):
                names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def _unreferenced(package: Path, bench: Path) -> list[str]:
    """Public functions of `package` that nothing in its modules (but
    `__init__.py`) or in `bench` names; a function's own body, such as an
    op-name string or a recursive call, does not count as its caller."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py"))}
    names = {path: _referenced_names(tree) for path, tree in trees.items()
             if path.name != "__init__.py"}
    unused = []
    for path in (path for path in trees if path.parent == package):
        elsewhere = set().union(*(found for caller, found in names.items() if caller != path))
        for qualified, name, node in _public_functions(trees[path]):
            if name in elsewhere:
                continue
            if not (path in names and name in _referenced_names(trees[path], node)):
                unused.append(f"{path.stem}.{qualified}")
    return unused


def test_every_public_function_has_a_caller_outside_the_tests():
    unused = _unreferenced(PACKAGE, ROOT / "bench")
    assert unused == [], f"public functions only tests call: {unused}"


def test_a_function_is_not_its_own_caller(tmp_path):
    package, bench = tmp_path / "package", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "ops.py").write_text(
        "def product(a):\n    return _check(a, 'product') or product(a)\n\n\n"
        "def used(a):\n    return a\n\n\n"
        "def _check(a, op):\n    return used(a)\n")
    assert _unreferenced(package, bench) == ["ops.product"]


def _passed_keywords(tree: ast.Module) -> set[str]:
    """Keyword names passed in calls, except a `name=name` that hands on the
    enclosing function's own parameter `name`."""
    passed = set()

    def visit(node, params):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if isinstance(node, ast.Call):
            passed.update(kw.arg for kw in node.keywords if kw.arg is not None and not (
                isinstance(kw.value, ast.Name) and kw.value.id == kw.arg and kw.arg in params))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, set())
    return passed


def _test_only_options(package: Path, bench: Path) -> list[str]:
    """Keyword-only parameters of public functions of `package` that no call
    in its modules or in `bench` passes by name."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) + sorted(bench.glob("*.py"))}
    passed = set().union(*(_passed_keywords(tree) for tree in trees.values()))
    return [f"{path.stem}.{qualified}({arg.arg}=)"
            for path, tree in trees.items() if path.parent == package
            for qualified, _, node in _public_functions(tree)
            for arg in node.args.kwonlyargs if arg.arg not in passed]


def test_every_keyword_only_option_is_passed_outside_the_tests():
    options = _test_only_options(PACKAGE, ROOT / "bench")
    assert options == [], f"keyword-only options only tests pass: {options}"


def test_an_option_handed_on_under_its_own_name_is_not_passed(tmp_path):
    package, bench = tmp_path / "package", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "ops.py").write_text(
        "def run(a, *, hook=None, scale=1.0):\n    return a\n\n\n"
        "def wrap(a, *, hook=None):\n    return run(a, hook=hook, scale=2.0)\n")
    assert _test_only_options(package, bench) == ["ops.run(hook=)", "ops.wrap(hook=)"]


def _union_members(node: ast.expr | None) -> list[ast.expr]:
    """The members of an annotation `A | B | ...`, or the annotation alone."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _union_members(node.left) + _union_members(node.right)
    return [] if node is None else [node]


def _solo_or_many(annotation: ast.expr | None) -> bool:
    """Whether an annotation is a union of some X with Sequence[X] or list[X]."""
    members = _union_members(annotation)
    solos = {ast.dump(member) for member in members}
    return any(isinstance(member, ast.Subscript)
               and getattr(member.value, "id", getattr(member.value, "attr", None))
               in ("Sequence", "list") and ast.dump(member.slice) in solos
               for member in members)


def _solo_or_many_functions(package: Path) -> list[str]:
    """Public functions of `package` with a parameter or return annotated as
    one value or a sequence of them."""
    found = []
    for path in sorted(package.glob("*.py")):
        for qualified, _, node in _public_functions(ast.parse(path.read_text(encoding="utf-8"))):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            if any(_solo_or_many(annotation) for annotation in
                   [node.returns] + [arg.annotation for arg in params if arg is not None]):
                found.append(f"{path.stem}.{qualified}")
    return found


def test_no_public_function_takes_or_returns_one_value_or_many():
    """A run is always a stack: entry points take and return sequences only,
    never `X | Sequence[X]` or `X | list[X]` with an isinstance unwrap."""
    found = _solo_or_many_functions(PACKAGE)
    assert found == [], f"public functions that take one value or many: {found}"


def test_every_traced_name_resolves_in_the_package():
    """Each (module, attribute) in bench/spans.py's TARGETS, read with ast,
    names a function that exists in src/."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text(encoding="utf-8"))
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs
    missing = []
    for module, attribute in pairs:
        found = importlib.import_module(f"smoothtune.{module}")
        for part in attribute.split("."):
            found = getattr(found, part, None)
        if not callable(found):
            missing.append(f"{module}.{attribute}")
    assert missing == [], f"traced names missing from src/: {missing}"


def _spans_module():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_the_span_tracer_installs_every_target():
    """bench/spans.py's Tracer finds each target where it patches it, and
    uninstalling puts every original back."""
    spans = _spans_module()
    from smoothtune import autodiff, model

    originals = (autodiff.Tape.backward, model.forward)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert autodiff.Tape.backward is not originals[0] and model.forward is not originals[1]
    finally:
        tracer.uninstall()
    assert (autodiff.Tape.backward, model.forward) == originals


def test_every_traced_span_fires(tmp_path):
    """Short runs of every command the benchmark times call each span target
    at least once, so a refactor that stops calling one (say clip_gradients)
    fails here rather than reading zero in a benchmark."""
    spans = _spans_module()
    from smoothtune.cli import main

    moons, cluster = str(tmp_path / "moons.jsonl"), str(tmp_path / "cluster.jsonl")
    assert main(["gen-data", "--generator", "two-moons", "--n", "30", "--seed", "1",
                 "--out", moons]) == 0
    assert main(["gen-data", "--generator", "cluster", "--n", "60", "--seed", "2",
                 "--out", cluster]) == 0
    train = ["train", "--config", str(ROOT / "configs" / "two_moons_smooth.ini"),
             "--set", f"data.train={moons}", "--set", f"data.test={moons}",
             "--set", "smart.outer_steps=4", "--set", "run.probe_samples=2"]

    def commands():
        a = tmp_path / "a"
        assert main([*train, "--out", str(a), "--set", "run.eval_every=2",
                     "--set", "run.checkpoint_every=3"]) == 0
        assert main([*train, "--out", str(tmp_path / "b"),
                     "--resume", str(a / "checkpoint.json")]) == 0
        assert main(["eval", "--checkpoint", str(a / "checkpoint_final.json"),
                     "--data", moons, "--out", str(tmp_path / "eval.json")]) == 0
        assert main(["sweep", "--config", str(ROOT / "configs" / "cluster_sweep.ini"),
                     "--out", str(tmp_path / "sweep"), "--set", f"data.train={cluster}",
                     "--set", f"data.test={cluster}", "--set", "sweep.seeds=0",
                     "--set", "sweep.fractions=0.5", "--set", "sweep.reg_weights=3",
                     "--set", "smart.outer_steps=2", "--set", "run.probe_samples=2"]) == 0

    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_root(commands)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    silent = sorted({name for _, _, name, _ in spans.TARGETS
                     if name is not None and tracer.spans[name].calls == 0})
    assert silent == []


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
