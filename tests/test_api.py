"""Every exported name resolves, so a deletion cannot leave a stale export, and every
private name has a reader in the package, so no code is kept for its own unit test."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import pytest

import cubecond

MODULES = sorted(info.name for info in pkgutil.iter_modules(cubecond.__path__))


def test_modules_found():
    assert {"poly", "condition", "interval", "pv", "univariate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"cubecond.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(inspect.getsource(cubecond))
    imported = [
        (node.module, alias.asname or alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"cubecond.{module}")
        assert getattr(cubecond, name) is getattr(source, name)


def _private_definitions(statement):
    """The private names a module-level statement defines (no dunder names)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target)
                 if isinstance(node, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_read_in_the_package():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(cubecond.__file__).parent.glob("*.py"))}
    reads = [
        (file, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for file, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    ]
    orphans = [
        f"{file}:{name}"
        for file, tree in trees.items()
        for statement in tree.body
        for name in _private_definitions(statement)
        # a read inside the definition itself does not count
        if not any(read == name and not (where == file and statement.lineno <= line
                                         <= statement.end_lineno)
                   for where, line, read in reads)
    ]
    assert orphans == []


def _named(path, names) -> list:
    """path:line:name for each name, attribute or imported name of ``path`` in ``names``."""
    return [
        f"{path.name}:{node.lineno}:{name}"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in ([node.id] if isinstance(node, ast.Name)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [alias.name for alias in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
        if name in names
    ]


def test_only_poly_builds_the_kernel_terms():
    # the kernel's layout is poly's business: other modules take it from poly._batch
    names = {"_build_kernel_terms", "_degrees", "_KernelTerms", "_block_sums"}
    found = [
        where
        for path in sorted(pathlib.Path(cubecond.__file__).parent.glob("*.py"))
        if path.name != "poly.py"
        for where in _named(path, names)
    ]
    assert found == []


def test_streams_and_exact_gamma_take_what_numpy_and_poly_produce():
    # PCG64 seeds itself from the hashed SeedSequence words, so no module sets a generator's
    # state; exact gamma differentiates the dense vector, not a chain of sparse polynomials
    package = pathlib.Path(cubecond.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "state"
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Attribute) and node.value.attr == "bit_generator"
    ]
    assert found == []
    assert _named(package / "condition.py", {"new_sparse", "partial_derivative"}) == []


def test_hot_paths_sum_the_coordinates_by_columns():
    # numpy reduces over an axis of length n = 2 or 3 several times slower than it adds
    # whole columns, so these sum the coordinates through poly._sum_last
    hot = {"_clause_codes", "kappa_batch", "_kappa_rows", "_kappa_sums", "_gradient_cone"}
    seen, found = set(), []
    for path in sorted(pathlib.Path(cubecond.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in hot:
                seen.add(node.name)
                found += [
                    f"{path.name}:{call.lineno}:{node.name}"
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "attr", getattr(call.func, "id", None)) == "sum"
                    and (call.args or any(kw.arg == "axis" for kw in call.keywords))
                ]
    assert seen == hot
    assert found == []
