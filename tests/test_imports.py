"""The package's import structure: modules import each other at top level only, by public
names, and without a cycle."""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "euclidpt"
SOURCES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def package_imports(tree):
    """(node, modules, names, in_function) for each import of a euclidpt module in `tree`.

    `names` are the names taken from the module by `from ... import`, else empty.
    """
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "euclidpt"
                                                 or (node.module or "").startswith("euclidpt.")):
            if node.module in (None, "euclidpt"):   # from . import spectral
                found.append((node, [a.name for a in node.names], [], in_function))
            else:
                found.append((node, [node.module.split(".")[-1]], [a.name for a in node.names],
                              in_function))
        elif isinstance(node, ast.Import):
            modules = [a.name.split(".")[1] for a in node.names if a.name.startswith("euclidpt.")]
            if modules:
                found.append((node, modules, [], in_function))
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(tree, False)
    return found


IMPORTS = {name: package_imports(tree) for name, tree in SOURCES.items()}


def test_no_function_imports_a_package_module():
    # stdlib imports inside a function are fine
    local = [f"{name}.py:{node.lineno}" for name, found in IMPORTS.items()
             for node, _, _, in_function in found if in_function]
    assert local == []


def imported_modules(node):
    """The absolute module names an import statement names; none for any other node."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


def test_no_module_imports_threads():
    # every solve runs on the calling thread: no module starts a pool or a thread
    threaded = [f"{name}.py:{node.lineno}" for name, tree in SOURCES.items()
                for node in ast.walk(tree)
                for module in imported_modules(node)
                if module.split(".")[0] == "threading" or module.startswith("concurrent")]
    assert threaded == []


def test_only_the_linalg_accessor_imports_scipy():
    # every LAPACK routine is read through `chains.linalg`, which imports scipy.linalg on its
    # first call, so importing the package loads no scipy
    def visit(node, scope):
        if any(module.split(".")[0] == "scipy" for module in imported_modules(node)):
            yield node, scope
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    imports = [f"{name}.py:{node.lineno} in {'.'.join((name, *scope))}"
               for name, tree in SOURCES.items() for node, scope in visit(tree, ())]
    stray = [entry for entry in imports if not entry.endswith(" in chains.linalg")]
    assert stray == [], "scipy imported outside `chains.linalg`: " + ", ".join(stray)
    assert len(imports) == 1, imports


def test_no_module_takes_a_private_name_from_another():
    private = [f"{name}.py:{node.lineno} {modules[0]}.{symbol}"
               for name, found in IMPORTS.items()
               for node, modules, symbols, _ in found
               for symbol in symbols if symbol.startswith("_")]
    # nor reads one off a module it imported whole
    for name, tree in SOURCES.items():
        whole = {module for node, modules, symbols, _ in IMPORTS[name] if not symbols
                 for module in modules}
        private += [f"{name}.py:{node.lineno} {node.value.id}.{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in whole and node.attr.startswith("_")]
    assert private == []


def test_top_level_imports_are_acyclic():
    graph = {name: {module for _, modules, _, in_function in found if not in_function
                    for module in modules} - {name}
             for name, found in IMPORTS.items()}
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    # the chain numerics sit below both modules that solve chains
    assert order.index("chains") < order.index("mathieu") < order.index("spectral")
    assert "spectral" not in graph["mathieu"] and "dyson" not in graph["mathieu"]
