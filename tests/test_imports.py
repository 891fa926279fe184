"""Import policy and a dead-code lint over rdslab's modules, read with `ast`.

Modules import no scipy submodule but scipy.sparse at load time, and no
module imports scipy.stats at all, not even inside a function: scipy.stats
alone adds about 50 MB and most of a second to a process, and every
subcommand pays for what its modules import.  `limits` takes the KS test's
normal CDF and Smirnov tail from scipy.special, inside the function that runs
the test.  These check direct imports only; the fresh-interpreter test in
test_cli.py catches a heavy module pulled in transitively.

Every module-level import is used in its module (`__init__.py`, whose imports
are re-exports, and `from __future__` aside), and every module-level private
function or class is referenced somewhere in the package.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "rdslab"


def load_time_imports(node):
    """(line, module) for every import that runs when the module loads: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((child.lineno, a.name) for a in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            if child.module == "scipy":
                yield from ((child.lineno, f"scipy.{a.name}") for a in child.names)
            else:
                yield child.lineno, child.module
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from load_time_imports(child)


def test_no_scipy_submodule_but_sparse_at_module_level():
    found = [f"{path.name}:{line}: {module}"
             for path in sorted(SRC.glob("*.py"))
             for line, module in load_time_imports(ast.parse(path.read_text()))
             if module.startswith("scipy.") and module != "scipy.sparse"]
    assert not found, "import these inside the functions that use them: " + ", ".join(found)


def test_no_module_imports_scipy_stats():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                     if isinstance(node, ast.ImportFrom) and node.module else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name == "scipy.stats" or name.startswith("scipy.stats.")]
    assert not found, "scipy.stats imported at " + ", ".join(found)


def module_level_bindings(node):
    """(line, bound name) for every import that runs when the module loads, but `__future__`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((child.lineno, (a.asname or a.name).split(".")[0]) for a in child.names)
        elif isinstance(child, ast.ImportFrom):
            if child.module != "__future__":
                yield from ((child.lineno, a.asname or a.name) for a in child.names)
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from module_level_bindings(child)


def referenced_names(tree) -> set:
    """Every name a module reads, as a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_every_module_level_import_is_used():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's re-exports
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        found += [f"{path.name}:{line}: {name}" for line, name in module_level_bindings(tree)
                  if name not in used]
    assert not found, "unused imports: " + ", ".join(found)


def test_every_private_module_function_and_class_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    found = [f"{name}:{node.lineno}: {node.name}" for name, tree in trees.items()
             for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and node.name not in referenced]
    assert not found, "private definitions nothing references: " + ", ".join(found)
