"""Import policy: rdslab's modules import no scipy submodule but scipy.sparse at load time.

scipy.stats alone takes most of a second to import, and every subcommand pays
for what its modules import.  This checks direct imports only; the fresh-
interpreter test in test_cli.py catches a heavy module pulled in transitively.
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
