"""The demos run as a CI step, outside pytest: check here what they call, so a
renamed or re-signed rdslab name fails tier-1 too."""

import ast
import importlib
import inspect
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def rdslab_names(tree):
    """(module, name) for every name a demo takes from rdslab: imported names and
    attributes read from an imported rdslab module."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names
                           if a.name.split(".")[0] == "rdslab")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rdslab":
            for a in node.names:
                yield node.module, a.name, a.asname or a.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            yield modules[node.value.id], node.attr, None


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_calls_what_rdslab_has(path):
    source = path.read_text()
    compile(source, str(path), "exec")
    tree = ast.parse(source)
    bound = {}
    for module, name, alias in rdslab_names(tree):
        obj = getattr(importlib.import_module(module), name, None)
        assert obj is not None, f"{path.name}: rdslab has no {module}.{name}"
        if alias is not None:
            bound[alias] = obj
    # each call of an imported function must fit its signature
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in bound and callable(bound[node.func.id])):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        sig = inspect.signature(bound[node.func.id])
        try:
            sig.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as e:
            pytest.fail(f"{path.name}:{node.lineno}: {node.func.id}{sig}: {e}")
