"""The benchmark tracer wraps rdslab names from outside the package.

A rename or a moved method breaks a traced benchmark run; these checks catch
it in the test suite, without installing the tracer.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import rdslab as rl

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("rdslab_bench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def module(short):
    return importlib.import_module(f"rdslab.{short}")


def test_traced_methods_are_own_functions_of_their_classes():
    tracer = load_tracer()
    for short, cls_name, meth in tracer.METHODS:
        cls = getattr(module(short), cls_name)
        # the tracer reads the class's own vars(): an inherited method is not found
        assert inspect.isfunction(vars(cls).get(meth)), f"{short}.{cls_name}.{meth}"


def test_every_reached_name_is_wrapped():
    tracer = load_tracer()
    methods = {f"{short}.{cls}.{meth}" for short, cls, meth in tracer.METHODS}
    for name in tracer.REACHES:
        if name in methods:
            continue
        short, attr = name.split(".")
        assert short in tracer.MODULES and not attr.startswith("_"), name
        fn = getattr(module(short), attr, None)
        assert inspect.isfunction(fn) and fn.__module__ == f"rdslab.{short}", name


def test_attributes_read_by_the_tracer_hooks():
    lab = rl.Lab(rl.make_system(), n_points=16, pullback_depth=4)
    for op in lab.table.ops.values():
        for attr in ("matrix", "matrix_t", "branch_interp_t"):
            assert hasattr(op, attr), attr
    ens = rl.OrbitEnsemble(lab, 3, 1, 2, depth=3)
    assert ens.nu_snap and ens.rho_snap
