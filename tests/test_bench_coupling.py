"""The benchmark tracer wraps rdslab names from outside the package.

A rename or a moved method breaks a traced benchmark run; these checks catch
it in the test suite, without installing the tracer.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import rdslab as rl
from rdslab import transfer
from rdslab.transfer import SymbolOperator

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
        # the batch hooks count flop from nnz and bytes from the three arrays: the
        # views read now have the sizes of the CSR transposes the operator once held
        held = [(op.matrix_t, sp.csr_matrix(op.matrix.T))]
        held += [(b_t, sp.csr_matrix(b.T)) for b_t, b in zip(op.branch_interp_t, op.branch_interp)]
        for view, csr in held:
            assert view.nnz == csr.nnz
            for name in ("data", "indices", "indptr"):
                assert getattr(view, name).size == getattr(csr, name).size, name
    ens = rl.OrbitEnsemble(lab, 3, 1, 2, depth=3)
    # the ensemble hook sums .nbytes over the values of both snapshot dicts
    for snaps in (ens.nu_snap, ens.rho_snap):
        assert isinstance(snaps, dict) and snaps
        assert all(isinstance(a, np.ndarray) for a in snaps.values())


def test_window_sweeps_pass_row_major_batches(monkeypatch):
    # the tracer's batch hooks count rows.shape[0] on the class methods it wraps
    lab = rl.Lab(rl.make_system(), n_points=16, pullback_depth=4)
    seen = {"adjoint_batch": [], "apply_batch": []}
    for method, shapes in seen.items():
        def spy(op, rows, _inner=getattr(SymbolOperator, method), _shapes=shapes):
            _shapes.append(rows.shape if rows.flags.c_contiguous else None)
            return _inner(op, rows)
        monkeypatch.setattr(SymbolOperator, method, spy)
    rl.OrbitEnsemble(lab, 40, 1, 2, fwd=2, depth=6, nu_levels=(0, 2))
    for shapes in seen.values():
        assert shapes
        assert all(s is not None and len(s) == 2 and 1 <= s[0] <= 40 and s[1] == 16
                   for s in shapes)


def test_row_tiles_keep_one_batch_call_per_symbol_group(monkeypatch):
    # the tracer counts rows, flop and bytes per call of the methods it wraps; a
    # group that spans several row tiles must still be one C-ordered call with
    # the group's full row count, as with whole-batch products
    lab = rl.Lab(rl.make_system(), n_points=16, pullback_depth=4)
    calls = []
    for method in ("adjoint_batch", "apply_batch", "apply_perturbed_batch"):
        def spy(op, rows, *args, _inner=getattr(SymbolOperator, method), _method=method):
            e = next(e for e, o in lab.table.ops.items() if o is op)
            calls.append((_method, e, rows.shape if rows.flags.c_contiguous else None))
            return _inner(op, rows, *args)
        monkeypatch.setattr(SymbolOperator, method, spy)

    def run():
        calls.clear()
        ens = rl.OrbitEnsemble(lab, 40, 1, 2, fwd=2, depth=6, nu_levels=(0, 2))
        ens.chain_perturbed(ens.nu_snap[0], 0, (0.7, 0.0))
        groups = [[(method, e, (int(np.sum(ens.symbol(j) == e)), 16))
                   for e in lab.spec.alphabet if np.any(ens.symbol(j) == e)]
                  for j, method in enumerate(("apply_perturbed_batch", "apply_batch"))]
        return list(calls), groups[0] + groups[1]

    whole, _ = run()
    monkeypatch.setattr(transfer, "TILE_BYTES", 2 * 16 * 8)  # 2 real or 1 complex row
    tiled, transport_groups = run()
    assert all(shape is not None and shape[1] == 16 for *_, shape in tiled)
    assert tiled == whole
    assert tiled[-len(transport_groups):] == transport_groups
    assert max(shape[0] for *_, shape in tiled) > 2


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import rdslab.cli as cli
from tracer import Tracer
from workload import WORKLOADS, resolve
config = resolve(cli, 3, shrink=True)
tracer = Tracer()
tracer.install()
gaps = {}
for name, subcommands in WORKLOADS.items():
    tracer.reset()
    for sub in subcommands:
        report, artifacts = cli.build_report(sub, config, threads=1)
        cli.write_report(report, artifacts, sys.argv[2])
    gaps[name] = tracer.coverage_gaps(name)
print(json.dumps(gaps))
"""


def test_traced_workloads_reach_every_wrapper(tmp_path):
    # each workload, at the benchmark self-test's shrunken config, calls every
    # wrapper the tracer expects of it; a fresh interpreter, so the patches stay there
    src = Path(rl.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACER_PATH.parent),
                           str(tmp_path)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    gaps = json.loads(proc.stdout.splitlines()[-1])
    assert gaps == {name: [] for name in ("lab", "ensemble", "clt")}
