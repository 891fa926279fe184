"""Layer spans and work counters for rdslab, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules, and
a few class methods, with a timing wrapper.  A function is replaced in every
`rdslab` namespace that holds it, so a name imported with `from .x import f`
is traced where it is looked up, not only where it is defined.  Each call is
a span: busy time is its duration, self time is the duration minus the time
its child spans cover.  Work counters come from call arguments and return
shapes.  Nothing under `src/` is modified.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("base", "rng", "fiber", "transfer", "thermo", "limits", "cli")

# Class methods traced as spans, named module.Class.method.
METHODS = (
    ("base", "BasePoint", "symbols"),
    ("transfer", "OperatorTable", "__init__"),
    ("transfer", "SymbolOperator", "apply"),
    ("transfer", "SymbolOperator", "apply_perturbed"),
    ("transfer", "SymbolOperator", "adjoint"),
    ("transfer", "SymbolOperator", "adjoint_batch"),
    ("transfer", "SymbolOperator", "apply_batch"),
    ("transfer", "SymbolOperator", "apply_perturbed_batch"),
    ("thermo", "Lab", "ensure_chain"),
    ("thermo", "Lab", "rho"),
    ("limits", "OrbitEnsemble", "__init__"),
    ("limits", "OrbitEnsemble", "chain_perturbed"),
    ("limits", "OrbitEnsemble", "sample_z"),
)

SINGLE = ("apply", "apply_perturbed", "adjoint")
BATCH = ("adjoint_batch", "apply_batch", "apply_perturbed_batch")
SUBCOMMANDS = ("thermo", "gap", "bounds", "assumption6", "encoding", "condition-h", "clt")

# Wrappers that must record at least one call on each workload listed, at the
# default config and at the self-test's shrunken one.  A wrapper that records
# none means a rename or an import the tracer did not patch, and fails the run.
REACHES = {
    "base.BasePoint.symbols": ("lab",),
    "base.symbols_for_seeds": ("ensemble", "clt"),
    "rng.keyed_hash_grid": ("ensemble", "clt"),
    "fiber.variation_alpha": ("lab",),
    "fiber.alpha_norm": ("lab",),
    "transfer.OperatorTable.__init__": ("lab", "ensemble", "clt"),
    "transfer.SymbolOperator.apply": ("lab",),
    "transfer.SymbolOperator.apply_perturbed": ("lab",),
    "transfer.SymbolOperator.adjoint": ("lab",),
    "transfer.SymbolOperator.adjoint_batch": ("ensemble", "clt"),
    "transfer.SymbolOperator.apply_batch": ("ensemble", "clt"),
    "transfer.SymbolOperator.apply_perturbed_batch": ("ensemble",),
    "transfer.transfer_apply": ("lab",),
    "transfer.transfer_iterate": ("lab",),
    "transfer.operator_norm_bounds_check": ("lab",),
    "thermo.Lab.ensure_chain": ("lab",),
    "thermo.Lab.rho": ("lab",),
    "thermo.pullback_sweep": ("lab",),
    "thermo.conformal_pullback": ("lab",),
    "thermo.invariant_density": ("lab",),
    "thermo.gap_estimate": ("lab",),
    "thermo.uniform_bounds_check": ("lab",),
    "limits.assumption6_check": ("lab",),
    "limits.OrbitEnsemble.__init__": ("ensemble", "clt"),
    "limits.OrbitEnsemble.chain_perturbed": ("ensemble",),
    "limits.OrbitEnsemble.sample_z": ("ensemble", "clt"),
    "limits.encoding_check": ("ensemble",),
    "limits.condition_h_check": ("ensemble",),
    "limits.orbit_birkhoff_sums": ("clt",),
    "limits.covariance_sequence": ("clt",),
    "limits.sigma2_estimate": ("clt",),
    "limits.clt_test": ("clt",),
    "cli.build_report": ("lab", "ensemble", "clt"),
    "cli.write_report": ("lab", "ensemble", "clt"),
}

# Per-layer metrics (name, unit), in the order they are printed.
LAYER_METRICS = (
    ("base.point_symbols.calls", "count"),
    ("base.point_symbols.self_s", "s"),
    ("base.batch_symbols.count", "count"),
    ("base.batch_symbols.ns_per_symbol", "ns"),
    ("rng.hashes", "count"),
    ("rng.ns_per_hash", "ns"),
    ("fiber.variation_alpha.calls", "count"),
    ("fiber.variation_alpha.us_per_call", "us"),
    ("transfer.table_build_s", "s"),
    ("transfer.single.calls", "count"),
    ("transfer.single.us_per_call", "us"),
    ("transfer.transfer_apply.self_s", "s"),
    *((f"transfer.{m}.{k}", u) for m in BATCH
      for k, u in (("rows", "count"), ("ns_per_row", "ns"))),
    ("transfer.batch.flop", "flop"),
    ("transfer.batch.bytes", "B"),
    ("thermo.ensure_chain.calls", "count"),
    ("thermo.ensure_chain.self_s", "s"),
    ("thermo.ensure_chain.hit_ratio", "ratio"),
    ("thermo.rho.calls", "count"),
    ("thermo.rho.busy_s", "s"),
    ("limits.ensemble.builds", "count"),
    ("limits.ensemble.busy_s", "s"),
    ("limits.ensemble.self_s", "s"),
    ("limits.ensemble.snapshot_mb", "MB"),
    ("limits.chain_perturbed.self_s", "s"),
    ("limits.sample_z.self_s", "s"),
    ("limits.orbit.calls", "count"),
    ("limits.orbit.steps", "count"),
    ("limits.orbit.self_s", "s"),
    ("limits.orbit.ns_per_step", "ns"),
    ("limits.orbit.unique_ratio", "ratio"),
    ("limits.covariance_sequence.busy_s", "s"),
    ("limits.sigma2_estimate.busy_s", "s"),
    ("limits.clt_test.busy_s", "s"),
    *((f"cli.{s}.busy_s", "s") for s in SUBCOMMANDS),
    ("cli.write_report.busy_s", "s"),
    ("cli.unattributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
)

# Counters that must repeat exactly between runs at one seed.
WORK_COUNTERS = tuple(n for n, u in LAYER_METRICS if u in ("count", "flop", "B", "MB")) + (
    "thermo.ensure_chain.hit_ratio", "limits.orbit.unique_ratio")


def _sparse_bytes(m) -> int:
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def _batch_work(method: str, op, rows, out) -> tuple:
    """Computed (flop, bytes) of one batched product, from nnz and row shapes.

    A real sparse entry times a complex row entry costs 2 multiply-adds.
    Bytes count the sparse structures read once plus the rows read and written;
    cache misses are ignored.
    """
    n_rows = rows.shape[0]
    width = 2 if rows.dtype.kind == "c" else 1
    io = rows.nbytes + out.nbytes
    if method == "apply_perturbed_batch":
        mats = op.branch_interp_t
        # per branch: one complex scaling (6 flop) and one accumulate (2 flop) per entry
        extra = 8 * len(mats) * out.size
        io += len(mats) * 16 * out.shape[1]
    else:
        mats = [op.matrix if method == "adjoint_batch" else op.matrix_t]
        extra = 0
    nnz = sum(m.nnz for m in mats)
    flop = 2 * width * nnz * n_rows + extra
    return flop, sum(_sparse_bytes(m) for m in mats) + io


class Tracer:
    """Span stack, per-span calls, busy and self time, and named work counters.

    Each wrapper closes over its own [calls, busy_s, self_s, depth] list, and
    the hooks over the tracer's containers, so `reset` clears them in place.
    """

    def __init__(self):
        self.stats = {}
        self.stack = [[0.0, "<root>"]]
        self.work = defaultdict(float)
        self.orbit_seen = set()

    def reset(self):
        """Start a new set."""
        self.stack[:] = [[0.0, "<root>"]]
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        self.work.clear()
        self.orbit_seen.clear()

    def calls(self, name) -> int:
        return self.stats[name][0]

    def busy(self, name) -> float:
        return self.stats[name][1]

    def self_s(self, name) -> float:
        return self.stats[name][2]

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, post=None):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        if inspect.isgeneratorfunction(fn):
            # the body runs in the consumer's frame, so only the call is counted
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                st[0] += 1
                if post is not None:
                    post(args, kwargs, None, 0.0)
                return fn(*args, **kwargs)

            return counting

        stack = self.stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            depth = st[3]
            st[3] = depth + 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dur
                st[3] = depth
                st[0] += 1
                st[2] += dur - frame[0]
                if not depth:
                    st[1] += dur
            if post is not None:
                post(args, kwargs, out, dur)
            return out

        return span

    def install(self):
        """Wrap the traced functions and methods; raises if one has gone missing."""
        mods = {m: sys.modules[f"rdslab.{m}"] for m in MODULES}
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if (key == "rdslab" or key.startswith("rdslab.")) and mod is not None]
        hooks = self._hooks()
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self._wrap(name, fn, hooks.get(name))
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if not inspect.isfunction(fn):
                raise RuntimeError(f"tracer: {short}.{cls_name}.{meth} not found")
            name = f"{short}.{cls_name}.{meth}"
            setattr(cls, meth, self._wrap(name, fn, hooks.get(name)))
        missing = sorted(set(REACHES) - set(self.stats))
        if missing:
            raise RuntimeError(f"tracer: no wrapper for {', '.join(missing)}")

    # -- work counters ----------------------------------------------------

    def _hooks(self) -> dict:
        work = self.work
        stack = self.stack
        orbit_sig = inspect.signature(sys.modules["rdslab.limits"].orbit_birkhoff_sums)

        def batch(method):
            def post(args, kwargs, out, dur):
                op, rows = args[0], args[1]
                work[f"transfer.{method}.rows"] += rows.shape[0]
                flop, nbytes = _batch_work(method, op, rows, out)
                work["transfer.batch.flop"] += flop
                work["transfer.batch.bytes"] += nbytes
            return post

        def batch_symbols(args, kwargs, out, dur):
            work["base.batch_symbols.count"] += out.size

        def hashes(args, kwargs, out, dur):
            work["rng.hashes"] += out.size

        def pullback_sweep(args, kwargs, out, dur):
            if stack[-1][1] == "thermo.Lab.ensure_chain":
                work["thermo.ensure_chain.sweeps"] += 1

        def ensemble(args, kwargs, out, dur):
            ens = args[0]
            held = sum(a.nbytes for a in ens.nu_snap.values())
            held += sum(a.nbytes for a in ens.rho_snap.values())
            work["limits.ensemble.snapshot_mb"] = max(work["limits.ensemble.snapshot_mb"],
                                                      held / 1e6)

        def orbit(args, kwargs, out, dur):
            bound = orbit_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            times = tuple(sorted(set(int(t) for t in a["record_at"])))
            steps = int(a["trials"]) * times[-1]
            # a run-scoped memo would key on this tuple, within one report
            key = (work["cli.reports"], id(a["g"]), times, int(a["trials"]), int(a["seed"]),
                   int(a["stream"]), int(a["sample_depth"]), a["running_stat"] is None)
            work["limits.orbit.steps"] += steps
            if key not in self.orbit_seen:
                self.orbit_seen.add(key)
                work["limits.orbit.unique_steps"] += steps

        def report(args, kwargs, out, dur):
            work["cli.reports"] += 1
            sub = args[0] if args else kwargs["subcommand"]
            work[f"cli.{sub}.busy_s"] += dur

        hooks = {f"transfer.SymbolOperator.{m}": batch(m) for m in BATCH}
        hooks.update({
            "base.symbols_for_seeds": batch_symbols,
            "rng.keyed_hash_grid": hashes,
            "thermo.pullback_sweep": pullback_sweep,
            "limits.OrbitEnsemble.__init__": ensemble,
            "limits.orbit_birkhoff_sums": orbit,
            "cli.build_report": report,
        })
        return hooks

    # -- per-set metrics --------------------------------------------------

    def coverage_gaps(self, workload: str) -> list:
        """Wrappers expected on this workload that recorded no call."""
        return sorted(n for n, on in REACHES.items() if workload in on and self.calls(n) == 0)

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of the set just traced, whose wall time was `wall`.

        trace.overhead_frac needs untraced sets and is left to the caller.
        """
        calls, busy, self_s, w = self.calls, self.busy, self.self_s, self.work

        def per(total, count, scale):
            return total / count * scale if count else 0.0

        single_calls = sum(calls(f"transfer.SymbolOperator.{m}") for m in SINGLE)
        single_busy = sum(busy(f"transfer.SymbolOperator.{m}") for m in SINGLE)
        ens = "limits.OrbitEnsemble.__init__"
        orbit = "limits.orbit_birkhoff_sums"
        chain = "thermo.Lab.ensure_chain"
        m = {
            "base.point_symbols.calls": calls("base.BasePoint.symbols"),
            "base.point_symbols.self_s": self_s("base.BasePoint.symbols"),
            "base.batch_symbols.count": w["base.batch_symbols.count"],
            "base.batch_symbols.ns_per_symbol": per(busy("base.symbols_for_seeds"),
                                                    w["base.batch_symbols.count"], 1e9),
            "rng.hashes": w["rng.hashes"],
            "rng.ns_per_hash": per(busy("rng.keyed_hash_grid"), w["rng.hashes"], 1e9),
            "fiber.variation_alpha.calls": calls("fiber.variation_alpha"),
            "fiber.variation_alpha.us_per_call": per(busy("fiber.variation_alpha"),
                                                     calls("fiber.variation_alpha"), 1e6),
            "transfer.table_build_s": busy("transfer.OperatorTable.__init__"),
            "transfer.single.calls": single_calls,
            "transfer.single.us_per_call": per(single_busy, single_calls, 1e6),
            "transfer.transfer_apply.self_s": self_s("transfer.transfer_apply"),
        }
        for meth in BATCH:
            rows = w[f"transfer.{meth}.rows"]
            m[f"transfer.{meth}.rows"] = rows
            m[f"transfer.{meth}.ns_per_row"] = per(busy(f"transfer.SymbolOperator.{meth}"),
                                                   rows, 1e9)
        m.update({
            "transfer.batch.flop": w["transfer.batch.flop"],
            "transfer.batch.bytes": w["transfer.batch.bytes"],
            "thermo.ensure_chain.calls": calls(chain),
            "thermo.ensure_chain.self_s": self_s(chain),
            # calls that started no pullback sweep, divided by calls
            "thermo.ensure_chain.hit_ratio": per(calls(chain) - w["thermo.ensure_chain.sweeps"],
                                                 calls(chain), 1.0),
            "thermo.rho.calls": calls("thermo.Lab.rho"),
            "thermo.rho.busy_s": busy("thermo.Lab.rho"),
            "limits.ensemble.builds": calls(ens),
            "limits.ensemble.busy_s": busy(ens),
            "limits.ensemble.self_s": self_s(ens),
            "limits.ensemble.snapshot_mb": w["limits.ensemble.snapshot_mb"],
            "limits.chain_perturbed.self_s": self_s("limits.OrbitEnsemble.chain_perturbed"),
            "limits.sample_z.self_s": self_s("limits.OrbitEnsemble.sample_z"),
            "limits.orbit.calls": calls(orbit),
            "limits.orbit.steps": w["limits.orbit.steps"],
            "limits.orbit.self_s": self_s(orbit),
            "limits.orbit.ns_per_step": per(self_s(orbit), w["limits.orbit.steps"], 1e9),
            "limits.orbit.unique_ratio": per(w["limits.orbit.unique_steps"],
                                             w["limits.orbit.steps"], 1.0),
            "limits.covariance_sequence.busy_s": busy("limits.covariance_sequence"),
            "limits.sigma2_estimate.busy_s": busy("limits.sigma2_estimate"),
            "limits.clt_test.busy_s": busy("limits.clt_test"),
        })
        for sub in SUBCOMMANDS:
            m[f"cli.{sub}.busy_s"] = w[f"cli.{sub}.busy_s"]
        m["cli.write_report.busy_s"] = busy("cli.write_report")
        # runner self time: the benchmark loop and cli code outside any named span
        root_self = wall - self.stack[0][0]
        m["cli.unattributed_frac"] = per(root_self + self_s("cli.build_report"), wall, 1.0)
        return m
