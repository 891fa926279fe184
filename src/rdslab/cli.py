"""Command-line front end: wiring configs to experiments, reproducible reports.

Every subcommand writes report.json (plus CSVs) into a directory named by
(subcommand, seed, config hash).  Reports echo the fully resolved config; a
single volatile section holds the timestamp, thread cap, wall time and peak
RSS so replays can compare everything else byte for byte.  Exit codes: 0
success, 2 contract violation or replay divergence, 1 operational error.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

from . import limits, thermo, transfer
from .base import sample_base, base_correlation_check, window_mean
from .config import (
    ConfigError,
    apply_overrides,
    config_hash,
    disjoint_from,
    load_config,
    resolve_config,
    system_from_config,
)
from .fiber import CoboundaryObservable, GridFunction
from .thermo import Lab, random_lipschitz_functions, random_smooth_functions


def _sanitize(obj):
    """The report form of a value.  A record (dataclass instance) becomes its fields
    but those with metadata {"reported": False}; a complex field x becomes x_re, x_im."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            if not f.metadata.get("reported", True):
                continue
            v = getattr(obj, f.name)
            if isinstance(v, complex):
                out[f"{f.name}_re"], out[f"{f.name}_im"] = v.real, v.imag
            else:
                out[f.name] = _sanitize(v)
        return out
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def gridfunction_csv(gf: GridFunction) -> str:
    vals = np.asarray(gf.values)
    rows = []
    for i, z in enumerate(gf.grid()):
        v = vals[i]
        rows.append((i, z, float(np.real(v)), float(np.imag(v))))
    return csv_text(("index", "point", "value_re", "value_im"), rows)


def _build_lab(config, spec) -> Lab:
    num = config["numerics"]
    return Lab(spec, n_points=num["n_points"], interp=num["interp"],
               pullback_depth=num["pullback_depth"], depth_max=num["depth_max"],
               duality_tol=num["duality_tol"], newton_tol=num["newton_tol"])


def _observable_for(lab, name: str, const: float = 0.25):
    return lab.observable if name == "default" else CoboundaryObservable(lab.spec, const=const)


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (results, contract_ok, artifacts),
# results being the library's record as it is, or a dict, for `_sanitize`.
# Each gets a fresh Lab on the report's one SystemSpec.  `memo` is a dict that
# lives for one build_report call and holds results that several subcommands
# of `all` share, keyed by config names rather than by objects of one Lab.


def _run_thermo(lab, config, seed, threads, memo):
    exp = config["experiment"]["thermo"]
    x = sample_base(lab.spec.base, seed, exp["stream"])
    pull = thermo.conformal_pullback(lab, x, n_probe=exp["n_probe"], seed=seed)
    dens = thermo.invariant_density(lab, x)
    chain = lab.lambda_chain(x, exp["chain_length"])
    results = {
        "lambda_chain": chain.tolist(),
        "rho": dens.rho.values.tolist(),
        "nu_weights": pull.nu.weights.tolist(),
        "residuals": {
            "duality_max": pull.duality_max,
            "lambda_delta": pull.lambda_delta,
            "fixed_point": dens.fixed_point_residual,
            "cesaro_gap": dens.cesaro_gap,
        },
        "lambda": pull.lam,
        "depth_used": pull.depth_used,
        "converged": pull.converged,
    }
    ok = pull.converged and dens.fixed_point_residual <= 1e-6
    artifacts = {
        "rho.csv": gridfunction_csv(dens.rho),
        "nu.csv": csv_text(("index", "weight"), list(enumerate(pull.nu.weights.tolist()))),
    }
    return results, bool(ok), artifacts


def _gap_inputs(lab, config, seed):
    exp = config["experiment"]["gap"]
    xs = [sample_base(lab.spec.base, seed, i) for i in range(exp["n_x"])]
    battery = random_smooth_functions if exp["battery"] == "smooth" else random_lipschitz_functions
    us = battery(lab.n_points, exp["n_u"], seed, interp=lab.interp)
    return xs, us, range(exp["n_min"], exp["n_max"] + 1)


def _run_gap(lab, config, seed, threads, memo):
    xs, us, n_range = _gap_inputs(lab, config, seed)
    fit = thermo.gap_estimate(lab, xs, us, n_range)
    ok = fit.measurable and fit.kappa < 1.0 and fit.r_squared >= 0.98
    rows = list(zip(fit.n_values, fit.mean_log_residuals))
    return fit, bool(ok), {"gap.csv": csv_text(("n", "mean_log_residual"), rows)}


def _run_bounds(lab, config, seed, threads, memo):
    exp = config["experiment"]["bounds"]
    xs = [sample_base(lab.spec.base, seed, 100 + i) for i in range(exp["n_x"])]
    rep = transfer.operator_norm_bounds_check(lab, xs, exp["r_grid"], exp["n_max"], seed=seed)
    uni_xs = [sample_base(lab.spec.base, seed, 200 + i) for i in range(exp["uniform_n_x"])]
    uni = thermo.uniform_bounds_check(lab, uni_xs, exp["uniform_n_max"])
    results = {"perturbed": rep, "uniform": uni}
    ok = rep["bounded"] and uni["positive"]
    return results, bool(ok), {}


def _run_encoding(lab, config, seed, threads, memo):
    exp = config["experiment"]["encoding"]
    res = limits.encoding_check(lab, exp["r_sequence"], config["statistics"]["n_base_samples"],
                                seed, sample_depth=config["numerics"]["sample_depth"],
                                epsilon0=config["numerics"]["epsilon0"])
    return res, bool(res.within_tolerance), {}


def _run_condition_h(lab, config, seed, threads, memo):
    exp = config["experiment"]["condition_h"]
    block = limits.BlockConfig(n=exp["block_n"], m=exp["block_m"], boundaries=exp["boundaries"],
                               frequencies=exp["frequencies"],
                               epsilon0=config["numerics"]["epsilon0"])
    res = limits.condition_h_check(lab, block, exp["k_list"],
                                   config["statistics"]["n_base_samples"], seed,
                                   sample_depth=config["numerics"]["sample_depth"])
    rows = [(r.k, r.difference, r.std_err, r.operator_term, r.operator_se,
             r.base_term, r.base_se) for r in res.rows]
    art = {"condition_h.csv": csv_text(
        ("k", "difference", "std_err", "operator_term", "operator_se", "base_term", "base_se"),
        rows)}
    ok = (not res.noise_dominated) and res.c_fit > 0
    return res, bool(ok), art


def _run_assumption6(lab, config, seed, threads, memo):
    exp = config["experiment"]["assumption6"]
    pairs = thermo.regularity_pairs(lab.spec.base, seed, exp["pair_depths"], exp["pair_reps"])
    res = limits.assumption6_check(lab, exp["n_list"], exp["r_draws"], pairs, seed,
                                   epsilon0=config["numerics"]["epsilon0"])
    ok = res.uniform and res.norm_ratio_across_n <= 2.0
    return res, bool(ok), {}


def _run_decay_base(lab, config, seed, threads, memo):
    exp = config["experiment"]["decay_base"]
    F = window_mean(*exp["f_window"])
    G = window_mean(*exp["g_window"])
    rep = base_correlation_check(lab.spec.base, F, G, exp["n_list"], exp["n_samples"], seed)
    # from this separation on the windows are disjoint and the truth is exactly 0
    start = disjoint_from(exp)
    ok = all(abs(r.estimate) <= 3.0 * r.std_err for r in rep.rows if r.n >= start)
    rows = [(r.n, r.estimate, r.std_err, r.n_samples) for r in rep.rows]
    art = {"decay.csv": csv_text(("n", "estimate", "std_err", "n_samples"), rows)}
    return {**_sanitize(rep), "disjoint_from": start}, bool(ok), art


def _sigma2(lab, name, config, seed, threads, memo):
    """The sigma2 report of the observable named `name`, computed once per memo."""
    key = ("sigma2", name)
    if key not in memo:
        st = config["statistics"]
        memo[key] = limits.sigma2_estimate(
            lab, _observable_for(lab, name), M=st["m"], n_base_samples=st["n_base_samples"],
            n_var=st["n"], trials=st["trials"], seed=seed, tail_tol=st["tail_tol"],
            m_max=st["m_max"], sample_depth=config["numerics"]["sample_depth"], threads=threads)
    return memo[key]


def _run_sigma2(lab, config, seed, threads, memo):
    rep = _sigma2(lab, "default", config, seed, threads, memo)
    rows = [(m, s, se) for m, (s, se) in enumerate(zip(rep.s_values, rep.s_std_errs))]
    art = {"covariance.csv": csv_text(("m", "s_m", "std_err"), rows)}
    return rep, bool(rep.agreement is not False and rep.tail_ok), art  # None: no orbit pass


def _run_clt(lab, config, seed, threads, memo):
    var = _sigma2(lab, config["experiment"]["clt"]["observable"], config, seed, threads, memo)
    res = limits.clt_test(var)
    # raw samples and histogram-vs-density plot data
    hist, edges = np.histogram(res.samples, bins=40, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    sig = np.sqrt(max(var.sigma2_series, 1e-300))
    gauss = np.exp(-0.5 * (centers / sig) ** 2) / (sig * np.sqrt(2 * np.pi))
    art = {
        "samples.csv": csv_text(("trial", "normalized_sum"), list(enumerate(res.samples.tolist()))),
        "histogram.csv": csv_text(("bin_center", "density", "gaussian_density"),
                                  list(zip(centers.tolist(), hist.tolist(), gauss.tolist()))),
    }
    ok = res.status == "ok" and res.p_value > 0.01 and res.centering_consistent
    return res, bool(ok), art


def _run_lil(lab, config, seed, threads, memo):
    exp, st = config["experiment"]["lil"], config["statistics"]
    res = limits.lil_probe(lab, None, n_max=exp["n_max"], trials=exp["trials"], seed=seed,
                           M=st["m"], tail_tol=st["tail_tol"], m_max=st["m_max"],
                           sample_depth=config["numerics"]["sample_depth"], threads=threads)
    art = {"lil.csv": csv_text(("checkpoint", "median_running_max"),
                               list(zip(res.checkpoints, res.median_trajectory)))}
    ok = 0.5 <= res.median_terminal <= 1.5
    return res, bool(ok), art


def _run_coboundary(lab, config, seed, threads, memo):
    exp = config["experiment"]["coboundary"]
    g = _observable_for(lab, exp["observable"], const=exp["coboundary_const"])
    res = limits.coboundary_check(lab, g, n_list=exp["n_list"], trials=exp["trials"],
                                  seed=seed, sample_depth=config["numerics"]["sample_depth"],
                                  threads=threads)
    if exp["observable"] == "coboundary":
        ok = res.verdict == "coboundary-consistent" and res.quarter_decreasing
    else:
        ok = res.verdict == "not coboundary"
    art = {"coboundary.csv": csv_text(("n", "l2_norm", "quarter_stat"),
                                      list(zip(res.n_list, res.l2_norms, res.quarter_trend)))}
    return res, bool(ok), art


_RUNNERS = {
    "thermo": _run_thermo,
    "gap": _run_gap,
    "bounds": _run_bounds,
    "encoding": _run_encoding,
    "condition-h": _run_condition_h,
    "assumption6": _run_assumption6,
    "decay-base": _run_decay_base,
    "sigma2": _run_sigma2,
    "clt": _run_clt,
    "lil": _run_lil,
    "coboundary": _run_coboundary,
}
SUBCOMMANDS = (*_RUNNERS, "all")
ORBIT_SUBCOMMANDS = ("clt", "lil", "coboundary", "all")  # verdicts read from forward orbits

UNTESTED = list(limits.UNTESTED_CLAIMS)


def build_report(subcommand: str, config: dict, threads: int = 1) -> tuple[dict, dict]:
    """Execute a subcommand; return its full report and its CSV artifacts
    (file name -> text), writing no files."""
    start = time.perf_counter()
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    seed = int(config["statistics"]["seed"])
    spec = system_from_config(config)
    if subcommand in ORBIT_SUBCOMMANDS and not spec.has_geometric_potential:
        raise ConfigError(f"{subcommand} reads forward orbits, which sample the geometric "
                          "potential only: system.potential_t must be 1 and system.potential_amp "
                          f"all 0, not {spec.potential_t} and {list(spec.potential_amp)}")
    memo = {}
    if subcommand == "all":
        sub_results, ok_all, artifacts = {}, True, {}
        for name, runner in _RUNNERS.items():
            res, ok, art = runner(_build_lab(config, spec), config, seed, threads, memo)
            sub_results[name] = {"results": res, "contract_ok": ok}
            ok_all = ok_all and ok
            for fname, text in art.items():
                artifacts[f"{name}-{fname}"] = text
        results, contract_ok = sub_results, ok_all
    else:
        lab = _build_lab(config, spec)
        results, contract_ok, artifacts = _RUNNERS[subcommand](lab, config, seed, threads, memo)
    report = {
        "subcommand": subcommand,
        "seed": seed,
        "config_hash": config_hash(config),
        "config": config,
        "untested_theoretical_claims": UNTESTED,
        "results": _sanitize(results),
        "contract_ok": bool(contract_ok),
        "artifact_hashes": {k: hashlib.sha256(v.encode()).hexdigest()
                            for k, v in sorted(artifacts.items())},
        "volatile": {
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "threads": int(threads),
            "elapsed_s": time.perf_counter() - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    return report, artifacts


def write_report(report: dict, artifacts: dict, out_root: str) -> str:
    sub = report["subcommand"]
    d = os.path.join(out_root, f"{sub}-{report['seed']}-{report['config_hash'][:8]}")
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, text in artifacts.items():
        with open(os.path.join(d, name), "w") as fh:
            fh.write(text)
    return d


def _first_difference(a, b, path=""):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                return f"{path}{k}"
            d = _first_difference(a[k], b[k], f"{path}{k}.")
            if d:
                return d
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}<length>"
        for i, (x, y) in enumerate(zip(a, b)):
            d = _first_difference(x, y, f"{path}{i}.")
            if d:
                return d
        return None
    if isinstance(a, float) and isinstance(b, float) and np.isnan(a) and np.isnan(b):
        return None
    if a != b:
        return path.rstrip(".") or "<root>"
    return None


def replay(report_path: str, threads: int | None = None) -> int:
    """Re-run a report's experiment and verify bit-identical results.

    Everything except the volatile section (timestamp, thread cap) must match;
    CSV artifacts are compared through their recorded hashes.  Exit 0 iff
    identical, else 2 with the first differing field.
    """
    with open(report_path) as fh:
        old = json.load(fh)
    config = resolve_config(old["config"])
    threads = old["volatile"]["threads"] if threads is None else int(threads)
    new, _ = build_report(old["subcommand"], config, threads=threads)
    a = {k: v for k, v in old.items() if k != "volatile"}
    b = json.loads(json.dumps({k: v for k, v in new.items() if k != "volatile"}))
    diff = _first_difference(a, b)
    if diff:
        print(f"replay diverged at field: {diff}", file=sys.stderr)
        return 2
    print("replay identical")
    return 0


def run(subcommand: str, config_path: str | None = None, out_dir: str | None = None,
        seed: int | None = None, threads: int = 1, sets=None) -> int:
    if seed is not None:  # the last override, checked like every other
        sets = [*(sets or []), f"statistics.seed={json.dumps(seed)}"]
    try:
        config = apply_overrides(load_config(config_path), sets)
        report, artifacts = build_report(subcommand, config, threads=threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    out_root = out_dir or os.environ.get("RDSLAB_OUT", "reports")
    d = write_report(report, artifacts, out_root)
    print(f"report written to {d} (contract_ok={report['contract_ok']})")
    return 0 if report["contract_ok"] else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rdslab",
        description="Numerical laboratory for random expanding circle maps over a bilateral shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment and write its report")
    p_run.add_argument("subcommand", choices=SUBCOMMANDS)
    p_run.add_argument("--config", default=None, help="JSON config path")
    p_run.add_argument("--out", default=None, help="output root directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--threads", type=int, default=1, help="parallelism cap")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-path config override (JSON-parsed value)")
    p_rep = sub.add_parser("replay", help="re-run a report and verify bit-identical output")
    p_rep.add_argument("report", help="path to report.json")
    p_rep.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return run(args.subcommand, config_path=args.config, out_dir=args.out,
                       seed=args.seed, threads=args.threads, sets=args.set)
        return replay(args.report, threads=args.threads)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # operational errors -> exit 1 with a message
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
