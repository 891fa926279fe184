import inspect
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdslab.cli as cli
import rdslab.config as config_module
from rdslab import limits
from rdslab.thermo import Lab
from rdslab.config import (
    DEFAULTS,
    Choice,
    ConfigError,
    Int,
    Real,
    apply_overrides,
    config_hash,
    load_config,
    resolve_config,
    system_from_config,
)

SMALL_SETS = [
    "numerics.n_points=256", "numerics.pullback_depth=16", "numerics.sample_depth=10",
    "statistics.trials=120", "statistics.n=300", "statistics.n_base_samples=80",
    "statistics.m=5",
    "experiment.lil.n_max=1200", "experiment.lil.trials=40",
    "experiment.coboundary.n_list=[50,200,800]", "experiment.coboundary.trials=80",
    "experiment.decay_base.n_samples=20000",
    "experiment.gap.n_x=3", "experiment.gap.n_u=2", "experiment.gap.n_max=10",
    "experiment.bounds.n_x=2", "experiment.bounds.n_max=5",
    "experiment.bounds.uniform_n_x=8", "experiment.bounds.uniform_n_max=6",
    "experiment.condition_h.k_list=[0,1,2,3]",
    "experiment.assumption6.n_list=[2,3]", "experiment.assumption6.r_draws=2",
    "experiment.assumption6.pair_depths=[2,4,6]",
]


def small_config():
    return apply_overrides(resolve_config({}), SMALL_SETS)


def test_unknown_key_is_fatal_and_named():
    with pytest.raises(ConfigError, match="numerics.n_pionts"):
        resolve_config({"numerics": {"n_pionts": 512}})
    with pytest.raises(ConfigError, match="sytsem"):
        resolve_config({"sytsem": {}})


def test_override_unknown_key_is_fatal():
    with pytest.raises(ConfigError, match="statistics.trails"):
        apply_overrides(resolve_config({}), ["statistics.trails=5"])


def test_cli_run_unknown_key_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"numerics": {"n_poins": 4}}))
    code = cli.run("thermo", config_path=str(bad), out_dir=str(tmp_path))
    assert code == 1
    assert "n_poins" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [
    ("numerics.n_points", 0), ("numerics.n_points", 3), ("numerics.n_points", 512.0),
    ("numerics.pullback_depth", 0), ("numerics.pullback_depth", 1),
    ("numerics.sample_depth", 0), ("numerics.sample_depth", -3), ("numerics.sample_depth", True),
    ("statistics.n_base_samples", 1), ("statistics.trials", 1), ("statistics.trials", 0),
    ("statistics.m", -1), ("statistics.m", 0), ("experiment.gap.n_min", 0),
    ("experiment.gap.n_max", 0), ("experiment.lil.n_max", 50), ("experiment.gap.n_x", 0),
    ("experiment.bounds.uniform_n_x", 0), ("experiment.condition_h.block_n", 0),
    ("experiment.condition_h.block_m", 0),
    ("experiment.thermo.n_probe", 0), ("experiment.assumption6.r_draws", 0),
    ("experiment.assumption6.pair_reps", 0), ("experiment.bounds.n_max", 0),
    ("numerics.depth_max", 1e400), ("experiment.thermo.chain_length", 0),
    ("experiment.bounds.uniform_n_max", 0), ("experiment.coboundary.trials", 1),
    ("statistics.m_max", 2), ("statistics.n", 1), ("experiment.decay_base.n_samples", 1),
    ("experiment.lil.trials", 1), ("experiment.gap.n_u", 0), ("experiment.thermo.stream", -1),
    ("statistics.seed", 1.5), ("statistics.seed", -1), ("statistics.seed", 2**64),
    ("numerics.n_points", 10**30), ("experiment.bounds.n_max", 1), ("experiment.gap.n_max", 2),
])
def test_integer_settings_below_floor_exit_1(tmp_path, capsys, key, value):
    code = cli.run("thermo", out_dir=str(tmp_path), sets=[f"{key}={json.dumps(value)}"])
    assert code == 1
    assert f"config error: {key} must be an integer" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("n_min,n_max", [(5, 4), (5, 6), (2, 3)])
def test_empty_gap_range_exit_1(tmp_path, capsys, n_min, n_max):
    # the gap fit needs 3 values of n: fewer report "too strong to measure"
    code = cli.run("gap", out_dir=str(tmp_path),
                   sets=[f"experiment.gap.n_min={n_min}", f"experiment.gap.n_max={n_max}"])
    assert code == 1
    assert ("config error: experiment.gap.n_max must be an integer >= experiment.gap.n_min + 2"
            f" = {n_min + 2}" in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key,value", [
    ("experiment.condition_h.k_list", []), ("experiment.condition_h.k_list", 3),
    ("experiment.coboundary.n_list", [5]), ("experiment.coboundary.n_list", [100, 100]),
    ("experiment.coboundary.n_list", [100, 1000.5]), ("experiment.assumption6.n_list", [2]),
    ("experiment.decay_base.n_list", []), ("experiment.decay_base.n_list", [4, 4.5]),
    ("experiment.condition_h.k_list", [-1, 2]), ("experiment.condition_h.k_list", [1, 1, 2]),
    ("experiment.assumption6.n_list", [0, 2]), ("experiment.coboundary.n_list", [0, 100]),
    ("experiment.assumption6.pair_depths", []), ("experiment.bounds.r_grid", []),
    ("experiment.condition_h.k_list", [3]),
])
def test_lists_too_short_exit_1(tmp_path, capsys, key, value):
    # one n gives a one-point slope fit: no verdict may come from it
    code = cli.run("coboundary", out_dir=str(tmp_path), sets=[f"{key}={json.dumps(value)}"])
    assert code == 1
    assert f"config error: {key} must be a list of at least" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key,value", [
    ("experiment.decay_base.f_window", [3, 0]), ("experiment.decay_base.g_window", [2]),
    ("experiment.decay_base.g_window", [0, 1.5]), ("experiment.decay_base.f_window", [0, True]),
    ("experiment.decay_base.n_list", [0, 1]), ("experiment.decay_base.n_list", [3, 2, 1]),
])
def test_decay_base_windows_exit_1(tmp_path, capsys, key, value):
    # with no separation at which the windows are disjoint, the verdict would check nothing
    code = cli.run("decay-base", out_dir=str(tmp_path), sets=[f"{key}={json.dumps(value)}"])
    assert code == 1
    assert f"config error: {key} must " in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key,value,named", [
    ("numerics.interp", "foo", "numerics.interp"),
    ("system.weights", [0.7, 0.7], "system.weights"),
    ("system.weights", [1.0], "system.weights"),
    ("system.branch_count", [1, 3], "system.branch_count"),
    ("system.branch_count", [2.5, 3], "system.branch_count"),
    ("system.nonlinearity", [0.5, 0.04], "system.branch_count and system.nonlinearity"),
    ("system.nonlinearity", [-0.01, 0.04], "system.nonlinearity"),
    ("system.obs_offset", [0.2], "system.obs_offset"),
    ("system.obs_phase", [0.0, "a"], "system.obs_phase"),
    ("system.potential_t", "a", "system.potential_t"),
    ("system.alpha", 0, "system.alpha"),
    ("system.weights", [0.5, 0.5, 0.0], "system.weights"),
    ("system.branch_count", [2, 3, 4], "system.branch_count"),
    ("system.eta", -0.1, "system.eta"),
    ("system.xi", 0, "system.xi"),
    ("system.h_tilde", 0.5, "system.h_tilde"),
    ("numerics.duality_tol", -1, "numerics.duality_tol"),
    ("numerics.newton_tol", 0, "numerics.newton_tol"),
    ("statistics.tail_tol", -1e-4, "statistics.tail_tol"),
    ("numerics.epsilon0", -1, "numerics.epsilon0"),
    ("experiment.encoding.r_sequence", [2.0], "experiment.encoding.r_sequence"),
    ("experiment.encoding.r_sequence", [], "experiment.encoding.r_sequence"),
    ("experiment.condition_h.frequencies", [0.4], "experiment.condition_h.frequencies"),
    ("experiment.condition_h.frequencies", [0.4, -1.5], "experiment.condition_h.frequencies"),
    ("experiment.condition_h.boundaries", [0, 1], "experiment.condition_h.boundaries"),
    ("experiment.condition_h.boundaries", [0, 2, 2], "experiment.condition_h.boundaries"),
    ("experiment.condition_h.boundaries", [-1, 0, 1], "experiment.condition_h.boundaries"),
    ("system.nonlinearity", [2.0, 0.04], "system.branch_count and system.nonlinearity"),
    ("system.branch_count", [0, 0], "system.branch_count"), ("system.alpha", 1e-30, "system.alpha"),
    ("experiment.bounds.r_grid", [5.0], "experiment.bounds.r_grid"),
    ("experiment.gap.battery", "foo", "experiment.gap.battery"),
    ("experiment.clt.observable", "foo", "experiment.clt.observable"),
    ("experiment.coboundary.observable", "foo", "experiment.coboundary.observable"),
    ("experiment.coboundary.coboundary_const", "a", "experiment.coboundary.coboundary_const"),
    ("system.branch_count", [10**400, 3], "system.branch_count"),
])
def test_bad_system_and_tolerances_exit_1(tmp_path, capsys, key, value, named):
    # each used to die inside the model constructors or the experiments without a
    # config path, or (a non-positive tolerance, an empty frequency list) to write a
    # report whose contract could never pass or meant nothing
    code = cli.run("thermo", out_dir=str(tmp_path), sets=[f"{key}={json.dumps(value)}"])
    assert code == 1
    assert f"config error: {named}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key", ["experiment.gap.battery", "experiment.clt.observable",
                                 "experiment.coboundary.observable"])
def test_bad_choice_runs_no_subcommand(tmp_path, capsys, monkeypatch, key):
    calls = []
    for name in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, name,
                            lambda *args, name=name: calls.append(name) or ({}, True, {}))
    code = cli.run("all", out_dir=str(tmp_path), sets=[f'{key}="foo"'])
    assert code == 1 and calls == []
    assert f"config error: {key}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_seed_flag_is_checked_like_the_config(tmp_path, capsys, seed):
    # -1 used to run as 2**64 - 1 (key derivation masks the seed to 64 bits), 1.5 as seed 1
    if isinstance(seed, int):
        code = cli.main(["run", "thermo", "--out", str(tmp_path), "--seed", str(seed)])
    else:  # the --seed flag parses integers only; run() takes the value as given
        code = cli.run("thermo", out_dir=str(tmp_path), seed=seed)
    assert code == 1
    assert "config error: statistics.seed must be an integer" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def leaves(table, path=""):
    for key, rule in table.items():
        if isinstance(rule, dict):
            yield from leaves(rule, f"{path}{key}.")
        else:
            yield f"{path}{key}", rule


def nested(flat):
    user = {}
    for path, value in flat.items():
        *sections, key = path.split(".")
        node = user
        for name in sections:
            node = node.setdefault(name, {})
        node[key] = value
    return user


LEAVES = dict(leaves(DEFAULTS))
JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.just({}),
                 st.sampled_from([math.nan, math.inf, -math.inf]))


def inside(rule):
    """Values that keep the rule."""
    if isinstance(rule, Int):
        # capped, so that PARTNERS lists built from the drawn value stay short
        top = rule.least + 1000
        return st.integers(rule.least, top if rule.below is None else min(rule.below - 1, top))
    if isinstance(rule, Real):
        num = st.floats(0.0, 1e6, exclude_min=True) if rule.positive else st.floats(-1e6, 1e6)
        return num if rule.default is not None else st.none() | num
    if isinstance(rule, Choice):
        return st.sampled_from(rule.options)
    item = (st.integers(-50 if rule.least is None else rule.least, 60) if rule.item is int
            else st.floats(-1e6, 1e6))
    values = st.lists(item, min_size=rule.size, max_size=rule.size + (0 if rule.exact else 4),
                      unique=rule.distinct or rule.order == "increasing")
    return values.map(sorted) if rule.order else values


def outside(rule):
    """Values that break the rule."""
    if isinstance(rule, Int):
        bad = st.integers(max_value=rule.least - 1) | st.floats() | JUNK
        return bad if rule.below is None else bad | st.integers(min_value=rule.below)
    if isinstance(rule, Real):
        bad = st.booleans() | st.text(max_size=3) | st.just([1.0]) | st.just(10**400)
        bad = bad | st.sampled_from([math.nan, math.inf, -math.inf])
        bad = bad if rule.default is None else bad | st.none()
        return bad | st.floats(max_value=0.0) | st.integers(max_value=0) if rule.positive else bad
    if isinstance(rule, Choice):
        return st.text().filter(lambda v: v not in rule.options) | st.integers() | JUNK
    bad_item = JUNK | st.floats() if rule.item is int else JUNK
    if rule.least is not None:
        bad_item = bad_item | st.integers(max_value=rule.least - 1)
    spliced = st.tuples(inside(rule), bad_item, st.integers(0, 9)).map(
        lambda t: t[0][:t[2] % len(t[0])] + [t[1]] + t[0][t[2] % len(t[0]) + 1:])
    bad = JUNK | st.integers() | spliced | st.lists(st.integers(0, 9), max_size=rule.size - 1)
    if rule.exact:
        bad = bad | st.lists(st.integers(0, 9), min_size=rule.size + 1, max_size=rule.size + 3)
    if rule.distinct:
        bad = bad | inside(rule).map(lambda v: v + v[:1])
    if rule.order:
        bad = bad | inside(rule).filter(lambda v: len(set(v)) > 1).map(lambda v: v[::-1])
    return bad


def block_count(n, m=1):
    ch = "experiment.condition_h."
    return {ch + "block_n": n, ch + "block_m": m, ch + "frequencies": [0.0] * (n + m),
            ch + "boundaries": list(range(n + m + 1))}


def within_epsilon0(rs):
    return {"numerics.epsilon0": max([1.0] + [abs(r) for r in rs])}


# Keys set alongside a drawn value so that it keeps the rules tying its key to others.
PARTNERS = {
    "numerics.pullback_depth": lambda v: {"numerics.depth_max": v},
    "numerics.depth_max": lambda v: {"numerics.pullback_depth": 2},
    "statistics.m": lambda v: {"statistics.m_max": v},
    "statistics.m_max": lambda v: {"statistics.m": 1},
    "experiment.gap.n_min": lambda v: {"experiment.gap.n_max": v + 2},
    "numerics.epsilon0": lambda v: {"experiment.encoding.r_sequence": [0.0],
                                    "experiment.bounds.r_grid": [0.0],
                                    **block_count(1)},
    "experiment.encoding.r_sequence": within_epsilon0,
    "experiment.bounds.r_grid": within_epsilon0,
    "experiment.condition_h.frequencies": lambda v: {**within_epsilon0(v),
                                                     **block_count(len(v) - 1)},
    "experiment.condition_h.boundaries": lambda v: block_count(len(v) - 2),
    "experiment.condition_h.block_n": lambda v: block_count(v),
    "experiment.condition_h.block_m": lambda v: block_count(1, v),
    "experiment.decay_base.n_list": lambda v: {"experiment.decay_base.f_window": [1, 1],
                                               "experiment.decay_base.g_window": [0, 0]},
    "experiment.decay_base.f_window": lambda v: {"experiment.decay_base.n_list": [max(0, 4 - v[0])]},
    "experiment.decay_base.g_window": lambda v: {"experiment.decay_base.n_list": [max(0, v[1] + 1)]},
}


@pytest.mark.parametrize("path", sorted(LEAVES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_leaf_keeps_its_rule(path, data):
    rule = LEAVES[path]
    bad = data.draw(outside(rule), label="outside")
    with pytest.raises(ConfigError) as err:
        resolve_config(nested({path: bad}))
    assert str(err.value).startswith(f"{path} must be")
    good = data.draw(inside(rule), label="inside")
    user = {**PARTNERS.get(path, lambda v: {})(good), path: good}
    try:
        config = resolve_config(nested(user))
    except ConfigError as e:  # the model constructors hold the system's value rules
        assert path.startswith("system.") and str(e).startswith("system."), e
    else:
        section, key = path.rsplit(".", 1)
        node = config
        for name in section.split("."):
            node = node[name]
        assert node[key] == good


def test_default_config_hash_is_pinned():
    # every report written so far echoes this config: a change to a default breaks its replay
    assert config_hash(load_config(None)) == (
        "83f717f0dfcef0a5490403fc0dceca03f6df1b0b1213ed88eb28c580d1ebd6cb")


# each library parameter whose default stands for a config leaf
LIBRARY_DEFAULTS = [
    *[(Lab.__init__, name, f"numerics.{name}") for name in
      ("n_points", "interp", "pullback_depth", "depth_max", "duality_tol", "newton_tol")],
    (limits.sigma2_estimate, "M", "statistics.m"),
    (limits.sigma2_estimate, "n_base_samples", "statistics.n_base_samples"),
    (limits.sigma2_estimate, "n_var", "statistics.n"),
    (limits.sigma2_estimate, "trials", "statistics.trials"),
    (limits.sigma2_estimate, "tail_tol", "statistics.tail_tol"),
    (limits.sigma2_estimate, "m_max", "statistics.m_max"),
    (limits.sigma2_estimate, "sample_depth", "numerics.sample_depth"),
    (limits.covariance_sequence, "M", "statistics.m"),
    (limits.covariance_sequence, "n_base_samples", "statistics.n_base_samples"),
    (limits.covariance_sequence, "tail_tol", "statistics.tail_tol"),
    (limits.covariance_sequence, "m_max", "statistics.m_max"),
    (limits.covariance_sequence, "sample_depth", "numerics.sample_depth"),
    (limits.lil_probe, "M", "statistics.m"),
    (limits.lil_probe, "tail_tol", "statistics.tail_tol"),
    (limits.lil_probe, "m_max", "statistics.m_max"),
    (limits.lil_probe, "sample_depth", "numerics.sample_depth"),
    (limits.lil_probe, "n_max", "experiment.lil.n_max"),
    (limits.lil_probe, "trials", "experiment.lil.trials"),
    (limits.coboundary_check, "n_list", "experiment.coboundary.n_list"),
    (limits.coboundary_check, "trials", "experiment.coboundary.trials"),
]


@pytest.mark.parametrize("fn, name, path", LIBRARY_DEFAULTS,
                         ids=[f"{fn.__qualname__}.{name}" for fn, name, _ in LIBRARY_DEFAULTS])
def test_library_defaults_are_the_config_defaults(fn, name, path):
    # a library call with its defaults runs the default config's experiment
    rule = DEFAULTS
    for key in path.split("."):
        rule = rule[key]
    default = inspect.signature(fn).parameters[name].default
    assert (list(default) if isinstance(default, tuple) else default) == rule.default


def test_config_hash_sensitivity():
    base = resolve_config({})
    h0 = config_hash(base)
    for key in ("numerics.n_points=512", "statistics.seed=7",
                "system.potential_t=0.5", "experiment.clt.observable=\"coboundary\""):
        assert config_hash(apply_overrides(base, [key])) != h0
    assert config_hash(resolve_config({})) == h0  # stable across calls


def test_system_from_config_roundtrip():
    spec = system_from_config(resolve_config({}))
    assert spec.branch_count == (2, 3)
    assert spec.has_geometric_potential


def test_thermo_closed_form_run(tmp_path):
    sets = ["system.potential_t=0.0", "system.potential_amp=[0.0,0.0]",
            "system.branch_count=[2,2]", "system.nonlinearity=[0.0,0.0]",
            "numerics.n_points=256", "numerics.pullback_depth=16"]
    code = cli.run("thermo", out_dir=str(tmp_path), sets=sets)
    assert code == 0
    d = next(p for p in tmp_path.iterdir() if p.name.startswith("thermo-"))
    report = json.loads((d / "report.json").read_text())
    chain = report["results"]["lambda_chain"]
    assert all(abs(v - 2.0) < 1e-10 for v in chain)
    rho = report["results"]["rho"]
    assert all(abs(v - 1.0) < 1e-10 for v in rho)
    # CSV artifacts exist with the documented columns
    assert (d / "rho.csv").read_text().splitlines()[0] == "index,point,value_re,value_im"


def test_clt_report_keys(tmp_path):
    cfg = small_config()
    report, artifacts = cli.build_report("clt", cfg, threads=1)
    assert {"ks_stat", "p_value", "n", "trials", "sigma2_used"} <= set(report["results"])
    assert "seed" in report and "config_hash" in report
    assert "histogram.csv" in artifacts
    assert artifacts["histogram.csv"].splitlines()[0] == "bin_center,density,gaussian_density"
    assert report["untested_theoretical_claims"]


def record_orbit_calls(monkeypatch):
    """Record the bound arguments of every limits.orbit_birkhoff_sums call."""
    real = limits.orbit_birkhoff_sums
    sig = inspect.signature(real)
    calls = []

    def recording(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(tuple((k, tuple(v) if k == "record_at" else v)
                           for k, v in bound.arguments.items()))
        return real(*args, **kwargs)

    monkeypatch.setattr(limits, "orbit_birkhoff_sums", recording)
    return calls


def test_clt_computes_no_orbit_sums_twice(monkeypatch):
    calls = record_orbit_calls(monkeypatch)
    reports = []
    real_sigma2 = limits.sigma2_estimate
    monkeypatch.setattr(limits, "sigma2_estimate",
                        lambda *args, **kwargs: reports.append(real_sigma2(*args, **kwargs))
                        or reports[-1])
    report, _ = cli.build_report("clt", small_config())
    assert len(calls) == 1  # sigma2's Var(S_n)/n pass, which clt reads
    (var,) = reports
    expected = {**limits.clt_test(var).as_dict(), "sigma2_mc": var.sigma2_mc}
    assert report["results"] == cli._sanitize(expected)


def test_sigma2_growing_truncation_runs_one_orbit_pass(monkeypatch):
    # a non-geometric potential takes route A: M grows 4 -> 6 -> 9 here, and
    # the covariance series is recomputed at each M without any orbit pass of its own
    calls = record_orbit_calls(monkeypatch)
    config = apply_overrides(resolve_config({}), [
        "numerics.n_points=128", "numerics.pullback_depth=16", "statistics.m=4",
        "statistics.m_max=9", "statistics.tail_tol=1e-12", "statistics.trials=200",
        "statistics.n=1000", "statistics.n_base_samples=200", "system.potential_amp=[0.1,0.15]"])
    results = cli.build_report("sigma2", config)[0]["results"]
    assert results["series_route"] == "ensemble"
    assert results["m_used"] > 4
    assert len(calls) == 1


def test_lil_sigma_is_sigma2s_truncated_series():
    # lil's exact sigma^2 is cut off by the statistics leaves, as sigma2's series is
    config = apply_overrides(small_config(), ["statistics.m=2", "statistics.m_max=3"])
    series = cli.build_report("sigma2", config)[0]["results"]
    lil = cli.build_report("lil", config)[0]["results"]
    assert series["series_route"] == "annealed" and series["m_used"] == 2
    assert lil["centering"] == "annealed"
    assert lil["sigma_used"] == math.sqrt(series["sigma2_series"])


def test_sigma2_and_clt_results_keep_their_keys(monkeypatch):
    # the sums and base samples clt reads from the sigma2 report stay out of both reports
    for name in cli._RUNNERS:
        if name not in ("sigma2", "clt"):
            monkeypatch.setitem(cli._RUNNERS, name, lambda *args: ({}, True, {}))
    results = cli.build_report("all", small_config())[0]["results"]
    assert set(results["sigma2"]["results"]) == {
        "agreement", "m_used", "mu_estimate", "n_var", "orbit_bias_warning", "s_std_errs",
        "s_values", "series_route", "sigma2_mc", "sigma2_mc_se", "sigma2_series",
        "sigma2_series_se", "tail_bound", "tail_ok", "trials"}
    assert set(results["clt"]["results"]) == {
        "centering_consistent", "ks_stat", "mu_orbit", "mu_orbit_se", "mu_thermo",
        "mu_thermo_se", "n", "orbit_bias_warning", "p_value", "sample_mean", "sample_skew",
        "sample_var", "sigma2_mc", "sigma2_used", "status", "trials"}


def test_all_computes_sigma2_once_per_observable(monkeypatch):
    real = limits.sigma2_estimate
    observables = []

    def counting(lab, g=None, **kwargs):
        observables.append(g)
        return real(lab, g, **kwargs)

    monkeypatch.setattr(limits, "sigma2_estimate", counting)
    for name in cli._RUNNERS:
        if name not in ("sigma2", "clt"):
            monkeypatch.setitem(cli._RUNNERS, name, lambda *args: ({}, True, {}))
    cfg = small_config()
    cli.build_report("all", cfg)
    assert len(observables) == 1 and observables[0] is not None
    # the memo lives for one report: a second report computes sigma2 again
    cli.build_report("all", cfg)
    assert len(observables) == 2
    cfg["experiment"]["clt"]["observable"] = "coboundary"
    cli.build_report("all", cfg)
    assert len(observables) == 4  # a different observable is a different estimate


def test_run_all_builds_one_system_spec_per_report(tmp_path, monkeypatch):
    # `run` resolves the config twice (the file, then the overrides), each check
    # building the spec; the report then builds one and hands it to every Lab
    built, specs = [], []
    real = config_module.make_system
    monkeypatch.setattr(config_module, "make_system",
                        lambda **kwargs: built.append(1) or real(**kwargs))

    def runner(lab, *args):
        specs.append(lab.spec)
        return {}, True, {}

    for name in cli._RUNNERS:
        monkeypatch.setitem(cli._RUNNERS, name, runner)
    assert cli.run("all", out_dir=str(tmp_path), sets=["numerics.n_points=16"]) == 0
    assert len(built) == 3
    assert len(specs) == len(cli._RUNNERS) and all(s is specs[0] for s in specs)


def test_decay_base_csv_columns(tmp_path):
    code = cli.run("decay-base", out_dir=str(tmp_path),
                   sets=["experiment.decay_base.n_samples=20000"])
    assert code == 0
    d = next(p for p in tmp_path.iterdir() if p.name.startswith("decay-base-"))
    header = (d / "decay.csv").read_text().splitlines()[0]
    assert header == "n,estimate,std_err,n_samples"


def test_replay_roundtrip_and_tamper(tmp_path, capsys):
    cfg = small_config()
    report, artifacts = cli.build_report("sigma2", cfg, threads=1)
    # the report states its cost where replay does not compare it
    assert report["volatile"]["elapsed_s"] > 0 and report["volatile"]["peak_rss_mb"] > 0
    assert not {"elapsed_s", "peak_rss_mb"} & set(report["results"])
    d = cli.write_report(report, artifacts, str(tmp_path))
    path = os.path.join(d, "report.json")
    assert cli.replay(path) == 0
    assert "replay identical" in capsys.readouterr().out
    # tampering with the seed must be detected
    tampered = json.loads(open(path).read())
    tampered["seed"] = tampered["seed"] + 1
    with open(path, "w") as fh:
        json.dump(tampered, fh)
    assert cli.replay(path) == 2


def test_replay_thread_count_independent(tmp_path):
    cfg = small_config()
    report, artifacts = cli.build_report("clt", cfg, threads=1)
    d = cli.write_report(report, artifacts, str(tmp_path))
    path = os.path.join(d, "report.json")
    assert cli.replay(path, threads=8) == 0


def test_reports_byte_identical_modulo_timestamp(tmp_path):
    cfg = small_config()
    r1, a1 = cli.build_report("encoding", cfg, threads=1)
    r2, a2 = cli.build_report("encoding", cfg, threads=4)
    s1 = json.dumps({k: v for k, v in r1.items() if k != "volatile"}, sort_keys=True)
    s2 = json.dumps({k: v for k, v in r2.items() if k != "volatile"}, sort_keys=True)
    assert s1 == s2
    assert a1 == a2


def test_main_entrypoint(tmp_path, capsys):
    code = cli.main(["run", "decay-base", "--out", str(tmp_path), "--seed", "5",
                     "--set", "experiment.decay_base.n_samples=20000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "report written" in out
    d = next(p for p in tmp_path.iterdir())
    assert d.name.startswith("decay-base-5-")
    report = json.loads((d / "report.json").read_text())
    assert report["seed"] == 5


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RDSLAB_OUT", str(tmp_path / "envroot"))
    code = cli.run("decay-base", sets=["experiment.decay_base.n_samples=5000"])
    assert code == 0
    assert any(p.name.startswith("decay-base-") for p in (tmp_path / "envroot").iterdir())


def test_all_subcommand_aggregates(tmp_path):
    cfg = small_config()
    report, artifacts = cli.build_report("all", cfg, threads=2)
    subs = set(report["results"])
    assert {"thermo", "encoding", "sigma2", "clt", "coboundary"} <= subs
    assert all("contract_ok" in v for v in report["results"].values())
    assert any(name.startswith("clt-") for name in artifacts)


FRESH_START = """
import json, sys
import rdslab.cli as cli
from rdslab.config import apply_overrides, resolve_config
cfg = apply_overrides(resolve_config({}), json.loads(sys.argv[1]))
for sub in ("thermo", "gap", "encoding", "clt", "lil"):
    cli.build_report(sub, cfg, threads=1)
    assert "scipy.stats" not in sys.modules, f"{sub} loaded scipy.stats"
"""


def test_no_subcommand_loads_scipy_stats():
    # a fresh interpreter: this process already holds scipy.stats.  clt's KS test
    # and lil's exact centering run here; test_imports.py covers the rest statically
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", FRESH_START, json.dumps(SMALL_SETS)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
