import inspect
import json
import os

import pytest

import rdslab.cli as cli
from rdslab import limits
from rdslab.config import (
    ConfigError,
    apply_overrides,
    config_hash,
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
])
def test_integer_settings_below_floor_exit_1(tmp_path, capsys, key, value):
    code = cli.run("thermo", out_dir=str(tmp_path), sets=[f"{key}={json.dumps(value)}"])
    assert code == 1
    assert f"config error: {key} must be an integer" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_empty_gap_range_exit_1(tmp_path, capsys):
    code = cli.run("gap", out_dir=str(tmp_path),
                   sets=["experiment.gap.n_min=5", "experiment.gap.n_max=4"])
    assert code == 1
    assert ("config error: experiment.gap.n_max must be an integer >= experiment.gap.n_min"
            in capsys.readouterr().err)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("key,value", [
    ("experiment.condition_h.k_list", []), ("experiment.condition_h.k_list", 3),
    ("experiment.coboundary.n_list", [5]), ("experiment.coboundary.n_list", [100, 100]),
    ("experiment.coboundary.n_list", [100, 1000.5]), ("experiment.assumption6.n_list", [2]),
    ("experiment.decay_base.n_list", []), ("experiment.decay_base.n_list", [4, 4.5]),
    ("experiment.condition_h.k_list", [-1, 2]), ("experiment.condition_h.k_list", [1, 1, 2]),
    ("experiment.assumption6.n_list", [0, 2]), ("experiment.coboundary.n_list", [0, 100]),
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
])
def test_bad_system_and_tolerances_exit_1(tmp_path, capsys, key, value, named):
    # each used to die inside the model constructors or the experiments without a
    # config path, or (a non-positive tolerance, an empty frequency list) to write a
    # report whose contract could never pass or meant nothing
    code = cli.run("thermo", out_dir=str(tmp_path), sets=[f"{key}={json.dumps(value)}"])
    assert code == 1
    assert f"config error: {named}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


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
    assert {"ks_stat", "p_value", "n", "trials", "sigma2"} <= set(report["results"])
    assert "seed" in report and "config_hash" in report
    assert "histogram.csv" in artifacts
    assert artifacts["histogram.csv"].splitlines()[0] == "bin_center,density,gaussian_density"
    assert report["untested_theoretical_claims"]


def test_clt_computes_no_orbit_sums_twice(monkeypatch):
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
    cli.build_report("clt", small_config())
    assert calls and len(set(calls)) == len(calls)


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


def test_decay_base_csv_columns(tmp_path):
    code = cli.run("decay-base", out_dir=str(tmp_path),
                   sets=["experiment.decay_base.n_samples=20000"])
    assert code == 0
    d = next(p for p in tmp_path.iterdir() if p.name.startswith("decay-base-"))
    header = (d / "decay.csv").read_text().splitlines()[0]
    assert header == "n,estimate,std_err,n_samples"


def test_replay_roundtrip_and_tamper(tmp_path):
    cfg = small_config()
    report, artifacts = cli.build_report("sigma2", cfg, threads=1)
    d = cli.write_report(report, artifacts, str(tmp_path))
    path = os.path.join(d, "report.json")
    assert cli.replay(path) == 0
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
