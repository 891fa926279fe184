"""Acceptance suite: one test per criterion, at the stated sizes and tolerances.

Desk-scale instantiation throughout: random circle maps with branch counts
{2, 3} over a fair-coin bilateral shift, N = 1024 grid points, cubic
interpolation, seed 42.  Thermo/operator/cone criteria run on the Gibbs
workbench system (nonconstant potential, exact branches); orbit-statistics
criteria run on the geometric-potential system whose invariant measure is the
one forward simulation can faithfully sample.  Each test prints a PASS line
once its criterion holds.
"""

import json
import os

import numpy as np
import pytest

import rdslab as rl
import rdslab.cli as cli
from rdslab.base import sample_base, window_mean, base_correlation_check
from rdslab.fiber import (
    CoboundaryObservable,
    GridFunction,
    ScaledObservable,
    cone_check,
    cone_embed,
    cone_oscillation,
    cone_ratio_bound,
    cone_variation_bound,
    variation_alpha,
)
from rdslab.limits import (
    BlockConfig,
    clt_test,
    coboundary_check,
    condition_h_check,
    sigma2_estimate,
)
from rdslab.thermo import (
    gap_estimate,
    invariant_density,
    random_lipschitz_functions,
    random_smooth_functions,
    regularity_pairs,
    uniform_bounds_check,
)
from rdslab.transfer import (
    oracle_transfer,
    perturbed_chain_identity_check,
    transfer_apply,
    transfer_iterate,
)

SEED = 42


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def sigma2_default(stats_lab):
    return sigma2_estimate(stats_lab, None, M=12, n_base_samples=600, n_var=10_000,
                           trials=2000, seed=SEED)


def test_criterion_01_oracle_equivalence(gibbs_lab):
    spec = gibbs_lab.spec
    x = sample_base(spec.base, SEED, 1)
    f = lambda z: 1 + 0.4 * np.cos(2 * np.pi * z) + 0.2 * np.sin(4 * np.pi * z)
    errs = {}
    for n_pts in (128, 256, 512, 1024):
        table = rl.OperatorTable(spec, n_pts, "cubic")
        u = GridFunction.from_callable(f, n_pts)
        grid = transfer_iterate(table, x, u, 4).values
        oracle = oracle_transfer(spec, x, u, 4, table.nodes())
        errs[n_pts] = float(np.max(np.abs(grid - oracle)))
    assert errs[1024] <= 1e-6
    order = np.log2(errs[128] / errs[1024]) / 3
    assert order >= 4 - 0.2
    report(1, f"sup error {errs[1024]:.2e} at n=4 N=1024; empirical order {order:.2f}")


def test_criterion_02_conformality_and_fixed_point(gibbs_lab):
    lab = gibbs_lab
    us = random_smooth_functions(lab.n_points, 50, seed=SEED)
    worst_duality = 0.0
    for i in range(20):
        x = sample_base(lab.spec.base, SEED, i)
        for u in us:
            worst_duality = max(worst_duality, lab.duality_residual(x, u.values))
    assert worst_duality <= 1e-6
    worst_fp, worst_mass = 0.0, 0.0
    for i in range(5):
        rep = invariant_density(lab, sample_base(lab.spec.base, SEED, 50 + i))
        worst_fp = max(worst_fp, rep.fixed_point_residual)
        worst_mass = max(worst_mass, rep.nu_mass_residual)
    assert worst_fp <= 1e-6
    assert worst_mass <= 1e-8
    report(2, f"duality {worst_duality:.2e}, fixed point {worst_fp:.2e}, mass {worst_mass:.2e}")


def test_criterion_03_degenerate_closed_forms(degenerate_lab):
    lab = degenerate_lab
    x = sample_base(lab.spec.base, SEED, 0)
    lam_err = abs(lab.lam(x) - 2.0)
    rho_err = float(np.max(np.abs(lab.rho(x).values - 1.0)))
    nu_err = float(np.max(np.abs(lab.nu(x).weights - 1.0 / lab.n_points)))
    assert lam_err <= 1e-10 and rho_err <= 1e-10 and nu_err <= 1e-10
    xs = [sample_base(lab.spec.base, SEED, i) for i in range(3)]
    fit = gap_estimate(lab, xs, random_lipschitz_functions(lab.n_points, 3, seed=7),
                       range(1, 18))
    assert fit.measurable and fit.kappa <= 0.55
    report(3, f"lambda err {lam_err:.1e}, rho err {rho_err:.1e}, nu err {nu_err:.1e}, "
              f"kappa {fit.kappa:.3f}")


def test_criterion_04_spectral_gap(gibbs_lab):
    lab = gibbs_lab
    xs = [sample_base(lab.spec.base, SEED, i) for i in range(5)]
    us = random_lipschitz_functions(lab.n_points, 4, seed=7)  # 20 (x, u) instances
    fit = gap_estimate(lab, xs, us, range(1, 21))
    assert fit.measurable and fit.kappa < 1.0 and fit.r_squared >= 0.98
    report(4, f"kappa {fit.kappa:.4f}, R^2 {fit.r_squared:.4f} over n=1..20, 20 instances")


def test_criterion_05_perturbed_chain_identity(gibbs_lab):
    lab = gibbs_lab
    gen = np.random.default_rng(SEED)
    u = random_smooth_functions(lab.n_points, 1, seed=3)[0]
    worst = 0.0
    for i in range(10):
        n = int(gen.integers(1, 7))
        rs = tuple(gen.uniform(-1.0, 1.0, size=n))
        x = sample_base(lab.spec.base, SEED, 60 + i)
        worst = max(worst, perturbed_chain_identity_check(lab, x, u, rs, method="oracle"))
    assert worst <= 1e-8
    report(5, f"max oracle discrepancy {worst:.2e} over 10 draws (n <= 6, eps = 0)")


def test_criterion_06_uniform_bounds(gibbs_lab):
    lab = gibbs_lab
    xs = [sample_base(lab.spec.base, SEED, i) for i in range(100)]
    rep = uniform_bounds_check(lab, xs, n_max=30)
    assert rep["positive"]
    c = rep["c"]
    assert 1.0 / c <= rep["iterate_min"] <= rep["iterate_max"] <= c
    assert 1.0 / c <= rep["rho_min"] <= rep["rho_max"] <= c
    report(6, f"C = {c:.3f} bounds iterates [{rep['iterate_min']:.3f}, {rep['iterate_max']:.3f}] "
              f"and rho [{rep['rho_min']:.3f}, {rep['rho_max']:.3f}] over 100 samples, n <= 30")


def test_criterion_07_cone_suite(gibbs_lab):
    lab = gibbs_lab
    hp = lab.spec.holder
    us = random_smooth_functions(lab.n_points, 50, seed=SEED, positive=True)
    embed_ok = invariance_ok = 0
    worst_bound_slack = -np.inf
    for i, u in enumerate(us):
        x = sample_base(lab.spec.base, SEED, 300 + i)
        nu_x = lab.nu(x)
        h = cone_embed(u, nu_x, hp)
        cert = cone_check(h, 1.0, nu_x, hp)
        assert cert.ok, (i, cert)
        embed_ok += 1
        osc = cone_oscillation(h, hp.xi)
        slack = osc - cone_variation_bound(hp, 1.0, h.sup_norm())
        worst_bound_slack = max(worst_bound_slack, slack)
        assert slack <= 1e-8
        assert variation_alpha(h, hp.alpha, hp.eta) <= cone_ratio_bound(hp, 1.0, h.sup_norm()) + 1e-8
        cur = h
        for j in range(8):
            cur = transfer_apply(lab.table, x.shift_by(j), cur, kind="normalized",
                                 lam=lab.lam(x.shift_by(j)))
            cert = cone_check(cur, 1.0, lab.nu(x.shift_by(j + 1)), hp, mass_tol=1e-6)
            assert cert.ok, (i, j, cert)
        invariance_ok += 1
    assert embed_ok == 50 and invariance_ok == 50
    report(7, f"50 embeddings in the cone, 50 orbits invariant to n=8, "
              f"variation bound slack {worst_bound_slack:.1e}")


def test_criterion_08_base_decay(stats_lab):
    spec = stats_lab.spec.base
    F, G = window_mean(0, 2), window_mean(0, 3)
    rep = base_correlation_check(spec, F, G, list(range(0, 9)), 100_000, seed=SEED)
    disjoint = [r for r in rep.rows if r.n >= 4]
    assert all(abs(r.estimate) <= 3 * r.std_err for r in disjoint)
    worst = max(abs(r.estimate) / r.std_err for r in disjoint)
    report(8, f"disjoint-window correlations within {worst:.2f} std errors of zero at 1e5 samples")


def test_criterion_09_assumption6_uniformity(stats_lab):
    pairs = regularity_pairs(stats_lab.spec.base, SEED, [2, 4, 6, 8, 12], reps=1)
    res = rl.assumption6_check(stats_lab, [2, 4, 8], 5, pairs, SEED)
    maxima = [res.by_n[n]["max"] for n in sorted(res.by_n)]
    ratio = max(maxima) / min(maxima)
    assert ratio <= 2.0
    report(9, f"holder-norm estimates across n in (2,4,8): max/min ratio {ratio:.3f} <= 2")


def test_criterion_10_condition_h(stats_lab):
    cfg0 = BlockConfig(1, 1, (0, 1, 2), (0.0, 0.0))
    zero = condition_h_check(stats_lab, cfg0, [0, 2, 4], 150, seed=SEED)
    assert all(r.difference <= 1e-8 for r in zero.rows)
    cfg = BlockConfig(1, 1, (0, 1, 2), (0.4, 0.4))
    res = condition_h_check(stats_lab, cfg, list(range(0, 7)), 400, seed=SEED)
    assert not res.noise_dominated
    assert res.c_fit > 0
    report(10, f"zero-frequency difference exact (<= 1e-8); fitted decay rate c = {res.c_fit:.2f} > 0")


def test_criterion_11_sigma2_cross_validation(sigma2_default):
    rep = sigma2_default
    assert rep.tail_ok
    assert rep.agreement
    diff = abs(rep.sigma2_series - rep.sigma2_mc)
    report(11, f"series {rep.sigma2_series:.4f} vs direct {rep.sigma2_mc:.4f} "
               f"(diff {diff:.4f}), M = {rep.m_used}, tail {rep.tail_bound:.1e}")


def test_criterion_12_clt(stats_lab, sigma2_default):
    res = clt_test(sigma2_default)
    assert res.status == "ok"
    assert res.p_value > 0.01
    assert res.centering_consistent
    doubled = sigma2_estimate(stats_lab, ScaledObservable(stats_lab.observable, 2.0),
                              M=12, n_base_samples=600, n_var=10_000, trials=2000, seed=SEED + 1)
    ratio = doubled.sigma2_series / sigma2_default.sigma2_series
    assert ratio == pytest.approx(4.0, rel=0.10)
    report(12, f"KS p = {res.p_value:.3f} > 0.01 at n = 1e4, 2000 trials; "
               f"sigma^2(2g)/sigma^2(g) = {ratio:.3f}")


def test_criterion_13_coboundary_dichotomy(stats_lab):
    g = CoboundaryObservable(stats_lab.spec, const=0.25)
    var = sigma2_estimate(stats_lab, g, M=10, n_base_samples=400, n_var=10_000,
                          trials=1000, seed=SEED)
    assert abs(var.sigma2_series) <= 0.01 and var.sigma2_mc <= 0.01
    res = coboundary_check(stats_lab, g, n_list=(100, 1000, 10_000), trials=1000, seed=SEED)
    assert res.verdict == "coboundary-consistent"
    assert res.growth_slope <= 0.1
    assert res.quarter_decreasing
    default = coboundary_check(stats_lab, None, n_list=(100, 1000, 10_000), trials=1000, seed=SEED)
    assert default.verdict == "not coboundary"
    report(13, f"coboundary sigma^2 {var.sigma2_mc:.2e} <= 0.01, L2 growth slope "
               f"{res.growth_slope:.3f}, default verdict '{default.verdict}'")


def test_criterion_14_reproducibility(tmp_path):
    cfg = cli.apply_overrides(cli.resolve_config({}), [
        "numerics.n_points=256", "numerics.pullback_depth=16", "numerics.sample_depth=10",
        "statistics.trials=100", "statistics.n=250", "statistics.n_base_samples=60",
        "statistics.m=4",
        "experiment.lil.n_max=800", "experiment.lil.trials=30",
        "experiment.coboundary.n_list=[50,200]", "experiment.coboundary.trials=60",
        "experiment.decay_base.n_samples=10000",
        "experiment.gap.n_x=2", "experiment.gap.n_u=2", "experiment.gap.n_max=8",
        "experiment.bounds.n_x=2", "experiment.bounds.n_max=4",
        "experiment.bounds.uniform_n_x=5", "experiment.bounds.uniform_n_max=5",
        "experiment.condition_h.k_list=[0,1,2]",
        "experiment.assumption6.n_list=[2,3]", "experiment.assumption6.r_draws=2",
        "experiment.assumption6.pair_depths=[2,4]",
    ])
    alone = {}
    for sub in cli.SUBCOMMANDS:
        if sub == "all":
            continue
        r1, a1 = cli.build_report(sub, cfg, threads=1)
        r8, a8 = cli.build_report(sub, cfg, threads=8)
        s1 = json.dumps({k: v for k, v in r1.items() if k != "volatile"}, sort_keys=True)
        s8 = json.dumps({k: v for k, v in r8.items() if k != "volatile"}, sort_keys=True)
        assert s1 == s8, f"{sub} differs across thread counts"
        assert a1 == a8
        alone[sub] = r1
    checked = len(alone)
    # inside `all`, each subcommand reports what it reports alone, whatever ran before it
    every, _ = cli.build_report("all", cfg, threads=1)
    assert set(every["results"]) == set(alone)
    for sub, r1 in alone.items():
        part = every["results"][sub]
        assert json.dumps(part["results"], sort_keys=True) == json.dumps(r1["results"],
                                                                         sort_keys=True), sub
        assert part["contract_ok"] == r1["contract_ok"], sub
        hashes = {k[len(sub) + 1:]: v for k, v in every["artifact_hashes"].items()
                  if k.startswith(f"{sub}-")}
        assert hashes == r1["artifact_hashes"], sub
    # full file-level replay for a representative report
    rep, art = cli.build_report("sigma2", cfg, threads=1)
    d = cli.write_report(rep, art, str(tmp_path))
    assert cli.replay(os.path.join(d, "report.json"), threads=8) == 0
    report(14, f"{checked} subcommand reports byte-identical at thread counts 1 and 8 and "
               f"inside `all`; file replay exit 0")
