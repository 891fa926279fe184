from dataclasses import replace

import numpy as np
import pytest

import rdslab as rl
from rdslab import limits, rng
from rdslab.base import BasePoint, sample_base
from rdslab.fiber import CoboundaryObservable, ScaledObservable, SystemObservable
from rdslab.limits import (
    COVARIANCE_CHUNK,
    JITTER_SCALE,
    ORBIT_BLOCK,
    ORBIT_CHUNK,
    SIGMA2_FLOOR,
    BlockConfig,
    LimitsError,
    OrbitEnsemble,
    _complex_se,
    clt_test,
    coboundary_check,
    condition_h_check,
    covariance_sequence,
    encoding_check,
    lil_probe,
    orbit_birkhoff_sums,
    sigma2_estimate,
)
from rdslab.thermo import gap_estimate, random_smooth_functions
from rdslab.transfer import forward_phase_sum

TWO_PI = 2 * np.pi


def constant_observable(spec, c):
    return SystemObservable(rl.make_system(
        branch_count=spec.branch_count, nonlinearity=spec.nonlinearity,
        potential_t=spec.potential_t, potential_amp=spec.potential_amp,
        obs_offset=(c,) * spec.base.alphabet_size, obs_amplitude=0.0,
        obs_phase=spec.obs_phase))


# -- encoding ----------------------------------------------------------------


def test_encoding_zero_frequencies(stats_lab):
    res = encoding_check(stats_lab, (0.0, 0.0), 100, seed=1)
    assert res.lhs == pytest.approx(1.0, abs=1e-12)
    assert abs(res.rhs - 1.0) <= 1e-8
    assert res.within_tolerance


def test_encoding_modulus_bounds(stats_lab):
    res = encoding_check(stats_lab, (0.9, -0.7, 0.5, 0.2), 300, seed=2)
    assert abs(res.lhs) <= 1.0 + 1e-12
    assert abs(res.rhs) <= 1.0 + 1e-6


def test_encoding_single_step(stats_lab):
    res = encoding_check(stats_lab, (0.6,), 500, seed=3)
    assert res.within_tolerance


@pytest.mark.parametrize("draw", range(10))
def test_encoding_identity_random_draws(stats_lab, draw):
    gen = np.random.default_rng(100 + draw)
    n = int(gen.integers(2, 7))
    rs = tuple(gen.uniform(-1, 1, size=n))
    res = encoding_check(stats_lab, rs, 400, seed=200 + draw)
    assert res.within_tolerance, res


def test_forward_phase_sum_over_ensemble_columns_is_the_row_sums(small_stats_lab):
    # the ensemble's symbol columns are BasePoint(seed, law).symbols row by row
    lab, rs = small_stats_lab, (0.4, -0.3, 0.2, 0.7)
    ens = OrbitEnsemble(lab, 16, 5, 11, fwd=len(rs), depth=3)
    z = ens.sample_z()
    got = forward_phase_sum(lab.spec, [ens.symbol(j) for j in range(len(rs))], z, rs,
                            lab.observable)
    for t, seed in enumerate(ens.seeds):
        syms = BasePoint(int(seed), lab.spec.base).symbols(0, len(rs))
        want = forward_phase_sum(lab.spec, syms, z[t:t + 1], rs, lab.observable)
        assert got[t:t + 1].tobytes() == want.tobytes()


# -- condition (H) -----------------------------------------------------------


def test_block_config_validation():
    with pytest.raises(LimitsError):
        BlockConfig(1, 1, (0, 1), (0.4, 0.4))  # boundary count
    with pytest.raises(LimitsError):
        BlockConfig(1, 1, (0, 2, 1), (0.4, 0.4))  # not increasing
    with pytest.raises(LimitsError):
        BlockConfig(1, 1, (0, 1, 2), (1.4, 0.4))  # beyond epsilon0
    with pytest.raises(LimitsError):
        BlockConfig(1, 0, (0, 1), (0.4,))  # no second block group


def test_condition_h_zero_frequencies(stats_lab):
    cfg = BlockConfig(1, 1, (0, 1, 2), (0.0, 0.0))
    res = condition_h_check(stats_lab, cfg, [0, 2], 120, seed=4)
    for row in res.rows:
        assert row.difference <= 1e-8  # both sides are exactly 1


def test_condition_h_steps_end_at_reading_levels(small_stats_lab, monkeypatch):
    # every chain stops where its functional is read: the heads of u and rho (1 + 1),
    # both through the gap (2 * 6) and both through the second block for each k (2 * 7)
    calls = []
    transport = rl.thermo.ConformalWindow.transport

    def counting(self, rows, j, *args, **kwargs):
        calls.append(j)
        return transport(self, rows, j, *args, **kwargs)

    monkeypatch.setattr(rl.thermo.ConformalWindow, "transport", counting)
    cfg = BlockConfig(1, 1, (0, 1, 2), (0.4, 0.4))
    condition_h_check(small_stats_lab, cfg, range(7), 40, seed=5, sample_depth=8)
    assert len(calls) == 28
    for k_list in ([1, 1, 2], [-1, 2], []):
        with pytest.raises(LimitsError, match="k_list"):
            condition_h_check(small_stats_lab, cfg, k_list, 40, seed=5, sample_depth=8)


def test_condition_h_bounded_at_k0(stats_lab):
    cfg = BlockConfig(1, 1, (0, 1, 2), (0.4, 0.4))
    res = condition_h_check(stats_lab, cfg, [0], 120, seed=5)
    assert res.rows[0].difference <= 2.0  # triangle inequality on unit-modulus means


def test_condition_h_decay_matches_gap_rate(stats_lab):
    cfg = BlockConfig(1, 1, (0, 1, 2), (0.4, 0.4))
    res = condition_h_check(stats_lab, cfg, list(range(0, 7)), 300, seed=6)
    assert not res.noise_dominated
    assert res.c_fit > 0
    # the chain integrands are smooth-class, so the matching gap modulus is the
    # smooth-battery one
    xs = [sample_base(stats_lab.spec.base, 42, i) for i in range(4)]
    us = random_smooth_functions(stats_lab.n_points, 3, seed=7)
    fit = gap_estimate(stats_lab, xs, us, range(1, 13))
    rate = -np.log(fit.kappa)
    assert 0.5 * rate <= res.c_fit <= 1.5 * rate


def reference_condition_h(lab, config, k_list, n_base_samples, seed, sample_depth):
    """The per-k loop the one-ensemble sweep replaced: one ensemble per gap length,
    each functional read where its own chain ends, rho pushed anew to the split."""
    b, r, nb = config.boundaries, config.frequencies, config.n
    r_first = [0.0] * b[0] + [r[j] for j in range(nb) for _ in range(b[j], b[j + 1])]
    r_second = [r[j] for j in range(nb, nb + config.m) for _ in range(b[j], b[j + 1])]
    rows = []
    for k in sorted(k_list):
        inner, total = b[nb], b[-1] + k
        ens = OrbitEnsemble(lab, n_base_samples, seed, 13, fwd=total, depth=sample_depth,
                            nu_levels=(inner, total))
        u = ens.chain_perturbed(ens.rho_snap[0], 0, r_first)
        g_t = ens.fiber_integral(inner, u)
        joint_t = ens.fiber_integral(total, ens.chain_perturbed(u, inner, [0.0] * k + r_second))
        rho = ens.rho_snap[0]
        for j in range(inner + k):
            rho = ens.transport(rho, j)
        f_t = ens.fiber_integral(total, ens.chain_perturbed(rho, inner + k, r_second))
        delta_t = joint_t - f_t * g_t
        cov_t = (f_t - f_t.mean()) * (g_t - g_t.mean())
        op, base = complex(delta_t.mean()), complex(cov_t.mean())
        se_op, se_base = _complex_se(delta_t), _complex_se(cov_t)
        rows.append([k, abs(op + base), np.hypot(se_op, se_base), abs(op), se_op, abs(base),
                     se_base])
    usable = [(row[0], row[3]) for row in rows if row[3] > max(2.0 * row[4], 1e-12)]
    slope, intercept = np.polyfit([p[0] for p in usable], np.log([p[1] for p in usable]), 1)
    return np.array(rows), -slope, np.exp(intercept)


def test_condition_h_one_ensemble_matches_per_k_reference(small_gibbs_lab, monkeypatch):
    # a Gibbs potential: its nu is not Lebesgue, so the level a functional is read at matters
    lab, depth = small_gibbs_lab, 8
    cfg = BlockConfig(2, 1, (0, 2, 3, 5), (0.3, -0.4, 0.25))
    k_list = [2, 0, 1, 4]
    built = []

    class CountingEnsemble(OrbitEnsemble):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(limits, "OrbitEnsemble", CountingEnsemble)
    res = condition_h_check(lab, cfg, k_list, 200, seed=28, sample_depth=depth)
    assert len(built) == 1  # one sweep serves every gap length
    ref_rows, ref_c, ref_amp = reference_condition_h(lab, cfg, k_list, 200, 28, depth)
    got = np.array([list(vars(row).values()) for row in res.rows])
    assert got[:, 0].tolist() == ref_rows[:, 0].tolist()
    assert np.all(np.abs(got - ref_rows) <= 1e-9 + 1e-6 * np.abs(ref_rows))
    assert not res.noise_dominated
    assert abs(res.c_fit - ref_c) <= 1e-9 + 1e-6 * abs(ref_c)
    assert abs(res.amplitude_fit - ref_amp) <= 1e-9 + 1e-6 * abs(ref_amp)


# -- covariance and sigma^2 --------------------------------------------------


def reference_route_a(lab, g, M, n_base_samples, seed, sample_depth):
    """Route A as it read every level from the ensemble: rho levels cached as they
    are reached, mu_m clipped and renormalized from them, every nu snapshot kept."""
    nodes = np.arange(lab.n_points) / lab.n_points
    fiber_terms, g0_all, gm_all = [[] for _ in range(M + 1)], [], [[] for _ in range(M + 1)]
    for ci, a in enumerate(range(0, n_base_samples, COVARIANCE_CHUNK)):
        size = min(COVARIANCE_CHUNK, n_base_samples - a)
        ens = OrbitEnsemble(lab, size, seed, 100 + ci, fwd=M, depth=sample_depth,
                            nu_levels=range(M + 1))
        rho_levels = {0: ens.rho_snap[0]}

        def rho_at(m):
            if m not in rho_levels:
                rho_levels[m] = ens.transport(rho_at(m - 1), m - 1)
            return rho_levels[m]

        def mu_weights(m):
            w = np.clip(ens.nu_snap[m] * rho_at(m), 0.0, None)
            return w / w.sum(axis=1)[:, None]

        gvals0 = g.values_for_symbol(ens.symbol(0)[:, None], nodes[None, :])
        g_mean0 = (mu_weights(0) * gvals0).sum(axis=1)
        u = (gvals0 - g_mean0[:, None]) * rho_at(0)
        for m in range(M + 1):
            gm = g.values_for_symbol(ens.symbol(m)[:, None], nodes[None, :])
            fiber_terms[m].extend((ens.nu_snap[m] * gm * u).sum(axis=1).tolist())
            gm_all[m].extend((mu_weights(m) * gm).sum(axis=1).tolist())
            if m < M:
                u = ens.transport(u, m)
        g0_all.extend(g_mean0.tolist())
    g0 = np.array(g0_all)
    rows = []
    for m in range(M + 1):
        fiber, gm = np.array(fiber_terms[m]), np.array(gm_all[m])
        base_prod = (g0 - g0.mean()) * (gm - gm.mean())
        base = float(base_prod.mean())
        op_vals = fiber + base_prod
        rows.append([float(fiber.mean() + base), float(op_vals.std(ddof=1) / np.sqrt(len(op_vals))),
                     float(fiber.mean()), base])
    return np.array(rows)


def test_covariance_route_a_bit_equal_to_per_level_reference(small_stats_lab):
    lab, M, n = small_stats_lab, 5, COVARIANCE_CHUNK + 40  # two chunks
    cov = covariance_sequence(lab, None, M, n, seed=29, sample_depth=6)
    ref = reference_route_a(lab, lab.observable, M, n, 29, 6)
    for row, ref_row in zip(cov.rows, ref):
        got = [row.operator_route, row.operator_se, row.fiber_part, row.base_part]
        assert np.array_equal(got, ref_row), (row.m, got, ref_row)


def test_covariance_constant_observable(stats_lab):
    g = constant_observable(stats_lab.spec, 0.8)
    cov = covariance_sequence(stats_lab, g, 4, 150, seed=8)
    for row in cov.rows:
        assert abs(row.operator_route) <= 1e-10


def orbit_route(lab, g, M, trials, seed):
    """Per-lag reference for the operator route: s_m and its standard error
    as the mean product of centred g read at times 0 and m along stationary
    sampled orbits, m = 0..M."""
    _, sums = orbit_birkhoff_sums(lab, g, range(1, M + 2), trials, seed=seed, stream=300)
    inc = np.vstack([sums[0], np.diff(sums, axis=0)])  # inc[m] = g at time m
    h0 = inc[0] - inc[0].mean()
    prods = [h0 * (inc[m] - inc[m].mean()) for m in range(M + 1)]
    return [(float(p.mean()), float(p.std(ddof=1) / np.sqrt(len(p)))) for p in prods]


def routes_agree(rows, orbit):
    return [abs(row.operator_route - s_b) <= 4.0 * np.hypot(row.operator_se, se_b) + 1e-12
            for row, (s_b, se_b) in zip(rows, orbit)]


def test_covariance_routes_agree(stats_lab):
    g = stats_lab.observable
    cov = covariance_sequence(stats_lab, g, 8, 400, seed=9)
    orbit = orbit_route(stats_lab, g, 8, 2000, seed=9)
    assert cov.rows[0].operator_route > 0  # s_0 = Var(g) >= 0
    assert all(routes_agree(cov.rows, orbit)), (cov.rows, orbit)
    # the check has teeth: a bias of a fifth of s_0 planted in route A fails every lag
    bias = 0.2 * cov.rows[0].operator_route
    planted = [replace(r, operator_route=r.operator_route + bias) for r in cov.rows]
    assert not any(routes_agree(planted, orbit))


def test_covariance_stationarity(stats_lab):
    # empirical Cov(g o T^n, g o T^{n+m}) independent of n within MC error
    g = stats_lab.observable
    _, sums = orbit_birkhoff_sums(stats_lab, g, range(1, 25), 4000, seed=10, stream=71)
    inc = np.vstack([sums[0], np.diff(sums, axis=0)])
    for m in (0, 1, 3):
        vals = {}
        for n in (0, 5, 20):
            a = inc[n] - inc[n].mean()
            b = inc[n + m] - inc[n + m].mean()
            prod = a * b
            vals[n] = (prod.mean(), prod.std(ddof=1) / np.sqrt(len(prod)))
        for n in (5, 20):
            diff = abs(vals[n][0] - vals[0][0])
            assert diff <= 4 * np.hypot(vals[n][1], vals[0][1])


def test_sigma2_constant_observable(stats_lab):
    g = constant_observable(stats_lab.spec, -0.3)
    rep = sigma2_estimate(stats_lab, g, M=4, n_base_samples=100, n_var=500, trials=200, seed=11)
    assert abs(rep.sigma2_series) <= 1e-10
    assert rep.sigma2_mc <= 1e-10


def test_sigma2_coboundary_telescopes(stats_lab):
    g = CoboundaryObservable(stats_lab.spec, const=0.4)
    rep = sigma2_estimate(stats_lab, g, M=8, n_base_samples=300, n_var=2000, trials=400, seed=12)
    assert abs(rep.sigma2_series) <= 0.01
    assert rep.sigma2_mc <= 0.01
    assert rep.mu_estimate == pytest.approx(0.4, abs=0.01)


def test_sigma2_default_positive_and_agrees(stats_lab):
    rep = sigma2_estimate(stats_lab, None, M=10, n_base_samples=400, n_var=4000,
                          trials=800, seed=13)
    assert rep.sigma2_series > SIGMA2_FLOOR
    assert rep.agreement
    assert rep.tail_ok


def test_sigma2_scale_equivariance(stats_lab):
    g = stats_lab.observable
    a = sigma2_estimate(stats_lab, g, M=8, n_base_samples=400, n_var=4000, trials=800, seed=14)
    b = sigma2_estimate(stats_lab, ScaledObservable(g, 2.0), M=8, n_base_samples=400,
                        n_var=4000, trials=800, seed=15)
    assert b.sigma2_series == pytest.approx(4.0 * a.sigma2_series, rel=0.10)


# -- CLT, LIL, coboundary ----------------------------------------------------


def test_clt_zero_observable(stats_lab):
    g = constant_observable(stats_lab.spec, 0.0)
    var = sigma2_estimate(stats_lab, g, M=4, n_base_samples=100, n_var=200, trials=100, seed=16)
    res = clt_test(var)
    assert res.status.startswith("degenerate")
    assert res.sample_var == pytest.approx(0.0, abs=1e-20)
    assert not hasattr(limits, "scipy")  # clt_test imports scipy.stats for both branches


def test_clt_small_run_consistency(stats_lab):
    rep = sigma2_estimate(stats_lab, None, M=8, n_base_samples=300, n_var=2000,
                          trials=500, seed=18)
    res = clt_test(rep)
    assert res.status == "ok"
    assert res.p_value > 0.01
    assert res.centering_consistent  # Birkhoff consistency of the sampler


def test_lil_probe_shapes_and_monotonicity(stats_lab):
    res = lil_probe(stats_lab, None, n_max=3000, trials=60, seed=19)
    assert res.monotone
    assert res.trajectories.shape == (len(res.checkpoints), 60)
    assert len(res.median_trajectory) == len(res.checkpoints)


def test_lil_default_median_smoke(stats_lab):
    # the iterated-logarithm normalization converges only logarithmically:
    # qualitative window, not a tolerance claim
    res = lil_probe(stats_lab, None, n_max=100_000, trials=200, seed=42)
    assert res.monotone
    assert 0.5 <= res.median_terminal <= 1.5


def test_lil_coboundary_statistic_tends_to_zero(stats_lab):
    g = CoboundaryObservable(stats_lab.spec, const=0.0)
    res = lil_probe(stats_lab, g, n_max=3000, trials=60, seed=20, sigma2=1.0)
    # the running max is attained early and never grows afterwards
    third = len(res.median_trajectory) // 3
    assert res.median_trajectory[-1] <= res.median_trajectory[third] + 1e-12
    # the per-n statistic itself tends to zero: |S_n - n mu| <= 2 ||k||
    n = 3000
    _, sums = orbit_birkhoff_sums(stats_lab, g, [n], 60, seed=20, stream=31)
    stat = np.abs(sums[0] - n * 0.0) / np.sqrt(2 * n * np.log(np.log(n)))
    assert np.median(stat) < 0.05


def test_lil_block_stat_matches_per_step_running_max(small_stats_lab):
    # the running max taken once per orbit block has the bits of the per-step update
    lab, n_max, trials, seed = small_stats_lab, 400, 2 * ORBIT_CHUNK + 7, 3
    res = lil_probe(lab, n_max=n_max, trials=trials, seed=seed, sample_depth=6)
    assert ORBIT_BLOCK // trials < n_max  # several blocks
    path = np.zeros((n_max, trials))

    def keep(t0, rows, sl):
        path[t0:t0 + len(rows), sl] = rows

    orbit_birkhoff_sums(lab, lab.observable, [n_max], trials, seed, stream=31, sample_depth=6,
                        running_stat=keep)
    mu = float(path[-1].mean() / n_max)
    sigma = float(np.sqrt(max(float(path[-1].var(ddof=1) / n_max), 1e-30)))
    assert sigma == res.sigma_used
    running, traj = np.zeros(trials), []
    for t in range(1, n_max + 1):
        if t >= 10:
            denom = sigma * np.sqrt(2.0 * t * np.log(np.log(t)))
            np.maximum(running, np.abs(path[t - 1] - t * mu) / denom, out=running)
        if t in res.checkpoints:
            traj.append(running.copy())
    assert np.array_equal(res.trajectories, np.array(traj))
    assert res.terminal_values == running.tolist()


def test_lil_denominators_are_the_scalar_expression():
    from rdslab.config import DEFAULTS
    from rdslab.limits import _lil_denominators

    n_max = DEFAULTS["experiment"]["lil"]["n_max"].default
    for sigma in (0.7207855591465617, 1.0, 3.3e-8):
        scalar = [sigma * np.sqrt(2.0 * t * np.log(np.log(t))) for t in range(10, n_max + 1)]
        assert np.array_equal(_lil_denominators(sigma, n_max), np.array(scalar))


def test_coboundary_check_verdicts(stats_lab):
    g = CoboundaryObservable(stats_lab.spec, const=0.25)
    res = coboundary_check(stats_lab, g, n_list=(100, 400, 1600), trials=400, seed=21)
    assert res.verdict == "coboundary-consistent"
    assert all(v <= 2.0 + 1e-6 for v in res.l2_norms)  # telescoping bound, ||k||_inf <= 1
    assert res.quarter_decreasing
    default = coboundary_check(stats_lab, None, n_list=(100, 400, 1600), trials=400, seed=22)
    assert default.verdict == "not coboundary"


def test_coboundary_needs_two_distinct_n(stats_lab):
    for n_list in ((5,), (100, 100)):
        with pytest.raises(LimitsError, match="two distinct n"):
            coboundary_check(stats_lab, None, n_list=n_list, trials=10, seed=21)


def test_coboundary_zero_observable(stats_lab):
    g = constant_observable(stats_lab.spec, 0.0)
    res = coboundary_check(stats_lab, g, n_list=(50, 200), trials=100, seed=23)
    assert all(v == 0.0 for v in res.l2_norms)


# -- orbit machinery ---------------------------------------------------------


def test_orbit_ensemble_levels(stats_lab):
    ens = OrbitEnsemble(stats_lab, 50, 3, 5, fwd=4, depth=12, nu_levels=(0, 4))
    assert ens.nu_snap[0].shape == (50, stats_lab.n_points)
    assert np.allclose(ens.nu_snap[0].sum(axis=1), 1.0)
    assert np.allclose(ens.lam_at(0), 1.0, atol=1e-10)  # geometric potential
    z = ens.sample_z()
    assert np.all((0 <= z) & (z < 1))


def ensemble_readings(lab, depth):
    """mu at level 0, lambda at levels 0-3 and the encoding chain read with nu at level 3."""
    ens = OrbitEnsemble(lab, 200, 42, 11, fwd=3, depth=depth, nu_levels=(0, 3))
    lam = np.stack([ens.lam_at(j) for j in range(4)])
    rows = ens.chain_perturbed(ens.rho_snap[0], 0, (0.4, -0.3, 0.2))
    return ens.mu_weights(), lam, ens.fiber_integral(3, rows)


def depth_moves(lab, depth, ref_depth=32):
    """How far the readings at `depth` sit from those at ref_depth (mu absolute, rest relative)."""
    mu, lam, enc = ensemble_readings(lab, depth)
    mu_r, lam_r, enc_r = ensemble_readings(lab, ref_depth)
    return max(np.max(np.abs(mu - mu_r)), np.max(np.abs(lam - lam_r) / np.abs(lam_r)),
               np.max(np.abs(enc - enc_r)) / np.max(np.abs(enc_r)))


def test_ensemble_depth_24_has_converged(small_gibbs_lab):
    # the default sample_depth: 8 more levels of pullback move nothing above rounding
    for lab in (small_gibbs_lab, rl.Lab(rl.make_system(), n_points=256)):
        assert depth_moves(lab, 24) <= 1e-12
    # the check has teeth: on the Gibbs system a depth-8 pullback moves mu by about 1e-8
    assert depth_moves(small_gibbs_lab, 8) > 1e-12


def test_orbit_ensemble_rho_is_the_lambda_normalized_pushforward(stats_lab):
    lab, fwd, depth = stats_lab, 3, 12
    ens = OrbitEnsemble(lab, 50, 3, 5, fwd=fwd, depth=depth, nu_levels=(0, fwd))
    assert list(ens.rho_snap) == [0]
    rho0 = ens.rho_snap[0]
    assert np.abs((ens.nu_snap[0] * rho0).sum(axis=1) - 1.0).max() <= 1e-13

    def grouped(j, method, rows):
        out = np.empty_like(rows)
        for e in lab.spec.alphabet:
            mask = ens.symbol(j) == e
            out[mask] = getattr(lab.table.op(e), method)(rows[mask])
        return out

    # the full adjoint sweep down to -depth, then L^depth 1 divided by lambda at every level
    lam, omega = {}, np.full((50, lab.n_points), 1.0 / lab.n_points)
    for j in range(fwd + depth - 1, -depth - 1, -1):
        omega = grouped(j, "adjoint_batch", omega)
        lam[j] = omega.sum(axis=1)
        omega = omega / lam[j][:, None]
    u = np.ones_like(omega)
    for j in range(-depth, 0):
        u = grouped(j, "apply_batch", u) / lam[j][:, None]
    assert np.abs(rho0 / u - 1.0).max() <= 1e-12
    for j in range(fwd + depth):  # the chain at levels >= 0 is the full sweep's, bit for bit
        assert np.array_equal(ens.lam_at(j), lam[j])
    with pytest.raises(LimitsError):
        ens.lam_at(-1)
    # rho at levels up to fwd: a transport chain from level 0, the pushforward continued
    rho = rho0
    for j in range(fwd):
        rho, u = ens.transport(rho, j), grouped(j, "apply_batch", u) / lam[j][:, None]
        assert np.abs(rho / u - 1.0).max() <= 1e-12


def reference_orbit_sums(lab, g, record_at, trials, seed, stream, sample_depth):
    """The per-step loop the blocked kernel replaced: one chunk at a time, one symbol
    and jitter column per step, the lift written out, reduction by % 1.0, a new S
    every step.  Returns the sums at record_at and S after every step (steps x trials)."""
    d, eps = lab.spec.map_coefficients
    out = np.zeros((len(record_at), trials))
    path = np.zeros((record_at[-1], trials))
    for ci, a in enumerate(range(0, trials, ORBIT_CHUNK)):
        b = min(a + ORBIT_CHUNK, trials)
        sub = (stream << 20) | ci
        ens = OrbitEnsemble(lab, b - a, seed, sub, fwd=0, depth=sample_depth)
        z = ens.sample_z()
        keys = rng.derive_keys(rng.derive_key(seed, 0x7177, sub), 1, b - a)
        S = np.zeros(b - a)
        for j in range(record_at[-1]):
            u = rng.to_unit(rng.keyed_hash_grid(ens.seeds, [j]))[:, 0]
            e = np.searchsorted(lab.spec.base.cumulative(), u, side="right")
            jit = (rng.to_unit(rng.keyed_hash_grid(keys, [j]))[:, 0] - 0.5) * JITTER_SCALE
            S = S + g.values_for_symbol(e, z)
            w = (d[e] * z + eps[e] * np.sin(TWO_PI * z) / TWO_PI + jit) % 1.0
            z = np.where(w >= 1.0, 0.0, w)
            path[j, a:b] = S
            if j + 1 in record_at:
                out[record_at.index(j + 1), a:b] = S
    return out, path


def block_edges(width):
    """Record times at the first block boundary of a group `width` trials wide: - 1, 0, + 1."""
    block = ORBIT_BLOCK // width
    return [block - 1, block, block + 1]


OBSERVABLES = ["system", "coboundary", "scaled"]


def check_orbit_sums_against_per_step_loop(lab, observable, trials, record_at, threads=1):
    g = {"system": lab.observable,
         "coboundary": CoboundaryObservable(lab.spec, const=0.25),
         "scaled": ScaledObservable(lab.observable, -1.5)}[observable]
    calls = []

    def stat(t0, rows, sl):
        assert not rows.flags.writeable
        calls.append((t0, rows.copy(), sl.start, sl.stop))

    _, sums = orbit_birkhoff_sums(lab, g, record_at, trials, seed=31, stream=3, sample_depth=6,
                                  running_stat=stat, threads=threads)
    ref, ref_path = reference_orbit_sums(lab, g, record_at, trials, 31, 3, 6)
    assert np.array_equal(sums, ref)
    # each slice's blocks run in step order and tile the steps; at every step the
    # slices cover every trial exactly once, with the reference's S bit for bit
    got, seen, next_t0 = np.zeros_like(ref_path), np.zeros(ref_path.shape, dtype=int), {}
    for t0, rows, a, b in calls:
        assert next_t0.get((a, b), 0) == t0 and rows.shape[1] == b - a
        next_t0[(a, b)] = t0 + len(rows)
        got[t0:t0 + len(rows), a:b] = rows
        seen[t0:t0 + len(rows), a:b] += 1
    assert set(next_t0.values()) == {record_at[-1]}
    assert np.all(seen == 1)
    assert np.array_equal(got, ref_path)


@pytest.mark.parametrize("observable", OBSERVABLES)
@pytest.mark.parametrize("trials,record_at", [
    (37, block_edges(37)),
    (ORBIT_CHUNK + 3, [1, 2 * (ORBIT_BLOCK // (ORBIT_CHUNK + 3)) + 5]),
])
def test_orbit_sums_bit_identical_to_per_step_loop(small_stats_lab, observable, trials, record_at):
    check_orbit_sums_against_per_step_loop(small_stats_lab, observable, trials, record_at)


@pytest.mark.parametrize("observable", OBSERVABLES)
@pytest.mark.parametrize("threads", [1, 2])
def test_orbit_sums_three_chunks_bit_identical(small_stats_lab, observable, threads):
    # three chunks, the last one partial: one wide state, or groups of one and two chunks
    trials = 2 * ORBIT_CHUNK + 7
    check_orbit_sums_against_per_step_loop(small_stats_lab, observable, trials,
                                           block_edges(trials), threads)


@pytest.mark.parametrize("threads,widths", [
    (1, {2 * ORBIT_CHUNK + 7: 1}),
    (2, {ORBIT_CHUNK: 1, ORBIT_CHUNK + 7: 1}),
    (3, {ORBIT_CHUNK: 2, 7: 1}),
])
def test_orbit_map_steps_once_per_group(small_stats_lab, monkeypatch, threads, widths):
    # each thread group runs its chunks as one wide state: n_steps map steps per
    # group, whatever the number of chunks in it
    widths_seen = []

    def spy(d, eps, z, *args, **kwargs):
        widths_seen.append(len(z))
        return real(d, eps, z, *args, **kwargs)

    real = limits._map_step
    monkeypatch.setattr(limits, "_map_step", spy)
    n_steps = 70
    orbit_birkhoff_sums(small_stats_lab, small_stats_lab.observable, [n_steps],
                        2 * ORBIT_CHUNK + 7, seed=5, stream=3, sample_depth=6, threads=threads)
    counts = {w: widths_seen.count(w) for w in set(widths_seen)}
    assert counts == {w: k * n_steps for w, k in widths.items()}


def test_orbit_sums_threads_identical(stats_lab):
    t1 = orbit_birkhoff_sums(stats_lab, stats_lab.observable, [400], 1100, seed=24, stream=9,
                             threads=1)[1]
    for threads in (2, 3, 8):
        tk = orbit_birkhoff_sums(stats_lab, stats_lab.observable, [400], 1100, seed=24,
                                 stream=9, threads=threads)[1]
        assert np.array_equal(t1, tk), threads


def test_orbit_bias_warning_flag(gibbs_lab):
    res = encoding_check(gibbs_lab, (0.3,), 50, seed=25)
    assert res.orbit_bias_warning  # non-geometric potential


def test_perturbed_integral_normalization_at_zero_frequency(stats_lab):
    # the assumption-6 functional at r = 0 is exactly the normalized mass: F = 1
    lab = stats_lab
    for i in range(4):
        x = sample_base(lab.spec.base, 30, i)
        y = x.shift_by(-5)
        u = rl.GridFunction(lab.rho(y).values.astype(complex), fiber=y)
        chain = rl.transfer_iterate(lab.table, y, u, 5, kind="perturbed",
                                    lambda_chain=lab.lambda_chain(y, 5),
                                    r_sequence=(0.0,) * 5, observable=lab.observable)
        val = lab.nu(x).integrate(chain.values)
        assert abs(val - 1.0) <= 1e-9


def test_assumption6_modulus_bound(stats_lab):
    from rdslab.thermo import regularity_pairs

    pairs = regularity_pairs(stats_lab.spec.base, 7, [2, 4], 1)
    res = rl.assumption6_check(stats_lab, [2, 4], 2, pairs, 7)
    for rec in res.table:
        assert rec["sup"] <= 1.0 + 1e-6  # characteristic functionals have modulus <= 1


def test_covariance_decay_dominance(stats_lab):
    # |s_m| decays at least geometrically down to the Monte Carlo floor
    cov = covariance_sequence(stats_lab, None, 10, 400, seed=26)
    s = [abs(r.operator_route) for r in cov.rows]
    se = [r.operator_se for r in cov.rows]
    for m in range(1, len(s)):
        assert s[m] <= max(0.55 * s[m - 1], 4.0 * se[m])


def test_condition_h_multi_block(stats_lab):
    cfg = BlockConfig(2, 1, (0, 2, 3, 5), (0.3, -0.4, 0.25))
    res = condition_h_check(stats_lab, cfg, [0, 1, 2, 3], 150, seed=27)
    assert len(res.rows) == 4
    ops = [r.operator_term for r in res.rows]
    assert ops[0] > 0 and ops[-1] < ops[0]  # the gap summand decays
    zero = BlockConfig(2, 1, (0, 2, 3, 5), (0.0, 0.0, 0.0))
    rz = condition_h_check(stats_lab, zero, [0, 2], 60, seed=27)
    assert all(r.difference <= 1e-8 for r in rz.rows)
