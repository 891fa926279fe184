import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdslab as rl
from rdslab.base import sample_base

from rdslab.thermo import (
    FiberMeasure,
    ThermoError,
    conformal_pullback,
    fiberwise_invariance_residual,
    gap_estimate,
    invariant_density,
    random_lipschitz_functions,
    random_smooth_functions,
    regularity_check,
    regularity_pairs,
    uniform_bounds_check,
)

TWO_PI = 2 * np.pi


def test_fiber_measure_normalization_and_negativity():
    m = FiberMeasure(np.array([1.0, 2.0, 1.0]))
    assert m.mass() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ThermoError):
        FiberMeasure(np.array([1.0, -0.5, 1.0]))
    # tiny negatives are clipped
    m2 = FiberMeasure(np.array([1.0, -1e-12, 1.0]))
    assert np.all(m2.weights >= 0)


def test_degenerate_closed_forms(degenerate_lab):
    lab = degenerate_lab
    x = sample_base(lab.spec.base, 42, 0)
    assert abs(lab.lam(x) - 2.0) <= 1e-10
    assert np.max(np.abs(lab.rho(x).values - 1.0)) <= 1e-10
    assert np.max(np.abs(lab.nu(x).weights - 1.0 / lab.n_points)) <= 1e-10


def test_constant_potential_scales_lambda():
    # phi = c: lambda = d e^c; realized through the geometric potential at t,
    # where phi = -t log d is fiber-constant for affine branches
    t = 0.7
    spec = rl.make_system(branch_count=(2, 2), nonlinearity=(0.0, 0.0), potential_t=t)
    lab = rl.Lab(spec, n_points=256, pullback_depth=16)
    x = sample_base(spec.base, 1, 0)
    assert lab.lam(x) == pytest.approx(2.0 * np.exp(-t * np.log(2.0)), abs=1e-10)


def test_pullback_depth_stability(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 42, 3).with_overrides({0: 0})
    rep20 = conformal_pullback(lab, x, depth=20, n_probe=10, seed=1)
    rep30 = conformal_pullback(lab, x, depth=30, n_probe=10, seed=1)
    assert abs(rep20.lam - rep30.lam) < 1e-4  # stabilized to 4 decimals
    assert rep30.duality_max < 1e-6
    assert rep30.converged


def test_pullback_cauchy_in_depth(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 42, 4)
    from rdslab.thermo import _pullback_at_depth

    lams = [_pullback_at_depth(lab, x, k)[1] for k in (2, 3, 4, 5, 6)]
    incs = [abs(b - a) for a, b in zip(lams, lams[1:])]
    # exponentially shrinking increments until round-off, ratio well below 1
    floor = 100 * np.finfo(float).eps
    usable = [v for v in incs if v > floor]
    assert len(usable) >= 2
    assert all(b < 0.9 * a for a, b in zip(usable, usable[1:]))


def test_invariant_density_report(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 42, 5)
    rep = invariant_density(lab, x, depth=30)
    assert rep.fixed_point_residual <= 1e-6
    assert rep.nu_mass_residual <= 1e-8
    assert rep.cesaro_gap < 1e-5


def test_uniform_bounds(gibbs_lab):
    lab = gibbs_lab
    xs = [sample_base(lab.spec.base, 77, i) for i in range(20)]
    rep = uniform_bounds_check(lab, xs, n_max=15)
    assert rep["positive"]
    c = rep["c"]
    assert 1.0 / c <= rep["iterate_min"] and rep["iterate_max"] <= c
    assert 1.0 / c <= rep["rho_min"] and rep["rho_max"] <= c


def test_fiberwise_t_invariance(gibbs_lab):
    lab = gibbs_lab
    xs = [sample_base(lab.spec.base, 88, i) for i in range(10)]
    hs = [lambda z, k=k: np.cos(TWO_PI * k * np.asarray(z) + 0.3 * k) for k in range(1, 5)]
    assert fiberwise_invariance_residual(lab, xs, hs) <= 1e-5


def test_gap_estimate_on_fixed_line(gibbs_lab):
    # u = rho: the residual is zero at every n, so the gap is unmeasurable
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 42, 6)
    fit = gap_estimate(lab, [x], [lab.rho(x)], range(1, 10))
    assert not fit.measurable
    assert "too strong" in fit.note


def test_gap_degenerate_doubling(degenerate_lab):
    lab = degenerate_lab
    xs = [sample_base(lab.spec.base, 42, i) for i in range(3)]
    us = random_lipschitz_functions(lab.n_points, 3, seed=7)
    fit = gap_estimate(lab, xs, us, range(1, 18))
    assert fit.measurable
    assert fit.kappa <= 0.55
    assert fit.r_squared >= 0.98


def test_regularity_identical_points_vanish(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 9, 0)
    rep = regularity_check(lab, [(x, x, 5)], [2])
    # identical points never enter the tables (distance 0), so nothing is fitted
    assert rep.distances == []


def test_regularity_decay_with_depth(gibbs_lab):
    lab = gibbs_lab
    pairs = regularity_pairs(lab.spec.base, 3, [1, 2, 3, 4, 5], reps=2)
    rep = regularity_check(lab, pairs, [3])
    # differences shrink as the pinned window deepens
    dl = {}
    for depth, dist, dv in zip(rep.depths, rep.distances, rep.lambda_diffs):
        dl.setdefault(depth, []).append(dv)
    means = [np.mean(dl[d]) for d in sorted(dl)]
    assert means[-1] < means[0] / 10
    # a fitted exponent is reported for every quantity
    assert np.isfinite(rep.beta_fitted["lambda"])
    assert np.isfinite(rep.beta_fitted["rho"])
    assert np.isfinite(rep.beta_fitted["iterate_3"])
    # consistency of the fit: lambda differences bounded by the fitted law
    beta = rep.beta_fitted["lambda"]
    c = max(dv / d**beta for d, dv in zip(rep.distances, rep.lambda_diffs) if dv > 0)
    for d, dv in zip(rep.distances, rep.lambda_diffs):
        assert dv <= c * d**beta * (1 + 1e-9)


def test_mu_is_probability(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 10, 0)
    mu = lab.mu(x)
    assert mu.mass() == pytest.approx(1.0, abs=1e-12)
    assert np.all(mu.weights >= 0)


def test_statistics_system_closed_forms(stats_lab):
    # geometric potential: lambda = 1 and nu = Lebesgue (up to stencil quadrature)
    lab = stats_lab
    x = sample_base(lab.spec.base, 42, 0)
    assert lab.lam(x) == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(lab.nu(x).weights - 1.0 / lab.n_points)) < 1e-5


def test_pullback_nonconvergence_flag(gibbs_lab):
    # an unreachable tolerance must end at depth_max with converged=False
    x = sample_base(gibbs_lab.spec.base, 42, 8)
    rep = conformal_pullback(gibbs_lab, x, depth=20, tol=1e-18, n_probe=3, seed=1)
    assert not rep.converged
    assert 2 * rep.depth_used > gibbs_lab.depth_max


def test_cesaro_gap_on_nonlinear_system(stats_lab):
    rep = invariant_density(stats_lab, sample_base(stats_lab.spec.base, 42, 9), depth=30)
    assert rep.cesaro_gap < 1e-5


def test_lab_values_do_not_depend_on_earlier_calls():
    # a Lab that first read a long chain behind the point must return the same
    # bits as a fresh one: every value is a pure function of its request
    spec = rl.gibbs_system()
    fresh, used = (rl.Lab(spec, n_points=256, pullback_depth=20) for _ in range(2))
    x = sample_base(spec.base, 42, 0)
    used.ensure_chain(x.shift_by(-5), 0, 10)
    y = x.shift_by(1)
    assert np.array_equal(fresh.rho(y).values, used.rho(y).values)
    assert np.array_equal(fresh.nu(y).weights, used.nu(y).weights)
    assert fresh.lam(y) == used.lam(y)


@given(
    points=st.lists(st.tuples(st.integers(0, 40),
                              st.dictionaries(st.integers(-24, 24), st.integers(0, 1), max_size=4)),
                    min_size=1, max_size=4),
    fwd=st.integers(0, 3),
    back=st.integers(0, 3),
    rho_depth=st.sampled_from([None, 1, 6]),
)
def test_window_rows_bit_equal_to_one_point_windows(small_gibbs_lab, points, fwd, back, rho_depth):
    # pinned overrides included: each row is the window of its own point
    lab = small_gibbs_lab
    xs = [sample_base(lab.spec.base, 5, s).with_overrides(pins) for s, pins in points]
    levels = (-back, fwd)
    win = lab.window(xs, fwd=fwd, rho_depth=rho_depth, nu_levels=levels)
    for i, x in enumerate(xs):
        one = lab.window([x], fwd=fwd, rho_depth=rho_depth, nu_levels=levels)
        assert np.array_equal(one.symbol(0), [x.symbol(0)])
        for j in levels:
            assert np.array_equal(win.nu_snap[j][i], one.nu_snap[j][0])
        for j in range(-back, fwd + lab.pullback_depth + 1):
            assert win.lam_at(j)[i] == one.lam_at(j)[0]
        # rho is held at level 0 only; carried up to fwd, each row stays its own
        rho, rho_one = win.rho_snap[0], one.rho_snap[0]
        for j in range(fwd):
            rho, rho_one = win.transport(rho, j), one.transport(rho_one, j)
        assert np.array_equal(rho[i], rho_one[0])
