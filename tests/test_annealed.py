"""The annealed operator's exact covariance series against its references.

The lags s_m of an i.i.d. base with the geometric potential are sparse
products of LL = sum_e p_e L_e.  They are held against the resolvent of LL,
the closed form of the affine system, route A's Monte Carlo estimate, and,
through `sigma2_estimate`, against an orbit pass that reads the wrong
observable.
"""

from itertools import islice

import numpy as np
import pytest

import rdslab as rl
from rdslab import limits
from rdslab.annealed import AnnealedOperator, geometric_remainder
from rdslab.fiber import ScaledObservable
from rdslab.limits import covariance_sequence, ensemble_covariances, sigma2_estimate

SERIES_FIELDS = ("s_values", "s_std_errs", "sigma2_series", "sigma2_series_se", "m_used",
                 "tail_bound", "tail_ok", "series_route")


def test_fixed_density(small_stats_lab):
    op = AnnealedOperator(small_stats_lab.table)
    assert op.rho.mean() == pytest.approx(1.0, abs=1e-14)
    assert np.max(np.abs(op.matrix @ op.rho - op.rho)) <= 1e-13
    assert np.all(op.rho > 0)


def test_lags_sum_to_the_resolvent(small_stats_lab):
    # sum_{m>=1} s_m = <gbar, (I - LL)^{-1} w> on mean-zero functions, built here
    # from the operator table alone
    lab = small_stats_lab
    op, g, n = AnnealedOperator(lab.table), lab.observable, lab.n_points
    p, nodes = lab.spec.base.weights, lab.table.nodes()
    gs = [g.values_for_symbol(e, nodes) for e in lab.spec.alphabet]
    gbar = sum(pe * ge for pe, ge in zip(p, gs))
    mu = np.mean(gbar * op.rho)
    w = sum(pe * (lab.table.op(e).matrix @ (ge * op.rho))
            for e, pe, ge in zip(lab.spec.alphabet, p, gs)) - mu * op.rho
    project = np.eye(n) - np.outer(op.rho, np.full(n, 1.0 / n))  # onto mean-zero functions
    ll = op.matrix.toarray()
    resolvent = np.mean(gbar * np.linalg.solve(np.eye(n) - project @ ll, project @ w))
    lags = list(islice(op.lags(g), 80))
    assert op.mean(g) == mu
    assert abs(sum(lags[1:]) - resolvent) <= 1e-12
    assert abs(lags[-1]) <= 1e-30  # decays at the gap rate, with no rounding floor


def test_affine_variant_gives_the_closed_form():
    # affine maps keep Lebesgue, and L_e kills the cosine: the lags past 0 vanish and
    # sigma^2 = sum_e p_e (off_e^2 + amp^2 / 2) - mu^2 with mu = sum_e p_e off_e
    spec = rl.make_system(nonlinearity=(0.0, 0.0))
    lab = rl.Lab(spec, n_points=256, pullback_depth=16)
    p, off, amp = spec.base.weights, spec.obs_offset, spec.obs_amplitude
    mu = sum(pe * o for pe, o in zip(p, off))
    closed = sum(pe * (o * o + amp * amp / 2) for pe, o in zip(p, off)) - mu**2
    assert closed == pytest.approx(0.5225, abs=1e-15)
    cov = covariance_sequence(lab, None, 12, 0, seed=0)
    s = cov.s
    assert cov.route == "annealed" and cov.mu == pytest.approx(mu, abs=1e-14)
    assert s[0] + 2.0 * sum(s[1:]) == pytest.approx(closed, abs=1e-12)
    assert max(abs(v) for v in s[1:]) <= 1e-15


def lags_agree(exact, route_a, bias=0.0):
    return [abs(e + bias * se - a) <= 4.0 * se for e, a, se in zip(exact.s, route_a.s, route_a.se)]


def test_exact_lags_agree_with_route_a(small_stats_lab):
    lab = small_stats_lab
    exact = covariance_sequence(lab, None, 8, 400, seed=9)
    route_a = ensemble_covariances(lab, lab.observable, 8, 400, seed=9)
    assert exact.route == "annealed" and route_a.route == "ensemble"
    assert np.all(exact.se == 0.0) and exact.mu_se == 0.0
    assert all(lags_agree(exact, route_a))
    assert abs(exact.mu - route_a.mu) <= 4.0 * route_a.mu_se
    # the check has teeth: a bias of 6 standard errors fails every lag
    assert not any(lags_agree(exact, route_a, bias=6.0))


def test_exact_route_grows_M_on_one_operator(small_stats_lab, monkeypatch):
    # a tail_tol below the default reach grows M one lag at a time, every lag drawn
    # from one operator, and stops at the first M whose remainder is below it
    lab = small_stats_lab
    built = []

    class Spy(AnnealedOperator):
        def __init__(self, table):
            built.append(table)
            super().__init__(table)

    monkeypatch.setattr(limits, "AnnealedOperator", Spy)
    cov = covariance_sequence(lab, tail_tol=1e-30)
    M = len(cov.s) - 1
    assert len(built) == 1 and 12 + 2 < M < 48
    assert cov.tail < 1e-30 <= geometric_remainder(cov.s[-3:-1])
    lags = list(islice(AnnealedOperator(lab.table).lags(lab.observable), M + 1))
    assert np.array_equal(cov.s, lags)
    # ... or at m_max, with the remainder still above tail_tol
    capped = covariance_sequence(lab, tail_tol=1e-30, m_max=M - 2)
    assert len(built) == 2 and not capped.tail < 1e-30
    assert np.array_equal(capped.s, lags[:M - 1])


def test_series_fields_do_not_depend_on_the_seed(small_stats_lab):
    reports = [sigma2_estimate(small_stats_lab, None, n_var=200, trials=100, seed=seed)
               for seed in (42, 308)]
    a, b = ({k: v for k, v in r.as_dict().items() if k in SERIES_FIELDS} for r in reports)
    assert a == b
    assert a["series_route"] == "annealed" and a["tail_ok"] and a["m_used"] == 12
    assert reports[0].g_mean == reports[1].g_mean and reports[0].g_mean_se == 0.0


def test_agreement_fails_when_the_orbit_pass_reads_a_scaled_observable(small_stats_lab,
                                                                      monkeypatch):
    def run():
        return sigma2_estimate(small_stats_lab, None, n_var=1000, trials=4000, seed=5)

    plain = run()
    assert plain.agreement
    real = limits.orbit_birkhoff_sums
    monkeypatch.setattr(limits, "orbit_birkhoff_sums",
                        lambda lab, g, *args, **kwargs: real(lab, ScaledObservable(g, 1.1),
                                                             *args, **kwargs))
    scaled = run()
    assert scaled.sigma2_series == plain.sigma2_series  # the series reads no orbit pass
    assert not scaled.agreement


@pytest.mark.parametrize("lags, remainder", [
    ([1.0, 0.5], 1.0), ([4.0, -1.0], 2.0 / 3.0), ([1.0, 0.0], 0.0), ([0.0, 0.0], 0.0),
    ([1e-3, 2e-3], float("inf")), ([0.0, 1e-20], float("inf")), ([0.3], float("inf"))])
def test_geometric_remainder(lags, remainder):
    assert geometric_remainder(lags) == pytest.approx(remainder, rel=1e-15)
