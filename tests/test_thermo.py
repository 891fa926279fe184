import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdslab as rl
from rdslab.base import sample_base
from rdslab.transfer import SymbolOperator

from rdslab.thermo import (
    ConformalWindow,
    FiberMeasure,
    ThermoError,
    conformal_pullback,
    fiberwise_invariance_residual,
    gap_estimate,
    invariant_density,
    pullback_sweep,
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
    win = lab.ensure_chain(x, 0, 0)
    assert abs(win.lam_at(0)[0] - 2.0) <= 1e-10
    assert np.max(np.abs(lab.rho(x).values - 1.0)) <= 1e-10
    assert np.max(np.abs(win.nu_snap[0][0] - 1.0 / lab.n_points)) <= 1e-10


def test_constant_potential_scales_lambda():
    # phi = c: lambda = d e^c; realized through the geometric potential at t,
    # where phi = -t log d is fiber-constant for affine branches
    t = 0.7
    spec = rl.make_system(branch_count=(2, 2), nonlinearity=(0.0, 0.0), potential_t=t)
    lab = rl.Lab(spec, n_points=256, pullback_depth=16)
    x = sample_base(spec.base, 1, 0)
    lam = lab.ensure_chain(x, 0, 0).lam_at(0)[0]
    assert lam == pytest.approx(2.0 * np.exp(-t * np.log(2.0)), abs=1e-10)


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
    lams = [pullback_sweep(lab.table, x, k + 1, 0)[1] for k in (2, 3, 4, 5, 6)]
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
    mu = lab.window((x,)).mu_weights()[0]
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(mu >= 0)


def test_statistics_system_closed_forms(stats_lab):
    # geometric potential: lambda = 1 and nu = Lebesgue (up to stencil quadrature)
    lab = stats_lab
    x = sample_base(lab.spec.base, 42, 0)
    win = lab.ensure_chain(x, 0, 0)
    assert win.lam_at(0)[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(win.nu_snap[0][0] - 1.0 / lab.n_points)) < 1e-5


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
    new, old = (lab.ensure_chain(y, 0, 0) for lab in (fresh, used))
    assert np.array_equal(new.nu_snap[0], old.nu_snap[0])
    assert np.array_equal(new.lam_at(0), old.lam_at(0))
    assert np.array_equal(new.rho_snap[0], old.rho_snap[0])
    # the lab holds no window: one its caller drops is freed
    held = weakref.ref(used.window((y,)))
    gc.collect()
    assert held() is None


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


def unshared_sweep(table, block, lo, fwd, depth, nu_levels, rho_depth, lam_lo):
    """Every row pushed at every level, grouped by symbol: the sweep before rows whose
    symbols agree shared their states.  Returns lambda and nu per level, and rho_0."""
    def grouped(j, method, rows):
        out = np.empty_like(rows)
        for e in table.spec.alphabet:
            mask = block[:, j - lo] == e
            if np.any(mask):
                out[mask] = getattr(table.op(e), method)(rows[mask])
        return out

    n = table.n_points
    lam, nu = {}, {}
    omega = np.full((len(block), n), 1.0 / n)
    for j in range(fwd + depth - 1, min(list(nu_levels) + [lam_lo, 0]) - 1, -1):
        omega = grouped(j, "adjoint_batch", omega)
        lam[j] = omega.sum(axis=1)
        omega = omega / lam[j][:, None]
        nu[j] = omega
    rho = np.ones((len(block), n))
    for j in range(-rho_depth, 0):
        rho = grouped(j, "apply_batch", rho)
        rho = rho / rho.sum(axis=1)[:, None]
    return lam, nu, rho / np.einsum("ij,ij->i", nu[0], rho)[:, None]


def three_symbol_system():
    return rl.gibbs_system(weights=(0.3, 0.3, 0.4), branch_count=(2, 3, 2),
                           nonlinearity=(0.0, 0.0, 0.0), potential_amp=(0.1, 0.15, -0.05),
                           obs_offset=(0.2, -0.1, 0.0), obs_phase=(0.0, 0.3, 0.6))


@pytest.fixture(scope="module")
def three_symbol_table():
    return rl.OperatorTable(three_symbol_system(), 64)


@st.composite
def shared_blocks(draw):
    """A symbol block whose rows share paths: repeated rows, rows agreeing on the top
    k levels or on the first k levels above -rho_depth, and pinned pairs (agreeing
    on levels [-k, k])."""
    q = draw(st.sampled_from([2, 3]))
    fwd, depth = draw(st.integers(0, 3)), draw(st.integers(1, 6))
    rho_depth = draw(st.integers(0, 6))
    nu_levels = sorted(draw(st.sets(st.integers(-3, fwd), max_size=3)))
    lam_lo = draw(st.integers(-4, 0))
    lo = min(nu_levels + [0, -rho_depth, lam_lo])
    width = fwd + depth - lo
    n_rows = draw(st.integers(1, 10))
    block = np.random.default_rng(draw(st.integers(0, 2**16))).integers(0, q, (n_rows, width))
    row = st.integers(0, n_rows - 1)
    for kind, a, b, k in draw(st.lists(st.tuples(
            st.sampled_from(["repeat", "top", "bottom", "pinned"]), row, row,
            st.integers(1, width)), max_size=6)):
        cols = {"repeat": slice(None), "top": slice(width - k, None),
                "bottom": slice(-rho_depth - lo, -rho_depth - lo + k),
                "pinned": slice(max(-k - lo, 0), k - lo + 1)}[kind]
        block[b, cols] = block[a, cols]
    return q, block, lo, fwd, depth, nu_levels, rho_depth, lam_lo


@given(shared_blocks())
def test_shared_path_sweep_bit_equal_to_unshared_sweep(small_gibbs_lab, three_symbol_table,
                                                        case):
    q, block, lo, fwd, depth, nu_levels, rho_depth, lam_lo = case
    table = small_gibbs_lab.table if q == 2 else three_symbol_table
    win = ConformalWindow(table, block, lo, fwd=fwd, depth=depth, nu_levels=nu_levels,
                          rho_depth=rho_depth, lam_lo=lam_lo)
    lam, nu, rho0 = unshared_sweep(table, block, lo, fwd, depth, nu_levels, rho_depth, lam_lo)
    # lambda is held down to lam_lo (or a lower nu level), and no further
    stop = min(nu_levels + [lam_lo, 0])
    assert min(lam) == stop
    for j in lam:
        assert np.array_equal(win.lam_at(j), lam[j])
    with pytest.raises(ThermoError):
        win.lam_at(stop - 1)
    assert sorted(win.nu_snap) == nu_levels
    for j in nu_levels:
        assert np.array_equal(win.nu_snap[j], nu[j])
    assert np.array_equal(win.rho_snap[0], rho0)


def test_sweep_pushes_each_distinct_path_once(small_stats_lab, monkeypatch):
    # per level, one batch per symbol holding the distinct symbol paths swept so far
    # that end in it: at the first adjoint level that is one row per symbol
    lab, fwd, depth = small_stats_lab, 2, 12
    pushed = []
    for method in ("adjoint_batch", "apply_batch"):
        def spy(op, rows, _inner=getattr(SymbolOperator, method), _method=method):
            e = next(e for e, o in lab.table.ops.items() if o is op)
            pushed.append((_method, e, rows.shape[0]))
            return _inner(op, rows)
        monkeypatch.setattr(SymbolOperator, method, spy)
    ens = rl.OrbitEnsemble(lab, 200, 3, 5, fwd=fwd, depth=depth)
    block = np.stack([ens.symbol(j) for j in range(-depth, fwd + depth)], axis=1)

    def expected(method, levels, first):
        out = []
        for j in levels:
            cols = slice(min(first, j) + depth, max(first, j) + depth + 1)
            paths = np.unique(block[:, cols], axis=0)
            ends = paths[:, j - min(first, j)]
            out += [(method, e, int(np.sum(ends == e))) for e in lab.spec.alphabet
                    if np.any(ends == e)]
        return out

    top = fwd + depth
    assert pushed == (expected("adjoint_batch", range(top - 1, -1, -1), top - 1)
                      + expected("apply_batch", range(-depth, 0), -depth))
    first = len(set(ens.symbol(top - 1).tolist()))
    assert sum(rows for _, _, rows in pushed[:first]) == first


def test_transport_output_dtype_follows_the_frequency(small_stats_lab):
    # a perturbed step written into a real buffer would drop its imaginary part
    lab = small_stats_lab
    win = lab.window([sample_base(lab.spec.base, 42, i) for i in range(6)], fwd=2)
    real_rows = win.rho_snap[0]
    out = win.transport(real_rows, 1, 0.4, lab.observable)
    assert np.iscomplexobj(out)
    assert np.array_equal(out, win.transport(real_rows.astype(complex), 1, 0.4, lab.observable))
    assert win.transport(real_rows, 1, 0.0).dtype == np.float64


def test_window_chain_evaluates_each_phase_once_per_symbol():
    # a chain at one r over several levels meets every symbol many times; the
    # observable is evaluated at a symbol's branch points only the first time
    lab = rl.Lab(rl.make_system(), n_points=16, pullback_depth=4)
    evaluated = []

    class Counting:
        def values_for_symbol(self, e, z):
            evaluated.append(int(e))
            return lab.observable.values_for_symbol(e, z)

    obs = Counting()
    win = lab.window([sample_base(lab.spec.base, 42, i) for i in range(8)], fwd=5)
    rows = win.rho_snap[0]
    for j in range(6):
        rows = win.transport(rows, j, 0.4, obs)
    met = {int(e) for j in range(6) for e in win.symbol(j)}
    assert sorted(evaluated) == sorted(met) == list(lab.spec.alphabet)


@given(seed=st.integers(0, 2**32 - 1), lab_i=st.integers(0, 1), start=st.integers(-3, 12),
       levels=st.integers(0, 10),
       pins=st.dictionaries(st.integers(-14, 12), st.integers(0, 1), max_size=5))
def test_pullback_sweep_matches_per_level_symbols(small_stats_lab, small_gibbs_lab, seed, lab_i,
                                                  start, levels, pins):
    table = (small_stats_lab, small_gibbs_lab)[lab_i].table
    x = sample_base(table.spec.base, seed, 0).with_overrides(pins)
    stop = start - levels
    if levels == 0:
        with pytest.raises(ThermoError):
            pullback_sweep(table, x, start, stop)
        return
    omega = np.full(table.n_points, 1.0 / table.n_points)
    for j in range(start - 1, stop - 1, -1):
        ref = table.op(x.symbol(j)).adjoint(omega)
        lam = float(ref.sum())
        omega = ref / lam
    w, got_lam = pullback_sweep(table, x, start, stop)
    assert got_lam == lam
    assert np.array_equal(w, omega)


def test_thermo_sweeps_the_depth_k_pullback_once(monkeypatch):
    from rdslab import thermo

    def fresh_lab():
        return rl.Lab(rl.gibbs_system(), n_points=128, pullback_depth=12)

    lab = fresh_lab()
    x = sample_base(lab.spec.base, 42, 2)
    sweeps = []
    sweep = thermo.pullback_sweep

    def spy(table, y, start, stop):
        sweeps.append((y, start, stop))
        return sweep(table, y, start, stop)

    monkeypatch.setattr(thermo, "pullback_sweep", spy)
    pull = conformal_pullback(lab, x, n_probe=5)
    assert (x, lab.pullback_depth + 1, 0) in sweeps
    before = len(sweeps)
    dens = invariant_density(lab, x)
    assert len(sweeps) == before  # the density reads its windows only
    assert len(set(sweeps)) == len(sweeps)
    alone = invariant_density(fresh_lab(), x)
    assert len(sweeps) == before  # no pullback on a fresh lab either
    assert np.array_equal(dens.rho.values, alone.rho.values)
    assert dens.fixed_point_residual == alone.fixed_point_residual
    assert np.array_equal(pull.nu.weights, conformal_pullback(fresh_lab(), x, n_probe=5).nu.weights)


@functools.lru_cache(maxsize=None)
def system_lab(name, interp, n_points, depth):
    spec = {"default": rl.make_system, "gibbs": rl.gibbs_system,
            "three": three_symbol_system}[name]()
    return rl.Lab(spec, n_points=n_points, interp=interp, pullback_depth=depth)


@st.composite
def pullback_cases(draw):
    """A lab (system, interpolation, N, K) and a sampled base point with pinned symbols."""
    lab = system_lab(draw(st.sampled_from(["default", "gibbs", "three"])),
                     draw(st.sampled_from(["cubic", "linear"])),
                     draw(st.sampled_from([32, 96, 256])), draw(st.sampled_from([2, 5, 12, 40])))
    depth, q = lab.pullback_depth, len(lab.spec.alphabet)
    pins = draw(st.dictionaries(st.integers(-2, depth + 2), st.integers(0, q - 1), max_size=4))
    return lab, sample_base(lab.spec.base, draw(st.integers(0, 2**16)), 0).with_overrides(pins)


@given(pullback_cases())
def test_single_vector_pullback_bit_equal_to_one_row_window(case):
    lab, x = case
    K = lab.pullback_depth
    omega, lam = pullback_sweep(lab.table, x, K + 1, 0)
    win = lab.window((x,))
    assert np.array_equal(omega, win.nu_snap[0][0])
    assert lam == win.lam_at(0)[0]
    # teeth: a pullback one level shallower holds other bits (deep sweeps at small N
    # can settle on a rounding fixed point, where neighbouring depths agree)
    if K <= 12:
        assert not np.array_equal(pullback_sweep(lab.table, x, K, 0)[0], win.nu_snap[0][0])
