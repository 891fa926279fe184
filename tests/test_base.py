import itertools

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given
from hypothesis import strategies as st

import rdslab as rl
from rdslab import rng
from rdslab.base import (
    BaseMeasureSpec,
    BaseMetricParams,
    BaseObservable,
    _symbols_of_unit,
    base_correlation_check,
    base_distance,
    distance_to,
    holder_norm_base,
    indicator,
    pinned_pair,
    sample_base,
    sample_seeds,
    shift,
    symbols_for_seeds,
    window_mean,
)

FAIR = BaseMeasureSpec(2, (0.5, 0.5))


def test_measure_spec_validation():
    with pytest.raises(rl.base.BaseError):
        BaseMeasureSpec(1, (1.0,))
    with pytest.raises(rl.base.BaseError):
        BaseMeasureSpec(2, (0.7, 0.2))
    with pytest.raises(rl.base.BaseError):
        BaseMeasureSpec(2, (1.0, 0.0))


def test_shift_identity_and_invertibility():
    x = sample_base(FAIR, 1, 0)
    assert np.array_equal(shift(x, 0).symbols(-20, 20), x.symbols(-20, 20))
    assert shift(shift(x, 5), -5) == x
    assert shift(x, 3).symbol(0) == x.symbol(3)
    # general definition: symbol_{shift(x,k)}(i) = symbol_x(i + k)
    for k in (-7, 2, 11):
        assert np.array_equal(shift(x, k).symbols(-5, 5), x.symbols(-5 + k, 5 + k))


def test_sampler_determinism():
    a = sample_base(FAIR, 9, 4)
    b = sample_base(FAIR, 9, 4)
    assert np.array_equal(a.symbols(0, 100), b.symbols(0, 100))
    c = sample_base(FAIR, 9, 5)
    assert not np.array_equal(a.symbols(0, 100), c.symbols(0, 100))


def test_sampler_law_of_large_numbers():
    seeds = sample_seeds(7, 0, 100_000)
    sym = symbols_for_seeds(FAIR, seeds, 0, 1)[:, 0]
    freq = sym.mean()
    sigma = np.sqrt(0.25 / 100_000)
    assert abs(freq - 0.5) <= 3 * sigma


def test_sampler_chi_squared_three_symbols():
    spec = BaseMeasureSpec(3, (0.2, 0.3, 0.5))
    seeds = sample_seeds(11, 0, 100_000)
    sym = symbols_for_seeds(spec, seeds, 0, 1)[:, 0]
    counts = np.bincount(sym, minlength=3)
    expected = np.array(spec.weights) * 100_000  # direct frequency-count oracle
    stat = float(((counts - expected) ** 2 / expected).sum())
    p = scipy.stats.chi2.sf(stat, df=2)
    assert p > 0.01


def test_base_distance_examples():
    x = sample_base(FAIR, 3, 0)
    params = BaseMetricParams(truncation_window=10)
    assert base_distance(x, x, params) == 0.0
    q = x.law
    y = x.with_overrides({-3: 1 - x.symbol(-3)})
    assert base_distance(x, y, params) == pytest.approx(2.0**-3, abs=0)
    z = x.with_overrides({-i: 1 - x.symbol(-i) for i in range(0, 11)})
    assert base_distance(x, z, params) == pytest.approx(2047 / 1024, abs=0)


def test_metric_axioms_on_sampled_triples():
    params = BaseMetricParams(truncation_window=24)
    pts = [sample_base(FAIR, 21, i) for i in range(6)]
    for a, b, c in itertools.permutations(pts, 3):
        dab = base_distance(a, b, params)
        assert dab == base_distance(b, a, params)  # symmetry exact
        assert dab <= base_distance(a, c, params) + base_distance(c, b, params) + params.truncation_error


def test_shift_invariance_of_sampler_law():
    # histogram of 3-symbol windows, shifted vs unshifted, chi-squared at 1%
    n = 50_000
    seeds = sample_seeds(5, 0, n)
    plain = symbols_for_seeds(FAIR, seeds, 0, 3)
    shifted = symbols_for_seeds(FAIR, seeds, 13, 16)  # the same points shifted by 13
    def hist(block):
        idx = block[:, 0] * 4 + block[:, 1] * 2 + block[:, 2]
        return np.bincount(idx, minlength=8)
    h0, h1 = hist(plain), hist(shifted)
    expected = np.full(8, n / 8)
    for h in (h0, h1):
        stat = float(((h - expected) ** 2 / expected).sum())
        assert scipy.stats.chi2.sf(stat, df=7) > 0.01


def exact_correlation(spec, F, G, n):
    """Enumeration oracle: m(G o shift^-n * F) - m(G) m(F), exact over the window."""
    flo, fhi = F.window
    glo, ghi = G.window[0] - n, G.window[1] - n
    lo, hi = min(flo, glo), max(fhi, ghi)
    w = np.array(spec.weights)
    e_fg = e_f = e_g = 0.0
    for combo in itertools.product(range(spec.alphabet_size), repeat=hi - lo + 1):
        block = np.array(combo)
        prob = float(np.prod(w[block]))
        fv = float(F.fn(block[None, flo - lo : fhi - lo + 1])[0])
        gv = float(G.fn(block[None, glo - lo : ghi - lo + 1])[0])
        e_fg += prob * fv * gv
        e_f += prob * fv
        e_g += prob * gv
    return e_fg - e_f * e_g


def test_correlation_disjoint_windows_vanish():
    F = window_mean(0, 2)
    G = window_mean(0, 3)
    rep = base_correlation_check(FAIR, F, G, [4, 5, 6, 8], 100_000, seed=2)
    for row in rep.rows:
        assert abs(row.estimate) <= 3 * row.std_err


def test_correlation_matches_enumeration_oracle():
    F = window_mean(0, 2)
    G = window_mean(0, 3)
    rep = base_correlation_check(FAIR, F, G, [0, 1, 2, 3], 100_000, seed=2)
    for row in rep.rows:
        exact = exact_correlation(FAIR, F, G, row.n)
        assert abs(row.estimate - exact) <= 4 * row.std_err


def test_correlation_indicator_examples():
    F = indicator(0, 0)
    rep = base_correlation_check(FAIR, F, F, [0, 1, 2, 5], 100_000, seed=4)
    assert rep.rows[0].estimate == pytest.approx(0.25, abs=3 * rep.rows[0].std_err)
    for row in rep.rows[1:]:
        assert abs(row.estimate) <= 3 * row.std_err


def test_correlation_noise_flag_for_independent_observables():
    # disjoint windows under a product measure: every lag is exactly zero
    F = indicator(0, 0)
    G = indicator(-40, 0)
    rep = base_correlation_check(FAIR, F, G, [1, 2, 3], 20_000, seed=6)
    assert rep.noise_dominated


def test_holder_norm_constant_is_zero():
    F = BaseObservable(window=(0, 0), fn=lambda b: np.full(len(b), 3.7))
    sup, var = holder_norm_base(FAIR, F, 1.0, 200, seed=1)
    assert var == 0.0
    assert sup == pytest.approx(3.7)


def test_holder_norm_indicator_reaches_one():
    F = indicator(0, 0)
    sup, var = holder_norm_base(FAIR, F, 1.0, 400, seed=1)
    assert var >= 1.0  # a pair differing only at coordinate 0 has ratio 1/1


def test_holder_norm_distance_function_lipschitz():
    x0 = sample_base(FAIR, 77, 0)
    F = distance_to(x0)
    sup, var = holder_norm_base(FAIR, F, 1.0, 400, seed=3)
    assert var <= 1.0 + 1e-12  # 1-Lipschitz by the triangle inequality


def test_holder_norm_monotone_in_pair_count():
    F = indicator(-2, 1)
    estimates = [holder_norm_base(FAIR, F, 0.7, n, seed=9)[1] for n in (50, 100, 200, 400)]
    assert all(b >= a for a, b in zip(estimates, estimates[1:]))


def test_pinned_pair_agreement():
    x, y = pinned_pair(FAIR, 13, 0, depth=6)
    assert np.array_equal(x.symbols(-6, 7), y.symbols(-6, 7))
    assert base_distance(x, y) <= 2.0**-6


def test_observable_reads_only_its_window():
    F = window_mean(-2, 1)
    x = sample_base(FAIR, 31, 0)
    before = F.value(x)
    outside = x.with_overrides({j: 1 - x.symbol(j) for j in (-9, -3, 2, 7)})
    assert F.value(outside) == before
    inside = x.with_overrides({0: 1 - x.symbol(0)})
    assert F.value(inside) != before


@given(st.lists(st.integers(1, 50), min_size=2, max_size=4),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
def test_symbol_lookup_matches_searchsorted(parts, draws):
    w = np.array(parts, dtype=float)
    spec = BaseMeasureSpec(len(w), tuple(w / w.sum()))
    c = spec.cumulative()
    edges = c[:-1].tolist()
    # draws exactly on each inner edge, one ulp below it, and the extremes of [0, 1)
    u = np.array(draws + edges + [np.nextafter(v, 0.0) for v in edges]
                 + [0.0, np.nextafter(1.0, 0.0)])
    got = _symbols_of_unit(spec, u)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.searchsorted(c, u, side="right"))


def keyed_hash_grid_out_of_place(seeds, index):
    """The grid hash as one broadcast expression, a temporary per operation."""
    s = np.asarray(seeds, dtype=np.uint64)[:, None]
    idx = np.asarray(index, dtype=np.int64).astype(np.uint64)[None, :]
    with np.errstate(over="ignore"):
        h = s + (idx + np.uint64(1)) * np.uint64(0x9E3779B97F4A7C15)
    return rng.mix64(h)


U64 = st.one_of(st.sampled_from([0, 1, 2**63, 2**64 - 1]), st.integers(0, 2**64 - 1))
I64 = st.one_of(st.sampled_from([0, -1, 2**63 - 1, -(2**63)]), st.integers(-(2**63), 2**63 - 1))


@given(st.lists(U64, min_size=1, max_size=5), st.lists(I64, min_size=1, max_size=6))
@example([0], [0])
@example([2**64 - 1], [-1, 2**63 - 1, -(2**63), 7])
@example([0, 2**64 - 1], [-5, 3])
def test_keyed_hash_grid_rows_are_keyed_hashes(seeds, index):
    grid = rng.keyed_hash_grid(np.array(seeds, dtype=np.uint64), index)
    assert grid.shape == (len(seeds), len(index)) and grid.dtype == np.uint64
    assert np.array_equal(grid, keyed_hash_grid_out_of_place(np.array(seeds, dtype=np.uint64),
                                                             index))
    for i, seed in enumerate(seeds):
        assert np.array_equal(grid[i], rng.keyed_hash(np.uint64(seed), index))
