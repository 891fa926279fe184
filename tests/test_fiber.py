import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rdslab as rl
from rdslab.base import sample_base
from rdslab.fiber import (
    GridFunction,
    apply_map,
    apply_map_symbol,
    birkhoff_sum,
    cone_check,
    cone_embed,
    cone_oscillation,
    cone_variation_bound,
    inverse_branches,
    inverse_branches_symbol,
    map_derivative_symbol,
    variation_alpha,
)
from rdslab.thermo import random_lipschitz_functions, random_smooth_functions

TWO_PI = 2 * np.pi


def pinned(spec, seed, sym0):
    return sample_base(spec.base, seed, 0).with_overrides({0: sym0})


def test_apply_map_examples():
    spec = rl.gibbs_system(branch_count=(2, 3))
    x2 = pinned(spec, 1, 0)
    assert apply_map(spec, x2, 0.3) == pytest.approx(0.6, abs=1e-15)
    x3 = pinned(spec, 1, 1)
    assert apply_map(spec, x3, 0.5) == pytest.approx(0.5, abs=1e-15)  # 1.5 mod 1
    spec_eps = rl.gibbs_system(branch_count=(2, 2), nonlinearity=(0.05, 0.05))
    z = apply_map(spec_eps, pinned(spec_eps, 1, 0), 0.25)
    assert z == pytest.approx(0.5 + 0.05 / TWO_PI, abs=1e-15)


def test_inverse_branches_closed_forms():
    spec = rl.gibbs_system(branch_count=(2, 3))
    assert np.allclose(inverse_branches(spec, pinned(spec, 2, 0), 0.5), [0.25, 0.75], atol=0)
    assert np.allclose(inverse_branches(spec, pinned(spec, 2, 1), 0.0), [0, 1 / 3, 2 / 3], atol=1e-15)


def test_inverse_branches_newton_roundtrip():
    spec = rl.gibbs_system(branch_count=(2, 3), nonlinearity=(0.05, 0.04))
    w = np.linspace(0, 1, 53, endpoint=False)
    for e in (0, 1):
        z = inverse_branches_symbol(spec, e, w)
        assert z.shape == (spec.branch_count[e], len(w))
        back = apply_map_symbol(spec, e, z)
        assert np.max(rl.fiber.circle_distance(back, w[None, :])) <= 1e-12
        assert np.all(np.diff(z, axis=0) > 0)  # ascending branches
        # pairwise branch separation
        d, eps = spec.branch_count[e], spec.nonlinearity[e]
        gap = np.min(np.diff(z, axis=0))
        assert gap >= (1.0 / d - 2 * eps / TWO_PI) - 1e-9


def test_expansion_at_grid_points():
    spec = rl.make_system()
    z = np.arange(512) / 512
    for e in spec.alphabet:
        deriv = map_derivative_symbol(spec, e, z)
        assert np.all(deriv >= spec.holder.gamma_star - 1e-12)


def test_expansion_violation_rejected():
    with pytest.raises(rl.fiber.FiberError):
        rl.make_system(branch_count=(2, 2), nonlinearity=(0.2, 0.2))  # 2 - 2pi*0.2 < 1


def test_birkhoff_sum_examples():
    spec = rl.gibbs_system()
    x = sample_base(spec.base, 5, 0)

    class One:
        def values(self, x, z):
            return np.ones_like(np.asarray(z, dtype=float))

    assert birkhoff_sum(spec, One(), x, 0.3, 7) == pytest.approx(7.0)
    assert birkhoff_sum(spec, One(), x, 0.3, 0) == 0.0
    spec_const = rl.gibbs_system(obs_offset=(0.2, 0.2), obs_amplitude=0.0)
    g = rl.default_observable(spec_const)
    assert birkhoff_sum(spec_const, g, sample_base(spec_const.base, 5, 0), 0.77, 5) == pytest.approx(1.0)


def test_variation_constant_zero():
    u = GridFunction(np.full(512, 2.5))
    assert variation_alpha(u, 1.0, 0.5) == 0.0


def test_variation_cosine_matches_lipschitz_oracle():
    z = np.arange(2048) / 2048
    u = GridFunction(np.cos(TWO_PI * z))
    v = variation_alpha(u, 1.0, 0.5)
    assert v == pytest.approx(TWO_PI, rel=0.02)  # true sup|u'| = 2 pi
    assert v <= TWO_PI  # grid proxy is a lower bound


def test_variation_spike_grows_with_resolution():
    vals = []
    for n in (128, 256, 512):
        u = np.zeros(n)
        u[n // 3] = 1.0
        vals.append(variation_alpha(GridFunction(u), 1.0, 0.25))
    assert vals[0] < vals[1] < vals[2]
    # explicit two-node computation: adjacent pair ratio = 1 / (1/n)^1 = n
    assert vals[-1] == pytest.approx(512.0)


def bruteforce_pairs(n, reach):
    """Grid pairs (k, i, (i + k) mod n, distance) within reach, shift by shift."""
    kmax = min(int(np.floor(reach * n)), n // 2)
    for k in range(1, kmax + 1):
        yield k, [(i, (i + k) % n) for i in range(n)], min(k, n - k) / n


def bruteforce_variation(vals, alpha, eta):
    best = 0.0
    for _, pairs, dist in bruteforce_pairs(len(vals), eta):
        for i, j in pairs:
            best = max(best, np.abs(vals[i] - vals[j]) / dist**alpha)
    return float(best)


def bruteforce_oscillation(vals, eta):
    best = 0.0
    for _, pairs, _ in bruteforce_pairs(len(vals), eta):
        for i, j in pairs:
            best = max(best, float(np.abs(vals[i] - vals[j])))
    return best


def bruteforce_cone(vals, s, hp):
    """(ok, reason, worst pair, margin) of the oscillation test; ties go to the first pair."""
    worst, where = -np.inf, None
    for k, pairs, dist in bruteforce_pairs(len(vals), hp.xi):
        bound = np.exp(s * hp.Q_tilde * dist**hp.alpha)
        for forward in (True, False):
            for i, j in pairs:
                a, b = (vals[i], vals[j]) if forward else (vals[j], vals[i])
                if a - bound * b > worst:
                    worst, where = float(a - bound * b), (i, j)
    slack = 1e-11 * max(float(np.max(np.abs(vals))), 1.0)
    if where is not None and worst > slack:
        return False, "oscillation", where, worst
    return True, "ok", where, worst if where else 0.0


grid_values = st.lists(st.one_of(st.integers(-3, 3).map(float),
                                 st.floats(-10, 10, allow_nan=False)), min_size=4, max_size=48)


@given(grid_values, grid_values, st.booleans(), st.floats(0.05, 1.0), st.floats(0.0, 0.7),
       st.floats(0.01, 3.0))
def test_variation_matches_bruteforce_scan(re, im, complex_values, alpha, eta, s):
    n = min(len(re), len(im))
    vals = np.array(re[:n]) + 1j * np.array(im[:n]) if complex_values else np.array(re)
    assert variation_alpha(GridFunction(vals), alpha, eta) == bruteforce_variation(vals, alpha, eta)
    assert cone_oscillation(vals, eta) == bruteforce_oscillation(vals, eta)
    # a positive, Lebesgue-normalized function reaches the oscillation scan
    h = np.abs(vals) + 0.05
    h = h / h.mean()
    hp = rl.HolderParams(alpha=alpha, eta=0.5, xi=max(eta, 1e-3), H_tilde=1.0, gamma_star=2.0)
    cert = cone_check(GridFunction(h), s, np.full(len(h), 1.0 / len(h)), hp)
    assert (cert.ok, cert.reason, cert.worst_pair, cert.worst_margin) == bruteforce_cone(h, s, hp)


def full_scan_variation(shift_diffs, n, alpha, eta):
    """The unpruned scan: every shift's ratio, from max |u_i - u_{i+k}| per k."""
    kmax = min(int(np.floor(eta * n)), n // 2)
    dists = [min(k, n - k) / n for k in range(1, kmax + 1)]
    return float(max([0.0, *(diff / dist**alpha for diff, dist in zip(shift_diffs, dists))]))


def lab_scale_rows(n, lab):
    """Rows of n points that stress the dyadic bound: smooth, kinked, transported,
    tied, spiked, subnormal and non-finite."""
    gen = np.random.default_rng(n)
    rows = [f.values for f in random_smooth_functions(n, 3, 7)]
    rows += [f.values for f in random_lipschitz_functions(n, 3, 7)]
    x = sample_base(lab.spec.base, 11, 0)
    win = lab.window([x] * 2, fwd=1)
    rows += list(win.transport(np.array(rows[:2]), 0, 0.7, lab.observable))
    i = np.arange(n)
    rows += [i * 1.0, np.minimum(i, n - i) * 2.0**-10]  # the tent ties every shift at alpha = 1
    spike = np.zeros(n)
    spike[n // 3] = 1.0
    rows.append(spike)
    tiny = gen.integers(-8, 9, n) * 5e-324
    rows += [tiny, tiny + 1j * gen.integers(-8, 9, n) * 5e-324]
    for bad in (np.inf, -np.inf, np.nan):
        row = rows[3].copy()
        row[n // 5] = bad
        rows.append(row)
    even_inf = rows[3].copy()
    even_inf[::2] = np.inf  # odd shifts reach inf, even shifts only nan
    rows.append(even_inf)
    return rows


@pytest.mark.parametrize("n", [1024, 333])
def test_pruned_variation_is_the_full_scan_at_lab_scale(n):
    lab = rl.Lab(rl.gibbs_system(), n_points=n, pullback_depth=8)
    for vals in lab_scale_rows(n, lab):
        with np.errstate(invalid="ignore"):  # inf - inf in the non-finite rows
            shift_diffs = [float(np.abs(vals - np.roll(vals, -k)).max())
                           for k in range(1, n // 2 + 1)]
            for alpha in (0.05, 0.5, 1.0):
                for eta in (0.004, 0.1, 1.0 / 6.0, 0.3, 0.5):
                    got = variation_alpha(vals, alpha, eta)
                    assert got == full_scan_variation(shift_diffs, n, alpha, eta), (alpha, eta)


def test_apply_map_symbol_on_symbol_array_matches_scalar_symbols():
    spec = rl.make_system()
    gen = np.random.default_rng(3)
    e = gen.integers(0, spec.base.alphabet_size, size=777)
    z = gen.uniform(size=777)
    z[:3] = [0.0, 0.5, np.nextafter(1.0, 0.0)]
    batched = apply_map_symbol(spec, e, z)
    for sym in spec.alphabet:
        assert np.array_equal(batched[e == sym], apply_map_symbol(spec, sym, z[e == sym]))
    jit = gen.uniform(-1e-13, 1e-13, size=777)
    jittered = apply_map_symbol(spec, e, z, jitter=jit)
    for sym in spec.alphabet:
        mask = e == sym
        assert np.array_equal(jittered[mask], apply_map_symbol(spec, sym, z[mask], jitter=jit[mask]))
    assert np.all((jittered >= 0.0) & (jittered < 1.0))


def test_apply_map_symbol_matches_remainder_reduction():
    # the reduction w - floor(w) must give the bits of the lift % 1.0, with 1.0 sent to 0
    spec = rl.make_system()
    gen = np.random.default_rng(4)
    preimages = [inverse_branches_symbol(spec, e, [0.0, 0.5]).ravel() for e in spec.alphabet]
    z = np.concatenate([gen.uniform(size=400), [0.0, 1e-300, np.nextafter(1.0, 0.0)], *preimages])
    z = np.tile(z, 3)
    e = gen.integers(0, spec.base.alphabet_size, size=len(z))
    jit = np.concatenate([gen.uniform(-2.0**-44, 2.0**-44, size=len(z) // 3),
                          np.full(len(z) // 3, -1e-18), np.full(len(z) // 3, 1e-18)])
    d, eps = spec.map_coefficients
    for j in (None, jit):
        w = d[e] * z + eps[e] * np.sin(TWO_PI * z) / TWO_PI
        w = (w if j is None else w + j) % 1.0
        assert np.array_equal(apply_map_symbol(spec, e, z, jitter=j), np.where(w >= 1.0, 0.0, w))
    assert np.any(apply_map_symbol(spec, e, z, jitter=jit)[z == 0.0] == 0.0)  # w + 1 rounded to 1


def test_gridfunction_node_exactness_and_order():
    z = np.arange(64) / 64
    vals = np.sin(TWO_PI * z) + 0.3 * np.cos(2 * TWO_PI * z)
    for interp in ("linear", "cubic"):
        gf = GridFunction(vals, interp=interp)
        assert np.array_equal(gf(z), vals)
    # interpolation error shrinks at the advertised order
    f = lambda t: np.sin(TWO_PI * t)
    probes = (np.arange(977) / 977 + 0.0007) % 1.0
    errs = {}
    for interp, order in (("linear", 2), ("cubic", 4)):
        e = []
        for n in (64, 128, 256):
            gf = GridFunction.from_callable(f, n, interp=interp)
            e.append(np.max(np.abs(gf(probes) - f(probes))))
        rate = np.log2(e[0] / e[2]) / 2
        errs[interp] = rate
        assert rate >= order - 0.3


def test_cone_embed_trivials(gibbs_lab):
    hp = gibbs_lab.spec.holder
    n = 256
    leb = np.full(n, 1.0 / n)
    one = GridFunction(np.ones(n))
    h = cone_embed(one, leb, hp)
    assert np.allclose(h.values, 1.0)
    h2 = cone_embed(GridFunction(2 * np.ones(n)), leb, hp)
    assert np.allclose(h2.values, 1.0)  # scale invariance


def test_cone_embed_quadrature_oracle():
    # u = 1 + 0.1 cos(2 pi z), Lebesgue weights, Q = 1, alpha = 1
    n = 2048
    z = np.arange(n) / n
    u = GridFunction(1.0 + 0.1 * np.cos(TWO_PI * z))
    hp = rl.HolderParams(alpha=1.0, eta=0.5, xi=0.5, H_tilde=1.0, gamma_star=2.0)
    leb = np.full(n, 1.0 / n)
    v = variation_alpha(u, 1.0, 0.5)
    assert v == pytest.approx(0.2 * np.pi, rel=0.01)
    h = cone_embed(u, leb, hp, Q=1.0)
    expected = (u.values + v) / (1.0 + v)
    assert np.max(np.abs(h.values - expected)) < 1e-14
    assert abs(float(leb @ h.values) - 1.0) < 1e-10


def test_cone_check_constant_and_negativity(gibbs_lab):
    hp = gibbs_lab.spec.holder
    n = 512
    leb = np.full(n, 1.0 / n)
    assert cone_check(GridFunction(np.ones(n)), 1.0, leb, hp).ok
    assert cone_check(GridFunction(np.ones(n)), 25.0, leb, hp).ok
    bad = np.ones(n)
    bad[10] = -0.2
    cert = cone_check(GridFunction(bad / (leb @ bad * n)), 1.0, leb, hp)
    assert not cert.ok and cert.reason == "negativity" and cert.worst_pair[0] == 10


def test_cone_check_mass_violation(gibbs_lab):
    hp = gibbs_lab.spec.holder
    n = 512
    leb = np.full(n, 1.0 / n)
    cert = cone_check(GridFunction(1.5 * np.ones(n)), 1.0, leb, hp)
    assert not cert.ok and cert.reason == "mass"


def test_cone_embed_outputs_pass_cone_check(gibbs_lab):
    # the embedding lemma as oracle, checked by exhaustive grid-pair scan
    hp = gibbs_lab.spec.holder
    n = gibbs_lab.n_points
    leb = np.full(n, 1.0 / n)
    for u in random_smooth_functions(n, 12, seed=31, positive=True):
        h = cone_embed(u, leb, hp)
        cert = cone_check(h, 1.0, leb, hp)
        assert cert.ok, cert


def test_cone_variation_bound(gibbs_lab):
    # the oscillation form carries the xi^alpha factor; the ratio form drops it
    from rdslab.fiber import cone_oscillation, cone_ratio_bound

    hp = gibbs_lab.spec.holder
    n = gibbs_lab.n_points
    leb = np.full(n, 1.0 / n)
    for u in random_smooth_functions(n, 6, seed=32, positive=True):
        h = cone_embed(u, leb, hp)
        osc = cone_oscillation(h, hp.xi)
        assert osc <= cone_variation_bound(hp, 1.0, h.sup_norm()) + 1e-8
        v = variation_alpha(h, hp.alpha, hp.eta)
        assert v <= cone_ratio_bound(hp, 1.0, h.sup_norm()) + 1e-8


def test_cone_invariance_under_normalized_iterates(gibbs_lab):
    lab = gibbs_lab
    hp = lab.spec.holder
    n = lab.n_points
    for i, u in enumerate(random_smooth_functions(n, 6, seed=33, positive=True)):
        x = sample_base(lab.spec.base, 1234, i)
        nu_x = lab.nu(x)
        h = cone_embed(u, nu_x, hp)
        assert cone_check(h, 1.0, nu_x, hp).ok
        cur = h
        for j in range(4):
            cur = rl.transfer_apply(lab.table, x.shift_by(j), cur, kind="normalized",
                                    lam=lab.lam(x.shift_by(j)))
            cert = cone_check(cur, 1.0, lab.nu(x.shift_by(j + 1)), hp, mass_tol=1e-6)
            assert cert.ok, (i, j, cert)


def test_cone_embed_zero_function_error(gibbs_lab):
    hp = gibbs_lab.spec.holder
    n = 128
    leb = np.full(n, 1.0 / n)
    with pytest.raises(rl.fiber.FiberError, match="zero"):
        cone_embed(rl.GridFunction(np.zeros(n)), leb, hp)
    with pytest.raises(rl.fiber.FiberError):
        cone_embed(rl.GridFunction(-np.ones(n)), leb, hp)
