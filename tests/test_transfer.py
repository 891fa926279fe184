import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import rdslab as rl
from rdslab import rng, transfer
from rdslab.base import BasePoint, sample_base
from rdslab.fiber import GridFunction, alpha_norm, birkhoff_sum, interp_stencil
from rdslab.thermo import ConformalWindow, pullback_sweep, random_smooth_functions
from rdslab.transfer import (
    TransferError,
    chain_error_budget,
    oracle_transfer,
    perturbed_chain_identity_check,
    projection_Q,
    transfer_apply,
    transfer_iterate,
)

TWO_PI = 2 * np.pi


def pin_orbit(spec, seed, symbols):
    x = sample_base(spec.base, seed, 0)
    return x.with_overrides({i: s for i, s in enumerate(symbols)})


def test_transfer_counts_preimages():
    spec = rl.gibbs_system(potential_amp=(0.0, 0.0))
    table = rl.OperatorTable(spec, 128)
    x = pin_orbit(spec, 1, [0])  # d = 2 on this fiber
    out = transfer_apply(table, x, GridFunction(np.ones(128)))
    assert np.allclose(out.values, 2.0, atol=1e-13)


def test_transfer_constant_potential():
    c = 0.3
    spec = rl.gibbs_system(branch_count=(3, 3), potential_amp=(0.0, 0.0), potential_t=0.0)
    # add the constant through a custom spec: shift amp is cos-modulated, so use t=0 and
    # verify against a direct oracle instead
    table = rl.OperatorTable(spec, 128)
    x = pin_orbit(spec, 1, [0])
    out = transfer_apply(table, x, GridFunction(np.exp(c) * np.ones(128)))
    assert np.allclose(out.values, 3.0 * np.exp(c), atol=1e-12)


def test_transfer_two_term_example():
    # phi(z) = 0.1 cos(2 pi z), d = 2, u = 1: (L u)(0) = e^0.1 + e^-0.1
    spec = rl.gibbs_system(branch_count=(2, 3), potential_amp=(0.1, 0.1))
    table = rl.OperatorTable(spec, 256)
    x = pin_orbit(spec, 1, [0])
    out = transfer_apply(table, x, GridFunction(np.ones(256)))
    assert out.values[0] == pytest.approx(np.exp(0.1) + np.exp(-0.1), abs=1e-12)


def test_transfer_linearity_and_positivity(small_gibbs_lab):
    lab = small_gibbs_lab
    x = sample_base(lab.spec.base, 3, 0)
    n = lab.n_points
    gen = np.random.default_rng(0)
    u, v = gen.normal(size=n), gen.normal(size=n)
    a, b = 1.7, -0.4
    lu = transfer_apply(lab.table, x, GridFunction(u)).values
    lv = transfer_apply(lab.table, x, GridFunction(v)).values
    lab_comb = transfer_apply(lab.table, x, GridFunction(a * u + b * v)).values
    assert np.allclose(lab_comb, a * lu + b * lv, atol=1e-12)
    pos = transfer_apply(lab.table, x, GridFunction(np.abs(u) + 0.1)).values
    assert np.all(pos > 0)


def test_iterate_identity_and_degree_product():
    spec = rl.gibbs_system(potential_amp=(0.0, 0.0))
    table = rl.OperatorTable(spec, 128)
    x = pin_orbit(spec, 1, [0, 1, 0])  # branch counts (2, 3, 2)
    u = GridFunction(np.ones(128))
    assert np.array_equal(transfer_iterate(table, x, u, 0).values, u.values)
    out = transfer_iterate(table, x, u, 3)
    assert np.allclose(out.values, 12.0, atol=1e-10)


def test_perturbed_with_zero_r_equals_normalized(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 4, 0)
    u = random_smooth_functions(lab.n_points, 1, seed=5)[0]
    chain = lab.lambda_chain(x, 3)
    a = transfer_iterate(lab.table, x, u, 3, lambda_chain=chain)
    b = transfer_iterate(lab.table, x, GridFunction(u.values.astype(complex)), 3,
                         lambda_chain=chain, r_sequence=(0.0, 0.0, 0.0), observable=lab.observable)
    # equal up to round-off: complex and real matvec accumulation differ by ulps
    assert np.max(np.abs(b.values.real - a.values)) <= 1e-13
    assert np.all(b.values.imag == 0.0)


def test_oracle_counting_and_linearity():
    spec = rl.gibbs_system(branch_count=(2, 2), potential_amp=(0.0, 0.0))
    x = sample_base(spec.base, 11, 0)
    val = oracle_transfer(spec, x, lambda z: np.ones_like(z), 10, 0.37)
    assert val == pytest.approx(1024.0, rel=1e-12)
    u = lambda z: np.cos(TWO_PI * z) + 0.2
    v = lambda z: np.sin(2 * TWO_PI * z) - 1.0
    a, b = 0.6, -1.3
    comb = oracle_transfer(spec, x, lambda z: a * u(z) + b * v(z), 4, 0.2)
    parts = a * oracle_transfer(spec, x, u, 4, 0.2) + b * oracle_transfer(spec, x, v, 4, 0.2)
    assert comb == pytest.approx(parts, abs=1e-12)


def test_oracle_budget_error():
    spec = rl.gibbs_system(branch_count=(3, 3))
    x = sample_base(spec.base, 11, 0)
    with pytest.raises(TransferError):
        oracle_transfer(spec, x, lambda z: z, 20, 0.1, branch_budget=10_000)


def test_grid_matches_oracle_single_step(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 12, 0)
    u = GridFunction.from_callable(lambda z: 1 + 0.4 * np.cos(TWO_PI * z), lab.n_points)
    grid = transfer_apply(lab.table, x, u).values
    oracle = oracle_transfer(lab.spec, x, u, 1, lab.table.nodes())
    assert np.max(np.abs(grid - oracle)) < 1e-10


def test_duality_identity(gibbs_lab, monkeypatch):
    lab = gibbs_lab
    worst = 0.0
    us = np.stack([u.values for u in random_smooth_functions(lab.n_points, 100, seed=21)])
    for i in range(20):
        x = sample_base(lab.spec.base, 22, i)
        worst = max(worst, lab.duality_residual(x, us[: 100 if i == 0 else 5]))
    assert worst <= 1e-6
    # nu_x and lambda_x come from x's window, nu_{shift x} from its own
    built = []
    init = ConformalWindow.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ConformalWindow, "__init__", counting)
    lab.duality_residual(x, us[:5])
    assert len(built) == 2
    # a stack of rows gives the largest of its rows' residuals: with lambda off by
    # 1%, each row's residual is 1% of lambda_x |nu_x(u)|
    lam_at = ConformalWindow.lam_at
    monkeypatch.setattr(ConformalWindow, "lam_at", lambda self, j: 1.01 * lam_at(self, j))
    rows = [lab.duality_residual(x, u) for u in us[:5]]
    assert max(rows) > 1.5 * min(rows) > 0.0
    assert lab.duality_residual(x, us[:5]) == pytest.approx(max(rows), rel=1e-9)


def test_chain_identity_base_cases(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 14, 0)
    u = random_smooth_functions(lab.n_points, 1, seed=15)[0]
    assert perturbed_chain_identity_check(lab, x, u, (0.7,), method="oracle") < 1e-12
    assert perturbed_chain_identity_check(lab, x, u, (0.0, 0.0, 0.0), method="oracle") < 1e-12


def test_chain_identity_random_draws(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 14, 1)
    u = random_smooth_functions(lab.n_points, 1, seed=16)[0]
    disc = perturbed_chain_identity_check(lab, x, u, (0.3, -0.2, 0.1, 0.25), method="oracle")
    assert disc <= 1e-8
    grid_disc = perturbed_chain_identity_check(lab, x, u, (0.3, -0.2, 0.1, 0.25), method="grid")
    assert grid_disc <= chain_error_budget(lab.n_points, 4, lab.interp)


def test_projection_q_examples(gibbs_lab):
    lab = gibbs_lab
    x = sample_base(lab.spec.base, 17, 0)
    nu = lab.ensure_chain(x, 0, 0).nu_snap[0][0]
    rho3 = lab.rho(x.shift_by(3))
    one = GridFunction(np.ones(lab.n_points))
    q_one = projection_Q(one, nu, rho3)
    assert np.allclose(q_one.values, rho3.values, atol=1e-12)
    u0 = GridFunction(np.cos(TWO_PI * np.arange(lab.n_points) / lab.n_points))
    centered = GridFunction(u0.values - nu @ u0.values)
    assert np.max(np.abs(projection_Q(centered, nu, rho3).values)) < 1e-12
    # u = rho: mu_x is a probability measure, so Q^n rho = rho at the target
    q_rho = projection_Q(lab.rho(x), nu, rho3)
    assert np.max(np.abs(q_rho.values - rho3.values)) < 1e-6


def test_gap_inequality_fit(gibbs_lab):
    lab = gibbs_lab
    from rdslab.thermo import gap_estimate, random_lipschitz_functions

    xs = [sample_base(lab.spec.base, 42, i) for i in range(5)]
    us = random_lipschitz_functions(lab.n_points, 4, seed=7)
    fit = gap_estimate(lab, xs, us, range(1, 21))
    assert fit.measurable and fit.kappa < 1.0 and fit.r_squared >= 0.98


def single_step_envelopes(lab, xs, r_grid, n_max, seed):
    """Sup and alpha envelopes of operator_norm_bounds_check, one transfer_apply at a time."""
    hp = lab.spec.holder
    nodes = lab.table.nodes()
    gen = rng.generator(seed, 0x0B0D)
    sup_env, alpha_env = np.zeros(n_max), np.zeros(n_max)
    for x in xs:
        fs = [np.ones_like(nodes)]
        for _ in range(2):
            a = gen.normal(size=3) * [0.5, 0.3, 0.2]
            b = gen.normal(size=3) * [0.5, 0.3, 0.2]
            vals = np.ones_like(nodes)
            for k in range(3):
                arg = TWO_PI * (k + 1) * nodes
                vals = vals + a[k] * np.cos(arg) + b[k] * np.sin(arg)
            fs.append(vals)
        chain = lab.lambda_chain(x, n_max)
        for r in r_grid:
            for f in fs:
                cur = GridFunction(f.astype(complex))
                for n in range(1, n_max + 1):
                    cur = transfer_apply(lab.table, x.shift_by(n - 1), cur, lam=chain[n - 1],
                                         r=r, observable=lab.observable)
                    sup_env[n - 1] = max(sup_env[n - 1], cur.sup_norm() / np.max(np.abs(f)))
                    alpha_env[n - 1] = max(alpha_env[n - 1], alpha_norm(cur, hp.alpha, hp.eta)
                                           / alpha_norm(f, hp.alpha, hp.eta))
    return sup_env.tolist(), alpha_env.tolist()


def test_operator_norm_bounds(gibbs_lab):
    lab = gibbs_lab
    xs = [sample_base(lab.spec.base, 23, i) for i in range(3)]
    rep = rl.operator_norm_bounds_check(lab, xs, (0.0, 0.5, 1.0), 10, seed=3)
    assert rep["bounded"]
    assert rep["sup_envelope"][-1] <= rep["c_fitted"] + 1e-12
    # sup ratios bounded by the measured envelope of L_0^n 1
    assert max(rep["sup_envelope"]) <= rep["c_inf_on_one"] * (1 + 1e-10)
    # off r = 0 every batched transport step is the single perturbed step, bit for bit
    rep = rl.operator_norm_bounds_check(lab, xs, (0.5, -1.0), 10, seed=3)
    ref = single_step_envelopes(lab, xs, (0.5, -1.0), 10, seed=3)
    assert (rep["sup_envelope"], rep["alpha_envelope"]) == ref


def test_operator_norm_alpha_bound_at_half(gibbs_lab):
    # alpha-norm ratio at r = 0.5 within C (1 + |r| Q) at C = 1, the floor of the
    # envelope of L_0^n 1; with no r = 0 in the grid that envelope is not measured
    lab = gibbs_lab
    xs = [sample_base(lab.spec.base, 23, i) for i in range(3)]
    rep = rl.operator_norm_bounds_check(lab, xs, (0.5,), 10, seed=3)
    assert np.isnan(rep["c_inf_on_one"])
    bound = 1 + 0.5 * lab.spec.holder.Q_tilde
    assert max(rep["alpha_envelope"]) <= bound + 1e-9


def test_operator_norm_constant_potential():
    spec = rl.gibbs_system(branch_count=(2, 2), potential_amp=(0.0, 0.0))
    lab = rl.Lab(spec, n_points=256, pullback_depth=16)
    x = sample_base(spec.base, 1, 0)
    chain = lab.lambda_chain(x, 6)
    out = transfer_iterate(lab.table, x, GridFunction(np.ones(256)), 6, lambda_chain=chain)
    assert np.max(np.abs(out.values - 1.0)) < 1e-10  # L0 1 = 1 when rho = 1


def test_grid_vs_oracle_convergence_order(gibbs_lab):
    spec = gibbs_lab.spec
    x = sample_base(spec.base, 42, 1)
    f = lambda z: 1 + 0.4 * np.cos(TWO_PI * z) + 0.2 * np.sin(2 * TWO_PI * z)
    errs = []
    for n in (128, 256, 512):
        table = rl.OperatorTable(spec, n, "cubic")
        u = GridFunction.from_callable(f, n)
        grid = transfer_iterate(table, x, u, 3).values
        oracle = oracle_transfer(spec, x, u, 3, table.nodes())
        errs.append(np.max(np.abs(grid - oracle)))
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 3.8


def test_grid_vs_oracle_linear_interp_order(gibbs_lab):
    spec = gibbs_lab.spec
    x = sample_base(spec.base, 42, 1)
    f = lambda z: 1 + 0.4 * np.cos(TWO_PI * z)
    errs = []
    for n in (128, 256, 512):
        table = rl.OperatorTable(spec, n, "linear")
        u = GridFunction.from_callable(f, n, interp="linear")
        grid = transfer_iterate(table, x, u, 3).values
        oracle = oracle_transfer(spec, x, u, 3, table.nodes())
        errs.append(np.max(np.abs(grid - oracle)))
    order = np.log2(errs[0] / errs[2]) / 2
    assert order >= 1.9


@pytest.fixture(scope="module")
def small_tables():
    """Gibbs and nonlinear-branch systems, both interpolations, on a 64-point grid."""
    return [rl.OperatorTable(spec, 64, interp) for spec in (rl.gibbs_system(), rl.make_system())
            for interp in ("linear", "cubic")]


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), complex_rows=st.booleans())
def test_batch_apply_and_adjoint_are_transposes(small_tables, seed, rows, complex_rows):
    # <L u, w> = <u, L^T w> for every symbol operator, relative to the sum of the
    # absolute terms (the scale of the rounding error); a single call is a batch row
    gen = np.random.default_rng(seed)
    for table in small_tables:
        for op in table.ops.values():
            us, ws = gen.uniform(-1.0, 1.0, (2, rows, table.n_points))
            if complex_rows:
                us = us + 1j * gen.uniform(-1.0, 1.0, us.shape)
            lus, lws = op.apply_batch(us), op.adjoint_batch(ws)
            lhs = np.sum(lus * ws)
            rhs = np.sum(us * lws)
            scale = np.sum((np.abs(us) @ abs(op.matrix).T) * np.abs(ws))
            assert abs(lhs - rhs) <= 1e-12 * scale
            for i in range(rows):
                assert np.array_equal(op.apply(us[i]), lus[i])
                assert np.array_equal(op.adjoint(ws[i]), lws[i])


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), complex_rows=st.booleans())
def test_perturbed_batch_is_the_branch_sum_and_leaves_rows_alone(small_tables, seed, rows,
                                                                 complex_rows):
    # the branch products are scaled and summed in place: same bits as the plain
    # branch-order sum and as single calls, and the caller's rows stay untouched
    gen = np.random.default_rng(seed)
    for table in small_tables:
        for e, op in table.ops.items():
            us = gen.uniform(-1.0, 1.0, (rows, table.n_points))
            if complex_rows:
                us = us + 1j * gen.uniform(-1.0, 1.0, us.shape)
            before = us.copy()
            obs = rl.default_observable(table.spec)
            weights = op.perturbed_weights(0.7, obs)
            ref = sum(weights[b][None, :] * (us @ s_t)
                      for b, s_t in enumerate(op.branch_interp_t))
            out = op.apply_perturbed_batch(us, 0.7, obs)
            assert np.array_equal(out, ref)
            assert np.array_equal(us, before)
            for i in range(rows):
                assert np.array_equal(op.apply_perturbed(us[i], 0.7, obs), out[i])


def source_major_structures(op, n, interp):
    """The transposes an operator used to hold: a CSR copy of matrix.T and, per
    branch, the unweighted stencils built source-major straight from the stencil."""
    idx, wts = interp_stencil(op.branch_points.ravel(), n, interp)
    targets = np.broadcast_to(np.arange(n), (idx.shape[0], n))
    stencils_t = [sp.csr_matrix((wts[:, b * n:(b + 1) * n].ravel(),
                                 (idx[:, b * n:(b + 1) * n].ravel(), targets.ravel())),
                                shape=(n, n))
                  for b in range(op.branch_points.shape[0])]
    return sp.csr_matrix(op.matrix.T), stencils_t


def batch_cases(table, e, us, structures):
    """(method, args, want) per batch method, with `want` the row products by the
    given (matrix_t, per-branch stencils_t) multiplied through their CSC views."""
    op = table.ops[e]
    matrix_t, stencils_t = structures
    obs = rl.default_observable(table.spec)
    perturbed = None
    for w, st_t in zip(op.perturbed_weights(0.7, obs), stencils_t):
        p = w * (st_t.T @ us.T).T
        perturbed = p if perturbed is None else perturbed + p
    return [(op.adjoint_batch, (us,), (op.matrix.T @ us.T).T),
            (op.apply_batch, (us,), (matrix_t.T @ us.T).T),
            (op.apply_perturbed_batch, (us, 0.7, obs), perturbed)]


def random_rows(gen, rows, n, complex_rows):
    us = gen.uniform(-1.0, 1.0, (rows, n))
    if complex_rows:
        us = us + 1j * gen.uniform(-1.0, 1.0, us.shape)
    return us


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), complex_rows=st.booleans())
def test_batch_products_are_scipy_row_products(small_tables, seed, rows, complex_rows):
    # every batch method keeps the bits of the row products by the source-major
    # structures multiplied through their CSC views, and matrix_t is a view of
    # matrix's arrays, not a copy
    gen = np.random.default_rng(seed)
    for table in small_tables:
        n = table.n_points
        for e, op in table.ops.items():
            assert op.matrix_t.shape == op.matrix.shape[::-1]
            for name in ("data", "indices", "indptr"):
                assert np.shares_memory(getattr(op.matrix_t, name), getattr(op.matrix, name))
            us = random_rows(gen, rows, n, complex_rows)
            structures = source_major_structures(op, n, table.interp)
            for method, args, want in batch_cases(table, e, us, structures):
                got = method(*args)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got, want)


@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), tile=st.integers(1, 7),
       complex_rows=st.booleans())
def test_row_tiles_give_the_untiled_bits(small_tables, seed, rows, tile, complex_rows):
    # with TILE_BYTES set to `tile` output rows, a larger batch is multiplied tile by
    # tile (a C-ordered result shows it), and every row keeps the bits of the
    # untiled expression, whatever the last partial tile holds
    gen = np.random.default_rng(seed)
    for table in small_tables:
        n = table.n_points
        for e, op in table.ops.items():
            us = random_rows(gen, rows, n, complex_rows)
            structures = source_major_structures(op, n, table.interp)
            for method, args, want in batch_cases(table, e, us, structures):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(transfer, "TILE_BYTES", tile * n * want.itemsize)
                    got = method(*args)
                assert got.shape == want.shape and got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert got.flags.c_contiguous or rows <= tile


def test_row_tiles_leave_ensemble_windows_bit_identical(small_stats_lab, monkeypatch):
    # groups of up to 90 rows in tiles of 3 real or 1 complex row, against whole batches
    lab = small_stats_lab

    def build():
        ens = rl.OrbitEnsemble(lab, 90, 5, 2, fwd=3, depth=8, nu_levels=(0, 3))
        chain = ens.chain_perturbed(ens.nu_snap[0] * (1.0 + 0.5j), 0, (0.6, 0.0, -1.1))
        return ens._lam, ens.nu_snap, ens.rho_snap, ens.sample_z(), chain

    whole = build()
    monkeypatch.setattr(transfer, "TILE_BYTES", 3 * lab.n_points * 8)
    tiled = build()
    for a, b in zip(whole, tiled):
        if isinstance(a, dict):
            assert sorted(a) == sorted(b)
            a, b = [a[k] for k in sorted(a)], [b[k] for k in sorted(b)]
        assert np.array_equal(a, b)
    assert tiled[-1].dtype == complex


@given(n=st.integers(4, 4096), kind=st.sampled_from(["linear", "cubic"]),
       points=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=40))
def test_stencil_weights_sum_to_one(n, kind, points):
    _, wts = interp_stencil(points, n, kind)
    assert np.abs(wts.sum(axis=0) - 1.0).max() <= 1e-14


@given(log2_n=st.integers(2, 12), kind=st.sampled_from(["linear", "cubic"]),
       seed=st.integers(0, 2**32 - 1))
def test_stencil_returns_node_values_exactly(log2_n, kind, seed):
    # on a dyadic grid every node k / n is an exact float, so t = 0 at each node
    n = 2**log2_n
    values = np.random.default_rng(seed).normal(size=n)
    idx, wts = interp_stencil(np.arange(n) / n, n, kind)
    assert np.array_equal((values[idx] * wts).sum(axis=0), values)
    assert np.array_equal(GridFunction(values, interp=kind)(np.arange(n) / n), values)


def composed_steps(table, x, u, n, lambda_chain=None, r_sequence=None, observable=None):
    """transfer_iterate as n operator steps along the orbit, one symbol read per step,
    with its argument checks."""
    if (lambda_chain is not None or r_sequence is not None) and \
            (lambda_chain is None or len(lambda_chain) < n):
        raise TransferError("lambda_chain of length n required")
    if r_sequence is not None:
        if len(r_sequence) != n:
            raise TransferError("r_sequence must have length n")
        if observable is None:
            raise TransferError("r_sequence requires the observable")
    if n <= 0:
        return u
    if u.fiber is not None and u.fiber != x:
        raise TransferError("grid function lives on a different fiber")
    vals, y = u.values, x
    for j in range(n):
        op = table.op(y.symbol(0))
        if r_sequence is not None:
            vals = op.apply_perturbed(vals, r_sequence[j], observable) / lambda_chain[j]
        elif lambda_chain is not None:
            vals = op.apply(vals) / lambda_chain[j]
        else:
            vals = op.apply(vals)
        y = y.shift_by(1)
    return GridFunction(vals, interp=u.interp, fiber=y if u.fiber is not None else None)


def outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except TransferError as e:
        return str(e)


@given(seed=st.integers(0, 2**32 - 1), table_i=st.integers(0, 3),
       kind=st.sampled_from(["raw", "normalized", "perturbed"]), complex_u=st.booleans(),
       n=st.integers(0, 6), pins=st.dictionaries(st.integers(-2, 8), st.integers(0, 1), max_size=4),
       on_fiber=st.booleans(),
       fault=st.sampled_from([None, "wrong fiber", "short chain", "r without chain",
                              "r without observable"]))
def test_iterate_is_the_composed_steps(small_tables, seed, table_i, kind, complex_u, n, pins,
                                       on_fiber, fault):
    table = small_tables[table_i]
    gen = np.random.default_rng(seed)
    x = sample_base(table.spec.base, seed, 0).with_overrides(pins)
    vals = gen.uniform(-1.0, 1.0, table.n_points)
    if complex_u:
        vals = vals + 1j * gen.uniform(-1.0, 1.0, table.n_points)
    fiber = x if on_fiber else None
    chain = gen.uniform(0.5, 3.0, n + 1)
    rs = tuple(gen.uniform(-1.0, 1.0, n))
    kw = dict(lambda_chain=None if kind == "raw" else chain,
              r_sequence=rs if kind == "perturbed" else None,
              observable=rl.default_observable(table.spec))
    if fault == "wrong fiber":
        fiber = x.shift_by(1)
    elif fault == "short chain":
        kw["lambda_chain"] = chain[:max(n - 1, 0)]
    elif fault == "r without chain":
        kw.update(lambda_chain=None, r_sequence=rs)
    elif fault == "r without observable":
        kw.update(lambda_chain=chain, r_sequence=rs, observable=None)
    u = GridFunction(vals, interp=table.interp, fiber=fiber)
    got = outcome(transfer_iterate, table, x, u, n, **kw)
    want = outcome(composed_steps, table, x, u, n, **kw)
    if fault in ("r without chain", "r without observable"):
        assert isinstance(want, str)
    if isinstance(want, str):
        assert got == want
        if fault != "wrong fiber":  # the oracle reads its arguments the same way
            assert outcome(oracle_transfer, table.spec, x, u, n, 0.3, **kw) == want
        return
    assert isinstance(got, GridFunction)
    assert got.values.dtype == want.values.dtype
    assert np.array_equal(got.values, want.values)
    assert (got.interp, got.fiber) == (want.interp, want.fiber)


def test_iterate_and_sweep_read_their_symbols_once(small_tables, monkeypatch):
    table = small_tables[3]
    obs = rl.default_observable(table.spec)
    x = sample_base(table.spec.base, 5, 0).with_overrides({1: 1, 4: 0})
    calls = []
    symbols = BasePoint.symbols

    def spy(self, lo, hi):
        calls.append((lo, hi))
        return symbols(self, lo, hi)

    monkeypatch.setattr(BasePoint, "symbols", spy)
    u = GridFunction(np.ones(table.n_points), interp=table.interp, fiber=x)
    for n in range(1, 7):
        for kw in (dict(), dict(lambda_chain=np.ones(n), r_sequence=(0.3,) * n, observable=obs)):
            calls.clear()
            transfer_iterate(table, x, u, n, **kw)
            assert len(calls) == 1
        calls.clear()
        birkhoff_sum(table.spec, obs, x, 0.3, n)
        assert len(calls) == 1
    for start, stop in ((1, 0), (6, 0), (9, -4)):
        calls.clear()
        pullback_sweep(table, x, start, stop)
        assert len(calls) == 1


def fresh_weights(e, op, r, obs):
    return op.phi_weights * np.exp(1j * r * obs.values_for_symbol(e, op.branch_points))


def test_memoized_phase_is_shared_and_read_only():
    spec = rl.make_system()
    table = rl.OperatorTable(spec, 64)
    obs, other = rl.default_observable(spec), rl.default_observable(spec)
    for e, op in table.ops.items():
        weights = op.perturbed_weights(0.7, obs)
        assert op.perturbed_weights(0.7, obs) is weights
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0, 0] = 0.0
        assert weights.tobytes() == fresh_weights(e, op, 0.7, obs).tobytes()
        for r, g in ((0.7, other), (0.7000000000000001, obs), (-0.7, obs)):
            assert op.perturbed_weights(r, g) is not weights
        # r is kept to the bit, so -0.0 and 0.0 are held apart; the complex product
        # with e^phi turns the phase's -0.0 imaginary zeros into 0.0, so both
        # hold the bytes of their own fresh product, which agree
        pos, neg = op.perturbed_weights(0.0, obs), op.perturbed_weights(-0.0, obs)
        assert neg is not pos
        assert neg.tobytes() == fresh_weights(e, op, -0.0, obs).tobytes()
        assert pos.tobytes() == fresh_weights(e, op, 0.0, obs).tobytes()
