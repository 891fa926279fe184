"""Fiberwise transfer operators on circle grids and an exact preimage-tree oracle.

The discretized operator for one base symbol is a sparse N x N matrix built
from the inverse branches of the target nodes, the potential weights at the
branch points, and the periodic interpolation stencil.  A SymbolOperator
holds that one weighted matrix, read row-wise by `apply*` and through one
held transposed view by `adjoint*`, plus the unweighted stencils of each
branch for the perturbed operator L_r u = L(e^{i r g} u), called with r and
g: the operator computes each phase exp(i r g) at its branch points once
and holds it.  A large batch is multiplied in row tiles of about TILE_BYTES
of output, each written into a C-ordered result while it is still in cache;
a batch of one tile is multiplied whole.  Every row gets the same bits
either way, but the memory layout of a batch result differs between the
two, so callers must not rely on it.  Orbit iterates are step-wise
compositions (cost n * N * deg); the depth-n preimage tree (cost N * deg^n)
is kept only as the ground-truth oracle.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .base import BasePoint
from .fiber import (
    GridFunction,
    SystemSpec,
    apply_map_symbol,
    alpha_norm,
    interp_order,
    interp_stencil,
    inverse_branches_symbol,
    potential_values,
)


# Output bytes per row tile of a batch product.  scipy multiplies a batch via
# a transposed copy of its rows and returns a transposed view; per tile, both
# stay in a 2 MiB L2.  `ensemble` `wall_s`, 3 alternating runs each, reference
# s: whole batches 1.41-1.65, 256 KiB 1.06-1.16, 512 KiB 1.07-1.10 (kept),
# 1 MiB 1.21-1.25.
TILE_BYTES = 512 * 1024


class TransferError(RuntimeError):
    pass


class SymbolOperator:
    """Discretized transfer operator for one base symbol.

    `matrix` (CSR) is the operator: row i holds the e^phi-weighted stencils
    of the branch points of node i.  `apply*` multiply by it with scipy's CSR
    kernel, and `adjoint*` by `matrix_t`, its transpose: a CSC view of the
    same arrays, built once here.  `branch_interp[b]` (CSR, target-major)
    holds the unweighted stencils of branch b, which `apply_perturbed*`
    weights by e^phi times `phase(r, observable)`.  A batch method returns
    `(A @ rows.T).T` for its structure A.  A single-vector call is row 0 of
    its batch method on a one-row batch, so both give the same bits.  The
    benchmark tracer's hooks read `matrix`, `matrix_t` and `branch_interp_t`.

    A batch of more than one tile (`_tiled`) is multiplied tile by tile into
    a C-ordered (rows x N) result; a batch of one tile returns scipy's
    transposed view as it is.  Each row meets the same kernel on the same
    values in both cases, so it has the same bits, but the result's memory
    layout depends on the batch size: callers must not rely on it.

    `phase` alone computes exp(i r g), and holds each phase read-only per
    (observable, r to the bit): the held phases grow with the number of
    distinct (observable, r) that the operator's `Lab` is asked for.
    """

    def __init__(self, spec: SystemSpec, e: int, n_points: int, interp: str,
                 newton_tol: float = 1e-13):
        n = n_points
        nodes = np.arange(n) / n
        zb = inverse_branches_symbol(spec, e, nodes, newton_tol=newton_tol)
        self.symbol = int(e)
        self.branch_points = zb
        self.phi_weights = np.exp(potential_values(spec, e, zb))  # (d, n)
        d = zb.shape[0]
        idx, wts = interp_stencil(zb.ravel(), n, interp)  # (k, d*n)
        k = idx.shape[0]
        targets = np.broadcast_to(np.arange(n), (k, n))  # the node each stencil entry serves
        data = (wts * self.phi_weights.ravel()[None, :]).ravel()
        self.matrix = sp.csr_matrix((data, (np.tile(targets, d).ravel(), idx.ravel())),
                                    shape=(n, n))
        self.matrix_t = self.matrix.T
        self.branch_interp = [
            sp.csr_matrix((wts[:, b * n:(b + 1) * n].ravel(),
                           (targets.ravel(), idx[:, b * n:(b + 1) * n].ravel())), shape=(n, n))
            for b in range(d)]
        self._phases = {}

    @property
    def branch_interp_t(self) -> list:
        """Views b.T of `branch_interp`, whose nnz and bytes `perfbench/tracer.py`
        counts; kept for it until ROADMAP item 1 removes it."""
        return [b.T for b in self.branch_interp]

    def apply(self, u: np.ndarray) -> np.ndarray:
        """L u at the target nodes."""
        return self.apply_batch(u[None, :])[0]

    def apply_perturbed(self, u: np.ndarray, r: float, observable) -> np.ndarray:
        """L(e^{i r g} u) for the observable g."""
        return self.apply_perturbed_batch(u[None, :], r, observable)[0]

    def phase(self, r: float, observable) -> np.ndarray:
        """exp(i r g) at `branch_points`, shape (d, n); the same read-only array on every repeat."""
        key = (observable, float(r).hex())
        phase = self._phases.get(key)
        if phase is None:
            phase = self._phases[key] = np.exp(
                1j * r * observable.values_for_symbol(self.symbol, self.branch_points))
            phase.flags.writeable = False
        return phase

    def adjoint(self, omega: np.ndarray) -> np.ndarray:
        """L^T acting on quadrature weights (the measure pullback step)."""
        return self.adjoint_batch(omega[None, :])[0]

    def adjoint_batch(self, omegas: np.ndarray) -> np.ndarray:
        """Rows of omega @ matrix."""
        a_t = self.matrix_t
        return _tiled(omegas, np.result_type(a_t.dtype, omegas), lambda rows: (a_t @ rows.T).T)

    def apply_batch(self, us: np.ndarray) -> np.ndarray:
        """Rows of matrix @ u."""
        a = self.matrix
        return _tiled(us, np.result_type(a.dtype, us), lambda rows: (a @ rows.T).T)

    def apply_perturbed_batch(self, us: np.ndarray, r: float, observable) -> np.ndarray:
        """Rows of L(e^{i r g} u)."""
        weights = self.phi_weights * self.phase(r, observable)

        def product(rows):
            out = None  # weighted branch products, summed in branch order in place
            for w, b in zip(weights, self.branch_interp):
                p = (b @ rows.T).T
                p = np.multiply(w, p, out=p if p.dtype == np.result_type(w, p) else None)
                out = p if out is None else np.add(out, p, out=out)
                del p  # released before the next product is formed
            return out
        return _tiled(us, np.result_type(weights, us), product)


def _tiled(rows: np.ndarray, dtype, product) -> np.ndarray:
    """product(rows), a (rows x N) batch of `dtype`, computed per row tile of TILE_BYTES.

    A batch of one tile returns product(rows) itself; a larger one is
    written tile by tile into one C-ordered result.
    """
    tile = max(1, TILE_BYTES // (rows.shape[1] * np.dtype(dtype).itemsize))
    if rows.shape[0] <= tile:
        return product(rows)
    out = np.empty(rows.shape, dtype)
    for i in range(0, rows.shape[0], tile):
        out[i:i + tile] = product(rows[i:i + tile])
    return out


class OperatorTable:
    """Per-symbol operator cache for a fixed (spec, grid, interpolation)."""

    def __init__(self, spec: SystemSpec, n_points: int = 1024, interp: str = "cubic",
                 newton_tol: float = 1e-13):
        self.spec = spec
        self.n_points = int(n_points)
        self.interp = interp
        self.ops = {e: SymbolOperator(spec, e, self.n_points, interp, newton_tol=newton_tol)
                    for e in spec.alphabet}

    def op(self, e: int) -> SymbolOperator:
        return self.ops[int(e)]

    def nodes(self) -> np.ndarray:
        return np.arange(self.n_points) / self.n_points


def _step(table: OperatorTable, e: int, vals: np.ndarray, kind, lam, r, observable) -> np.ndarray:
    """Values of one transfer step of `kind` by the operator of symbol e."""
    op = table.op(e)
    if kind == "raw":
        return op.apply(vals)
    if kind == "normalized":
        return op.apply(vals) / lam
    if kind == "perturbed":
        return op.apply_perturbed(vals, r, observable) / lam
    raise TransferError(f"unknown kind {kind!r}")


def transfer_apply(table: OperatorTable, x: BasePoint, u: GridFunction, kind="raw",
                   lam=None, r=0.0, observable=None) -> GridFunction:
    """One transfer step from the fiber over x to the fiber over shift(x, 1)."""
    if u.fiber is not None and u.fiber != x:
        raise TransferError("grid function lives on a different fiber")
    vals = _step(table, x.symbol(0), u.values, kind, lam, r, observable)
    return GridFunction(vals, interp=u.interp, fiber=x.shift_by(1) if u.fiber is not None else None)


def transfer_iterate(table: OperatorTable, x: BasePoint, u: GridFunction, n: int, kind="raw",
                     lambda_chain=None, r_sequence=None, observable=None) -> GridFunction:
    """n-fold orbit composition; normalized/perturbed divide by the lambda chain.

    Bit-equal to n composed `transfer_apply` steps along the orbit of x, with
    the same errors: the n symbols are read with one `x.symbols` call, the
    fiber is checked once, the steps share `transfer_apply`'s `_step`, and
    one GridFunction is built at the end (n <= 0 returns u itself).
    """
    if kind in ("normalized", "perturbed"):
        if lambda_chain is None or len(lambda_chain) < n:
            raise TransferError("lambda_chain of length n required")
    if kind == "perturbed":
        if r_sequence is None or len(r_sequence) != n:
            raise TransferError("r_sequence must have length n")
        if observable is None:
            raise TransferError("perturbed kind requires the observable")
    syms = x.symbols(0, int(n)).tolist()
    if not syms:
        return u
    if u.fiber is not None and u.fiber != x:
        raise TransferError("grid function lives on a different fiber")
    vals = u.values
    for j, e in enumerate(syms):
        vals = _step(table, e, vals, kind,
                     None if kind == "raw" else lambda_chain[j],
                     0.0 if r_sequence is None else r_sequence[j], observable)
    return GridFunction(vals, interp=u.interp,
                        fiber=x.shift_by(len(syms)) if u.fiber is not None else None)


def oracle_transfer(spec: SystemSpec, x: BasePoint, u, n: int, w, kind="raw",
                    lambda_chain=None, r_sequence=None, observable=None,
                    branch_budget: int = 10**6, newton_tol: float = 1e-13):
    """Exact (L^n u)(w) by full preimage-tree enumeration, no grids.

    u must be evaluable at arbitrary points (a callable or a GridFunction,
    whose interpolation then defines the function being transported).  The
    enumeration carries Birkhoff sums of the potential, and of r_j g along
    the forward path for the perturbed kind.
    """
    pts = np.atleast_1d(np.asarray(w, dtype=np.float64))
    m0 = len(pts)
    s_phi = np.zeros(m0)
    s_g = np.zeros(m0)
    total_branches = m0
    for j in range(int(n) - 1, -1, -1):
        e = x.symbol(j)
        total_branches *= spec.branch_count[e]
        if total_branches > branch_budget:
            raise TransferError(f"preimage tree exceeds budget at depth {n - j} ({total_branches} branches)")
        z = inverse_branches_symbol(spec, e, pts, newton_tol=newton_tol)
        s_phi = (s_phi[None, :] + potential_values(spec, e, z)).ravel()
        if kind == "perturbed":
            s_g = (s_g[None, :] + r_sequence[j] * observable.values_for_symbol(e, z)).ravel()
        pts = z.ravel()
    uv = u(pts)
    weights = np.exp(s_phi)
    leaves = uv * weights
    if kind == "perturbed":
        leaves = leaves * np.exp(1j * s_g)
    per_w = leaves.reshape(-1, m0).sum(axis=0)
    if kind in ("normalized", "perturbed"):
        per_w = per_w / np.prod(np.asarray(lambda_chain[:n], dtype=np.float64))
    return per_w[0] if np.ndim(w) == 0 else per_w


def projection_Q(u: GridFunction, nu, rho_target: GridFunction) -> GridFunction:
    """Rank-one projection Q^n u = (integral of u d nu) * rho at the target fiber."""
    w = np.asarray(getattr(nu, "weights", nu), dtype=np.float64)
    mass = w @ u.values
    return GridFunction(mass * rho_target.values, interp=u.interp, fiber=rho_target.fiber)


def forward_phase_sum(spec: SystemSpec, symbols, z: np.ndarray, r_sequence, observable) -> np.ndarray:
    """sum_j r_j g(T^j z) in closed form (no grids), step j by the map of symbols[j]:
    one symbol, or an array of symbols with one entry per entry of z."""
    z = np.asarray(z, dtype=np.float64)
    total = np.zeros_like(z)
    for e, r in zip(symbols, r_sequence):
        total = total + r * observable.values_for_symbol(e, z)
        z = apply_map_symbol(spec, e, z)
    return total


def chain_error_budget(n_points: int, depth: int, interp: str) -> float:
    """Grid-route discrepancy budget for the perturbed-chain identity.

    Calibrated safety envelope: both grid routes differ by accumulated
    interpolation error of oscillatory integrands, growing with depth and
    shrinking at the interpolation order.  The constant absorbs the phase
    derivatives at the default frequency scale.
    """
    return 200.0 * depth * (64.0 / n_points) ** interp_order(interp)


def perturbed_chain_identity_check(lab, x: BasePoint, u, r_sequence, observable=None,
                                   method: str = "oracle", n_probes: int = 16) -> float:
    """Max discrepancy between the composed perturbed chain and its closed form.

    Both sides of

        L_{r_{n-1}} o ... o L_{r_0} (u)  =  L_0^n( e^{i sum r_j g o T^j} u )

    share one lambda chain, so the identity is exact modulo discretization.
    method="oracle" evaluates both sides by preimage-tree enumeration at
    probe points (discrepancy is pure floating-point rearrangement);
    method="grid" compares the two step-wise grid routes, whose discrepancy
    is bounded by chain_error_budget.
    """
    spec = lab.spec
    obs = observable if observable is not None else lab.observable
    n = len(r_sequence)
    chain = lab.lambda_chain(x, n)
    syms = x.symbols(0, n)
    if method == "oracle":
        # golden-ratio probe points: deterministic and equidistributed
        probes = np.sort((np.arange(1, n_probes + 1) * 0.6180339887498949) % 1.0)
        if not callable(u):
            raise TransferError("oracle method needs an evaluable function")
        f = u
        lhs = oracle_transfer(spec, x, f, n, probes, kind="perturbed",
                              lambda_chain=chain, r_sequence=r_sequence, observable=obs)

        def modulated(z):
            return np.exp(1j * forward_phase_sum(spec, syms, z, r_sequence, obs)) * f(z)

        rhs = oracle_transfer(spec, x, modulated, n, probes, kind="normalized", lambda_chain=chain)
        return float(np.max(np.abs(lhs - rhs)))
    if method == "grid":
        if not isinstance(u, GridFunction):
            raise TransferError("grid method needs a GridFunction")
        lhs = transfer_iterate(lab.table, x, u, n, kind="perturbed",
                               lambda_chain=chain, r_sequence=r_sequence, observable=obs)
        nodes = lab.table.nodes()
        phase = forward_phase_sum(spec, syms, nodes, r_sequence, obs)
        v0 = GridFunction(np.exp(1j * phase) * u.values, interp=u.interp, fiber=u.fiber)
        rhs = transfer_iterate(lab.table, x, v0, n, kind="normalized", lambda_chain=chain)
        return float(np.max(np.abs(lhs.values - rhs.values)))
    raise TransferError(f"unknown method {method!r}")


def operator_norm_bounds_check(lab, x_samples, r_grid, n_max: int, seed: int = 0,
                               functions_per_sample: int = 2) -> dict:
    """Empirical uniform bounds for the perturbed iterates.

    For every sampled x, r in r_grid and n <= n_max, measures
    ||L_r^n f||_inf / ||f||_inf on f = 1 and ||L_r^n h||_alpha / ||h||_alpha
    on random smooth h, and fits the growth slope of the per-n envelopes.
    Contract: both envelopes stay bounded (log-slope <= 0.01).
    """
    from . import rng as _rng

    hp = lab.spec.holder
    nodes = lab.table.nodes()
    gen = _rng.generator(seed, 0x0B0D)
    xs = list(x_samples)
    per_x = 1 + functions_per_sample
    # rows x-major: per x the constant function, then its random smooth functions
    fs = []
    for _ in xs:
        fs.append(np.ones_like(nodes))
        for _ in range(functions_per_sample):
            a = gen.normal(size=3) * [0.5, 0.3, 0.2]
            b = gen.normal(size=3) * [0.5, 0.3, 0.2]
            vals = np.ones_like(nodes)
            for k in range(3):
                vals = vals + a[k] * np.cos(2 * np.pi * (k + 1) * nodes) + b[k] * np.sin(2 * np.pi * (k + 1) * nodes)
            fs.append(vals)
    fs = np.array(fs)
    # rows of one x share its symbol path, so the window sweeps each x once
    win = lab.window([x for x in xs for _ in range(per_x)], fwd=n_max - 1, nu_levels=())
    f_inf = np.max(np.abs(fs), axis=1)
    f_alpha = np.array([alpha_norm(f, hp.alpha, hp.eta) for f in fs])
    sup_env = np.zeros(n_max)
    alpha_env = np.zeros(n_max)
    c_inf = 0.0
    for r in r_grid:
        rows = fs.astype(complex)
        for n in range(1, n_max + 1):
            rows = win.transport(rows, n - 1, r, lab.observable)
            sup_n = np.max(np.abs(rows), axis=1)
            alpha_n = np.array([alpha_norm(row, hp.alpha, hp.eta) for row in rows])
            sup_env[n - 1] = max(sup_env[n - 1], np.max(sup_n / f_inf))
            alpha_env[n - 1] = max(alpha_env[n - 1], np.max(alpha_n / f_alpha))
            if r == 0:
                c_inf = max(c_inf, np.max(sup_n[::per_x]))
    ns = np.arange(1, n_max + 1, dtype=float)
    sup_slope = float(np.polyfit(ns, np.log(sup_env), 1)[0])
    alpha_slope = float(np.polyfit(ns, np.log(alpha_env), 1)[0])
    return {
        "sup_envelope": sup_env.tolist(),
        "alpha_envelope": alpha_env.tolist(),
        "c_fitted": float(max(sup_env.max(), 1.0)),
        "c_inf_on_one": float(max(c_inf, 1.0)) if 0 in r_grid else float("nan"),
        "sup_slope": sup_slope,
        "alpha_slope": alpha_slope,
        "bounded": bool(sup_slope <= 0.01 and alpha_slope <= 0.01),
        "n_max": int(n_max),
        "r_grid": [float(r) for r in r_grid],
        "q_tilde": hp.Q_tilde,
    }
