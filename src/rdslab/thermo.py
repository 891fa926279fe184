"""Random thermodynamic formalism on orbit windows.

Conformal weights nu_x arrive by pulling normalized Lebesgue weights back
through the adjoint of the discretized operator from a fiber deep in the
future; the normalizer of each pullback step is the eigenvalue lambda at
that fiber.  Invariant densities rho_x are pushforwards of the constant
function from `pullback_depth` steps behind.  A ConformalWindow computes
all three for a block of base points with one grouped sweep; a Lab bundles
the operator table with windows built per request, so a point's nu and
lambda are read from its `Lab.ensure_chain` window and a batch's from one
`Lab.window`.  The module-level operations implement the pullback
diagnostics, density construction, spectral-gap estimation, and
base-regularity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .base import BaseMeasureSpec, BasePoint, base_distance, pinned_pair
from .fiber import GridFunction, SystemSpec, alpha_norm, apply_map_symbol, default_observable
from .transfer import OperatorTable, transfer_apply


class ThermoError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class FiberMeasure:
    """Nonnegative grid weights approximating a fiber probability measure."""

    weights: np.ndarray
    fiber: BasePoint | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        scale = float(np.max(np.abs(w))) if len(w) else 0.0
        if np.min(w) < -1e-8 * max(scale, 1.0):
            raise ThermoError(f"measure weights have a large negative entry: {np.min(w):.3e}")
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if total <= 0:
            raise ThermoError("measure has no mass")
        object.__setattr__(self, "weights", w / total)

    @property
    def n_points(self) -> int:
        return len(self.weights)

    def integrate(self, u):
        vals = u.values if isinstance(u, GridFunction) else np.asarray(u)
        return complex(self.weights @ vals) if np.iscomplexobj(vals) else float(self.weights @ vals)

    def mass(self) -> float:
        return float(self.weights.sum())


def pullback_sweep(table: OperatorTable, x: BasePoint, start: int, stop: int):
    """Adjoint pullback along the orbit of x from level `start` down to `stop` < start.

    Starts from normalized Lebesgue weights at level `start` and returns
    (weights, lambda) at level `stop`.  The weights entering each level are
    normalized, so lambda is exactly the mass created by the last adjoint
    step: the discrete version of nu_{shift x}(L_x 1).  The symbols of the
    levels swept are read with one `x.symbols` call.
    """
    if stop >= start:
        raise ThermoError(f"no level to sweep from {start} down to {stop}")
    n = table.n_points
    omega = np.full(n, 1.0 / n)
    syms = x.symbols(stop, start).tolist()
    for j in range(start - 1, stop - 1, -1):
        w = table.op(syms[j - stop]).adjoint(omega)
        lam = float(w.sum())
        if not np.isfinite(lam) or lam <= 0:
            raise ThermoError(f"degenerate pullback normalizer at level {j}")
        omega = w / lam
    return omega, lam


def _mu_rows(nu: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Rows of rho * nu clipped at 0 and renormalized to probability weights."""
    w = np.clip(nu * rho, 0.0, None)
    return w / w.sum(axis=1)[:, None]


class ConformalWindow:
    """nu, lambda and rho along the orbits of a block of base points.

    Row t of `symbols` lists the symbols of base point x_t at levels lo,
    lo + 1, ...; level j is the fiber over shift^j(x_t).  A single downward
    adjoint sweep from level fwd + depth stops at min(nu_levels + [lam_lo, 0]),
    the lowest level anything reads; it records lambda at every level it
    passes (so lambda is held from lam_lo up with no nu level there) and the
    requested nu snapshots (each with pullback depth >= depth).  rho
    starts from the constant density at level -rho_depth (default: depth)
    and is pushed up to level 0, each level rescaled to unit row sums, then
    scaled in place so that nu_0(rho_0) = 1.  That is the lambda-normalized
    pushforward L^rho_depth 1 / prod lambda up to rounding, since the
    discrete sweep satisfies nu_{j+1}(L u) = lambda_j nu_j(u).  rho_snap
    holds level 0 only: callers walking up the levels carry their own rows
    with `transport`, the one normalized forward step.  Steps group rows by
    their current symbol, so the whole block advances with a handful of
    sparse matrix products per level, and no row depends on the others.

    Both sweeps start every row from one state, so rows whose symbols agree
    on all levels swept so far hold the same state: each distinct symbol
    path is pushed once (`_sweep`), and rows get their own copies only for
    the lambda column, a nu snapshot, nu_0 and rho_0.  Each row's values are
    those of a window of that row alone.
    """

    error = ThermoError

    def __init__(self, table: OperatorTable, symbols: np.ndarray, lo: int, fwd: int = 0,
                 depth: int = 24, nu_levels=(0,), rho_depth: int | None = None,
                 lam_lo: int = 0):
        self.table = table
        fwd, depth = int(fwd), int(depth)
        rho_depth = depth if rho_depth is None else int(rho_depth)
        self._symbols = symbols
        self._sym_lo = int(lo)
        nu_levels = sorted(set(int(j) for j in nu_levels))
        stop = min(nu_levels + [int(lam_lo), 0])
        top = fwd + depth
        if (nu_levels and nu_levels[-1] > fwd) or min(stop, -rho_depth) < lo \
                or symbols.shape[1] < top - lo:
            raise self.error("nu level above fwd, or a level outside the symbol block")
        n_rows, n = symbols.shape[0], table.n_points
        bufs = (np.empty((n_rows, n)), np.empty((n_rows, n)))  # both sweeps' states

        # downward adjoint sweep: lambda chain and conformal snapshots
        self.nu_snap = {}
        self._lam_lo = stop
        self._lam = np.zeros((n_rows, top - stop))
        for j, omega, inv in self._sweep(range(top - 1, stop - 1, -1), "adjoint_batch",
                                         np.full((1, n), 1.0 / n), bufs):
            sums = omega.sum(axis=1)
            if not np.all((sums > 0) & (sums < np.inf)):
                raise self.error(f"degenerate pullback normalizer at level {j}")
            self._lam[:, j - stop] = sums[inv]
            omega /= sums[:, None]
            if j in nu_levels:
                self.nu_snap[j] = omega[inv]
            if j == 0:
                nu0 = self.nu_snap[0] if 0 in nu_levels else omega[inv]

        # upward pushforward of the constant density, normalized at level 0
        rho, inv = np.ones((1, n)), np.zeros(n_rows, dtype=np.intp)
        for _, rho, inv in self._sweep(range(-rho_depth, 0), "apply_batch", rho, bufs):
            rho /= rho.sum(axis=1)[:, None]
        rho = rho[inv]
        rho /= np.einsum("ij,ij->i", nu0, rho)[:, None]
        self.rho_snap = {0: rho}

    def symbol(self, j) -> np.ndarray:
        return self._symbols[:, int(j) - self._sym_lo]

    def lam_at(self, j) -> np.ndarray:
        """Per-row eigenvalue at a level the sweep passed (pullback depth >= `depth` for j <= fwd)."""
        if j < self._lam_lo:
            raise self.error(f"no lambda below level {self._lam_lo} (asked for {j})")
        return self._lam[:, int(j) - self._lam_lo]

    def _grouped(self, syms: np.ndarray, step, rows: np.ndarray, out: np.ndarray,
                 parents=None) -> np.ndarray:
        """step(e, rows) on each group of rows whose symbol in `syms` is e, written to `out`.

        With `parents`, output row i is the step of rows[parents[i]].
        """
        for e in self.table.spec.alphabet:
            mask = syms == e
            if np.any(mask):
                out[mask] = step(e, rows[mask if parents is None else parents[mask]])
        return out

    def _sweep(self, levels, method: str, first: np.ndarray, bufs: tuple):
        """Push the one state `first` through `method` of each row's operator, level by level.

        Yields (j, states, inv) after the step at level j; the caller may
        rescale the states in place.  Rows whose symbols agree on every level
        swept so far share one state: row t holds states[inv[t]], each distinct
        path is pushed once, and the states are the first rows of one of the
        two `bufs`.  Each state meets the same kernel on the same values as in
        a sweep of its row alone.
        """
        q = len(self.table.spec.alphabet)

        def step(e, rows):
            return getattr(self.table.op(e), method)(rows)

        state, inv = first, np.zeros(len(self._symbols), dtype=np.intp)
        free, spare = bufs
        for j in levels:
            paths, inv = np.unique(inv * q + self.symbol(j), return_inverse=True)
            state = self._grouped(paths % q, step, state, out=free[:len(paths)],
                                  parents=paths // q)
            free, spare = spare, free
            yield j, state, inv

    def transport(self, rows: np.ndarray, j: int, r: float = 0.0, observable=None) -> np.ndarray:
        """Rows pushed from level j to j + 1 by their row's normalized operator.

        r != 0 applies the perturbed operator u -> L(e^{i r g} u) of the
        observable g before dividing by lambda at j; each symbol's operator
        holds its own phase exp(i r g).  The output is complex at r != 0 and
        keeps the dtype of `rows` otherwise.
        """
        def step(e, u):
            op = self.table.op(e)
            return op.apply_batch(u) if r == 0.0 else op.apply_perturbed_batch(u, r, observable)
        out = np.empty(rows.shape, rows.dtype if r == 0.0 else np.result_type(rows, complex))
        self._grouped(self.symbol(j), step, rows, out)
        out /= self.lam_at(j)[:, None]
        return out

    def mu_weights(self) -> np.ndarray:
        return _mu_rows(self.nu_snap[0], self.rho_snap[0])

    def fiber_integral(self, level: int, values: np.ndarray) -> np.ndarray:
        """Per-row integral of the row functions against nu at the level."""
        return (self.nu_snap[level] * values).sum(axis=1)


class Lab:
    """Operator table plus conformal windows along orbits.

    Every conformal value is read from a `ConformalWindow` built afresh for
    each request from the request alone, with pullback depth
    pullback_depth + 1 at the highest level read: `ensure_chain` for the
    nu and lambda of one point, `window` for a batch of points and for
    mu = rho nu (`mu_weights`).  The Lab holds no window, so each value is a
    pure function of (spec, grid, depth, request) whatever was asked before,
    and a window lives as long as its caller keeps it.
    """

    def __init__(self, spec: SystemSpec, n_points: int = 1024, interp: str = "cubic",
                 pullback_depth: int = 40, depth_max: int = 160, duality_tol: float = 1e-6,
                 newton_tol: float = 1e-13):
        self.spec = spec
        self.table = OperatorTable(spec, n_points, interp, newton_tol=newton_tol)
        self.observable = default_observable(spec)
        self.pullback_depth = int(pullback_depth)
        self.depth_max = int(depth_max)
        self.duality_tol = float(duality_tol)

    @property
    def n_points(self) -> int:
        return self.table.n_points

    @property
    def interp(self) -> str:
        return self.table.interp

    # -- conformal family ---------------------------------------------------

    def window(self, xs, fwd: int = 0, rho_depth: int | None = None,
               nu_levels=(0,), lam_lo: int = 0) -> ConformalWindow:
        """One grouped sweep over the orbits of the base points xs, rows in order.

        lambda is held from level min(nu_levels + [lam_lo, 0]) up, nu at each
        of nu_levels (none above fwd), and rho at level 0 is the constant
        function pushed `rho_depth` steps (default pullback_depth).  Symbols
        come from BasePoint.symbols, so pinned overrides hold.
        """
        K, fwd = self.pullback_depth, int(fwd)
        rho_depth = K if rho_depth is None else int(rho_depth)
        nu_levels = [int(j) for j in nu_levels]
        lo = min(nu_levels + [0, -rho_depth, int(lam_lo)])
        symbols = np.stack([x.symbols(lo, fwd + K + 1) for x in xs])
        return ConformalWindow(self.table, symbols, lo, fwd=fwd, depth=K + 1,
                               nu_levels=nu_levels, rho_depth=rho_depth, lam_lo=lam_lo)

    def ensure_chain(self, x: BasePoint, lo: int, hi: int) -> ConformalWindow:
        """The one-point window holding nu and lambda on the fibers shift(x, j), j in [lo, hi].

        The point reads: nu at level j is `win.nu_snap[j][0]` and lambda is
        `win.lam_at(j)[0]`; `ensure_chain(x, 0, 0)` holds both at x itself.
        """
        return self.window((x,), fwd=max(hi, 0), nu_levels=range(lo, hi + 1))

    def lambda_chain(self, x: BasePoint, n: int) -> np.ndarray:
        """[lambda_x, lambda_{shift x}, ..., lambda_{shift^{n-1} x}]."""
        if n <= 0:
            return np.zeros(0)
        win = self.ensure_chain(x, 0, n - 1)
        return np.array([win.lam_at(j)[0] for j in range(n)])

    def rho(self, x: BasePoint, depth: int | None = None) -> GridFunction:
        """Invariant density: the constant function pushed forward `depth` steps."""
        return GridFunction(self.window((x,), rho_depth=depth).rho_snap[0][0],
                            interp=self.interp, fiber=x)

    def duality_residual(self, x: BasePoint, u_values: np.ndarray) -> float:
        """max |nu_{shift x}(L_x u) - lambda_x nu_x(u)| over u, one function or a stack
        of rows: the defining identity of (nu, lambda), from x's window and shift x's."""
        us = np.atleast_2d(u_values)
        here, there = self.ensure_chain(x, 0, 0), self.ensure_chain(x.shift_by(1), 0, 0)
        nu_x, nu_next = (FiberMeasure(w.nu_snap[0][0]).weights for w in (here, there))
        lhs = self.table.op(x.symbol(0)).apply_batch(us) @ nu_next
        rhs = float(here.lam_at(0)[0]) * (us @ nu_x)
        return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# operations


@dataclass
class PullbackReport:
    nu: FiberMeasure
    lam: float
    depth_used: int
    lambda_delta: float
    duality_max: float
    converged: bool


def random_smooth_functions(n_points: int, count: int, seed: int, interp: str = "cubic",
                            positive: bool = False) -> list:
    """Battery of random low-frequency trigonometric test functions."""
    gen = rng.generator(seed, 0x5F00)
    nodes = np.arange(n_points) / n_points
    out = []
    for _ in range(count):
        vals = np.zeros(n_points)
        for k in range(1, 4):
            a, b = gen.normal(size=2) / k
            vals += a * np.cos(2 * np.pi * k * nodes) + b * np.sin(2 * np.pi * k * nodes)
        if positive:
            vals = np.exp(0.5 * vals)
        else:
            vals += gen.normal()
        out.append(GridFunction(vals, interp=interp))
    return out


def random_lipschitz_functions(n_points: int, count: int, seed: int, interp: str = "cubic") -> list:
    """Battery of kinked Lipschitz test functions with full-spectrum 1/k^2 tails.

    Mixtures of shifted periodic parabolic bumps {z}^2 - {z} + 1/6 (kink in
    the first derivative, every Fourier mode populated).  Normalized iterates
    of these decay geometrically, unlike band-limited smooth functions, which
    collapse superexponentially, or triangle waves, whose odd-only harmonics a
    doubling branch annihilates outright.  The honest test class for gap
    measurement on the alpha-Hölder ball.
    """
    gen = rng.generator(seed, 0x11F5)
    nodes = np.arange(n_points) / n_points
    out = []
    for _ in range(count):
        vals = np.zeros(n_points)
        for _ in range(3):
            c = gen.uniform()
            a = gen.normal()
            f = (nodes - c) % 1.0
            vals += a * (f * f - f + 1.0 / 6.0)
        out.append(GridFunction(6.0 * vals, interp=interp))
    return out


def conformal_pullback(lab: Lab, x: BasePoint, depth: int | None = None,
                       tol: float | None = None, n_probe: int = 50, seed: int = 0) -> PullbackReport:
    """Conformal weights and eigenvalue at x, with depth-stability diagnostics.

    Doubles the pullback depth until both the lambda increment |lam(K) -
    lam(K-2)| and the duality residual over random smooth probes fall below
    tol, or depth_max is reached (then converged=False).
    """
    K = lab.pullback_depth if depth is None else int(depth)
    tol = lab.duality_tol if tol is None else float(tol)
    probes = np.stack([p.values for p in random_smooth_functions(lab.n_points, n_probe, seed)])
    pushed = lab.table.op(x.symbol(0)).apply_batch(probes)
    while True:
        omega, lam = pullback_sweep(lab.table, x, K + 1, 0)
        _, lam_prev = pullback_sweep(lab.table, x, K - 1, 0)
        delta = abs(lam - lam_prev)
        nu_x = FiberMeasure(omega, fiber=x)
        # duality against a fresh pullback at the image fiber
        omega_next, _ = pullback_sweep(lab.table, x.shift_by(1), K + 1, 0)
        nu_next = FiberMeasure(omega_next, fiber=x.shift_by(1))
        duality = max(abs(nu_next.integrate(lp) - lam * nu_x.integrate(p))
                      for lp, p in zip(pushed, probes))
        if (delta < tol and duality < tol) or 2 * K > lab.depth_max:
            return PullbackReport(nu_x, lam, K, delta, duality, bool(delta < tol and duality < tol))
        K = 2 * K


@dataclass
class DensityReport:
    rho: GridFunction
    depth_used: int
    cesaro_gap: float
    fixed_point_residual: float


def invariant_density(lab: Lab, x: BasePoint, depth: int | None = None) -> DensityReport:
    """rho at x as a depth-K pushforward, cross-checked against the Cesaro average.

    The Cesaro gap and the fixed-point residual compare independently built
    objects: the fixed-point residual compares L_0 rho_x with the rho of the
    image fiber's own window (its own depth-K pushforward).
    """
    K = lab.pullback_depth if depth is None else int(depth)
    win = lab.window((x,), rho_depth=K, nu_levels=(), lam_lo=-(K - 1))
    rho = GridFunction(win.rho_snap[0][0], interp=lab.interp, fiber=x)
    acc = np.ones((1, lab.n_points))
    for j in range(-(K - 1), 0):
        acc = win.transport(acc, j) + 1.0
    cesaro = acc[0] / K
    cesaro_gap = float(np.max(np.abs(rho.values - cesaro)))

    rho_next = lab.rho(x.shift_by(1), K)
    pushed = transfer_apply(lab.table, x, rho, lam=float(win.lam_at(0)[0]))
    fixed_point = float(np.max(np.abs(pushed.values - rho_next.values)))
    return DensityReport(rho, K, cesaro_gap, fixed_point)


@dataclass
class GapFit:
    kappa: float
    c: float
    r_squared: float
    n_values: list
    mean_log_residuals: list
    measurable: bool
    note: str = ""


def gap_estimate(lab: Lab, x_samples, u_samples, n_range) -> GapFit:
    """Fit of log ||L_0^n u - Q^n u||_inf against n over (x, u) instances.

    Per instance the residual is computed by transporting w = u - nu(u) rho
    with normalized steps (Q^n u = nu(u) * transported rho), normalized by the
    grid alpha-norm of u.  The fitted line is the per-n mean of log residuals
    across instances, which is the drift of the per-orbit contraction walk;
    entries at or below the noise floor 100 eps are excluded.  If nothing is
    measurable the gap is reported as too strong to measure at this resolution.
    """
    hp = lab.spec.holder
    floor = 100 * np.finfo(float).eps
    n_list = sorted(int(n) for n in n_range)
    n_max = n_list[-1]
    win = lab.window(x_samples, fwd=n_max - 1)
    nu0, rho0 = win.nu_snap[0], win.rho_snap[0]
    # residuals[x, u, n - 1]: the whole x batch is transported at once per u
    residuals = np.empty((len(rho0), len(u_samples), n_max))
    for k, u in enumerate(u_samples):
        norm_u = alpha_norm(u, hp.alpha, hp.eta)
        w = u.values[None, :] - (nu0 @ u.values)[:, None] * rho0
        for n in range(1, n_max + 1):
            w = win.transport(w, n - 1)
            residuals[:, k, n - 1] = np.max(np.abs(w), axis=1) / norm_u
    logs = {n: [] for n in n_list}
    for inst in residuals.reshape(-1, n_max):  # x-major, u-minor instances
        for n, v in enumerate(inst, 1):
            if n in logs and v > floor:
                logs[n].append(float(np.log(v)))
    usable = [(n, float(np.mean(v))) for n, v in logs.items() if v]
    if len(usable) < 3:
        return GapFit(float("nan"), float("nan"), float("nan"), n_list, [], False,
                      "gap too strong to measure at this N")
    ns = np.array([p[0] for p in usable], dtype=float)
    ys = np.array([p[1] for p in usable])
    slope, intercept = np.polyfit(ns, ys, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return GapFit(float(np.exp(slope)), float(np.exp(intercept)), r2,
                  [int(n) for n in ns], [float(y) for y in ys], True)


@dataclass
class RegularityReport:
    depths: list
    distances: list
    lambda_diffs: list
    rho_diffs: list
    iterate_diffs: dict
    beta_fitted: dict
    beta_bounded: dict
    bounds: dict


def regularity_pairs(spec: BaseMeasureSpec, seed: int, depths, reps: int = 2) -> list:
    """Base pairs pinned to agree on symmetric windows [-D, D], D over depths."""
    pairs = []
    pid = 0
    for d in depths:
        for _ in range(reps):
            pairs.append(pinned_pair(spec, seed, pid, d) + (int(d),))
            pid += 1
    return pairs


def regularity_check(lab: Lab, base_pairs, n_list) -> RegularityReport:
    """Hölder ratio tables for lambda, rho and L_0^n 1 over pinned base pairs.

    For each candidate beta in 0.1, 0.2, ..., 1.0 the ratio |difference| /
    d^beta is regressed against log(1/d); beta counts as bounded when the
    growth slope is <= 0.05.
    The fitted beta per quantity is the regression slope of log(difference)
    against log(distance), reported without asserting a theoretical value.
    """
    beta_grid = np.round(np.arange(0.1, 1.01, 0.1), 2)
    pairs = [(x, y, int(depth), base_distance(x, y)) for x, y, depth in base_pairs]
    pairs = [p for p in pairs if p[3] > 0]
    depths = [p[2] for p in pairs]
    dists = [p[3] for p in pairs]
    dlam, drho = [], []
    diter = {int(n): [] for n in n_list}
    if pairs:
        # one window over every pair's points, x and y alternating
        points = [pt for x, y, _, _ in pairs for pt in (x, y)]

        def row_diffs(rows):
            return np.max(np.abs(rows[0::2] - rows[1::2]), axis=1).tolist()

        win = lab.window(points, nu_levels=())
        lam = win.lam_at(0)
        dlam = np.abs(lam[0::2] - lam[1::2]).tolist()
        drho = row_diffs(win.rho_snap[0])
        for n in n_list:
            # L_0^n 1 transported to x is the depth-n density
            diter[int(n)] = row_diffs(lab.window(points, rho_depth=int(n), nu_levels=()).rho_snap[0])

    def fit(deltas):
        pts = [(np.log(dd), np.log(v)) for dd, v in zip(dists, deltas) if v > 1e-14]
        if len(pts) < 3:
            return float("nan"), float("nan"), {}
        a = np.array(pts)
        slope = float(np.polyfit(a[:, 0], a[:, 1], 1)[0])
        bounded = {}
        for beta in beta_grid:
            ratios = np.array([v / dd**beta for dd, v in zip(dists, deltas) if v > 1e-14])
            logs_inv_d = np.array([-np.log(dd) for dd, v in zip(dists, deltas) if v > 1e-14])
            growth = float(np.polyfit(logs_inv_d, np.log(ratios), 1)[0])
            bounded[float(beta)] = growth <= 0.05
        largest = max((b for b, ok in bounded.items() if ok), default=float("nan"))
        return slope, largest, bounded

    out_fit, out_bounded, out_bounds = {}, {}, {}
    for name, deltas in (("lambda", dlam), ("rho", drho),
                         *[(f"iterate_{n}", diter[int(n)]) for n in n_list]):
        slope, largest, _ = fit(deltas)
        out_fit[name] = slope
        out_bounded[name] = largest
        usable = [v / dd**min(largest, 1.0) for dd, v in zip(dists, deltas)
                  if v > 1e-14 and np.isfinite(largest)]
        out_bounds[name] = float(max(usable)) if usable else float("nan")
    return RegularityReport(depths, dists, dlam, drho, diter, out_fit, out_bounded, out_bounds)


def uniform_bounds_check(lab: Lab, x_samples, n_max: int) -> dict:
    """Measured envelope of L_0^n 1 and rho over samples: one C with C^-1 <= . <= C."""
    win = lab.window(x_samples, nu_levels=(), lam_lo=-n_max)
    rho = win.rho_snap[0]
    u = np.ones(rho.shape)
    lo, hi = np.inf, 0.0
    for j in range(-n_max, 0):
        u = win.transport(u, j)
        lo = min(lo, float(np.min(u)))
        hi = max(hi, float(np.max(u)))
    rho_lo, rho_hi = float(np.min(rho)), float(np.max(rho))
    c = max(hi, 1.0 / lo, rho_hi, 1.0 / rho_lo)
    return {
        "iterate_min": lo, "iterate_max": hi,
        "rho_min": rho_lo, "rho_max": rho_hi,
        "c": float(c),
        "positive": bool(lo > 0 and rho_lo > 0),
    }


def fiberwise_invariance_residual(lab: Lab, x_samples, h_samples) -> float:
    """max |integral of h∘T_x dmu_x - integral of h dmu_{shift x}|.

    The exact content of T-invariance for the skew product, checked at
    quadrature accuracy (the global statement follows by integrating over m).
    """
    xs = list(x_samples)
    k = len(xs)
    mu = lab.window(xs + [x.shift_by(1) for x in xs]).mu_weights()  # rows x, then shift x
    zp = np.arange(lab.n_points) / lab.n_points
    worst = 0.0
    for i, x in enumerate(xs):
        tz = apply_map_symbol(lab.spec, x.symbol(0), zp)
        for h in h_samples:
            lhs = float(mu[i] @ h(tz))
            rhs = float(mu[k + i] @ h(zp))
            worst = max(worst, abs(lhs - rhs))
    return worst
