"""Random thermodynamic formalism on orbit windows.

Conformal weights nu_x arrive by pulling normalized Lebesgue weights back
through the adjoint of the discretized operator from a fiber `pullback_depth`
steps ahead; the normalizer of each pullback step is the eigenvalue lambda at
that fiber.  Invariant densities rho_x are pushforwards of the constant
function from `pullback_depth` steps behind.  A Lab bundles the operator
table with depth-tagged caches along orbits, and the module-level operations
implement the pullback diagnostics, density construction, spectral-gap
estimation, and base-regularity checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .base import BaseMeasureSpec, BasePoint, base_distance, pinned_pair
from .fiber import GridFunction, SystemSpec, alpha_norm, apply_map_symbol, default_observable
from .transfer import OperatorTable, transfer_apply, transfer_iterate


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
    """Adjoint pullback along the orbit of x, from level `start` down to `stop`.

    Yields (level j, lambda_at_j, weights_at_j).  The weights entering level j
    are normalized, so lambda_at_j is exactly the mass created by one adjoint
    step: the discrete version of nu_{shift x}(L_x 1).
    """
    n = table.n_points
    omega = np.full(n, 1.0 / n)
    for j in range(start - 1, stop - 1, -1):
        w = table.op(x.symbol(j)).adjoint(omega)
        lam = float(w.sum())
        if not np.isfinite(lam) or lam <= 0:
            raise ThermoError(f"degenerate pullback normalizer at level {j}")
        omega = w / lam
        yield j, lam, omega


class Lab:
    """Operator table plus depth-tagged conformal caches along orbits.

    All cached quantities are pure functions of (spec, grid, depth, base
    point), so concurrent duplicate computation is harmless.
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
        self._nu = {}
        self._lam = {}
        self._rho = {}

    @property
    def n_points(self) -> int:
        return self.table.n_points

    @property
    def interp(self) -> str:
        return self.table.interp

    # -- conformal family ---------------------------------------------------

    def ensure_chain(self, x: BasePoint, lo: int, hi: int):
        """Populate nu and lambda caches for fibers shift(x, j), j in [lo, hi]."""
        K = self.pullback_depth
        missing = [
            j for j in range(lo, hi + 1)
            if self._nu.get(x.shift_by(j), (0, None))[0] < K
            or self._lam.get(x.shift_by(j), (0, None))[0] < K
        ]
        if not missing:
            return
        start = max(missing) + K + 1
        stop = min(missing)
        for j, lam, omega in pullback_sweep(self.table, x, start, stop):
            y = x.shift_by(j)
            nu_depth = start - j
            lam_depth = start - j - 1
            if lam_depth >= K and self._lam.get(y, (0, None))[0] < lam_depth:
                self._lam[y] = (lam_depth, lam)
            if nu_depth >= K and self._nu.get(y, (0, None))[0] < nu_depth:
                self._nu[y] = (nu_depth, omega)

    def nu(self, x: BasePoint) -> FiberMeasure:
        self.ensure_chain(x, 0, 0)
        return FiberMeasure(self._nu[x][1], fiber=x)

    def lam(self, x: BasePoint) -> float:
        self.ensure_chain(x, 0, 0)
        return self._lam[x][1]

    def lambda_chain(self, x: BasePoint, n: int) -> np.ndarray:
        """[lambda_x, lambda_{shift x}, ..., lambda_{shift^{n-1} x}]."""
        if n <= 0:
            return np.zeros(0)
        self.ensure_chain(x, 0, n - 1)
        return np.array([self._lam[x.shift_by(j)][1] for j in range(n)])

    def rho(self, x: BasePoint, depth: int | None = None) -> GridFunction:
        """Invariant density: the constant function pushed forward `depth` steps."""
        K = self.pullback_depth if depth is None else int(depth)
        key = (x, K)
        if key in self._rho:
            return self._rho[key]
        self.ensure_chain(x, -K, -1)
        u = GridFunction(np.ones(self.n_points), interp=self.interp, fiber=x.shift_by(-K))
        out = transfer_iterate(
            self.table, x.shift_by(-K), u, K, kind="normalized",
            lambda_chain=[self._lam[x.shift_by(j)][1] for j in range(-K, 0)],
        )
        self._rho[key] = out
        return out

    def mu(self, x: BasePoint) -> FiberMeasure:
        """Invariant fiber measure mu_x = rho_x nu_x (renormalized)."""
        return FiberMeasure(self.nu(x).weights * self.rho(x).values, fiber=x)

    # -- operator conveniences ----------------------------------------------

    def iterate(self, x: BasePoint, u: GridFunction, n: int, kind: str = "raw",
                r_sequence=None, observable=None) -> GridFunction:
        chain = self.lambda_chain(x, n) if kind in ("normalized", "perturbed") else None
        return transfer_iterate(self.table, x, u, n, kind=kind, lambda_chain=chain,
                                r_sequence=r_sequence,
                                observable=observable or self.observable)

    def duality_residual(self, x: BasePoint, u_values: np.ndarray) -> float:
        """|nu_{shift x}(L_x u) - lambda_x nu_x(u)|, the defining identity of (nu, lambda)."""
        lhs = self.nu(x.shift_by(1)).integrate(self.table.op(x.symbol(0)).apply(u_values))
        rhs = self.lam(x) * self.nu(x).integrate(u_values)
        return float(abs(lhs - rhs))


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

    def as_dict(self):
        return {
            "lambda": self.lam,
            "depth_used": self.depth_used,
            "lambda_delta": self.lambda_delta,
            "duality_max": self.duality_max,
            "converged": self.converged,
        }


def _pullback_at_depth(lab: Lab, x: BasePoint, depth: int):
    """(nu weights, lambda) at x from a fresh depth-`depth` sweep, no caches."""
    lam_x = None
    omega_x = None
    for j, lam, omega in pullback_sweep(lab.table, x, depth + 1, 0):
        if j == 0:
            lam_x, omega_x = lam, omega
    return omega_x, lam_x


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
    probes = random_smooth_functions(lab.n_points, n_probe, seed, interp=lab.interp)
    while True:
        omega, lam = _pullback_at_depth(lab, x, K)
        _, lam_prev = _pullback_at_depth(lab, x, K - 2)
        delta = abs(lam - lam_prev)
        nu_x = FiberMeasure(omega, fiber=x)
        # duality against a fresh pullback at the image fiber
        omega_next, _ = _pullback_at_depth(lab, x.shift_by(1), K)
        nu_next = FiberMeasure(omega_next, fiber=x.shift_by(1))
        op = lab.table.op(x.symbol(0))
        duality = max(
            abs(nu_next.integrate(op.apply(p.values)) - lam * nu_x.integrate(p.values))
            for p in probes
        )
        if (delta < tol and duality < tol) or 2 * K > lab.depth_max:
            return PullbackReport(nu_x, lam, K, delta, duality, bool(delta < tol and duality < tol))
        K = 2 * K


@dataclass
class DensityReport:
    rho: GridFunction
    depth_used: int
    cesaro_gap: float
    fixed_point_residual: float
    nu_mass_residual: float

    def as_dict(self):
        return {
            "depth_used": self.depth_used,
            "cesaro_gap": self.cesaro_gap,
            "fixed_point_residual": self.fixed_point_residual,
            "nu_mass_residual": self.nu_mass_residual,
        }


def invariant_density(lab: Lab, x: BasePoint, depth: int | None = None) -> DensityReport:
    """rho at x as a depth-K pushforward, cross-checked against the Cesaro average.

    The fixed-point residual compares L_0 rho_x with the independently built
    rho at the image fiber (its own depth-K pushforward), so the residual
    measures genuine convergence rather than a construction identity.
    """
    K = lab.pullback_depth if depth is None else int(depth)
    rho = lab.rho(x, K)
    lab.ensure_chain(x, -(K - 1), 0)
    acc = GridFunction(np.ones(lab.n_points), interp=lab.interp, fiber=x.shift_by(-(K - 1)))
    for j in range(-(K - 1), 0):
        stepped = transfer_apply(lab.table, x.shift_by(j), acc, kind="normalized",
                                 lam=lab.lam(x.shift_by(j)))
        acc = stepped.with_values(stepped.values + 1.0)
    cesaro = acc.values / K
    cesaro_gap = float(np.max(np.abs(rho.values - cesaro)))

    rho_next = lab.rho(x.shift_by(1), K)
    pushed = transfer_apply(lab.table, x, rho, kind="normalized", lam=lab.lam(x))
    fixed_point = float(np.max(np.abs(pushed.values - rho_next.values)))
    nu_mass = abs(lab.nu(x).integrate(rho) - 1.0)
    return DensityReport(rho, K, cesaro_gap, fixed_point, float(nu_mass))


@dataclass
class GapFit:
    kappa: float
    c: float
    r_squared: float
    n_values: list
    mean_log_residuals: list
    per_instance_slopes: list
    measurable: bool
    note: str = ""

    def as_dict(self):
        return {
            "kappa": self.kappa,
            "c": self.c,
            "r_squared": self.r_squared,
            "n_values": self.n_values,
            "mean_log_residuals": self.mean_log_residuals,
            "measurable": self.measurable,
            "note": self.note,
        }


def gap_estimate(lab: Lab, x_samples, u_samples, n_range, noise_floor: float | None = None) -> GapFit:
    """Fit of log ||L_0^n u - Q^n u||_inf against n over (x, u) instances.

    Per instance the residual is computed by transporting w = u - nu(u) rho
    with normalized steps (Q^n u = nu(u) * transported rho), normalized by the
    grid alpha-norm of u.  The fitted line is the per-n mean of log residuals
    across instances, which is the drift of the per-orbit contraction walk;
    entries below the noise floor are excluded.  If nothing is measurable the
    gap is reported as too strong to measure at this resolution.
    """
    hp = lab.spec.holder
    floor = 100 * np.finfo(float).eps if noise_floor is None else noise_floor
    n_list = sorted(int(n) for n in n_range)
    n_max = n_list[-1]
    logs = {n: [] for n in n_list}
    slopes = []
    for x in x_samples:
        chain = lab.lambda_chain(x, n_max)
        rho_x = lab.rho(x)
        nu_x = lab.nu(x)
        for u in u_samples:
            norm_u = alpha_norm(u, hp.alpha, hp.eta)
            w = GridFunction(u.values - nu_x.integrate(u.values) * rho_x.values,
                             interp=u.interp, fiber=x)
            inst = []
            for n in range(1, n_max + 1):
                w = transfer_apply(lab.table, x.shift_by(n - 1), w, kind="normalized",
                                   lam=chain[n - 1])
                val = float(np.max(np.abs(w.values))) / norm_u
                if n in logs and val > floor:
                    logs[n].append(np.log(val))
                if val > floor:
                    inst.append((n, np.log(val)))
            if len(inst) >= 3:
                arr = np.array(inst)
                slopes.append(float(np.polyfit(arr[:, 0], arr[:, 1], 1)[0]))
    usable = [(n, float(np.mean(v))) for n, v in logs.items() if v]
    if len(usable) < 3:
        return GapFit(float("nan"), float("nan"), float("nan"), n_list, [], slopes,
                      False, "gap too strong to measure at this N")
    ns = np.array([p[0] for p in usable], dtype=float)
    ys = np.array([p[1] for p in usable])
    slope, intercept = np.polyfit(ns, ys, 1)
    pred = slope * ns + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return GapFit(float(np.exp(slope)), float(np.exp(intercept)), r2,
                  [int(n) for n in ns], [float(y) for y in ys], slopes, True)


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

    def as_dict(self):
        return {
            "depths": self.depths,
            "distances": self.distances,
            "lambda_diffs": self.lambda_diffs,
            "rho_diffs": self.rho_diffs,
            "iterate_diffs": {str(k): v for k, v in self.iterate_diffs.items()},
            "beta_fitted": self.beta_fitted,
            "beta_bounded": self.beta_bounded,
            "bounds": self.bounds,
        }


def regularity_pairs(spec: BaseMeasureSpec, seed: int, depths, reps: int = 2) -> list:
    """Base pairs pinned to agree on symmetric windows [-D, D], D over depths."""
    pairs = []
    pid = 0
    for d in depths:
        for _ in range(reps):
            pairs.append(pinned_pair(spec, seed, pid, d) + (int(d),))
            pid += 1
    return pairs


def regularity_check(lab: Lab, base_pairs, n_list, beta_grid=None) -> RegularityReport:
    """Hölder ratio tables for lambda, rho and L_0^n 1 over pinned base pairs.

    For each candidate beta the ratio |difference| / d^beta is regressed
    against log(1/d); beta counts as bounded when the growth slope is <= 0.05.
    The fitted beta per quantity is the regression slope of log(difference)
    against log(distance), reported without asserting a theoretical value.
    """
    beta_grid = np.round(np.arange(0.1, 1.01, 0.1), 2) if beta_grid is None else np.asarray(beta_grid)
    depths, dists, dlam, drho = [], [], [], []
    diter = {int(n): [] for n in n_list}
    for x, y, depth in base_pairs:
        d = base_distance(x, y)
        if d <= 0:
            continue
        depths.append(int(depth))
        dists.append(d)
        dlam.append(abs(lab.lam(x) - lab.lam(y)))
        drho.append(float(np.max(np.abs(lab.rho(x).values - lab.rho(y).values))))
        for n in n_list:
            # L_0^n 1 transported to x is the depth-n density
            vx, vy = lab.rho(x, n), lab.rho(y, n)
            diter[int(n)].append(float(np.max(np.abs(vx.values - vy.values))))

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
    lo, hi = np.inf, 0.0
    rho_lo, rho_hi = np.inf, 0.0
    for x in x_samples:
        lab.ensure_chain(x, -n_max, 0)
        u = GridFunction(np.ones(lab.n_points), interp=lab.interp, fiber=x.shift_by(-n_max))
        for j in range(-n_max, 0):
            u = transfer_apply(lab.table, x.shift_by(j), u, kind="normalized",
                               lam=lab.lam(x.shift_by(j)))
            lo = min(lo, float(np.min(u.values)))
            hi = max(hi, float(np.max(u.values)))
        r = lab.rho(x)
        rho_lo = min(rho_lo, float(np.min(r.values)))
        rho_hi = max(rho_hi, float(np.max(r.values)))
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
    worst = 0.0
    for x in x_samples:
        mu_x = lab.mu(x)
        mu_next = lab.mu(x.shift_by(1))
        zp = np.arange(lab.n_points) / lab.n_points
        tz = apply_map_symbol(lab.spec, x.symbol(0), zp)
        for h in h_samples:
            lhs = float(mu_x.weights @ h(tz))
            rhs = mu_next.integrate(h(zp))
            worst = max(worst, abs(lhs - rhs))
    return worst
