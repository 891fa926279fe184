"""Fiber phase spaces and random expanding circle maps.

Every fiber is the unit circle [0, 1) with arc-length distance.  The map over
a base point x depends only on its symbol at coordinate 0:

    T_x(z) = d(e) z + eps(e) sin(2 pi z) / (2 pi)   mod 1,   e = x_0,

so branches are enumerable per symbol while the conformal data downstream
still depends on infinitely many coordinates.  `_lift`, behind `map_lift`
and `apply_map_symbol`, is the only place this formula is written.  This
module holds the maps and their inverse branches, the one forward-orbit sum
`forward_phase_sum` (Birkhoff sums are its unit-weight case), grid-sampled
functions with periodic interpolation, and the alpha-variation and positive
cone scans, which share one scan plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .base import BaseMeasureSpec, BasePoint, SpecError

TWO_PI = 2.0 * np.pi


class FiberError(SpecError):
    pass


@dataclass(frozen=True)
class HolderParams:
    """Hölder calculus constants shared by the operator and cone machinery.

    Q_tilde is pinned to H_tilde * gamma_star^-alpha / (1 - gamma_star^-alpha),
    the geometric sum of one-step variations along inverse branches.
    """

    alpha: float
    eta: float
    xi: float
    H_tilde: float
    gamma_star: float
    Q_tilde: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise FiberError(f"alpha must lie in (0, 1], got {self.alpha!r}", "alpha")
        for name in ("eta", "xi"):
            if getattr(self, name) <= 0:
                raise FiberError(f"{name} must be positive, got {getattr(self, name)!r}", name)
        if self.H_tilde < 1.0:
            raise FiberError(f"H_tilde must be >= 1, got {self.H_tilde!r}", "H_tilde")
        if self.gamma_star <= 1.0:
            raise FiberError(f"gamma_star must exceed 1, got {self.gamma_star!r}", "gamma_star")
        g = self.gamma_star ** (-self.alpha)
        if g >= 1.0:  # gamma_star^alpha rounds to 1: the variation sum has no finite bound
            raise FiberError(f"alpha = {self.alpha!r} is too small: gamma_star^-alpha rounds to 1",
                             "alpha")
        object.__setattr__(self, "Q_tilde", self.H_tilde * g / (1.0 - g))


# SystemSpec fields with one entry per base symbol.
PER_SYMBOL = ("branch_count", "nonlinearity", "potential_amp", "obs_offset", "obs_phase")


def check_maps(branch_count, nonlinearity) -> float:
    """The circle-map rules; returns gamma_star = min d - 2 pi max eps, which they make exceed 1.

    gamma_star is a lower bound on T_e' over every symbol e (uniform expansion).
    """
    if min(branch_count) < 2:
        raise FiberError("every branch count must be >= 2", "branch_count")
    if min(nonlinearity) < 0:
        raise FiberError("nonlinearity must be nonnegative", "nonlinearity")
    gamma = min(branch_count) - TWO_PI * max(nonlinearity)
    if gamma <= 1.0:
        raise FiberError(f"expansion violated: min d - 2 pi max eps = {gamma} <= 1", "gamma_star")
    return gamma


@dataclass(frozen=True)
class SystemSpec:
    """Full model family: base law, branch counts, nonlinearity, parameters.

    potential: phi_x(z) = -t log T_x'(z) + amp[x_0] cos(2 pi z)
    observable: g_x(z) = offset[x_0] + amplitude * cos(2 pi (z - phase[x_0]))
    """

    base: BaseMeasureSpec
    branch_count: tuple
    nonlinearity: tuple
    potential_t: float
    potential_amp: tuple
    obs_offset: tuple
    obs_amplitude: float
    obs_phase: tuple
    holder: HolderParams

    def __post_init__(self):
        q = self.base.alphabet_size
        for name in PER_SYMBOL:
            if len(getattr(self, name)) != q:
                raise FiberError(f"{name} must have one entry per symbol ({q})", name)
        check_maps(self.branch_count, self.nonlinearity)

    @property
    def alphabet(self) -> range:
        return range(self.base.alphabet_size)

    @cached_property
    def map_coefficients(self) -> tuple:
        """(d, eps) per symbol as float arrays, to be indexed by symbol arrays."""
        return (np.asarray(self.branch_count, dtype=np.float64),
                np.asarray(self.nonlinearity, dtype=np.float64))

    @property
    def has_geometric_potential(self) -> bool:
        """True when phi = -log T': then the conformal family is Lebesgue, the
        invariant measure is the fiber acim, and forward float orbits sample it
        faithfully (it is the stochastically stable measure)."""
        return self.potential_t == 1.0 and all(a == 0.0 for a in self.potential_amp)


def gibbs_system(**overrides) -> SystemSpec:
    """Thermo workbench: nonconstant Gibbs potential, exact affine branches.

    The conformal family is a genuinely non-Lebesgue (singular) Gibbs family;
    every check on it is quadrature- or enumeration-based.  Forward float
    orbits of this system do NOT sample its invariant measure (see
    make_system's statistics default for orbit work).
    """
    kw = dict(potential_t=0.0, potential_amp=(0.1, 0.15), nonlinearity=(0.0, 0.0))
    kw.update(overrides)
    return make_system(**kw)


def make_system(
    weights=(0.5, 0.5),
    branch_count=(2, 3),
    nonlinearity=(0.05, 0.04),
    potential_t=1.0,
    potential_amp=(0.0, 0.0),
    obs_offset=(0.2, -0.1),
    obs_amplitude=1.0,
    obs_phase=(0.0, 0.3),
    alpha=1.0,
    eta=None,
    xi=None,
    H_tilde=None,
) -> SystemSpec:
    """Construct a SystemSpec with the desk-scale statistics defaults.

    The default potential is geometric (t=1, no cosine amplitude) with mildly
    nonlinear maps: its invariant fiber measures are the smooth acim family,
    which forward orbit simulation samples faithfully.  Systems with a
    non-geometric potential (see gibbs_system) have singular conformal
    families; use operator routes, not orbits, for their statistics.

    eta and xi default to 1 / (2 max d), inside which every inverse branch is
    globally defined.  H_tilde defaults to the Lipschitz bound of the
    potential and observable families, floored at 1.
    """
    q = len(weights)
    base = BaseMeasureSpec(alphabet_size=q, weights=tuple(weights))
    d = tuple(int(v) for v in branch_count)
    eps = tuple(0.0 for _ in range(q)) if nonlinearity is None else tuple(float(v) for v in nonlinearity)
    amp = tuple(float(v) for v in potential_amp)
    gamma_star = check_maps(d, eps)  # before the defaults below divide by max d and min d - eps
    if eta is None:
        eta = 1.0 / (2.0 * max(d))
    if xi is None:
        xi = 1.0 / (2.0 * max(d))
    if H_tilde is None:
        # phi' bound: t * |T''/T'| + 2 pi |amp|; g' bound: 2 pi |amplitude|
        phi_lip = abs(potential_t) * TWO_PI * max(eps) / (min(d) - max(eps)) + TWO_PI * max(abs(a) for a in amp)
        g_lip = TWO_PI * abs(obs_amplitude)
        H_tilde = max(1.0, phi_lip, g_lip)
    holder = HolderParams(alpha=alpha, eta=eta, xi=xi, H_tilde=H_tilde, gamma_star=gamma_star)
    return SystemSpec(
        base=base,
        branch_count=d,
        nonlinearity=eps,
        potential_t=float(potential_t),
        potential_amp=amp,
        obs_offset=tuple(float(v) for v in obs_offset),
        obs_amplitude=float(obs_amplitude),
        obs_phase=tuple(float(v) for v in obs_phase),
        holder=holder,
    )


# ---------------------------------------------------------------------------
# maps and branches


def circle_distance(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def map_lift(spec: SystemSpec, e, z):
    """d(e) z + eps(e) sin(2 pi z) / (2 pi): the lift of T_e, an increasing bijection
    [0, 1] -> [0, d(e)].  e is a symbol or an array of symbols broadcasting against z."""
    d, eps = spec.map_coefficients
    return _lift(d[e], eps[e], z)


def _lift(d, eps, z, out=None, scratch=None):
    """The lift with its coefficients already gathered (d, eps broadcast against z).

    The one place the formula is written.  With buffers every step runs in
    place: `out` may be z itself, `scratch` must not be.
    """
    s = np.multiply(z, TWO_PI, out=scratch)
    s = np.sin(s, out=scratch)
    s = np.multiply(eps, s, out=scratch)
    s = np.divide(s, TWO_PI, out=scratch)
    w = np.multiply(d, z, out=out)
    return np.add(w, s, out=out)


def _map_step(d, eps, z, jitter=None, out=None, scratch=None):
    """T(z) in [0, 1) from gathered coefficients, `jitter` added to the lift first;
    `out` and `scratch` as for `_lift`.

    w - floor(w) has the bits of w % 1.0 for every finite w here: both are exact
    for w >= 0, and both round w + 1 once when a negative jitter takes w below 0.
    That rounding can give exactly 1, which maps to 0.
    """
    w = _lift(d, eps, z, out, scratch)
    if jitter is not None:
        w = np.add(w, jitter, out=out)
    w = np.asarray(np.subtract(w, np.floor(w, out=scratch), out=out))
    w[w >= 1.0] = 0.0
    return w


def apply_map_symbol(spec: SystemSpec, e, z, jitter=None):
    """T_e(z) in [0, 1) for a symbol or an array of symbols e; `jitter` is added
    to the lift before the reduction mod 1."""
    d, eps = spec.map_coefficients
    return _map_step(d[e], eps[e], np.asarray(z, dtype=np.float64), jitter)


def apply_map(spec: SystemSpec, x: BasePoint, z):
    """T_x(z) on the fiber over x; result in [0, 1)."""
    return apply_map_symbol(spec, x.symbol(0), z)


def map_derivative_symbol(spec: SystemSpec, e: int, z):
    return spec.branch_count[e] + spec.nonlinearity[e] * np.cos(TWO_PI * np.asarray(z))


def inverse_branches_symbol(spec: SystemSpec, e: int, w, newton_tol=1e-13) -> np.ndarray:
    """All d(e) preimages of each w under the symbol-e map; shape (d, len(w)).

    Branch j solves map_lift(z) = w + j.  For eps = 0 the closed form
    (w + j)/d is returned; otherwise at most 60 Newton steps from that
    starting point, with a hard error if the residual tolerance is not met
    (impossible under the expansion invariant, kept as a tripwire).
    """
    w = np.atleast_1d(np.asarray(w, dtype=np.float64))
    d = spec.branch_count[e]
    targets = w[None, :] + np.arange(d, dtype=np.float64)[:, None]
    z = targets / d
    if spec.nonlinearity[e] == 0.0:
        return z
    for _ in range(60):
        f = map_lift(spec, e, z) - targets
        if np.max(np.abs(f)) <= newton_tol:
            break
        z = z - f / map_derivative_symbol(spec, e, z)
    else:
        bad = np.unravel_index(np.argmax(np.abs(f)), f.shape)
        raise FiberError(
            f"Newton failed for symbol {e}, branch {bad[0]}, target index {bad[1]}: residual {np.max(np.abs(f)):.3e}"
        )
    return np.clip(z, 0.0, np.nextafter(1.0, 0.0)) % 1.0


def inverse_branches(spec: SystemSpec, x: BasePoint, w) -> np.ndarray:
    """Ascending preimages of w in the fiber over x."""
    out = inverse_branches_symbol(spec, x.symbol(0), w)
    return out[:, 0] if np.isscalar(w) or np.ndim(w) == 0 else out


def potential_values(spec: SystemSpec, e: int, z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = spec.potential_amp[e] * np.cos(TWO_PI * z)
    if spec.potential_t != 0.0:
        out = out - spec.potential_t * np.log(map_derivative_symbol(spec, e, z))
    return out


# ---------------------------------------------------------------------------
# observables


class SystemObservable:
    """The parametric observable family of a SystemSpec."""

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self._offset = np.asarray(spec.obs_offset, dtype=np.float64)
        self._phase = np.asarray(spec.obs_phase, dtype=np.float64)
        self._amp = float(spec.obs_amplitude)

    def values_for_symbol(self, e, z) -> np.ndarray:
        e = np.asarray(e, dtype=np.int64)
        z = np.asarray(z, dtype=np.float64)
        return self._offset[e] + self._amp * np.cos(TWO_PI * (z - self._phase[e]))


class CoboundaryObservable:
    """g_x(z) = k(z) - k(T_x z) + const: Birkhoff sums telescope exactly."""

    def __init__(self, spec: SystemSpec, k=None, const: float = 0.0):
        self.spec = spec
        self.k = k if k is not None else (lambda z: np.cos(TWO_PI * np.asarray(z)))
        self.const = float(const)

    def values_for_symbol(self, e, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        tz = apply_map_symbol(self.spec, np.asarray(e, dtype=np.int64), z)
        return self.k(z) - self.k(tz) + self.const


class ScaledObservable:
    def __init__(self, inner, factor: float):
        self.inner = inner
        self.factor = float(factor)

    def values_for_symbol(self, e, z):
        return self.factor * self.inner.values_for_symbol(e, z)


def default_observable(spec: SystemSpec) -> SystemObservable:
    return SystemObservable(spec)


def forward_phase_sum(spec: SystemSpec, symbols, z: np.ndarray, r_sequence, observable) -> np.ndarray:
    """sum_j r_j g(T^j z) in closed form (no grids), step j by the map of symbols[j]:
    one symbol, or an array of symbols with one entry per entry of z."""
    z = np.asarray(z, dtype=np.float64)
    total = np.zeros_like(z)
    for e, r in zip(symbols, r_sequence):
        total = total + r * observable.values_for_symbol(e, z)
        z = apply_map_symbol(spec, e, z)
    return total


def birkhoff_sum(spec: SystemSpec, h, x: BasePoint, z, n: int):
    """S_n h = sum_{j<n} h over the forward orbit of (x, z); S_0 = 0: the forward
    phase sum with unit weights (1.0 * v is v), on n symbols read in one call."""
    n = int(n)
    total = forward_phase_sum(spec, x.symbols(0, n), z, [1.0] * n, h)
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# grid functions


def interp_stencil(points, n: int, kind: str):
    """Periodic interpolation stencil: indices (k, m) and weights (k, m).

    linear: 2-point hat; cubic: 4-point Lagrange through consecutive nodes,
    pointwise error O(h^2) resp. O(h^4) for smooth periodic functions.  Both
    reproduce node values exactly at nodes k / n that are exact floats (every
    node when n is a power of two); elsewhere fl(k / n) is a point off the node.
    """
    s = np.asarray(points, dtype=np.float64) * n
    i0 = np.floor(s).astype(np.int64)
    t = s - i0
    if kind == "linear":
        idx = np.stack([i0, i0 + 1]) % n
        wts = np.stack([1.0 - t, t])
    elif kind == "cubic":
        wm1 = -t * (t - 1.0) * (t - 2.0) / 6.0
        w0 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
        w1 = -t * (t + 1.0) * (t - 2.0) / 2.0
        w2 = t * (t + 1.0) * (t - 1.0) / 6.0
        idx = np.stack([i0 - 1, i0, i0 + 1, i0 + 2]) % n
        wts = np.stack([wm1, w0, w1, w2])
    else:
        raise FiberError(f"unknown interpolation {kind!r}")
    return idx, wts


# Interpolation kinds and their orders of accuracy.
INTERP_ORDERS = {"linear": 2, "cubic": 4}


def interp_order(kind: str) -> int:
    return INTERP_ORDERS[kind]


@dataclass
class GridFunction:
    """Function on a fiber sampled at nodes i/N with a periodic interpolation rule."""

    values: np.ndarray
    interp: str = "cubic"
    fiber: BasePoint | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 1:
            raise FiberError("GridFunction values must be one-dimensional")

    @property
    def n_points(self) -> int:
        return len(self.values)

    def grid(self) -> np.ndarray:
        return np.arange(self.n_points) / self.n_points

    def __call__(self, points):
        idx, wts = interp_stencil(points, self.n_points, self.interp)
        return (self.values[idx] * wts).sum(axis=0)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def with_values(self, values) -> "GridFunction":
        return GridFunction(values, interp=self.interp, fiber=self.fiber)

    @classmethod
    def from_callable(cls, f, n_points: int, interp: str = "cubic") -> "GridFunction":
        z = np.arange(n_points) / n_points
        return cls(np.asarray(f(z)), interp=interp)


@lru_cache(maxsize=16)
def _scan_plan(n: int, eta: float, alpha: float) -> tuple:
    """What a scan of n-point rows over grid pairs within eta needs besides the row,
    read-only: kmax = min(floor(eta n), n // 2); the shifts 1..kmax and their
    dist^alpha; the gather indices i + k (rows k, columns i) and dist^alpha of
    the powers of two k <= kmax; the bit table (shift x power: the power is in
    the shift's binary expansion); which shifts have more than one bit; and the
    columns 0..n-1.  Shift k is ext[k + cols], ext the row and its first kmax."""
    kmax = min(int(np.floor(eta * n)), n // 2)
    scale = np.array([dist**alpha for dist in (np.arange(1, kmax + 1) / n).tolist()])
    powers = 1 << np.arange(kmax.bit_length())
    ks = np.arange(1, kmax + 1)
    bits = (ks[:, None] & powers) != 0
    cols = np.arange(n)
    plan = (ks, scale, powers[:, None] + cols, scale[powers - 1], bits, bits.sum(axis=1) > 1,
            cols)
    for a in plan:
        a.flags.writeable = False
    return (kmax, *plan)


# Relative and absolute widening of a dyadic shift bound: far above the few
# roundings in a computed difference, its modulus and the bound's sum, and the
# absolute part above the error of a subnormal modulus.
_BOUND_MARGIN = 1.0 + 1e-9
_BOUND_SLACK = np.finfo(np.float64).tiny


def variation_alpha(u, alpha: float, eta: float) -> float:
    """Grid alpha-variation: max |u(y)-u(y')| / dist^alpha over 0 < dist <= eta.

    A lower bound of the true variation, converging at the interpolation rate
    under grid refinement; pairs run over all node offsets within eta.

    Dyadic scan: D_k = max_i |u_i - u_{i+k}| is computed for k = 1, 2, 4, ...
    first.  By the triangle inequality D_{a+b} <= D_a + D_b, so the sum of D
    over the powers of two in the binary expansion of k bounds D_k.  A
    positive sum is widened by a factor 1 + 1e-9 and by the smallest normal
    float, which covers every rounding in the computed D (subnormal moduli
    included) and in the sum; a zero sum stays 0, as D_k is then exactly 0.
    A shift is scanned only when its bound over dist^alpha exceeds the
    largest ratio of the powers of two.  Every skipped shift k has computed
    D_k <= its bound, and rounding the division by the same dist^alpha is
    monotone, so its ratio cannot exceed that largest ratio: the result has
    the bits of the full scan, for float64 and complex128 rows alike (the
    margin is sized for their rounding).  A nan bound (a nan or inf in the
    row) never compares and is scanned; an inf bound is skipped only once the
    largest ratio is inf, which is then the result.

    Everything but the row itself (shifts, dist^alpha, powers, bit table)
    is a scan plan cached per (n, eta, alpha), and a shift k is gathered as
    the values at i + k of the row extended by its first kmax values.
    """
    vals = u.values if isinstance(u, GridFunction) else np.asarray(u)
    if not 0.0 < alpha <= 1.0:
        raise FiberError("alpha must lie in (0, 1]")
    kmax, ks, scale, p_idx, p_scale, bits, multi, cols = _scan_plan(len(vals), float(eta),
                                                                    float(alpha))
    if not kmax:
        return 0.0
    ext = np.concatenate([vals, vals[:kmax]])  # ext[i + k] = vals[(i + k) % n]
    diffs = np.abs(vals - ext[p_idx]).max(axis=1)
    best = max([0.0, *(diffs / p_scale).tolist()])
    bound = np.where(bits, diffs, 0.0).sum(axis=1)
    bound = np.where(bound > 0.0, bound * _BOUND_MARGIN + _BOUND_SLACK, bound)
    rest = ks[~(bound / scale <= best) & multi]
    diffs = np.abs(vals - ext[rest[:, None] + cols]).max(axis=1)
    return float(max([best, *(diffs / scale[rest - 1]).tolist()]))


def alpha_norm(u, alpha: float, eta: float) -> float:
    vals = u.values if isinstance(u, GridFunction) else np.asarray(u)
    return float(np.max(np.abs(vals))) + variation_alpha(vals, alpha, eta)


# ---------------------------------------------------------------------------
# positive cones


def _weights_of(nu) -> np.ndarray:
    w = getattr(nu, "weights", nu)
    return np.asarray(w, dtype=np.float64)


@dataclass
class ConeCertificate:
    ok: bool
    reason: str = "ok"
    worst_pair: tuple | None = None
    worst_margin: float = 0.0
    mass: float = 1.0


def cone_embed(u: GridFunction, nu, holder: HolderParams, Q=None) -> GridFunction:
    """Embed a nonnegative Hölder function into the unit cone.

    h = (u + v/Q) / (nu(u) + v/Q) with v the grid alpha-variation of u; h is
    nu-normalized and satisfies the multiplicative oscillation bound with s=1.
    """
    vals = np.asarray(u.values, dtype=np.float64)
    if np.min(vals) < 0:
        raise FiberError("cone_embed requires u >= 0")
    Q = holder.Q_tilde if Q is None else float(Q)
    w = _weights_of(nu)
    v = variation_alpha(vals, holder.alpha, holder.eta)
    denom = float(w @ vals) + v / Q
    if denom <= 0.0:
        raise FiberError("cone_embed of the zero function")
    return u.with_values((vals + v / Q) / denom)


def cone_check(
    h: GridFunction,
    s: float,
    nu,
    holder: HolderParams,
    Q=None,
    mass_tol: float = 1e-7,
) -> ConeCertificate:
    """Membership test for the cone with parameter s >= 1.

    Checks h >= 0, |nu(h) - 1| <= mass_tol, and the oscillation bound
    h(w1) <= exp(s Q dist^alpha) h(w2) over every grid pair within xi; the
    sign and oscillation checks allow a slack of 1e-11 max(sup |h|, 1).  On
    failure the maximally violating pair is returned as a certificate.
    """
    vals = np.asarray(h.values, dtype=np.float64)
    n = len(vals)
    Q = holder.Q_tilde if Q is None else float(Q)
    scale = float(np.max(np.abs(vals))) if n else 0.0
    slack = 1e-11 * max(scale, 1.0)

    imin = int(np.argmin(vals))
    if vals[imin] < -slack:
        return ConeCertificate(False, "negativity", (imin, imin), float(vals[imin]))

    w = _weights_of(nu)
    mass = float(w @ vals)
    if abs(mass - 1.0) > mass_tol:
        return ConeCertificate(False, "mass", None, abs(mass - 1.0), mass)

    kmax, ks, dist_a, *_, grid = _scan_plan(n, float(holder.xi), float(holder.alpha))
    windows = np.concatenate([vals, vals[:kmax]])[ks[:, None] + grid]
    bound = np.exp(s * Q * dist_a)[:, None]
    # rows 2k - 2 and 2k - 1 scan shift k both ways; ties go to the first row, then node
    margins = np.stack([vals - bound * windows, windows - bound * vals], axis=1).reshape(-1, n)
    cols = margins.argmax(axis=1)
    worst = (-np.inf, None)
    for row, (i, m) in enumerate(zip(cols.tolist(), margins[np.arange(len(cols)), cols].tolist())):
        if m > worst[0]:
            worst = (m, (i, (i + row // 2 + 1) % n))
    if worst[1] is not None and worst[0] > slack:
        return ConeCertificate(False, "oscillation", worst[1], worst[0], mass)
    return ConeCertificate(True, "ok", worst[1], worst[0] if worst[1] else 0.0, mass)


def cone_oscillation(u, eta: float) -> float:
    """max |u(y) - u(y')| over grid pairs with 0 < dist <= eta (no normalization)."""
    vals = u.values if isinstance(u, GridFunction) else np.asarray(u)
    kmax, ks, *_, cols = _scan_plan(len(vals), float(eta), 1.0)
    windows = np.concatenate([vals, vals[:kmax]])[ks[:, None] + cols]
    return max([0.0, *np.abs(vals - windows).max(axis=1).tolist()])


def cone_variation_bound(holder: HolderParams, s: float, sup_norm: float, Q=None) -> float:
    """Oscillation bound for cone functions: s Q e^{s Q xi^a} xi^a * sup norm.

    Bounds max |h(w1) - h(w2)| over pairs within xi.  The corresponding bound
    for the normalized alpha-variation drops the xi^alpha factor (see
    cone_ratio_bound): the multiplicative cone condition gives
    |dh| <= (e^{s Q dist^a} - 1) h <= s Q dist^a e^{s Q xi^a} h, so dividing by
    dist^alpha removes exactly that factor.
    """
    Q = holder.Q_tilde if Q is None else float(Q)
    xa = holder.xi**holder.alpha
    return s * Q * np.exp(s * Q * xa) * xa * sup_norm


def cone_ratio_bound(holder: HolderParams, s: float, sup_norm: float, Q=None) -> float:
    """Alpha-variation (ratio) bound for cone functions: s Q e^{s Q xi^a} * sup norm."""
    Q = holder.Q_tilde if Q is None else float(Q)
    xa = holder.xi**holder.alpha
    return s * Q * np.exp(s * Q * xa) * sup_norm
