"""The invertible base system: a bilateral full shift with i.i.d. product measure.

A base point is a deterministic symbol oracle keyed by (seed, offset), so the
shift acts by changing the offset and is exactly invertible.  The module also
carries the truncated natural-extension metric, windowed observables with
their Hölder calculus, and the Monte Carlo decay-of-correlations check.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import rng


class SpecError(ValueError):
    """A rejected model parameter; `field` names the constructor argument at fault."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class BaseError(SpecError):
    pass


@dataclass(frozen=True)
class BaseMeasureSpec:
    """i.i.d. product measure on symbols {0, ..., q-1} with weights p."""

    alphabet_size: int = 2
    weights: tuple = (0.5, 0.5)

    def __post_init__(self):
        q = self.alphabet_size
        if q < 2:
            raise BaseError(f"alphabet_size must be >= 2, got {q}", "alphabet_size")
        w = tuple(float(v) for v in self.weights)
        if len(w) != q:
            raise BaseError(f"expected {q} weights, got {len(w)}", "weights")
        if min(w) <= 0.0:
            raise BaseError("weights must be strictly positive", "weights")
        if abs(sum(w) - 1.0) > 1e-12:
            raise BaseError(f"weights sum to {sum(w)!r}, not 1 within 1e-12", "weights")
        object.__setattr__(self, "weights", w)

    def cumulative(self) -> np.ndarray:
        c = np.cumsum(self.weights)
        c[-1] = 1.0
        return c


@dataclass(frozen=True)
class BasePoint:
    """A point of the bilateral shift, realized as a symbol oracle.

    symbol(i) is a pure function of (seed, offset + i) unless the absolute
    index offset + i appears in `overrides`.  Shifting only moves the offset,
    so shift_by(k) followed by shift_by(-k) restores the point exactly.
    """

    seed: int
    law: BaseMeasureSpec
    offset: int = 0
    overrides: tuple = ()  # sorted ((absolute_index, symbol), ...)

    def shift_by(self, k: int) -> "BasePoint":
        return replace(self, offset=self.offset + int(k))

    def symbol(self, i: int) -> int:
        return int(self.symbols(i, i + 1)[0])

    def symbols(self, lo: int, hi: int) -> np.ndarray:
        """Symbols at relative coordinates lo, ..., hi-1 (vectorized)."""
        idx = np.arange(lo, hi, dtype=np.int64) + self.offset
        out = _symbols_of_unit(self.law, rng.to_unit(rng.keyed_hash(self.seed, idx)))
        if self.overrides:
            for j, s in self.overrides:
                inside = (j >= idx[0]) & (j <= idx[-1]) if len(idx) else False
                if inside:
                    out[j - idx[0]] = s
        return out

    def with_overrides(self, pins: dict) -> "BasePoint":
        """Pin symbols at the given *relative* coordinates."""
        merged = dict(self.overrides)
        for i, s in pins.items():
            merged[self.offset + int(i)] = int(s)
        return replace(self, overrides=tuple(sorted(merged.items())))


def shift(x: BasePoint, k: int) -> BasePoint:
    return x.shift_by(k)


def sample_base(spec: BaseMeasureSpec, master_seed: int, stream_id: int = 0) -> BasePoint:
    """Draw a base point distributed like the product measure.

    Distinct stream_ids give independent symbol streams; the same
    (master_seed, stream_id) reproduces the same point bit-exactly.
    """
    return BasePoint(seed=rng.derive_key(master_seed, 0xBA5E, stream_id), law=spec)


def sample_seeds(master_seed: int, stream_id: int, count: int) -> np.ndarray:
    """Vector of point seeds for a batch of i.i.d. base samples."""
    return rng.derive_keys(rng.derive_key(master_seed, 0xBA5E), stream_id, count)


def symbols_for_seeds(spec: BaseMeasureSpec, seeds: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Symbol block [lo, hi) for every seed; shape (len(seeds), hi - lo).

    Equivalent to stacking BasePoint(seed, spec).symbols(lo, hi) row by row,
    kept vectorized for Monte Carlo loops.
    """
    idx = np.arange(lo, hi, dtype=np.int64)
    return _symbols_of_unit(spec, rng.to_unit(rng.keyed_hash_grid(seeds, idx)))


def _symbols_of_unit(spec: BaseMeasureSpec, u: np.ndarray) -> np.ndarray:
    """Symbol drawn by each uniform u in [0, 1): the number of cumulative weights <= u.

    These are the integers of searchsorted(cumulative(), u, side="right"); the
    last cumulative weight is 1 > u, so it is never counted and is left out.
    """
    edges = spec.cumulative()[:-1]
    out = (u >= edges[0]).astype(np.int64)
    for c in edges[1:]:
        out += u >= c
    return out


@dataclass(frozen=True)
class BaseMetricParams:
    """Truncated natural-extension metric d(x,x') = sum 2^-n [x_-n != x'_-n].

    The dropped tail is a geometric series, so the truncation error is at
    most 2^(1 - truncation_window).
    """

    truncation_window: int = 48

    def __post_init__(self):
        if self.truncation_window < 1:
            raise BaseError("truncation_window must be >= 1")

    @property
    def truncation_error(self) -> float:
        return 2.0 ** (1 - self.truncation_window)


def base_distance(x: BasePoint, y: BasePoint, params: BaseMetricParams = BaseMetricParams()) -> float:
    w = params.truncation_window
    sx = x.symbols(-w, 1)
    sy = y.symbols(-w, 1)
    n = np.arange(w, -1, -1, dtype=np.float64)  # coordinate -n sits first
    return float(np.sum((sx != sy) * 2.0 ** (-n)))


@dataclass(frozen=True)
class BaseObservable:
    """Function of finitely many coordinates: window [lo, hi] plus an evaluator.

    The evaluator receives the symbol block as an array of shape (batch,
    hi - lo + 1) and must return a float per row.
    """

    window: tuple
    fn: callable
    holder_exponent: float = 1.0

    def value(self, x: BasePoint) -> float:
        lo, hi = self.window
        return float(self.fn(x.symbols(lo, hi + 1)[None, :])[0])

    def values_for_blocks(self, blocks: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(blocks), dtype=np.float64)


def indicator(coordinate: int, symbol: int) -> BaseObservable:
    """1 when the symbol at `coordinate` equals `symbol`, else 0."""
    j = int(coordinate)
    s = int(symbol)
    return BaseObservable(window=(j, j), fn=lambda b: (b[:, 0] == s).astype(float))


def window_mean(lo: int, hi: int) -> BaseObservable:
    """Average symbol value over the window [lo, hi]."""
    return BaseObservable(window=(lo, hi), fn=lambda b: b.mean(axis=1).astype(float))


def distance_to(x0: BasePoint, params: BaseMetricParams = BaseMetricParams()) -> BaseObservable:
    """x -> d(x, x0); 1-Lipschitz for the truncated metric by construction."""
    w = params.truncation_window
    ref = x0.symbols(-w, 1)
    pw = 2.0 ** (-np.arange(w, -1, -1, dtype=np.float64))

    def fn(blocks):
        return ((blocks != ref[None, :]) * pw[None, :]).sum(axis=1)

    return BaseObservable(window=(-w, 0), fn=fn, holder_exponent=1.0)


@dataclass
class DecayRow:
    n: int
    estimate: float
    std_err: float
    n_samples: int


@dataclass
class CorrelationReport:
    rows: list
    c_fit: float
    kappa_fit: float
    noise_dominated: bool
    fit_points: int

    def as_dict(self) -> dict:
        return asdict(self)


def base_correlation_check(
    spec: BaseMeasureSpec,
    F: BaseObservable,
    G: BaseObservable,
    n_list,
    n_samples: int,
    seed: int,
) -> CorrelationReport:
    """Monte Carlo estimates of |m(G∘shift^-n · F) - m(G) m(F)| per n.

    Per sample x the product term is (F(x) - mean F)(G(shift^-n x) - mean G);
    the reported std_err is the sample std of those centered products divided
    by sqrt(n_samples).  A log-linear fit over entries above the noise floor
    gives (c_fit, kappa_fit); if every entry is within 2 std errors of zero
    the fit is flagged noise_dominated.
    """
    seeds = sample_seeds(seed, 0, n_samples)
    flo, fhi = F.window
    fvals = F.values_for_blocks(symbols_for_seeds(spec, seeds, flo, fhi + 1))
    rows = []
    glo, ghi = G.window
    for n in n_list:
        # G(shift^-n x) reads coordinates [glo - n, ghi - n] of x
        gvals = G.values_for_blocks(symbols_for_seeds(spec, seeds, glo - n, ghi - n + 1))
        fc = fvals - fvals.mean()
        gc = gvals - gvals.mean()
        prod = fc * gc
        est = float(prod.mean())
        se = float(prod.std(ddof=1) / np.sqrt(n_samples))
        rows.append(DecayRow(int(n), est, se, int(n_samples)))

    usable = [(r.n, abs(r.estimate)) for r in rows if abs(r.estimate) > 2.0 * r.std_err]
    if len(usable) < 2:
        return CorrelationReport(rows, float("nan"), float("nan"), True, len(usable))
    ns = np.array([u[0] for u in usable], dtype=float)
    ys = np.log(np.array([u[1] for u in usable]))
    slope, intercept = np.polyfit(ns, ys, 1)
    return CorrelationReport(rows, float(np.exp(intercept)), float(np.exp(slope)), False, len(usable))


def pinned_pair(spec: BaseMeasureSpec, master_seed: int, pair_id: int, depth: int) -> tuple:
    """Two independent base points forced to agree on coordinates [-depth, depth].

    Agreement on forward coordinates matters because conformal data depends
    on forward symbols; see the natural-extension metric, whose level -n
    coordinate carries the whole forward ray.
    """
    x = sample_base(spec, master_seed, 2 * pair_id)
    y = sample_base(spec, master_seed, 2 * pair_id + 1)
    pins = {i: x.symbol(i) for i in range(-int(depth), int(depth) + 1)}
    return x, y.with_overrides(pins)


def holder_norm_base(
    spec: BaseMeasureSpec,
    F: BaseObservable,
    beta: float,
    n_pairs: int,
    seed: int,
    params: BaseMetricParams = BaseMetricParams(),
) -> tuple:
    """Sampled (sup-norm estimate, variation estimate) of F on the base.

    Pairs are generated as a deterministic stream whose agreement depth cycles
    through 0..truncation_window, so the estimate is monotone nondecreasing in
    n_pairs for a fixed seed.  Pairs land at distances spanning decades; only
    coordinates in [-truncation_window, 0] are perturbed, matching what the
    truncated metric can see.
    """
    if not 0.0 < beta <= 1.0:
        raise BaseError("beta must lie in (0, 1]")
    w = params.truncation_window
    sup_est = 0.0
    var_est = 0.0
    for t in range(n_pairs):
        depth = (t // 2) % (w + 1)
        x = sample_base(spec, seed, 2 * t)
        if t % 2 == 0:
            # single-coordinate flip at -depth: distance exactly 2^-depth
            y = x.with_overrides({-depth: (x.symbol(-depth) + 1) % spec.alphabet_size})
        else:
            # independent point pinned to agree strictly above -depth
            ref = sample_base(spec, seed, 2 * t + 1)
            pins = {i: x.symbol(i) for i in range(-depth + 1, 1)} if depth > 0 else {}
            y = ref.with_overrides(pins)
        d = base_distance(x, y, params)
        fx, fy = F.value(x), F.value(y)
        sup_est = max(sup_est, abs(fx), abs(fy))
        if d > 0:
            var_est = max(var_est, abs(fx - fy) / d**beta)
    return sup_est, var_est
