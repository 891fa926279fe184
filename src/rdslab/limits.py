"""Statistical verification of the limit-law consequences.

Characteristic-function encodings, block near-independence decay, the
covariance series and its asymptotic variance, CLT and iterated-logarithm
probes, and the degenerate coboundary alternative.  All Monte Carlo here
runs on an OrbitEnsemble: a conformal window over a batch of i.i.d. base
points, with fiber states drawn from the invariant fiber measures by CDF
inversion; with the geometric potential the covariance series and mu(g) are
exact sparse products of the annealed operator instead (`annealed.py`).
`covariance_sequence` is the one entry point of the series: it picks the
route and truncates it, for sigma2, clt and lil alike.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import rng
from .annealed import AnnealedOperator, geometric_remainder
from .base import sample_seeds, symbols_for_seeds
from .fiber import GridFunction, _map_step, forward_phase_sum
from .thermo import ConformalWindow, Lab, _mu_rows
from .transfer import transfer_iterate

SIGMA2_FLOOR = 1e-3

UNTESTED_CLAIMS = (
    "almost-sure Brownian coupling (only its corollaries are tested)",
    "error exponent 1/4 (no finite-sample diagnostic exists)",
)


class LimitsError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# batched orbit machinery


class OrbitEnsemble(ConformalWindow):
    """Batch of i.i.d. base points with conformal data along a forward window.

    A ConformalWindow whose symbol block [-depth, fwd + depth) is drawn from
    keyed seeds (stream `stream` of `master_seed`), so trial t is the base
    point of the t-th seed; fiber states at level 0 are drawn from the
    invariant fiber measures by CDF inversion.
    """

    error = LimitsError

    def __init__(self, lab: Lab, n_trials: int, master_seed: int, stream: int,
                 fwd: int = 0, depth: int = 24, nu_levels=(0,)):
        self.lab = lab
        self.seeds = sample_seeds(master_seed, stream, n_trials)
        self._z_key = rng.derive_key(master_seed, 0x5A17, stream, 0)
        symbols = symbols_for_seeds(lab.spec.base, self.seeds, -int(depth), int(fwd) + int(depth))
        super().__init__(lab.table, symbols, -int(depth), fwd=fwd, depth=depth,
                         nu_levels=nu_levels)

    def sample_z(self) -> np.ndarray:
        """One fiber point per trial, drawn from mu at level 0 by CDF inversion.

        The selected cell gets uniform in-cell jitter: bias O(1/N), dominated
        by Monte Carlo error at the default resolution.
        """
        cdf = np.cumsum(self.mu_weights(), axis=1)
        trials = np.arange(len(self.seeds))
        u = rng.to_unit(rng.keyed_hash(self._z_key, trials))
        jit = rng.to_unit(rng.keyed_hash(rng.derive_key(self._z_key, 0x717), trials))
        n = self.lab.n_points
        # each cdf row is non-decreasing, so counting entries below u is a
        # left-sided binary search on every row at once
        cells = np.minimum((cdf < u[:, None]).sum(axis=1), n - 1)
        return (cells + jit) / n

    def chain_perturbed(self, rows: np.ndarray, start: int, r_per_level) -> np.ndarray:
        """Row-wise perturbed operator chain over levels start, start+1, ...

        r_per_level lists one frequency per level for the lab's observable;
        zero entries fall back to the plain normalized step, which keeps real
        rows real (no copy is made up front).
        """
        out = rows
        for i, r in enumerate(r_per_level):
            out = self.transport(out, start + i, r, self.lab.observable)
        return out


def _complex_se(values: np.ndarray) -> float:
    m = values.mean()
    return float(np.sqrt(np.mean(np.abs(values - m) ** 2) / len(values)))


JITTER_SCALE = 2.0**-43
ORBIT_CHUNK = 500
COVARIANCE_CHUNK = 256
# Cells (steps x trials) per block of symbols, jitter and saved states: a block
# runs max(1, ORBIT_BLOCK // width) steps, so its buffers keep one size at every
# width.  On the clt pass (width 2000), 16k, 32k and 64k cells took 3.18, 3.11
# and 3.34 s (best of 5), and 32k takes the fewest page faults: 9.5k minor faults
# a pass against 92k at 16k (a float block is then 128 KiB, glibc's default mmap
# threshold).
ORBIT_BLOCK = 32_000


def _orbit_group(lab: Lab, g, record_at, n_steps, seed, stream, sample_depth, running_stat,
                 chunks):
    """One wide orbit state over the trial chunks [(ci, a, b), ...], which are contiguous."""
    seeds, keys, z = [], [], []
    for ci, a, b in chunks:
        sub = (int(stream) << 20) | ci
        ens = OrbitEnsemble(lab, b - a, seed, sub, fwd=0, depth=sample_depth)
        seeds.append(ens.seeds)
        keys.append(rng.derive_keys(rng.derive_key(seed, 0x7177, sub), 1, b - a))
        z.append(ens.sample_z())
    seeds, jitter_keys = np.concatenate(seeds), np.concatenate(keys)
    width, sl = len(seeds), slice(chunks[0][1], chunks[-1][2])
    block = max(1, ORBIT_BLOCK // width)
    d, eps = lab.spec.map_coefficients
    S = np.zeros(width)
    scratch = np.empty(width)
    zs = np.empty((block + 1, width))  # row k: the state before step j0 + k
    zs[0] = np.concatenate(z)
    out = np.zeros((len(record_at), width))
    ri = sum(t <= 0 for t in record_at)  # the next record time; S_0 = 0
    for j0 in range(0, n_steps, block):
        j1 = min(j0 + block, n_steps)
        # step-major: row k of each block belongs to step j0 + k
        syms = np.ascontiguousarray(symbols_for_seeds(lab.spec.base, seeds, j0, j1).T)
        hashes = rng.keyed_hash_grid(jitter_keys, np.arange(j0, j1))
        jit = np.ascontiguousarray(rng.to_unit(hashes).T)
        jit -= 0.5
        jit *= JITTER_SCALE
        d_rows, eps_rows = d[syms], eps[syms]
        n = j1 - j0
        for k in range(n):
            _map_step(d_rows[k], eps_rows[k], zs[k], jit[k], out=zs[k + 1], scratch=scratch)
        # row k becomes S after step j0 + k + 1; cumsum adds in step order, so the
        # bits are those of a running sum updated once per step
        sums = g.values_for_symbol(syms, zs[:n])
        sums[0] += S
        np.cumsum(sums, axis=0, out=sums)
        S = sums[-1]
        zs[0] = zs[n]
        if running_stat is not None:
            rows = sums.view()
            rows.flags.writeable = False
            running_stat(j0, rows, sl)
        while ri < len(record_at) and record_at[ri] <= j1:
            out[ri] = sums[record_at[ri] - j0 - 1]
            ri += 1
    return out


def orbit_birkhoff_sums(lab: Lab, g, record_at, trials: int, seed: int, stream: int = 7,
                        sample_depth: int = 24, running_stat=None, threads: int = 1):
    """Per-trial Birkhoff sums S_n of g at the requested times.

    Initial fiber points are drawn from the invariant fiber measures, so the
    sampled process is stationary.  Returns (times, matrix (len(times),
    trials)).

    Every step applies a keyed jitter of size 2^-43.  Without it, float64
    iteration of d z mod 1 drains mantissa bits (multiplying by the branch
    count is exact), and since z = 0 is fixed by every branch, all orbits
    collapse onto exactly 0 within ~130 steps and the statistics degenerate
    to the symbol-only process.  The jitter replenishes one-bit-per-step
    entropy while staying ten orders of magnitude below the quadrature bias.

    Randomness comes in trial chunks of ORBIT_CHUNK: chunk ci is substream
    (stream << 20) | ci, with its own seeds, start states and jitter keys.
    The chunks are split into min(threads, chunks) contiguous groups, and
    each group runs on the thread pool as one wide state: the chunks' seeds,
    jitter keys and start states are concatenated and stepped together.
    Every operation is elementwise per trial, so each S_n has the same bits
    at every thread count.

    Symbols and jitter are generated in blocks of max(1, ORBIT_BLOCK // width)
    steps, width being the group's trial count.  Within a block only the map
    steps run per step, saving each state; the observable is then evaluated
    on the whole block at once and summed along the steps by a cumulative
    sum, which adds in step order, as a per-step running sum would.

    `running_stat(t0, rows, sl)` is called once per block, in step order
    within a group: `rows` is a read-only (steps x width) view whose row k
    holds S after step t0 + k + 1 for the trials in slice `sl`.  With
    threads > 1, groups call it concurrently on disjoint slices.
    """
    record_at = sorted(set(int(t) for t in record_at))
    n_steps = record_at[-1]
    bounds = list(range(0, trials, ORBIT_CHUNK)) + [trials]
    chunks = [(ci, a, b) for ci, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]
    n, k = len(chunks), min(max(1, int(threads)), len(chunks))
    groups = [chunks[i * n // k:(i + 1) * n // k] for i in range(k)]
    out = np.zeros((len(record_at), trials))

    def run(group):
        out[:, group[0][1]:group[-1][2]] = _orbit_group(
            lab, g, record_at, n_steps, seed, stream, sample_depth, running_stat, group)

    if len(groups) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(groups)) as ex:
            list(ex.map(run, groups))  # re-raises a group's exception
    else:
        for group in groups:
            run(group)
    return record_at, out


# ---------------------------------------------------------------------------
# encoding (assumption 1)


@dataclass
class EncodingResult:
    lhs: complex
    rhs: complex
    difference: float
    std_err: float
    n: int
    n_samples: int
    within_tolerance: bool
    orbit_bias_warning: bool = False

    def as_dict(self):
        out = asdict(self)
        for name in ("lhs", "rhs"):
            z = out.pop(name)
            out[f"{name}_re"], out[f"{name}_im"] = z.real, z.imag
        return out


def encoding_check(lab: Lab, r_sequence, n_base_samples: int, seed: int,
                   sample_depth: int = 24, epsilon0: float = 1.0) -> EncodingResult:
    """Both routes of the characteristic-function identity of the lab's
    observable g, on shared samples.

    lhs: Monte Carlo of e^{i sum r_j g o T^j} over orbits started from the
    invariant fiber measures.  rhs: per-sample operator chain applied to the
    fiber density, integrated against the top conformal weights.  Per sample
    the conditional mean of the lhs equals the rhs, so the difference is
    mean-zero and tested against 4x its own standard error.
    """
    g = lab.observable
    r_sequence = tuple(float(r) for r in r_sequence)
    if any(abs(r) > epsilon0 for r in r_sequence):
        raise LimitsError("|r_j| must stay within epsilon0")
    n = len(r_sequence)
    ens = OrbitEnsemble(lab, n_base_samples, seed, stream=11, fwd=n, depth=sample_depth,
                        nu_levels=(0, n))
    phase = forward_phase_sum(lab.spec, [ens.symbol(j) for j in range(n)], ens.sample_z(),
                              r_sequence, g)
    lhs_t = np.exp(1j * phase)
    rows = ens.chain_perturbed(ens.rho_snap[0], 0, r_sequence)
    rhs_t = ens.fiber_integral(n, rows)
    diff = lhs_t - rhs_t
    se = _complex_se(diff)
    d = abs(diff.mean())
    return EncodingResult(complex(lhs_t.mean()), complex(rhs_t.mean()), float(d), se,
                          n, n_base_samples, bool(d <= max(4.0 * se, 1e-9)),
                          orbit_bias_warning=not lab.spec.has_geometric_potential)


# ---------------------------------------------------------------------------
# condition (H)


@dataclass(frozen=True)
class BlockConfig:
    """Two groups of frequency blocks; condition_h_check puts gaps of k steps between them."""

    n: int
    m: int
    boundaries: tuple
    frequencies: tuple
    epsilon0: float = 1.0

    def __post_init__(self):
        b = tuple(int(v) for v in self.boundaries)
        r = tuple(float(v) for v in self.frequencies)
        if len(b) != self.n + self.m + 1:
            raise LimitsError("need n + m + 1 boundaries")
        if len(r) != self.n + self.m:
            raise LimitsError("need n + m frequencies")
        if any(b2 <= b1 for b1, b2 in zip(b, b[1:])):
            raise LimitsError("boundaries must be strictly increasing")
        if b[0] < 0 or self.n < 1 or self.m < 1:
            raise LimitsError("boundaries must be nonnegative, n and m positive")
        if any(abs(v) > self.epsilon0 for v in r):
            raise LimitsError("|r_j| must stay within epsilon0")
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "frequencies", r)


@dataclass
class CondHRow:
    k: int
    difference: float
    std_err: float
    operator_term: float
    operator_se: float
    base_term: float
    base_se: float


@dataclass
class CondHResult:
    rows: list
    c_fit: float
    amplitude_fit: float
    noise_dominated: bool
    n_samples: int

    def as_dict(self):
        return asdict(self)


def condition_h_check(lab: Lab, config: BlockConfig, k_list, n_base_samples: int,
                      seed: int, sample_depth: int = 24) -> CondHResult:
    """Decay of the block-coupling difference in the gap length k.

    Per sample the joint functional minus the product of block functionals
    splits exactly into the gap summand (the chain with L_0^k - Q^k inserted,
    noise-free given the sample) and the empirical covariance of the two
    block functionals over the base.  The gap summand keeps constant relative
    Monte Carlo precision as it decays, so the rate is fitted on it; the full
    difference and both components are reported per k with standard errors.

    One ensemble serves every k: the joint chain and rho advance through the
    gap one level at a time, and each functional is read with nu at the level
    its chain ends, inner = b_n for the first blocks and b_last + k for the
    others.  Each nu snapshot is dropped once read.
    """
    b, r, nb, mb = config.boundaries, config.frequencies, config.n, config.m

    r_first = [0.0] * b[0] + [r[j] for j in range(nb) for _ in range(b[j], b[j + 1])]
    r_second = [r[j] for j in range(nb, nb + mb) for _ in range(b[j], b[j + 1])]

    ks = sorted(int(v) for v in k_list)
    if not ks or ks[0] < 0 or len(set(ks)) < len(ks):
        raise LimitsError(f"k_list must hold distinct nonnegative gap lengths, got {list(k_list)}")
    inner, last = b[nb], b[-1]  # inner < last + k for every k, as m >= 1
    ens = OrbitEnsemble(lab, n_base_samples, seed, stream=13, fwd=last + ks[-1],
                        depth=sample_depth, nu_levels=(inner, *(last + k for k in ks)))
    # head L_0^{b_1} plus first blocks; the first block functional is read where its chain ends
    rho = ens.rho_snap.pop(0)
    u = ens.chain_perturbed(rho, 0, r_first)
    rho, split = ens.chain_perturbed(rho, 0, [0.0] * inner), inner
    g_t = ens.fiber_integral(inner, u)
    del ens.nu_snap[inner]
    rows = []
    for k in ks:  # the joint chain u and rho go through the gap L_0^k from the last split
        gap = [0.0] * (inner + k - split)
        u, rho = ens.chain_perturbed(u, split, gap), ens.chain_perturbed(rho, split, gap)
        split = inner + k
        # second blocks; the joint and the second block functional (the transported
        # density restarted at the split fiber) are both read at b_last + k
        joint_t = ens.fiber_integral(last + k, ens.chain_perturbed(u, split, r_second))
        f_t = ens.fiber_integral(last + k, ens.chain_perturbed(rho, split, r_second))
        del ens.nu_snap[last + k]

        delta_t = joint_t - f_t * g_t                       # the gap summand, per sample exact
        cov_t = (f_t - f_t.mean()) * (g_t - g_t.mean())     # base-coupling summand
        op_term, base_term = complex(delta_t.mean()), complex(cov_t.mean())
        se_op, se_base = _complex_se(delta_t), _complex_se(cov_t)
        # op_term + base_term == mean(joint) - mean(f) mean(g), exactly
        rows.append(CondHRow(k, float(abs(op_term + base_term)), float(np.hypot(se_op, se_base)),
                             float(abs(op_term)), se_op, float(abs(base_term)), se_base))

    usable = [(row.k, row.operator_term) for row in rows
              if row.operator_term > max(2.0 * row.operator_se, 1e-12)]
    if len(usable) < 2:
        return CondHResult(rows, float("nan"), float("nan"), True, n_base_samples)
    ks, terms = np.array(usable).T
    slope, intercept = np.polyfit(ks, np.log(terms), 1)
    return CondHResult(rows, float(-slope), float(np.exp(intercept)), False, n_base_samples)


# ---------------------------------------------------------------------------
# assumption (6)


@dataclass
class Assumption6Result:
    beta_pooled: float
    table: list
    by_n: dict
    growth_slope: float
    uniform: bool

    def as_dict(self):
        return asdict(self)


def assumption6_check(lab: Lab, n_list, r_draws: int, base_pairs, seed: int,
                      epsilon0: float = 1.0) -> Assumption6Result:
    """Uniformity of the Hölder norm of x -> nu_x(perturbed chain of rho).

    The chain starts n fibers behind x and ends at x.  For every (n, r-draw)
    the sup and the Hölder variation over pinned base pairs are estimated;
    one variation exponent is pooled across all draws (clipped to (0, 1]) so
    the norms are comparable.  Contract: no growth trend of the norm in n.

    Pinning is chain-anchored: a pair at margin D agrees on the window
    [-n - D, +D] covering the whole reading window of the functional, and the
    ratio is taken against the margin scale 2^-D.  This is the discrete
    analogue of the natural-extension metric, where each level -m coordinate
    is a downstairs point carrying its forward ray.  Without the anchor the
    interior chain coordinates have flat influence and the symbolic Hölder
    constant grows with n for locally constant systems (measured; see the
    decisions ledger).
    """
    gen = rng.generator(seed, 0xA6)
    n_list = sorted(int(n) for n in n_list)
    draws = [tuple(gen.uniform(-epsilon0, epsilon0, size=n_list[-1])) for _ in range(r_draws)]

    records = []
    pooled = []
    with lab.table.scoped_weights():  # each draw's phases serve every n and pair
        for n in n_list:
            anchored = []
            for x, y, margin in base_pairs:
                lo, hi = -n - int(margin), int(margin) + 1
                pins = dict(zip(range(lo, hi), x.symbols(lo, hi).tolist()))
                anchored.append((x, y.with_overrides(pins), int(margin)))
            # one window over the chain starts n fibers behind both points of every
            # pair: rho at level 0, the lambda chain, and nu at level n (at x itself)
            starts = [p.shift_by(-n) for x, y, _ in anchored for p in (x, y)]
            win = lab.window(starts, fwd=n, nu_levels=(n,))
            rho, nu = win.rho_snap[0], win.nu_snap[n]
            chains = np.stack([win.lam_at(j) for j in range(n)], axis=1)

            def f_value(i, rs):
                u = GridFunction(rho[i].astype(complex), interp=lab.interp, fiber=starts[i])
                chain = transfer_iterate(lab.table, starts[i], u, n, chains[i], rs[:n],
                                         lab.observable)
                return complex(nu[i] @ chain.values)

            for di, rs in enumerate(draws):
                sup, pair_stats = 0.0, []
                for pi, (x, y, margin) in enumerate(anchored):
                    fx = f_value(2 * pi, rs)
                    fy = f_value(2 * pi + 1, rs)
                    d = 2.0 ** (-margin)
                    sup = max(sup, abs(fx), abs(fy))
                    pair_stats.append((d, abs(fx - fy)))
                    if abs(fx - fy) > 1e-13:
                        pooled.append((np.log(d), np.log(abs(fx - fy))))
                records.append({"n": int(n), "draw": di, "sup": float(sup), "pairs": pair_stats})

    beta = 1.0
    if len(pooled) >= 3 and len(set(p[0] for p in pooled)) >= 3:
        beta = float(np.polyfit(*np.array(pooled).T, 1)[0])
    beta = float(min(max(beta, 0.05), 1.0))

    for rec in records:
        var = max((diff / d**beta for d, diff in rec["pairs"]), default=0.0)
        rec["variation"] = float(var)
        rec["holder_norm"] = float(rec["sup"] + var)
        rec["pairs"] = [[float(d), float(diff)] for d, diff in rec["pairs"]]

    by_n = {}
    for n in n_list:
        norms = [rec["holder_norm"] for rec in records if rec["n"] == n]
        by_n[n] = {"max": float(max(norms)), "min": float(min(norms))}
    growth = 0.0 if len(n_list) < 2 else float(np.polyfit(
        np.array(n_list, dtype=float), np.log([by_n[n]["max"] for n in n_list]), 1)[0])
    return Assumption6Result(beta, records, by_n, growth, bool(growth <= 0.05))


# ---------------------------------------------------------------------------
# covariance series and sigma^2


@dataclass
class CovarianceResult:
    s: np.ndarray  # s_m = Cov(g, g o T^m) for m = 0..M
    se: np.ndarray  # their standard errors, 0 on the annealed route
    mu: float  # mu(g) and its standard error, 0 on the annealed route
    mu_se: float
    route: str  # "annealed" or "ensemble" (route A)
    tail: float  # the route's bound on the lags past M, which sigma2 holds to tail_tol

    def sigma2(self) -> float:
        """The series s_0 + 2 sum_{m=1..M} s_m."""
        return float(self.s[0] + 2.0 * self.s[1:].sum())


def covariance_sequence(lab: Lab, g=None, M: int = 12, n_base_samples: int = 600,
                        seed: int = 42, tail_tol: float = 1e-4, m_max: int = 48,
                        sample_depth: int = 24) -> CovarianceResult:
    """s_m = Cov(g, g o T^m) for m = 0..M, and mu(g), at the first M from the
    given one whose tail bound is below tail_tol, or at m_max.

    With the geometric potential both are exact sparse products of the
    annealed operator (`annealed.py`), with standard error 0: one operator
    serves every lag, M grows by one, and the tail is the geometric
    remainder of the last two lags.  Otherwise route A
    (`ensemble_covariances`) estimates them and is rebuilt at M grown by half.
    """
    g = g if g is not None else lab.observable
    M = int(M)
    if not lab.spec.has_geometric_potential:
        while True:
            cov = ensemble_covariances(lab, g, M, n_base_samples, seed, sample_depth)
            if cov.tail < tail_tol or M >= m_max:
                return cov
            M = min(m_max, int(np.ceil(M * 1.5)))
    op = AnnealedOperator(lab.table)
    lags = op.lags(g)
    s = [next(lags) for _ in range(M + 1)]
    tail = geometric_remainder(s[-2:])
    while not (tail < tail_tol) and len(s) <= m_max:  # a NaN tail grows M to m_max
        s.append(next(lags))
        tail = geometric_remainder(s[-2:])
    return CovarianceResult(np.array(s), np.zeros(len(s)), op.mean(g), 0.0, "annealed", tail)


def ensemble_covariances(lab: Lab, g, M: int, n_base_samples: int, seed: int,
                         sample_depth: int = 24) -> CovarianceResult:
    """Route A: s_m for m = 0..M and mu(g) from chunks of base samples, for any potential.

    Per base sample, nu_{m}(g * L_0^m(g centered * rho)) plus the empirical
    base covariance of G(x) = mu_x(g), whose level-0 mean is mu(g); the fiber
    part is quadrature-exact per sample; the chain and rho go up the levels
    together, and each nu snapshot is released once read.  s_M has a Monte
    Carlo floor, so the tail is the fiber part of s_M plus the geometric
    extrapolation fitted to the base parts above 2 standard errors.  The
    per-lag cross-check against orbit products is
    tests/test_limits.py::test_covariance_routes_agree.
    """
    M = int(M)
    nodes = np.arange(lab.n_points) / lab.n_points

    fiber_terms, gm_all = [[] for _ in range(M + 1)], [[] for _ in range(M + 1)]
    for ci, done in enumerate(range(0, n_base_samples, COVARIANCE_CHUNK)):
        size = min(COVARIANCE_CHUNK, n_base_samples - done)
        ens = OrbitEnsemble(lab, size, seed, stream=100 + ci, fwd=M, depth=sample_depth,
                            nu_levels=tuple(range(M + 1)))
        rho = ens.rho_snap[0]
        for m in range(M + 1):
            nu = ens.nu_snap.pop(m)
            gm = g.values_for_symbol(ens.symbol(m)[:, None], nodes[None, :])
            g_mean = (_mu_rows(nu, rho) * gm).sum(axis=1)  # G at level m: mu of g on its fiber
            if m == 0:
                u = (gm - g_mean[:, None]) * rho
            fiber_terms[m].extend((nu * gm * u).sum(axis=1).tolist())
            gm_all[m].extend(g_mean.tolist())
            if m < M:
                u, rho = ens.transport(u, m), ens.transport(rho, m)

    fiber, gm = np.array(fiber_terms), np.array(gm_all)  # row m: lag m, one column per sample
    g0 = gm[0]
    base_prod = (g0 - g0.mean()) * (gm - gm.mean(axis=1)[:, None])
    fiber_part, base_part = fiber.mean(axis=1), base_prod.mean(axis=1)
    s = fiber_part + base_part
    se = (fiber + base_prod).std(axis=1, ddof=1) / np.sqrt(len(g0))
    fiber_pts = [(m, abs(fiber_part[m])) for m in range(1, M + 1) if abs(fiber_part[m]) > 1e-13]
    base_pts = [(m, abs(base_part[m])) for m in range(1, M + 1)
                if abs(base_part[m]) > 2.0 * se[m]]
    fiber_tail, fiber_rate = _geometric_tail(fiber_pts[-6:], M)
    base_tail, _ = _geometric_tail(base_pts[-6:], M, fallback_rate=fiber_rate)
    return CovarianceResult(s, se, float(g0.mean()), float(g0.std(ddof=1) / np.sqrt(len(g0))),
                            "ensemble", fiber_tail + base_tail)


def _geometric_tail(points, at_m, fallback_rate=None):
    """(value, rate): the decay fitted to points (m, value > noise), extrapolated to at_m."""
    if not points:
        return 0.0, fallback_rate
    if len(points) == 1:
        m0, v0 = points[0]
        rate = 0.5 if fallback_rate is None else fallback_rate
        return float(v0 * rate ** (at_m - m0)), rate
    a = np.array(points, dtype=float)
    sl, ic = np.polyfit(a[:, 0], np.log(a[:, 1]), 1)
    rate = float(np.exp(min(sl, -1e-3)))
    return float(np.exp(ic) * rate**at_m), rate


@dataclass
class VarianceReport:
    s_values: list
    s_std_errs: list
    sigma2_series: float
    sigma2_series_se: float
    sigma2_mc: float
    sigma2_mc_se: float
    m_used: int
    tail_bound: float
    tail_ok: bool
    agreement: bool
    n_var: int
    trials: int
    mu_estimate: float
    series_route: str
    # the direct pass's S_n and the series' mu(g), read by clt_test, not reported
    sums: np.ndarray
    g_mean: float
    g_mean_se: float
    orbit_bias_warning: bool = False

    def as_dict(self):
        return {k: v for k, v in asdict(self).items() if k not in ("sums", "g_mean", "g_mean_se")}


def sigma2_estimate(lab: Lab, g=None, M: int = 12, n_base_samples: int = 600,
                    n_var: int = 10_000, trials: int = 2000, seed: int = 42,
                    tail_tol: float = 1e-4, m_max: int = 48,
                    sample_depth: int = 24, threads: int = 1) -> VarianceReport:
    """sigma^2 by the covariance series, cross-validated against Var(S_n)/n.

    The series is s_0 + 2 sum_{m>=1} s_m from `covariance_sequence`, on
    the route named by `series_route`, truncated adaptively: M grows, up to
    m_max, until the route's tail bound drops below tail_tol.  Agreement
    requires |series - direct| <= max(5% of series, 4 combined standard errors).
    """
    g = g if g is not None else lab.observable
    cov = covariance_sequence(lab, g, M, n_base_samples, seed, tail_tol, m_max, sample_depth)
    sigma2_series = cov.sigma2()
    series_se = float(np.sqrt(cov.se[0] ** 2 + 4.0 * (cov.se[1:] ** 2).sum()))

    _, sums = orbit_birkhoff_sums(lab, g, [n_var], trials, seed, stream=29,
                                  sample_depth=sample_depth, threads=threads)
    sn = sums[0]
    sigma2_mc = float(sn.var(ddof=1) / n_var)
    mc_se = float(sigma2_mc * np.sqrt(2.0 / (trials - 1)))
    diff = abs(sigma2_series - sigma2_mc)
    tol = max(0.05 * abs(sigma2_series), 4.0 * np.sqrt(series_se**2 + mc_se**2))
    return VarianceReport(
        cov.s.tolist(), cov.se.tolist(), sigma2_series, series_se, sigma2_mc, mc_se,
        len(cov.s) - 1, float(cov.tail), bool(cov.tail < tail_tol), bool(diff <= tol),
        int(n_var), int(trials), float(sn.mean() / n_var), cov.route, sn, cov.mu, cov.mu_se,
        orbit_bias_warning=not lab.spec.has_geometric_potential)


# ---------------------------------------------------------------------------
# CLT, LIL, coboundary


@dataclass
class CltResult:
    status: str
    ks_stat: float
    p_value: float
    sigma2_used: float
    n: int
    trials: int
    sample_mean: float
    sample_var: float
    sample_skew: float
    mu_orbit: float
    mu_orbit_se: float
    mu_thermo: float
    mu_thermo_se: float
    centering_consistent: bool
    orbit_bias_warning: bool = False
    samples: np.ndarray | None = None  # the normalized sums; not part of the report results

    def as_dict(self):
        return {k: v for k, v in asdict(self).items() if k != "samples"}


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) for the two-sided one-sample KS statistic D_n, exactly.

    Durbin's matrix, evaluated as in Marsaglia, Tsang and Wang, "Evaluating
    Kolmogorov's distribution", J. Stat. Softw. 8 (2003): with k = ceil(n d),
    h = k - n d and m = 2k - 1, H[i, j] = 1/(i - j + 1)! where i - j + 1 >= 0,
    its first column less h^(i+1)/(i+1)! and its last row less h^(m-j)/(m-j)!,
    and P = n!/n^n (H^n)[k, k].  Row k of H^n comes from repeated squaring;
    every product and n!/n^n keep a power-of-two exponent apart, and 1/j! is
    formed by division, so nothing overflows at any n or m.  D_n >= 1/(2n)
    always, and at n d = 1/2 the matrix is [0].
    """
    k = int(np.ceil(n * d))
    h, m = k - n * d, 2 * k - 1
    lag = np.arange(m)[:, None] - np.arange(m) + 1
    H = (lag >= 0) * 1.0
    hp = h ** np.arange(1, m + 1)
    H[:, 0] -= hp
    H[-1] -= hp[::-1]
    H[-1, 0] += max(2.0 * h - 1.0, 0.0) ** m
    H *= np.cumprod(np.r_[1.0, 1.0 / np.arange(1, m + 1)])[np.maximum(lag, 0)]  # 1/lag!

    def scaled(a, e):  # a / 2^c, its entries below 1 in size, and e + c
        c = int(np.frexp(np.abs(a).max())[1])
        return np.ldexp(a, -c), e + c

    row, e, sq, se, rest = np.eye(m)[k - 1], 0, H, 0, n
    while True:
        if rest & 1:
            row, e = scaled(row @ sq, e + se)
        rest >>= 1
        if not rest:
            break
        sq, se = scaled(sq @ sq, 2 * se)
    mant, exps = np.frexp(np.arange(1, n + 1) / n)  # n!/n^n = prod_i i/n
    p, e = row[k - 1], e + int(exps.sum())
    for block in np.array_split(mant, -(-n // 512)):  # a block's product is at least 2^-512
        p, c = np.frexp(p * np.prod(block))
        e += int(c)
    return float(np.ldexp(p, e))


def _ks_normal(samples: np.ndarray, sigma: float) -> tuple:
    """(D, p): the two-sided one-sample KS test of samples against N(0, sigma^2).

    D is computed as scipy.stats.kstest does, with its bits.  p is scipy's
    min(1, 2 smirnov(n, D)) where n D^2 >= 2.2 (>= 4 for n <= 140), and one
    less the exact Durbin CDF elsewhere, where scipy uses the Pomeranz
    recursion or the Pelz-Good approximation.
    """
    from scipy.special import ndtr, smirnov  # scipy.stats would add ~50 MB and 0.8 s to the process

    n = len(samples)
    cdf = ndtr(np.sort(samples) / sigma)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    d = float(d_plus if d_plus > d_minus else d_minus)
    if n * d * d >= (4.0 if n <= 140 else 2.2):
        return d, min(1.0, 2.0 * float(smirnov(n, d)))
    return d, 1.0 - _durbin_cdf(n, d)


def _skew(x: np.ndarray) -> float:
    """m3 / m2^1.5 of the biased central moments; NaN where m2 is zero to rounding."""
    mean = x.mean()
    dev = x - mean
    m2, m3 = np.mean(dev**2), np.mean(dev**2 * dev)
    return float(m3 / m2**1.5) if m2 > (np.finfo(float).eps * mean) ** 2 else float("nan")


def clt_test(var: VarianceReport) -> CltResult:
    """KS test of (S_n - n mu)/sqrt(n) against N(0, sigma^2), read from a sigma2 report.

    The sums S_n are the report's own direct Var(S_n)/n pass and sigma^2 is
    its covariance series.  Centering uses the pooled orbit mean (std err
    sigma/sqrt(n * trials)), cross-checked against the covariance route's
    mu(g) (exact on the annealed route) within 4 combined standard errors.
    The p-value is exact (`_ks_normal`), and no part of scipy.stats loads.
    At or below the declared sigma^2 floor the caller is directed to the
    coboundary check.

    sigma2's agreement check and this KS test read the same sums; each keeps
    its sample size and its null hypothesis.  The series reads no orbit pass.
    """
    sn, n, trials, sigma2 = var.sums, var.n_var, var.trials, var.sigma2_series
    mu_thermo, mu_thermo_se = var.g_mean, var.g_mean_se
    mu_orbit = var.mu_estimate
    mu_orbit_se = float(sn.std(ddof=1) / (n * np.sqrt(trials)))
    consistent = abs(mu_orbit - mu_thermo) <= 4.0 * np.sqrt(mu_orbit_se**2 + mu_thermo_se**2) + 1e-12

    samples = (sn - n * mu_orbit) / np.sqrt(n)
    if sigma2 <= SIGMA2_FLOOR:
        status, ks_stat, p_value = "degenerate: use coboundary_check", float("nan"), float("nan")
    else:
        status, (ks_stat, p_value) = "ok", _ks_normal(samples, np.sqrt(sigma2))
    return CltResult(status, ks_stat, p_value, float(sigma2), n, trials,
                     float(samples.mean()), float(samples.var(ddof=1)), _skew(samples),
                     mu_orbit, mu_orbit_se, mu_thermo, mu_thermo_se, bool(consistent),
                     orbit_bias_warning=var.orbit_bias_warning, samples=samples)


@dataclass
class LilResult:
    checkpoints: list
    median_trajectory: list
    trajectories: np.ndarray  # (len(checkpoints), trials) per-trial running maxima
    terminal_values: list
    median_terminal: float
    sigma_used: float
    mu_used: float
    centering: str  # "annealed" (exact mu and sigma^2) or "pilot" (a first orbit pass)
    orbit_bias_warning: bool = False

    def as_dict(self):
        return {k: v for k, v in asdict(self).items() if k != "trajectories"}


def _lil_denominators(sigma: float, n_max: int) -> np.ndarray:
    """sigma sqrt(2 t log log t) at index t - 10 for t = 10, ..., n_max.

    One array expression, `array_equal` on this numpy build to evaluating it
    for each t as a scalar (pinned by a test).
    """
    t = np.arange(10, n_max + 1)
    return sigma * np.sqrt(2.0 * t * np.log(np.log(t)))


def lil_probe(lab: Lab, g=None, n_max: int = 100_000, trials: int = 200, seed: int = 42,
              sigma2: float | None = None, M: int = 12, tail_tol: float = 1e-4,
              m_max: int = 48, sample_depth: int = 24, threads: int = 1) -> LilResult:
    """Running max of |S_n - n mu| / (sigma sqrt(2 n log log n)).

    A smoke test: the iterated-logarithm normalization converges only
    logarithmically, so the qualitative contract is a median terminal value
    in [0.5, 1.5], not a tolerance claim.  One orbit pass accumulates the
    running maxima, one orbit block at a time, and records them at geometric
    checkpoints.  With the geometric potential mu and sigma^2 are the exact
    mu(g) and covariance series of the annealed operator, as the theorem's
    statistic has them, truncated by M, tail_tol and m_max as in
    `sigma2_estimate`; otherwise a pilot pass over the same streams
    estimates them first.  A given sigma2 takes precedence.
    """
    if n_max < 100:
        raise LimitsError("n_max must be at least 100")
    g = g if g is not None else lab.observable
    if lab.spec.has_geometric_potential:
        cov = covariance_sequence(lab, g, M, tail_tol=tail_tol, m_max=m_max)
        mu, centering = cov.mu, "annealed"
        sigma2 = cov.sigma2() if sigma2 is None else sigma2
    else:
        _, sums = orbit_birkhoff_sums(lab, g, [n_max], trials, seed, stream=31,
                                      sample_depth=sample_depth, threads=threads)
        mu, centering = float(sums[0].mean() / n_max), "pilot"
        sigma2 = float(sums[0].var(ddof=1) / n_max) if sigma2 is None else sigma2
    sigma = float(np.sqrt(max(sigma2, 1e-30)))

    checkpoints = sorted(set(np.unique(np.geomspace(10, n_max, 25).astype(int)).tolist()))
    running = np.zeros(trials)
    trajectories = np.zeros((len(checkpoints), trials))
    denom = _lil_denominators(sigma, n_max)

    def stat(t0, rows, sl):
        # row k is S_t at t = t0 + k + 1; rows at t < 10 leave the running max as it is
        k0 = max(0, 9 - t0)
        t = np.arange(t0 + k0 + 1, t0 + len(rows) + 1)
        acc = np.empty((len(t) + 1, rows.shape[1]))
        acc[0] = running[sl]
        np.abs(rows[k0:] - (t * mu)[:, None], out=acc[1:])
        acc[1:] /= denom[t - 10, None]
        # a max is exact, so accumulating it down the block gives the per-step bits
        np.maximum.accumulate(acc, axis=0, out=acc)
        for i, ti in enumerate(checkpoints):
            if t0 < ti <= t0 + len(rows):
                trajectories[i, sl] = acc[ti - t0 - k0]
        running[sl] = acc[-1]

    orbit_birkhoff_sums(lab, g, [n_max], trials, seed, stream=31, sample_depth=sample_depth,
                        running_stat=stat, threads=threads)
    return LilResult(checkpoints, [float(np.median(row)) for row in trajectories], trajectories,
                     running.tolist(), float(np.median(running)), sigma, mu, centering,
                     orbit_bias_warning=not lab.spec.has_geometric_potential)


@dataclass
class CoboundaryResult:
    n_list: list
    l2_norms: list
    growth_slope: float
    quarter_trend: list
    quarter_decreasing: bool
    verdict: str
    mu_estimate: float
    orbit_bias_warning: bool = False

    def as_dict(self):
        return asdict(self)


def coboundary_check(lab: Lab, g=None, n_list=(100, 1000, 10_000), trials: int = 1000,
                     seed: int = 42, sample_depth: int = 24, threads: int = 1) -> CoboundaryResult:
    """Boundedness probe for the degenerate alternative.

    Estimates ||S_n - n mu||_L2 across n_list; verdict "coboundary-consistent"
    when the sequence shows no growth trend (log-log slope <= 0.1), "not
    coboundary" when it grows like sqrt(n) (slope >= 0.3), else
    "inconclusive".  Also tracks max |S_n - n mu| / n^(1/4), which must trend
    to zero in the degenerate case.
    """
    g = g if g is not None else lab.observable
    n_list = sorted(set(int(v) for v in n_list))
    if len(n_list) < 2:
        raise LimitsError("the growth slope needs at least two distinct n")
    times, sums = orbit_birkhoff_sums(lab, g, n_list, trials, seed, stream=37,
                                      sample_depth=sample_depth, threads=threads)
    mu = float(sums[-1].mean() / times[-1])
    centered = [row - t * mu for t, row in zip(times, sums)]
    l2 = [float(np.sqrt(np.mean(c**2))) for c in centered]
    quarter = [float(np.max(np.abs(c)) / t**0.25) for t, c in zip(times, centered)]
    slope = float(np.polyfit(np.log(times), np.log(np.maximum(l2, 1e-30)), 1)[0])
    if slope <= 0.1:
        verdict = "coboundary-consistent"
    elif slope >= 0.3:
        verdict = "not coboundary"
    else:
        verdict = "inconclusive"
    return CoboundaryResult(list(times), l2, slope, quarter,
                            bool(quarter[-1] <= quarter[0]), verdict, mu,
                            orbit_bias_warning=not lab.spec.has_geometric_potential)
