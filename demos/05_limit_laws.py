#!/usr/bin/env python3
"""The statistical content: encoding identity, sigma^2, CLT, LIL, coboundary.

Runs on the geometric-potential system, whose invariant fiber measures are
the smooth acim family that forward orbit simulation samples faithfully; the
operator and orbit routes then cross-validate each other.
"""

import numpy as np

import rdslab as rl
from rdslab.fiber import CoboundaryObservable
from rdslab.limits import (
    BlockConfig,
    clt_test,
    coboundary_check,
    condition_h_check,
    encoding_check,
    lil_probe,
    sigma2_estimate,
)

lab = rl.Lab(rl.make_system(), n_points=1024, pullback_depth=40)

enc = encoding_check(lab, (0.4, -0.3, 0.2), 400, seed=42)
print(f"characteristic-function encoding: orbit route {enc.lhs:.4f}, "
      f"operator route {enc.rhs:.4f}, |diff| = {enc.difference:.1e} "
      f"(per-sample std err {enc.std_err:.1e})")

ch = condition_h_check(lab, BlockConfig(1, 1, (0, 1, 2), (0.4, 0.4)),
                       range(0, 7), 400, seed=42)
print(f"\nblock near-independence: gap summand decays at rate c = {ch.c_fit:.2f}")
for row in ch.rows[:5]:
    print(f"  k = {row.k}: gap summand {row.operator_term:.2e}, "
          f"base summand {row.base_term:.2e}")

var = sigma2_estimate(lab, None, M=12, n_base_samples=600, n_var=10_000,
                      trials=2000, seed=42)
print(f"\nsigma^2: covariance series {var.sigma2_series:.4f} +- {var.sigma2_series_se:.4f}"
      f" ({var.series_route} route)")
print(f"         direct Var(S_n)/n  {var.sigma2_mc:.4f} +- {var.sigma2_mc_se:.4f}")
print(f"         agreement: {var.agreement} (M = {var.m_used}, tail {var.tail_bound:.1e})")

res = clt_test(var)
print(f"\nCLT: KS statistic {res.ks_stat:.4f}, p = {res.p_value:.3f}; "
      f"sample skewness {res.sample_skew:+.3f}")

lil = lil_probe(lab, None, n_max=100_000, trials=200, seed=42, sigma2=var.sigma2_series)
print(f"LIL: median running max of |S_n - n mu| / (sigma sqrt(2 n log log n)) = "
      f"{lil.median_terminal:.3f} (limit 1, logarithmic convergence; exact mu = {lil.mu_used:.5f})")

g = CoboundaryObservable(lab.spec, const=0.25)
cb = coboundary_check(lab, g, n_list=(100, 1000, 10_000), trials=1000, seed=42)
print(f"\ncoboundary g = k - k o T + 0.25: L2 norms {np.round(cb.l2_norms, 3)} "
      f"(bounded), verdict '{cb.verdict}'")
cb2 = coboundary_check(lab, None, n_list=(100, 1000, 10_000), trials=1000, seed=42)
print(f"default observable:              L2 norms {np.round(cb2.l2_norms, 2)} "
      f"(sqrt-n growth), verdict '{cb2.verdict}'")
print("\nnote: the almost-sure Brownian coupling and its 1/4 error exponent are "
      "not testable at desk scale; these are its checkable corollaries.")
