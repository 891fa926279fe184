#!/usr/bin/env python3
"""Conformal weights, eigenvalue chains, invariant densities, spectral gap.

The conformal family arrives by adjoint pullback of Lebesgue weights from
deep forward fibers; the invariant density by pushing the constant function
from deep past fibers.  Their defining identities are then checked directly.
"""

import numpy as np

import rdslab as rl
from rdslab.thermo import (
    conformal_pullback,
    gap_estimate,
    invariant_density,
    random_lipschitz_functions,
)

spec = rl.gibbs_system()  # nonconstant potential: genuinely non-Lebesgue conformal family
lab = rl.Lab(spec, n_points=1024, pullback_depth=40)
x = rl.sample_base(spec.base, 42, 0)

pull = conformal_pullback(lab, x)
print(f"lambda at x: {pull.lam:.8f} (depth {pull.depth_used}, "
      f"increment {pull.lambda_delta:.1e}, duality residual {pull.duality_max:.1e})")

dens = invariant_density(lab, x)
rho = dens.rho.values
print(f"rho range: [{rho.min():.4f}, {rho.max():.4f}]")
print(f"fixed-point residual |L_0 rho - rho o shift|: {dens.fixed_point_residual:.2e}")
print(f"Cesaro cross-check gap: {dens.cesaro_gap:.2e}")

print("\nlambda chain along the orbit:", np.round(lab.lambda_chain(x, 8), 6))

xs = [rl.sample_base(spec.base, 42, i) for i in range(5)]
us = random_lipschitz_functions(1024, 4, seed=7)
fit = gap_estimate(lab, xs, us, range(1, 21))
print(f"\nspectral gap fit over 20 (x, u) instances: kappa = {fit.kappa:.4f}, "
      f"C = {fit.c:.3f}, R^2 = {fit.r_squared:.4f}")
print("mean log residual per n:", [f"{v:.1f}" for v in fit.mean_log_residuals[:10]], "...")

# and the closed-form degenerate system for comparison
deg = rl.Lab(rl.gibbs_system(branch_count=(2, 2), potential_amp=(0.0, 0.0)),
             n_points=1024, pullback_depth=40)
x0 = rl.sample_base(deg.spec.base, 42, 0)
lam0 = deg.ensure_chain(x0, 0, 0).lam_at(0)[0]
print(f"\ndegenerate doubling system: lambda = {lam0} (exactly 2), "
      f"max|rho - 1| = {np.max(np.abs(deg.rho(x0).values - 1)):.1e}")
