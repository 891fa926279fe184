#!/usr/bin/env python3
"""Random expanding circle maps: branches, Birkhoff sums, the positive cone.

Every fiber is the unit circle; the map over a base point is chosen by its
symbol at coordinate 0, so inverse branches are enumerable per symbol.
"""

import numpy as np

import rdslab as rl
from rdslab.fiber import cone_check, cone_embed, inverse_branches, variation_alpha

spec = rl.gibbs_system(nonlinearity=(0.05, 0.04))
x = rl.sample_base(spec.base, 42, 0)
print(f"symbol at 0: {x.symbol(0)}, branch count: {spec.branch_count[x.symbol(0)]}")

w = 0.37
z = inverse_branches(spec, x, w)
print(f"preimages of {w}:", np.round(z, 6))
print("re-mapped:", np.round(rl.apply_map(spec, x, z), 12))

g = rl.default_observable(spec)
print("\nBirkhoff sum S_8 g at z=0.2:", rl.birkhoff_sum(spec, g, x, 0.2, 8))

# Hölder calculus on a grid
n = 1024
nodes = np.arange(n) / n
u = rl.GridFunction(np.cos(2 * np.pi * nodes))
print(f"\ngrid 1-variation of cos(2 pi z): {variation_alpha(u, 1.0, 0.5):.4f} "
      f"(true Lipschitz constant 2 pi = {2 * np.pi:.4f})")

# cone embedding: any positive Hölder function lands in the unit cone
hp = spec.holder
lab = rl.Lab(spec, n_points=n, pullback_depth=30)
win = lab.ensure_chain(x, 0, 0)  # nu and lambda at x
nu = rl.FiberMeasure(win.nu_snap[0][0], fiber=x)
h = cone_embed(rl.GridFunction(np.exp(0.4 * np.sin(2 * np.pi * nodes))), nu, hp)
cert = cone_check(h, s=1.0, nu=nu, holder=hp)
print(f"embedded function passes the cone check: {cert.ok}")

# and normalized transfer images stay in the cone (cone invariance); each
# orbit point's window gives lambda there and nu for the step into it
cur = h
for j in range(6):
    cur = rl.transfer_apply(lab.table, x.shift_by(j), cur, lam=float(win.lam_at(0)[0]))
    win = lab.ensure_chain(x.shift_by(j + 1), 0, 0)
    cert = cone_check(cur, 1.0, rl.FiberMeasure(win.nu_snap[0][0]), hp, mass_tol=1e-6)
    print(f"  L_0^{j+1} image in cone: {cert.ok}")
