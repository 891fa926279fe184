"""The annealed transfer operator of an i.i.d. base, and the exact covariances it gives.

For the geometric potential phi = -log T' the conformal measures nu_x are
Lebesgue and lambda_x = 1, and rho_x depends only on the past of x, which an
i.i.d. base law keeps independent of the symbols from level 0 on.  Averaging
over those symbols leaves one operator on the fiber, the annealed operator
LL = sum_e p_e L_e (Aimino, Nicol and Vaienti, PTRF 2015), whose fixed density
rho_bar is the mean of rho_x.  With gbar = sum_e p_e g_e and
w = sum_e p_e L_e(g_e rho_bar) - mu(g) rho_bar, the stationary moments of the
observable g are

    mu(g) = int gbar rho_bar,
    s_0   = int sum_e p_e g_e^2 rho_bar - mu(g)^2,
    s_m   = int gbar LL^{m-1} w    for m >= 1,

one sparse product per lag, exact up to the grid's discretization.  Integrals
are the grid's Lebesgue quadrature, the mean over the nodes.  The discrete LL
keeps that mean only up to discretization, so each iterate LL^{m-1} w is
projected back onto mean-zero functions along rho_bar, which also takes the
term mu(g) rho_bar out of w: without it the lags stall at a rounding floor
(4e-17 at the defaults) instead of decaying at the gap rate, and no geometric
tail can be read from them.
"""

from __future__ import annotations

import numpy as np

from .transfer import OperatorTable

# The fixed-density iteration stops once a sweep moves rho_bar by at most this
# many ulps of its largest value; at the defaults it stops after 7 sweeps at 6.5.
FIXED_POINT_ULPS = 64
MAX_SWEEPS = 10_000


class AnnealedError(RuntimeError):
    pass


class AnnealedOperator:
    """LL = sum_e p_e L_e on the grid of `table`, with p the base weights.

    `matrix` (CSR) is LL, and `rho` its fixed density, scaled to mean 1.
    """

    def __init__(self, table: OperatorTable):
        self.table = table
        self.weights = table.spec.base.weights
        self.matrix = sum(p * table.op(e).matrix for e, p in enumerate(self.weights)).tocsr()
        self.rho = self._fixed_density()

    def _fixed_density(self) -> np.ndarray:
        rho = np.ones(self.table.n_points)
        for _ in range(MAX_SWEEPS):
            nxt = self.matrix @ rho
            nxt /= nxt.mean()
            moved = np.max(np.abs(nxt - rho))
            rho = nxt
            if moved <= FIXED_POINT_ULPS * np.spacing(np.max(np.abs(rho))):
                return rho
        raise AnnealedError(f"no fixed density after {MAX_SWEEPS} sweeps (last move {moved:.1e})")

    def _values(self, g) -> tuple:
        """(g_e at the nodes for each symbol e, gbar)."""
        nodes = self.table.nodes()
        gs = [g.values_for_symbol(e, nodes) for e in range(len(self.weights))]
        return gs, sum(p * ge for p, ge in zip(self.weights, gs))

    def mean(self, g) -> float:
        """mu(g) = int gbar rho_bar."""
        return float(np.mean(self._values(g)[1] * self.rho))

    def lags(self, g):
        """s_0, s_1, s_2, ... of g under the stationary law: an endless generator."""
        gs, gbar = self._values(g)
        mu = float(np.mean(gbar * self.rho))
        yield float(np.mean(sum(p * ge * ge for p, ge in zip(self.weights, gs)) * self.rho)
                    - mu * mu)
        v = sum(p * (self.table.op(e).matrix @ (ge * self.rho))
                for e, (p, ge) in enumerate(zip(self.weights, gs)))
        while True:
            v -= v.mean() * self.rho  # back onto mean-zero functions
            yield float(np.mean(gbar * v))
            v = self.matrix @ v


def geometric_remainder(lags) -> float:
    """2 sum_{m>M} |s_m| for lags that go on decaying at the rate of the last two.

    `lags` ends with s_{M-1}, s_M.  The remainder is infinite unless |s_M| <
    |s_{M-1}|, or s_M = 0; fewer than two lags bound nothing.
    """
    if len(lags) < 2:
        return float("inf")
    prev, last = abs(lags[-2]), abs(lags[-1])
    if last == 0.0 or last >= prev:
        return 0.0 if last == 0.0 else float("inf")
    rate = last / prev
    return 2.0 * last * rate / (1.0 - rate)
