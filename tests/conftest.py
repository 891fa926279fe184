import pytest
from hypothesis import settings

import rdslab as rl

# Property tests replay the same examples on every run: no flaky draws and no
# per-example deadline on a loaded machine.
settings.register_profile("rdslab", derandomize=True, deadline=None, max_examples=60)
settings.load_profile("rdslab")


@pytest.fixture(scope="session")
def gibbs_lab():
    """Nonconstant Gibbs potential, exact affine branches: the thermo workbench."""
    return rl.Lab(rl.gibbs_system(), n_points=1024, pullback_depth=40)


@pytest.fixture(scope="session")
def stats_lab():
    """Geometric potential with nonlinear maps: forward orbits sample its measure."""
    return rl.Lab(rl.make_system(), n_points=1024, pullback_depth=40)


@pytest.fixture(scope="session")
def degenerate_lab():
    """phi = 0, d = 2, eps = 0: every thermodynamic object has a closed form."""
    spec = rl.gibbs_system(branch_count=(2, 2), potential_amp=(0.0, 0.0))
    return rl.Lab(spec, n_points=1024, pullback_depth=40)


@pytest.fixture(scope="session")
def small_gibbs_lab():
    return rl.Lab(rl.gibbs_system(), n_points=256, pullback_depth=20)
