"""rdslab: random expanding circle maps over a bilateral shift.

Fiberwise transfer operators, conformal measures and invariant densities,
spectral-gap estimation, and Monte Carlo verification of the limit-law
consequences (CLT, iterated logarithm, coboundary dichotomy).
"""

from .base import (
    BaseMeasureSpec,
    BaseMetricParams,
    BaseObservable,
    BasePoint,
    base_correlation_check,
    base_distance,
    holder_norm_base,
    pinned_pair,
    sample_base,
    shift,
)
from .fiber import (
    CoboundaryObservable,
    GridFunction,
    HolderParams,
    ScaledObservable,
    SystemObservable,
    SystemSpec,
    apply_map,
    birkhoff_sum,
    cone_check,
    cone_embed,
    default_observable,
    gibbs_system,
    inverse_branches,
    make_system,
    variation_alpha,
)
from .limits import (
    BlockConfig,
    OrbitEnsemble,
    assumption6_check,
    clt_test,
    coboundary_check,
    condition_h_check,
    covariance_sequence,
    encoding_check,
    lil_probe,
    sigma2_estimate,
)
from .thermo import (
    FiberMeasure,
    Lab,
    conformal_pullback,
    gap_estimate,
    invariant_density,
    regularity_check,
    regularity_pairs,
    uniform_bounds_check,
)
from .transfer import (
    OperatorTable,
    operator_norm_bounds_check,
    oracle_transfer,
    perturbed_chain_identity_check,
    projection_Q,
    transfer_apply,
    transfer_iterate,
)

__version__ = "0.1.0"
