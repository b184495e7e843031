"""Outage bounds and achievable rates for the Rayleigh-fading multiple
access channel, conditioned on the instantaneous sum capacity.

The package splits into analytic pieces (exact conditional distributions,
incomplete-beta outage bounds, diversity-multiplexing tradeoffs), Monte-Carlo
validators driven by reproducible random streams, and integer-forcing
receiver evaluations with space-time precoding.
"""

from .bounds import (
    BoundPair,
    ScenarioDims,
    atom_probability,
    mimo_bounds,
    mimo_p_out_k,
    mimo_union_bound,
    ml_mean_rate_fraction,
    ml_rate_quantile,
    p_out_k,
    regularized_incomplete_beta,
    scalar_bounds,
    two_user_cdf,
    two_user_simo_bound,
)
from .capacity import (
    MacChannel,
    SubsetReport,
    scalar_symmetric_capacity,
    subset_mutual_info,
    sum_capacity,
    symmetric_capacity,
)
from .dmt import single_user_dmt, symmetric_mac_dmt, symmetric_mac_dmt_curve
from .errors import InvalidParameterError, NumericalDomainError
from .integer_forcing import (
    EffectiveChannel,
    IfResult,
    Precoder,
    brute_force_search,
    build_effective_channel,
    if_rate,
    lll_search,
)
from .linalg import (
    RngStream,
    cholesky_lower,
    hermitian_inverse,
    sample_capacity_sphere,
    sample_complex_gaussian,
    sample_haar_unitary,
)
from .montecarlo import (
    CdfCurve,
    OutageEstimate,
    SimConfig,
    averaged_bound_vs_snr,
    conditional_cdf_cardinality,
    conditional_cdf_mimo_frobenius,
    conditional_cdf_scalar,
    outage_vs_snr,
)

__version__ = "0.3.0"

__all__ = [
    "BoundPair",
    "CdfCurve",
    "EffectiveChannel",
    "IfResult",
    "InvalidParameterError",
    "MacChannel",
    "NumericalDomainError",
    "OutageEstimate",
    "Precoder",
    "RngStream",
    "ScenarioDims",
    "SimConfig",
    "SubsetReport",
    "atom_probability",
    "averaged_bound_vs_snr",
    "brute_force_search",
    "build_effective_channel",
    "cholesky_lower",
    "conditional_cdf_cardinality",
    "conditional_cdf_mimo_frobenius",
    "conditional_cdf_scalar",
    "hermitian_inverse",
    "if_rate",
    "lll_search",
    "mimo_bounds",
    "mimo_p_out_k",
    "mimo_union_bound",
    "ml_mean_rate_fraction",
    "ml_rate_quantile",
    "outage_vs_snr",
    "p_out_k",
    "regularized_incomplete_beta",
    "sample_capacity_sphere",
    "sample_complex_gaussian",
    "sample_haar_unitary",
    "scalar_bounds",
    "scalar_symmetric_capacity",
    "single_user_dmt",
    "subset_mutual_info",
    "sum_capacity",
    "symmetric_capacity",
    "symmetric_mac_dmt",
    "symmetric_mac_dmt_curve",
    "two_user_cdf",
    "two_user_simo_bound",
    "__version__",
]
