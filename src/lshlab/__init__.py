"""lshlab: locality-sensitive hashing on the Hamming cube.

Concrete hash families and their k-fold concatenation, exact noise-stability
analysis (with a log-convexity certificate for stability curves), closed-form
rho-parameter bounds, reproducible Monte Carlo sampling, and an
(r, c)-near-neighbor index planned from any family's sensitivity profile.
"""

import types as _types

from .points import Point, hamming
from .hashing import (
    HashFamily,
    HashFunction,
    SensitivityProfile,
    bit_sampling_family,
    bit_sampling_profile,
    collision_probability,
    exact_sensitivity,
    finite_family,
    minhash_family,
    power,
    trivial_family,
)
from .spectral import (
    FourierSpectrum,
    StabilityCurve,
    brute_force_stability,
    check_log_convexity,
    family_spectrum,
    fourier_spectrum,
    stability,
    stability_curve,
    stability_ratio,
)
from .sampling import (
    mc_stability,
    tail_probabilities,
    verify_sandwich,
)
from .bounds import (
    ChernoffLedger,
    bound_table,
    chernoff_ledger,
    correction_scale,
    delta_choice,
    effective_exponents,
    im_rho,
    im_upper,
    mnp_lower,
    rho_lower_bound,
)
from .annindex import NNIndex, build, plan, planted_experiment, query, stats

__version__ = "0.1.0"

# The public names are the ones imported above, listed once.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _types.ModuleType)]
