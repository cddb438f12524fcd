"""Information-disturbance tradeoff of quantum measurements on the uniform
pure-state ensemble: minimal-disturbance instruments, outcome-state mutual
information, mutually unbiased bases as projective 2-designs, and the
depolarizing-channel frontier construction."""

from .errors import InfodistError
from .linalg import (
    dagger,
    gen_inv_sqrt,
    haar_states,
    haar_unitaries,
    herm_eig,
    mat_sqrt,
    mean_stderr,
    outer,
    random_density,
    random_stinespring_isometry,
    validate_distribution,
)
from .measurement import (
    POVM,
    Instrument,
    apply_channel,
    basis_povm,
    coarse_grain,
    convex_mix,
    isometry_kraus,
    povm_validate,
    random_povm,
    reset_instrument,
    sqrt_instrument,
    trine_povm,
)
from .disturbance import (
    DisturbanceReport,
    avg_fidelity_design,
    avg_fidelity_mc,
    avg_fidelity_uniform,
    entanglement_fidelity,
    entfid_bound_check,
    min_disturbance_uniform,
    one_term_instrument,
    pair_moment,
    restore_counterexample,
    superadditivity_margin,
    twirl_depolarizing_p,
)
from .information import (
    InfoReport,
    haar_xlogx,
    info_finegrained_exact,
    info_finite_ensemble,
    info_uniform_mc,
)
from .galois import (
    MubSet,
    design_check,
    design_operator,
    find_irreducible,
    is_prime,
    mub_design_residual,
    mub_validate,
    odd_prime_power,
    pi_operator,
    wootters_fields_mub,
)
from .frontier import (
    FrontierPoint,
    covariance_check,
    depolarize,
    depolarizing_instrument,
    frontier_curve,
    twirl_channel,
)

__version__ = "0.1.0"
