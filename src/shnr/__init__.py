"""shnr: semi-Hilbertian numerical radius toolkit.

A positive matrix A turns C^n into a semi-Hilbert space; this package
computes the induced operator quantities (A-adjoint, A-operator seminorm,
A-numerical radius, generalized radii for pluggable seminorms) and ships a
seeded checker that exercises the whole family of known inequalities on
random and pinned instances.
"""

# The one version literal: set before the submodule imports because
# ``verify`` stamps it into reports, and ``pyproject.toml`` reads it.
__version__ = "0.1.0"

from .exceptions import (
    AlphaOutOfRangeError,
    DimensionMismatchError,
    NonSquareError,
    NotHermitianError,
    NotMemberError,
    NotPositiveError,
    RankOutOfRangeError,
    ShnrError,
    ZeroOperatorError,
)
from .linalg import (
    DEFAULT_RTOL,
    pseudo_inverse,
    psd_sqrt,
    range_projector,
    spectral_norm,
)
from .radius import generalized_radius, omega_a_fast
from .semihilbert import (
    SemiHilbertContext,
    a_adjoint,
    a_inner,
    a_norm_vec,
    a_operator_norm,
    build_context,
    compress,
    im_a,
    is_a_normal,
    is_a_positive,
    is_a_selfadjoint,
    is_a_unitary,
    is_member,
    membership_residual,
    re_a,
    uncompress,
)
from .seminorms import (
    SeminormDescriptor,
    a_alpha_seminorm,
    a_norm_seminorm,
    big_omega_pair_form,
    big_omega_seminorm,
    gamma_a,
    seminorm_by_name,
)
from .verify import (
    CheckResult,
    CheckSpec,
    InstanceGenConfig,
    SuiteReport,
    catalog,
    probe_properties,
    random_a_normal,
    random_a_positive,
    random_a_selfadjoint,
    random_a_unitary,
    random_member,
    random_psd,
    replay_witness,
    run_suite,
)

#: The A-numerical radius, by the level-set iteration.
omega_a = omega_a_fast

__all__ = [
    "AlphaOutOfRangeError",
    "CheckResult",
    "CheckSpec",
    "DEFAULT_RTOL",
    "DimensionMismatchError",
    "InstanceGenConfig",
    "NonSquareError",
    "NotHermitianError",
    "NotMemberError",
    "NotPositiveError",
    "RankOutOfRangeError",
    "SemiHilbertContext",
    "SeminormDescriptor",
    "ShnrError",
    "SuiteReport",
    "ZeroOperatorError",
    "a_adjoint",
    "a_alpha_seminorm",
    "a_inner",
    "a_norm_seminorm",
    "a_norm_vec",
    "a_operator_norm",
    "big_omega_pair_form",
    "big_omega_seminorm",
    "build_context",
    "catalog",
    "compress",
    "gamma_a",
    "generalized_radius",
    "im_a",
    "is_a_normal",
    "is_a_positive",
    "is_a_selfadjoint",
    "is_a_unitary",
    "is_member",
    "membership_residual",
    "omega_a",
    "omega_a_fast",
    "probe_properties",
    "psd_sqrt",
    "pseudo_inverse",
    "random_a_normal",
    "random_a_positive",
    "random_a_selfadjoint",
    "random_a_unitary",
    "random_member",
    "random_psd",
    "range_projector",
    "re_a",
    "replay_witness",
    "run_suite",
    "seminorm_by_name",
    "spectral_norm",
    "uncompress",
]
