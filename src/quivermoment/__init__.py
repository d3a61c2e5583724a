"""Moment maps of quiver representations.

Quiver combinatorics and quaternionic linear algebra on representation space,
real/complex/hyperkahler moment maps, Kempf-Ness minimization, gradient-flow
semistability classification, King slope stability certificates, polyhedral
cone arrangements with exact regular loci, and moment-map transport.
"""

__version__ = "0.1.0"

from .cones import (
    RationalThetaTriple,
    WeightSet,
    complex_regular_check,
    cone_project,
    d_theta,
    hyperkahler_regular_check,
    in_C_reg,
    regular_walls,
    torus_weights,
)
from .flow import FlowOptions, FlowOutcome, flow_integrate, grad_h, h_value
from .kempf_ness import SolveOptions, SolveOutcome, solve_moment_equation
from .lie import (
    GroupElement,
    LieAlgebraElement,
    StabilityParameter,
    VertexMatrices,
    act,
    balanced_theta,
    center_to_theta,
    character_log_modulus,
    exp_action,
    infinitesimal_action,
    pairing,
    pairing_norm,
    polar_decompose,
    stabilizer_lie_dim,
    theta_to_center,
)
from .moment import (
    MomentTriple,
    complex_vs_real_identity,
    moment_complex,
    moment_hyperkahler,
    moment_pairing_fd_oracle,
    moment_real,
)
from .quiver import (
    ExtendedQuiver,
    Quiver,
    Representation,
    apply_structure,
    extend,
    hermitian_pairing,
    hyperkahler_metric,
    hyperkahler_rotation,
    inner_product,
    norm_sq,
    quaternion_act,
)
from .stability import (
    GradedSubspace,
    StabilityCertificate,
    certify_stable_numerical,
    generated_subrep,
    hm_limit_filtration,
    king_slope,
    king_stable_test,
    subrepresentation_residual,
    verify_subrepresentation,
)
from .transport import (
    TransportError,
    TransportPlan,
    TransportResult,
    quaternion_transport,
    replay_transport,
    transport_complex,
    transport_hyperkahler,
    transport_real,
)
