"""Moment maps of quiver representations.

Quiver combinatorics and quaternionic linear algebra on representation space,
real/complex/hyperkahler moment maps, Kempf-Ness minimization, gradient-flow
semistability classification, King slope stability certificates, polyhedral
cone arrangements with exact regular loci, and moment-map transport.

Importing the package loads none of its modules: each exported name imports
the module that owns it on first use (PEP 562), so a program or a CLI command
pays only for the modules it runs.
"""

__version__ = "0.1.0"

# the module that owns each exported name
_EXPORTS = {
    "cones": (
        "RationalThetaTriple",
        "WeightSet",
        "complex_regular_check",
        "cone_project",
        "d_theta",
        "hyperkahler_regular_check",
        "in_C_reg",
        "regular_walls",
        "torus_weights",
    ),
    "flow": ("FlowOptions", "FlowOutcome", "flow_integrate", "grad_h", "h_value"),
    "kempf_ness": ("SolveOptions", "SolveOutcome", "solve_moment_equation"),
    "lie": (
        "GroupElement",
        "LieAlgebraElement",
        "StabilityParameter",
        "VertexMatrices",
        "act",
        "balanced_theta",
        "center_to_theta",
        "character_log_modulus",
        "exp_action",
        "infinitesimal_action",
        "pairing",
        "pairing_norm",
        "polar_decompose",
        "stabilizer_lie_dim",
        "theta_to_center",
    ),
    "moment": (
        "MomentTriple",
        "complex_vs_real_identity",
        "moment_complex",
        "moment_hyperkahler",
        "moment_pairing_fd_oracle",
        "moment_real",
    ),
    "quiver": (
        "ExtendedQuiver",
        "Quiver",
        "Representation",
        "apply_structure",
        "extend",
        "hermitian_pairing",
        "hyperkahler_metric",
        "hyperkahler_rotation",
        "inner_product",
        "norm_sq",
        "quaternion_act",
    ),
    "stability": (
        "GradedSubspace",
        "StabilityCertificate",
        "certify_stable_numerical",
        "generated_subrep",
        "hm_limit_filtration",
        "king_slope",
        "king_stable_test",
        "subrepresentation_residual",
        "verify_subrepresentation",
    ),
    "transport": (
        "TransportError",
        "TransportPlan",
        "TransportResult",
        "quaternion_transport",
        "replay_transport",
        "transport_complex",
        "transport_hyperkahler",
        "transport_real",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    """An exported name, imported from its module and kept here; any other
    name is an AttributeError, so that ``from quivermoment import cli``
    imports the submodule."""
    from importlib import import_module

    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
