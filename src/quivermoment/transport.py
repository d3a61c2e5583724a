"""Transport of moment-fiber points across parameter space.

Moving a fiber point to a new central parameter means solving
mu(exp(sY).x) = theta' and applying the exponential; over a regular connected
component this realizes the local trivialization of the moment map.  The
hyperkahler variant moves the three components one complex structure at a
time (the actions for the other two structures fix their central moment
values), the complex variant moves only the (J, K) pair, and the quaternion
variant needs no solver at all: unit quaternions and positive rescalings act
directly with an exactly known effect on the moment triple.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cones import RationalThetaTriple, complex_regular_check, hyperkahler_regular_check
from .kempf_ness import SolveOptions, solve_moment_equation
from .lie import (
    StabilityParameter,
    balanced_theta,
    center_to_theta,
    exp_action,
    pairing_norm,
    theta_to_center,
)
from .moment import (
    MU_C_FROM_JK,
    moment_complex,
    moment_hyperkahler,
    moment_real,
    moment_residual,
    quaternion_conjugate_triple,
)
from .quiver import STRUCTURES, Representation, _check_structure, norm_sq, quaternion_act

FIBER_PRE_TOL = 1e-7
# after about 53 halvings the midpoints of a segment round onto its endpoints,
# so deeper bisection only recurses without moving
MAX_SUBDIVISION_DEPTH = 64


class TransportError(RuntimeError):
    """Continuation failed: subdivision exhausted or solver diverged."""

    def __init__(self, message, structure=None, parameter=None):
        super().__init__(message)
        self.structure = structure
        self.parameter = parameter


@dataclass
class TransportPlan:
    """Waypoints and per-leg solver configuration for a continuation run."""

    waypoints: tuple = ()
    solve_options: Optional[SolveOptions] = None
    max_subdivision_depth: int = 12
    tolerance: float = 1e-9
    leg_order: tuple = STRUCTURES
    regular_gate: tuple = ()  # optional exact rational parameters to pre-check

    def __post_init__(self):
        if not isinstance(self.max_subdivision_depth, numbers.Integral):
            raise ValueError("max_subdivision_depth must be an integer")
        if not 0 <= self.max_subdivision_depth <= MAX_SUBDIVISION_DEPTH:
            raise ValueError(f"max_subdivision_depth must be between 0 and {MAX_SUBDIVISION_DEPTH}")
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        for s in self.leg_order:
            _check_structure(s)

    def options(self):
        if self.solve_options is not None:
            return self.solve_options
        # a leg counts as workable only when it converges quickly; stubborn
        # legs are bisected instead of ground out
        return SolveOptions(
            gradient_tolerance=min(self.tolerance, 1e-10), max_iterations=50
        )


@dataclass
class TransportResult:
    """Image point with the replayable log of applied exponentials."""

    image: Representation
    applied_y_log: list = field(default_factory=list)  # (structure, LieAlgebraElement)
    residual: float = 0.0
    subdivisions_used: int = 0


def replay_transport(x: Representation, applied_y_log) -> Representation:
    """Re-apply a logged transport without solving anything."""
    for structure, y in applied_y_log:
        x = exp_action(y, 1.0, structure, x)
    return x


def transport_real(
    x: Representation,
    theta_target: StabilityParameter,
    plan: Optional[TransportPlan] = None,
) -> TransportResult:
    """Move a central-fiber point to the target parameter by continuation.

    The start parameter is read off the moment value of x, which must be
    central to tolerance.  Each leg solves the moment equation toward the
    next parameter; failed legs are bisected up to the plan's depth.
    """
    plan = plan or TransportPlan()
    params = [_central_parameter(x, "I"), *plan.waypoints, theta_target]
    current, log, count = _run_legs(x, [("I", params)], plan)
    return TransportResult(current, log, moment_residual(current, theta_target), count)


def _central_parameter(x, structure) -> StabilityParameter:
    mu = moment_real(x, structure)
    if not all(np.isfinite(b).all() for b in mu.blocks):
        raise FloatingPointError("moment value is not finite")
    theta = center_to_theta(mu)
    defect = pairing_norm(mu - theta_to_center(theta))
    if defect > FIBER_PRE_TOL * (1.0 + math.sqrt(norm_sq(x))):
        raise ValueError(
            f"moment value is not central (defect {defect:.3e}); "
            "transport must start on a central fiber"
        )
    return theta


def transport_hyperkahler(
    x: Representation,
    target,
    plan: Optional[TransportPlan] = None,
) -> TransportResult:
    """Move a hyperkahler-fiber point to the target parameter triple.

    ``target`` is a triple of per-vertex weight tuples (theta_I, theta_J,
    theta_K).  All motion of one complex structure is performed before the
    next one starts, in the plan's leg order: the actions of the untouched
    structures fix the central values already in place, so the composition
    lands on the full target fiber.  Waypoints refine each single-structure
    phase; since sub-moves within one structure compose, the traversed
    parameter path is the same axis-by-axis path for every mesh.  The inverse
    transport should use the reversed leg order.
    """
    plan = plan or TransportPlan()
    _check_regular_gate(plan, x.dims)
    start = _central_triple_parameters(x)
    target = _as_triple_parameters(target, x.dims)
    points = [start, *(_as_triple_parameters(w, x.dims) for w in plan.waypoints), target]
    legs = [(s, [p[STRUCTURES.index(s)] for p in points]) for s in plan.leg_order]
    current, log, count = _run_legs(x, legs, plan)
    return TransportResult(current, log, _triple_residual(current, target), count)


def _central_triple_parameters(x):
    return tuple(_central_parameter(x, s) for s in STRUCTURES)


def _as_triple_parameters(triple, dims):
    if isinstance(triple, RationalThetaTriple):
        comps = triple.as_floats()
    else:
        comps = tuple(tuple(float(v) for v in c) for c in triple)
    return tuple(StabilityParameter(c, dims) for c in comps)


def _triple_residual(x, target):
    total = 0.0
    for s, th in zip(STRUCTURES, target):
        total += moment_residual(x, th, s) ** 2
    return math.sqrt(total)


def _run_legs(x, legs, plan):
    """Apply each (structure, [start, stop, ...]) leg in order, moving that
    structure's central value through its stops; returns the image, the log
    of applied exponentials and the number of bisections."""
    log = []
    count = [0]
    for structure, params in legs:
        for th_from, th_to in zip(params, params[1:]):
            x = _axis_move(
                x, structure, th_from, th_to, plan, log, count, plan.max_subdivision_depth
            )
    return x, log, count[0]


def _axis_move(x, structure, th_from, th_to, plan, log, count, depth):
    """Move one structure's central value, bisecting the segment on failure."""
    outcome = solve_moment_equation(x, th_to, structure, plan.options())
    if outcome.converged:
        log.append((structure, outcome.y))
        return exp_action(outcome.y, 1.0, structure, x)
    if outcome.status == "diverged":
        raise TransportError(
            "solver diverged: the path leaves the stable locus",
            structure=structure,
            parameter=th_to.values,
        )
    if depth == 0:
        raise TransportError(
            "subdivision exhausted: leaving the trivializing neighborhood",
            structure=structure,
            parameter=th_to.values,
        )
    count[0] += 1
    mid = balanced_theta(
        [0.5 * (a + b) for a, b in zip(th_from.values, th_to.values)], th_from.dims
    )
    x_mid = _axis_move(x, structure, th_from, mid, plan, log, count, depth - 1)
    return _axis_move(x_mid, structure, mid, th_to, plan, log, count, depth - 1)


def _check_regular_gate(plan, dims):
    for entry in plan.regular_gate:
        if isinstance(entry, RationalThetaTriple):
            ok, witness = hyperkahler_regular_check(dims, entry)
            if not ok:
                raise TransportError(
                    f"parameter lies on the wall of dimension vector {witness}",
                    parameter=entry,
                )
        else:
            if not complex_regular_check(dims, entry):
                raise TransportError(
                    "complex parameter lies on a wall", parameter=entry
                )


def xi_to_jk_parameters(xi, dims):
    """Split a central complex-moment value into the (theta_J, theta_K) pair.

    mu_C = MU_C_FROM_JK (mu_J + i mu_K), so a target value xi_j per vertex
    pins theta_J = -2 Im(xi) and theta_K = 2 Re(xi).
    """
    xi = np.asarray(xi, dtype=complex)
    # (1/MU_C_FROM_JK) xi = i theta_J - theta_K as a complex number per vertex
    factor = 1.0 / MU_C_FROM_JK
    theta_j = tuple(float(v) for v in (factor * xi).imag)
    theta_k = tuple(float(-v) for v in (factor * xi).real)
    return (
        StabilityParameter(theta_j, dims),
        StabilityParameter(theta_k, dims),
    )


def central_xi(x: Representation) -> np.ndarray:
    """Per-vertex scalar of the complex moment value, which must be central
    and finite."""
    mu = moment_complex(x)
    if not all(np.isfinite(b).all() for b in mu.blocks):
        raise FloatingPointError("complex moment value is not finite")
    xi = np.array(
        [np.trace(b) / d if d else 0.0 for b, d in zip(mu.blocks, x.dims)],
        dtype=complex,
    )
    defect = 0.0
    for b, v, d in zip(mu.blocks, xi, x.dims):
        defect = max(defect, float(np.abs(b - v * np.eye(d)).max(initial=0.0)))
    if defect > FIBER_PRE_TOL * (1.0 + math.sqrt(norm_sq(x))):
        raise ValueError(
            f"complex moment value is not central (defect {defect:.3e})"
        )
    return xi


def transport_complex(
    x: Representation,
    xi_start,
    xi_target,
    plan: Optional[TransportPlan] = None,
) -> TransportResult:
    """Move a point of a central complex-moment fiber to the target value.

    Only the (J, K) parameter pair moves; the structure-I value is untouched
    by the J and K actions because it stays central along the way.
    """
    plan = plan or TransportPlan()
    _check_regular_gate(plan, x.dims)
    xi_now = central_xi(x)
    xi_start = np.asarray(xi_start, dtype=complex)
    if np.abs(xi_now - xi_start).max(initial=0.0) > FIBER_PRE_TOL * (
        1.0 + math.sqrt(norm_sq(x))
    ):
        raise ValueError("x does not lie on the asserted start fiber")
    points = [xi_to_jk_parameters(xi, x.dims) for xi in [xi_start, *plan.waypoints, xi_target]]
    legs = [(s, [p["JK".index(s)] for p in points]) for s in plan.leg_order if s in ("J", "K")]
    current, log, count = _run_legs(x, legs, plan)
    mu = moment_complex(current)
    residual = 0.0
    for b, v, d in zip(mu.blocks, np.asarray(xi_target, dtype=complex), x.dims):
        residual += float(np.linalg.norm(b - v * np.eye(d)) ** 2)
    return TransportResult(current, log, math.sqrt(residual), count)


def quaternion_transport(x: Representation, q, t) -> Representation:
    """Fiberwise-exact transport by a unit quaternion and a positive rescale.

    Returns sqrt(t) q.x; the moment triple transforms to t * (q mu qbar) with
    no solving involved.
    """
    t = float(t)
    if not 0 < t < math.inf:
        raise ValueError("scale factor must be positive and finite")
    return math.sqrt(t) * quaternion_act(q, x)


def predicted_quaternion_moment(x, q, t):
    """Moment triple of quaternion_transport(x, q, t), computed on parameters."""
    return quaternion_conjugate_triple(q, moment_hyperkahler(x)).scale(float(t))
