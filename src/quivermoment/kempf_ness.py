"""Kempf-Ness functional and the solver for mu(exp(iY).x) = theta.

The functional g -> ||g.x||^2 - log|chi_theta(g)|^2 is geodesically convex
along one-parameter subgroups exp(itZ); its critical points over exp(i u_v)
are exactly the points whose moment value hits the central target.  The
solver runs a damped Newton iteration in geodesic coordinates: at the current
point the gradient is 2(mu - theta) and the Hessian is the Gram matrix of the
infinitesimal-action tangents, solved by least squares with a gradient-descent
fallback when ill-conditioned; when the vertices of positive dimension fall
into two or more components the Hessian is singular on the whole orbit, and
the solver takes the gradient without building it.  Unbounded iterates are
reported as divergence together with the normalized limiting direction, the
witness the Hilbert-Mumford criterion extracts from unbounded minimizing
sequences.

``solve_moment_equation`` holds the iteration: the Newton system, the Armijo
line search over the step stacks, the divergence tests, the outcome, and the
bookkeeping of Y, which folds each accepted step into one group element and
takes its polar logarithm.  It moves the point through
``layout.orbit_point``, which the flow shares: the trials of one direction
act as one stack from one diagonalization, on the stack kernels or, when
every dimension is 1, on the torus kernels, with the same bytes.  The Newton
system keeps LAPACK's ``svd`` and ``lstsq`` on both.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .layout import orbit_point, pairing_stacks
from .lie import LieAlgebraElement, StabilityParameter, theta_to_center, uv_basis
from .quiver import Representation, rotate_to_I

logger = logging.getLogger(__name__)

ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60
NEWTON_COND_LIMIT = 1e12
DIVERGENCE_WINDOW = 12  # iterations the early divergence call looks back over
# The line search tries the steps 1, 1/2, ..., up to MAX_BACKTRACKS trials,
# in that order and in stacks of TRIAL_STACK trials (the last stack shorter).
# On the first iteration and after one that accepted step 1, which the next
# iteration then mostly accepts too, step 1 goes alone (STEP_ONE_FIRST);
# otherwise, as on escaping orbits, the first stack starts at step 1.
TRIAL_STACK = 8
_STEPS = [0.5 ** k for k in range(MAX_BACKTRACKS)]
STEP_ONE_FIRST = [_STEPS[:1]] + [_STEPS[k:k + TRIAL_STACK] for k in range(1, MAX_BACKTRACKS, TRIAL_STACK)]
STEP_STACKS = [_STEPS[k:k + TRIAL_STACK] for k in range(0, MAX_BACKTRACKS, TRIAL_STACK)]


@dataclass
class SolveOptions:
    """Knobs of the moment-equation solver."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-10
    step_control: str = "damped-newton"  # or "gradient-descent-armijo"
    divergence_norm_bound: float = 50.0
    initial_y: Optional[LieAlgebraElement] = None

    def __post_init__(self):
        # a boolean is not a count or a tolerance, though it compares as 0 or 1
        if isinstance(self.max_iterations, bool) or not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError("max_iterations must be an integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        tolerances = (self.gradient_tolerance, self.divergence_norm_bound)
        if any(isinstance(v, (bool, np.bool_)) for v in tolerances) or not all(0 < v < math.inf for v in tolerances):
            raise ValueError("tolerances must be positive and finite")
        if self.step_control not in ("damped-newton", "gradient-descent-armijo"):
            raise ValueError(f"unknown step_control {self.step_control!r}")


@dataclass
class SolveOutcome:
    """Result of one moment-equation solve."""

    status: str  # converged | diverged | max_iterations
    y: LieAlgebraElement
    residual: float
    iterations: int
    divergence_direction: Optional[LieAlgebraElement] = None
    structure: str = "I"
    objective_trace: tuple = field(default=())

    @property
    def converged(self):
        return self.status == "converged"


def solve_moment_equation(
    x: Representation,
    theta: StabilityParameter,
    structure="I",
    opts: Optional[SolveOptions] = None,
) -> SolveOutcome:
    """Find Y in the compact algebra with mu_s(exp(sY).x) = theta, if it exists.

    The search runs in the structure-I picture (J and K are conjugated in by
    the hyperkahler rotation, which leaves Y unchanged).  Each iteration
    re-centers at the current point, computes a Newton or gradient direction,
    backtracks on the functional value, and folds the step into a single Y via
    polar decomposition; the unitary polar factor is never formed, since it
    changes neither the residual nor the functional value.  The iteration,
    its line search and its divergence tests are written once, here; the
    arithmetic on the point is done by one ``layout.orbit_point``, on 1-d
    real arrays when every entry of the dimension vector is 1 and on
    vertex-class and edge stacks otherwise.  Both give the same bytes, and
    objects are built only for the outcome.
    """
    opts = opts or SolveOptions()
    x0 = rotate_to_I(structure, x)
    basis = uv_basis(x.dims)
    target = theta_to_center(theta)
    if target.dims != x.dims:
        raise ValueError("elements have mismatched dimension vectors")
    if opts.initial_y is not None and opts.initial_y.dims != x.dims:
        raise ValueError("initial_y has a different dimension vector than the representation")
    layout = x0.layout
    vertices = layout.vertices
    # on a split support (two or more components) the central directions
    # constant on each component act trivially on the whole representation
    # space, so the Hessian is singular at every point of the orbit
    gradient_only = opts.step_control == "gradient-descent-armijo" or layout.support_components >= 2

    def y_stacks():
        # the starting Y keeps its stacks until the first move, since on the
        # torus its real parts, nonzero within the skew tolerance, are dropped
        return start_y if start_y is not None else point.vertex_stacks(y)

    def outcome(status, iterations, direction=None):
        # a divergence direction is reported normalized; a zero one is not reported
        length = _pair_norm(vertices, direction) if direction is not None else 0.0
        witness = [(1.0 / length) * s for s in direction] if length > 0 else None
        if witness is not None:
            witness = LieAlgebraElement.from_stacks(x.dims, witness)
        y = LieAlgebraElement.from_stacks(x.dims, y_stacks())
        return SolveOutcome(status, y, residual, iterations, witness, structure, tuple(trace))

    start_y = list(opts.initial_y.stacks) if opts.initial_y is not None else vertices.zeros()
    trace = []
    norms = []
    last_step = 1.0
    # overflow, invalid values and a trial's zero exponential are caught by
    # the checks below, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        point = orbit_point(layout, x0.stacks, [-1.0 * s for s in target.stacks], basis)
        center, y = point.values(target.stacks), point.values(start_y)
        y_norm = _pair_norm(vertices, start_y)
        # exp(iY) of the current Y, kept for the next move; made on first use at Y = 0
        g_y = point.act(y) if y_norm > 0 else None
        for iteration in range(opts.max_iterations + 1):
            residual = math.sqrt(point.defect_norm())
            shift = 2.0 * point.pairing(center, y)
            value = point.sq_norm() - shift
            trace.append(value)
            norms.append(y_norm)

            if np.isfinite(residual) and residual <= opts.gradient_tolerance:
                return outcome("converged", iteration)
            if y_norm > opts.divergence_norm_bound or _diverging(trace, norms):
                return outcome("diverged", iteration, y_stacks())
            if not np.isfinite(residual) or not np.isfinite(value):
                raise FloatingPointError("non-finite values in moment-equation solve")
            if iteration == opts.max_iterations or basis.dim == 0:
                return outcome("max_iterations", iteration)

            grad = 2.0 * point.coords(point.defect)
            z_coords = None if gradient_only else _newton_direction(point.tangent_matrix(), grad)
            if z_coords is not None:
                slope = float(grad @ z_coords)
                if slope >= -1e-16 * (_norm(grad) * _norm(z_coords) + 1e-300):
                    z_coords = None
            if z_coords is None:
                z_coords = -0.5 * grad
                slope = float(grad @ z_coords)
            # one move never jumps past the divergence bound: runaway rays are
            # reported by the norm test, not by an overflowing group product
            z_len = _norm(z_coords)
            cap = max(opts.divergence_norm_bound, 1.0)
            if z_len > cap:
                z_coords = (cap / z_len) * z_coords
                slope *= cap / z_len
            z = point.element(z_coords)
            z_shift = point.pairing(center, z)
            point.direct(z)

            # Armijo with a rounding floor: near the fiber the functional moves by
            # less than double precision resolves while the residual still
            # contracts quadratically, so steps that shrink the residual must not
            # be rejected on sub-ulp functional comparisons.  A trial that
            # overflows or has a singular block is rejected.  One diagonalization
            # of Z serves every trial.
            noise = 1e-13 * (1.0 + abs(value))
            accepted = None
            for steps in STEP_ONE_FIRST if last_step == 1.0 else STEP_STACKS:
                ok = point.trials(steps)
                trial_norms = point.trial_sq_norms()
                for k, step in enumerate(steps):
                    if not ok[k]:
                        continue
                    value_trial = float(trial_norms[k]) - shift - 2.0 * step * z_shift
                    if value_trial <= value + ARMIJO_SLOPE * step * slope:
                        accepted = k
                        break
                    if value_trial <= value + noise and math.sqrt(point.trial_defect_norm(k)) <= 0.9 * residual:
                        accepted = k
                        break
                if accepted is not None:
                    last_step = steps[accepted]
                    break
            else:
                logger.debug("line search failed at iteration %d", iteration)
                return outcome("max_iterations", iteration)

            # Y of the polar decomposition of exp(i step Z) exp(iY); the
            # unitary factor is never formed
            try:
                g = point.compose(accepted, g_y if g_y is not None else point.exp_i(y))
                y, start_y = point.polar_log(g), None
                y_norm = math.sqrt(max(point.pairing(y, y), 0.0))
                g_y = point.act(y)
            except (OverflowError, ValueError, np.linalg.LinAlgError):
                # the accepted move leaves representable range: a runaway ray
                reached = y_stacks()
                direction = reached if _pair_norm(vertices, reached) > 0 else basis.stacks_from_coords(z_coords)
                return outcome("diverged", iteration + 1, direction)

    raise AssertionError("unreachable")


def _norm(v):
    """np.linalg.norm of a 1-d real array, as it computes it: the square
    root of v.dot(v)."""
    return math.sqrt(v.dot(v))


def _pair_norm(vertices, a):
    """lie.pairing_norm on vertex-class stacks."""
    return math.sqrt(max(pairing_stacks(vertices, a, a), 0.0))


def _newton_direction(m, grad):
    """Newton direction from the Gram matrix of the action's tangent matrix
    ``m`` at the point, or None when the system is too ill-conditioned or
    the Newton step blows up along a nearly flat direction; the caller then
    takes steepest descent."""
    # second derivative of the functional along exp(itZ) is 4 ||B_Z x||^2
    hessian = 4.0 * (m @ m.T)
    # one SVD gives the 2-norm s[0] and the condition number s[0] / s[-1]
    s = np.linalg.svd(hessian, compute_uv=False) if hessian.size else np.zeros(1)
    with np.errstate(all="ignore"):
        if s[0] == 0.0 or s[0] / s[-1] > NEWTON_COND_LIMIT:
            return None
    z, *_ = np.linalg.lstsq(hessian, -grad, rcond=None)
    if _norm(z) > 100.0 * (1.0 + _norm(grad)):
        return None
    return z


def _diverging(trace, norms):
    """Early divergence call: over the last ``DIVERGENCE_WINDOW`` iterations the
    functional keeps descending at a stable negative rate per unit of growth
    of ||Y|| while ||Y|| runs away."""
    if len(norms) < DIVERGENCE_WINDOW or norms[-1] < 10.0:
        return False
    dn = np.diff(norms[-DIVERGENCE_WINDOW:])
    dv = np.diff(trace[-DIVERGENCE_WINDOW:])
    if np.any(dn <= 1e-12):
        return False
    rates = dv / dn
    if np.all(rates < 0) and np.std(rates) <= 0.05 * abs(np.mean(rates)):
        return True
    return False
