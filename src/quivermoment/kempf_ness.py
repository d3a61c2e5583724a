"""Kempf-Ness functional and the solver for mu(exp(iY).x) = theta.

The functional g -> ||g.x||^2 - log|chi_theta(g)|^2 is geodesically convex
along one-parameter subgroups exp(itZ); its critical points over exp(i u_v)
are exactly the points whose moment value hits the central target.  The
solver runs a damped Newton iteration in geodesic coordinates: at the current
point the gradient is 2(mu - theta) and the Hessian is the Gram matrix of the
infinitesimal-action tangents, solved by least squares with a gradient-descent
fallback when ill-conditioned.  Unbounded iterates are reported as divergence
together with the normalized limiting direction, the witness the
Hilbert-Mumford criterion extracts from unbounded minimizing sequences.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .layout import eigh_i_stacks, sq_norm_stacks, trial_stacks
from .lie import (
    GroupElement,
    LieAlgebraElement,
    StabilityParameter,
    act,
    character_log_modulus,
    pairing,
    pairing_norm,
    polar_decompose,
    tangent_matrix,
    theta_to_center,
    uv_basis,
)
from .moment import defect_offset, defect_sq_norm, defect_stacks, moment_residual
from .quiver import Representation, norm_sq, rotate_to_I

logger = logging.getLogger(__name__)

ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 60
NEWTON_COND_LIMIT = 1e12
# The line search tries step 1 alone, which most iterations accept, then the
# halved steps in stacks of TRIAL_STACK trials (the last stack shorter), up
# to MAX_BACKTRACKS trials in all.
TRIAL_STACK = 8
STEP_STACKS = [[1.0]] + [
    [0.5 ** k for k in range(first, min(first + TRIAL_STACK, MAX_BACKTRACKS))]
    for first in range(1, MAX_BACKTRACKS, TRIAL_STACK)
]


@dataclass
class SolveOptions:
    """Knobs of the moment-equation solver."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-10
    step_control: str = "damped-newton"  # or "gradient-descent-armijo"
    divergence_norm_bound: float = 50.0
    initial_y: Optional[LieAlgebraElement] = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.gradient_tolerance <= 0 or self.divergence_norm_bound <= 0:
            raise ValueError("tolerances must be positive")
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


def kempf_ness_value(theta: StabilityParameter, x: Representation, g: GroupElement) -> float:
    """||g.x||^2 - log|chi_theta(g)|^2; invariant under left unitary factors."""
    return norm_sq(act(g, x, "I")) - character_log_modulus(theta, g)


def geodesic_profile(theta, x, z: LieAlgebraElement, ts):
    """Sample the functional along the geodesic t -> exp(itZ); convex in t."""
    theta_sharp = theta_to_center(theta)
    slope = 2.0 * pairing(theta_sharp, z)
    values = []
    for t in ts:
        g = GroupElement.exp_i(z, float(t))
        values.append(norm_sq(act(g, x, "I")) - slope * float(t))
    return values


def minimum_is_identity_check(theta, x, tol) -> bool:
    """True iff the functional is critical (hence minimal) at the identity,
    i.e. the moment value of x already equals the central target."""
    return moment_residual(x, theta) <= tol


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
    polar decomposition; the unitary polar factor is dropped, which changes
    neither the residual nor the functional value.  The residual and the line
    search run on edge stacks, with the flow's defect and group step helpers.
    """
    opts = opts or SolveOptions()
    x0 = rotate_to_I(structure, x)
    basis = uv_basis(x.dims)
    target = theta_to_center(theta)
    layout = x0.layout
    offset = defect_offset(theta, x0)

    y = opts.initial_y if opts.initial_y is not None else LieAlgebraElement.zero(x.dims)
    # exp(iY) of the current Y, kept for the next move; made on first use at Y = 0
    g_y = GroupElement.exp_i(y) if pairing_norm(y) > 0 else None
    x_cur = act(g_y, x0, "I") if g_y is not None else x0

    trace = []
    norms = []
    for iteration in range(opts.max_iterations + 1):
        stacks = x_cur.stacks
        with np.errstate(over="ignore", invalid="ignore"):
            defect = defect_stacks(layout, stacks, offset)
            residual = math.sqrt(defect_sq_norm(layout, defect))
            shift = 2.0 * pairing(target, y)
            value = layout.ordered_sum(sq_norm_stacks(stacks)) - shift
        y_norm = pairing_norm(y)
        trace.append(value)
        norms.append(y_norm)

        if np.isfinite(residual) and residual <= opts.gradient_tolerance:
            return SolveOutcome(
                "converged", y, residual, iteration, None, structure, tuple(trace)
            )
        if y_norm > opts.divergence_norm_bound or _diverging(trace, norms):
            witness = (1.0 / y_norm) * y if y_norm > 0 else None
            return SolveOutcome(
                "diverged", y, residual, iteration, witness, structure, tuple(trace)
            )
        if not np.isfinite(residual) or not np.isfinite(value):
            raise FloatingPointError("non-finite values in moment-equation solve")
        if iteration == opts.max_iterations or basis.dim == 0:
            return SolveOutcome(
                "max_iterations", y, residual, iteration, None, structure, tuple(trace)
            )

        grad = 2.0 * basis.coords(LieAlgebraElement.from_stacks(x.dims, defect))
        z_coords = _direction(x_cur, grad, opts)
        slope = float(grad @ z_coords)
        if slope >= -1e-16 * (np.linalg.norm(grad) * np.linalg.norm(z_coords) + 1e-300):
            z_coords = -0.5 * grad
            slope = float(grad @ z_coords)
        # one move never jumps past the divergence bound: runaway rays are
        # reported by the norm test, not by an overflowing group product
        z_len = float(np.linalg.norm(z_coords))
        cap = max(opts.divergence_norm_bound, 1.0)
        if z_len > cap:
            z_coords = (cap / z_len) * z_coords
            slope *= cap / z_len
        z = basis.from_coords(z_coords)
        z_shift = pairing(target, z)

        # Armijo with a rounding floor: near the fiber the functional moves by
        # less than double precision resolves while the residual still
        # contracts quadratically, so steps that shrink the residual must not
        # be rejected on sub-ulp functional comparisons.  A trial that
        # overflows or has a singular block is rejected.  One diagonalization
        # of Z serves every trial.
        noise = 1e-13 * (1.0 + abs(value))
        eig = eigh_i_stacks(z.stacks)
        accepted = None
        for steps in STEP_STACKS:
            g_trials, ok, trials, trial_norms = trial_stacks(layout, eig, steps, stacks)
            for k, step in enumerate(steps):
                if not ok[k]:
                    continue
                value_trial = float(trial_norms[k]) - shift - 2.0 * step * z_shift
                if value_trial <= value + ARMIJO_SLOPE * step * slope:
                    accepted = k
                    break
                if value_trial <= value + noise:
                    trial_defect = defect_stacks(layout, [s[k] for s in trials], offset)
                    if math.sqrt(defect_sq_norm(layout, trial_defect)) <= 0.9 * residual:
                        accepted = k
                        break
            if accepted is not None:
                break
        else:
            logger.debug("line search failed at iteration %d", iteration)
            return SolveOutcome(
                "max_iterations", y, residual, iteration, None, structure, tuple(trace)
            )

        try:
            with np.errstate(over="ignore", invalid="ignore"):
                g_step = GroupElement.from_stacks(x.dims, [s[accepted] for s in g_trials])
                g_new = g_step.compose(g_y if g_y is not None else GroupElement.exp_i(y))
                if not all(np.all(np.isfinite(s)) for s in g_new.stacks):
                    raise OverflowError
                _, y = polar_decompose(g_new)
                g_y = GroupElement.exp_i(y)
                x_cur = act(g_y, x0, "I")
        except (OverflowError, ValueError, np.linalg.LinAlgError):
            # the accepted move leaves representable range: a runaway ray
            y_norm = pairing_norm(y)
            witness = (1.0 / y_norm) * y if y_norm > 0 else (1.0 / pairing_norm(z)) * z
            return SolveOutcome(
                "diverged", y, residual, iteration + 1, witness, structure, tuple(trace)
            )

    raise AssertionError("unreachable")


def _direction(x_cur, grad, opts):
    """Newton direction from the Gram matrix of action tangents, or steepest
    descent when requested, when the system is too ill-conditioned, or when
    the Newton step blows up along a nearly flat direction."""
    if opts.step_control == "gradient-descent-armijo":
        return -0.5 * grad
    m = tangent_matrix(x_cur)
    # second derivative of the functional along exp(itZ) is 4 ||B_Z x||^2
    hessian = 4.0 * (m @ m.T)
    # one SVD gives the 2-norm s[0] and the condition number s[0] / s[-1]
    s = np.linalg.svd(hessian, compute_uv=False) if hessian.size else np.zeros(1)
    with np.errstate(all="ignore"):
        if s[0] == 0.0 or s[0] / s[-1] > NEWTON_COND_LIMIT:
            return -0.5 * grad
    z, *_ = np.linalg.lstsq(hessian, -grad, rcond=None)
    if np.linalg.norm(z) > 100.0 * (1.0 + np.linalg.norm(grad)):
        return -0.5 * grad
    return z


def _diverging(trace, norms, window=12):
    """Early divergence call: the functional keeps descending at a stable
    negative rate per unit of growth of ||Y|| while ||Y|| runs away."""
    if len(norms) < window or norms[-1] < 10.0:
        return False
    dn = np.diff(norms[-window:])
    dv = np.diff(trace[-window:])
    if np.any(dn <= 1e-12):
        return False
    rates = dv / dn
    if np.all(rates < 0) and np.std(rates) <= 0.05 * abs(np.mean(rates)):
        return True
    return False
