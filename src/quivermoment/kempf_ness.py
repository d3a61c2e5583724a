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
line search over the step stacks, the divergence tests and the outcome.  It
moves the point through one of two step implementations, chosen by the input
as the flow chooses: ``_TorusStep`` when every entry of the dimension vector
is 1 (the group is the torus (C*)^n), ``_StackStep`` on the layout's stack
kernels otherwise.  On the torus exp(iY) is a real positive scalar per
vertex, Y and the defect are imaginary and every block is 1x1, so the step
runs on the torus kernels of layout.py and skips ``inv``, ``eigh`` and
the 1x1 matmuls; it gives the stack step's bytes, for the reasons
``_TorusStep`` lists, and the tests compare the two on every OpenBLAS kernel
they can run.  The Newton system keeps LAPACK's ``svd`` and ``lstsq`` on
both.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .layout import (
    act_stacks,
    eigh_i_stacks,
    exp_i_stacks,
    sq_norm_stacks,
    torus_act,
    torus_defect,
    torus_edge_stacks,
    torus_rows,
    torus_sq_norms,
    torus_total,
    torus_values,
    torus_vertex_stacks,
    trial_stacks,
)
from .lie import (
    LieAlgebraElement,
    StabilityParameter,
    pairing_stacks,
    polar_log_stacks,
    theta_to_center,
    uv_basis,
)
from .moment import defect_sq_norm, defect_stacks
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
        if not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError("max_iterations must be an integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not (0 < self.gradient_tolerance < math.inf and 0 < self.divergence_norm_bound < math.inf):
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
    arithmetic on the point is done by one of two step implementations,
    chosen by the input as the flow chooses: ``_TorusStep`` on 1-d real
    arrays when every entry of the dimension vector is 1, ``_StackStep`` on
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

    def outcome(status, iterations, direction=None):
        # a divergence direction is reported normalized; a zero one is not reported
        length = _pair_norm(vertices, direction) if direction is not None else 0.0
        witness = [(1.0 / length) * s for s in direction] if length > 0 else None
        if witness is not None:
            witness = LieAlgebraElement.from_stacks(x.dims, witness)
        y = LieAlgebraElement.from_stacks(x.dims, point.y_stacks())
        return SolveOutcome(status, y, residual, iterations, witness, structure, tuple(trace))

    y = list(opts.initial_y.stacks) if opts.initial_y is not None else vertices.zeros()
    trace = []
    norms = []
    last_step = 1.0
    # overflow, invalid values and a trial's zero exponential are caught by
    # the checks below, not warned about
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        point = (_StackStep if layout.torus_plan is None else _TorusStep)(x0, basis, target.stacks, y)
        for iteration in range(opts.max_iterations + 1):
            residual, norm_sq, center_y, y_norm = point.measure()
            shift = 2.0 * center_y
            value = norm_sq - shift
            trace.append(value)
            norms.append(y_norm)

            if np.isfinite(residual) and residual <= opts.gradient_tolerance:
                return outcome("converged", iteration)
            if y_norm > opts.divergence_norm_bound or _diverging(trace, norms):
                return outcome("diverged", iteration, point.y_stacks())
            if not np.isfinite(residual) or not np.isfinite(value):
                raise FloatingPointError("non-finite values in moment-equation solve")
            if iteration == opts.max_iterations or basis.dim == 0:
                return outcome("max_iterations", iteration)

            grad = 2.0 * point.defect_coords()
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
            z_shift = point.direct(z_coords)

            # Armijo with a rounding floor: near the fiber the functional moves by
            # less than double precision resolves while the residual still
            # contracts quadratically, so steps that shrink the residual must not
            # be rejected on sub-ulp functional comparisons.  A trial that
            # overflows or has a singular block is rejected.  One diagonalization
            # of Z serves every trial.
            noise = 1e-13 * (1.0 + abs(value))
            accepted = None
            for steps in STEP_ONE_FIRST if last_step == 1.0 else STEP_STACKS:
                ok, trial_norms = point.trials(steps)
                for k, step in enumerate(steps):
                    if not ok[k]:
                        continue
                    value_trial = float(trial_norms[k]) - shift - 2.0 * step * z_shift
                    if value_trial <= value + ARMIJO_SLOPE * step * slope:
                        accepted = k
                        break
                    if value_trial <= value + noise and point.trial_residual(k) <= 0.9 * residual:
                        accepted = k
                        break
                if accepted is not None:
                    last_step = steps[accepted]
                    break
            else:
                logger.debug("line search failed at iteration %d", iteration)
                return outcome("max_iterations", iteration)

            try:
                point.accept(accepted)
            except (OverflowError, ValueError, np.linalg.LinAlgError):
                # the accepted move leaves representable range: a runaway ray
                y = point.y_stacks()
                return outcome("diverged", iteration + 1, y if _pair_norm(vertices, y) > 0 else point.z)

    raise AssertionError("unreachable")


def _norm(v):
    """np.linalg.norm of a 1-d real array, as it computes it: the square
    root of v.dot(v)."""
    return math.sqrt(v.dot(v))


def _pair_norm(vertices, a):
    """lie.pairing_norm on vertex-class stacks."""
    return math.sqrt(max(pairing_stacks(vertices, a, a), 0.0))


# The two step implementations of solve_moment_equation, with one set of
# methods.  ``measure()`` gives at the current point the residual
# |mu - theta|, |x|^2, pairing(theta, Y) and |Y|; ``defect_coords()`` and
# ``tangent_matrix()`` give the defect's basis coordinates and the action's
# tangent matrix there.  ``direct(z_coords)`` sets the direction Z and
# returns pairing(theta, Z).  ``trials(steps)`` returns whether each trial
# exp(i step Z).x is usable and its |x|^2, ``trial_residual(k)`` the residual
# of trial k, and ``accept(k)`` folds trial k into Y and moves the point to
# exp(iY).x0; it raises OverflowError or ValueError when that leaves
# representable range.  ``y_stacks()`` and ``z`` give Y and Z as stacks.

class _StackStep:
    """Y, Z, exp(iY) and the point as vertex-class and edge stacks, for any
    dimension vector: the kernels of layout.py, the defect helpers of
    moment.py and the polar logarithm of lie.py."""

    def __init__(self, x0, basis, center, y):
        self.layout, self.basis, self.center = x0.layout, basis, center
        self.offset = [-1.0 * s for s in center]
        self.start = self.stacks = x0.stacks
        self.y = y
        # exp(iY) of the current Y, kept for the next move; made on first use at Y = 0
        self.g_y = None
        if _pair_norm(self.layout.vertices, y) > 0:
            self.g_y = exp_i_stacks(y, 1.0)
            self.stacks = act_stacks(self.layout, self.g_y, self.stacks)

    def measure(self):
        layout, vertices = self.layout, self.layout.vertices
        self.defect = defect_stacks(layout, self.stacks, self.offset)
        residual = math.sqrt(defect_sq_norm(layout, self.defect))
        norm_sq = layout.ordered_sum(sq_norm_stacks(self.stacks))
        return residual, norm_sq, pairing_stacks(vertices, self.center, self.y), _pair_norm(vertices, self.y)

    def defect_coords(self):
        return self.basis.coords_of_stacks(self.defect)

    def tangent_matrix(self):
        return self.basis.tangent_matrix(self.layout, self.stacks)

    def direct(self, z_coords):
        self.z = self.basis.stacks_from_coords(z_coords)
        self.eig = eigh_i_stacks(self.z)
        return pairing_stacks(self.layout.vertices, self.center, self.z)

    def trials(self, steps):
        self.g_trials, ok, self.trial_points = trial_stacks(self.layout, self.eig, steps, self.stacks)
        return ok, self.layout.ordered_sum(sq_norm_stacks(self.trial_points), lead=(len(steps),))

    def trial_residual(self, k):
        defect = defect_stacks(self.layout, [s[k] for s in self.trial_points], self.offset)
        return math.sqrt(defect_sq_norm(self.layout, defect))

    def accept(self, k):
        self.g_y = self.g_y if self.g_y is not None else exp_i_stacks(self.y, 1.0)
        g_new = [s[k] @ g for s, g in zip(self.g_trials, self.g_y)]
        if not all(np.isfinite(s).all() for s in g_new):
            raise OverflowError
        self.y, _ = polar_log_stacks(self.layout.vertices, g_new)
        self.g_y = exp_i_stacks(self.y, 1.0)
        self.stacks = act_stacks(self.layout, self.g_y, self.start)

    def y_stacks(self):
        return self.y


class _TorusStep:
    """The same moves when every dimension is 1, on the torus kernels of
    layout.py: ``b`` holds each edge's (re, im), and ``y``, ``d`` and
    ``e_y`` one real per vertex, slot 0 of each a zero pad: the imaginary
    parts of Y and of the defect (their real parts are zeros that move no
    byte) and exp(iY), which is (e_y, +0) with e_y = exp(-Im Y).

    The bytes are those of ``_StackStep``.  Beyond the reasons layout.py
    gives: exp(i step Z) is exp(-step Im Z) for the same reason, and the
    accepted group element is (e_z e_y, +0).  Its polar logarithm is
    Im Y = -log(fl(g^2)) / 2, and the projection onto the compact algebra
    subtracts the mean that ``lie._projected`` subtracts, divided as numpy
    divides a complex number.  Pairings are the correctly rounded products
    of imaginary parts, since every real part is zero, added left to right.
    The starting Y keeps its stacks until the first move, since its real
    parts can be nonzero within the skew tolerance.  Where a residual or
    exp(iY) is not finite, the stack kernels compute it, for their NaNs.
    The tangent matrix is built from the real arrays: per basis element
    and edge, Y_head phi - phi Y_tail is (im b_t - b_h im, b_h re - re b_t)
    for the basis element's imaginary parts b, each product the stack
    product's one nonzero term, so the entries are the stack entries up to
    the sign of a zero, which the Gram matrix does not see.
    """

    def __init__(self, x0, basis, center, y):
        self.layout, self.basis = x0.layout, basis
        self.plan = x0.layout.torus_plan
        self.offset = [-1.0 * s for s in center]
        self.start = x0.stacks
        self.start_b = self.b = torus_rows(x0.stacks)
        self.theta, self.off, self.y = (torus_values(s).imag for s in (center, self.offset, y))
        self.held_y, self.y_norm = y, _pair_norm(self.layout.vertices, y)
        # imaginary part of each basis element per vertex, after the pad
        self.beta = np.concatenate((np.zeros((basis.dim, 1)), basis.matrix[:, 1::2]), axis=1)
        self.e_y = np.exp(-self.y)
        if self.y_norm > 0:
            self._move()

    def _move(self):
        # the point exp(iY).x0 for the current Y, whose exp(iY) is e_y
        if ((self.e_y > 0.0) & (self.e_y < math.inf)).all():
            self.b = torus_act(self.plan, self.e_y, self.start_b)
        else:
            self.b = torus_rows(act_stacks(self.layout, exp_i_stacks(self.y_stacks(), 1.0), self.start))

    def measure(self):
        norms = torus_sq_norms(self.b)
        self.d = torus_defect(self.plan, norms, self.off)
        residual = math.sqrt(torus_total(self.d * self.d))
        if not math.isfinite(residual):
            defect = defect_stacks(self.layout, torus_edge_stacks(self.b), self.offset)
            residual = math.sqrt(defect_sq_norm(self.layout, defect))
        return residual, float(torus_total(norms)), float(torus_total(self.theta * self.y)), self.y_norm

    def defect_coords(self):
        flat = np.zeros(2 * len(self.d) - 2)
        flat[1::2] = self.d[1:]
        return self.basis.matrix @ flat

    def tangent_matrix(self):
        # Y_head phi - phi Y_tail per basis element and edge, as (re, im)
        heads, tails, _ = self.plan
        head, tail = self.beta[:, heads[1:]], self.beta[:, tails[1:]]
        re, im = self.b[1:, 0], self.b[1:, 1]
        m = np.empty(head.shape + (2,))
        m[..., 0] = im * tail - head * im
        m[..., 1] = head * re - re * tail
        return m.reshape(len(m), -1)

    def direct(self, z_coords):
        self.z_coords = z_coords
        z = np.zeros(len(self.theta))
        z[1:] = (z_coords @ self.basis.matrix)[1::2]
        self.w = -z
        return float(torus_total(self.theta * z))

    @property
    def z(self):
        return self.basis.stacks_from_coords(self.z_coords)

    def trials(self, steps):
        e = np.exp(np.multiply.outer(steps, self.w))
        ok = ((e > 0.0) & (e < math.inf)).all(axis=1)
        norms = torus_sq_norms(torus_act(self.plan, e, self.b))
        self.trial = e, norms
        return ok, torus_total(norms)

    def trial_residual(self, k):
        d = torus_defect(self.plan, self.trial[1][k], self.off)
        return math.sqrt(torus_total(d * d))

    def accept(self, k):
        g = self.trial[0][k] * self.e_y
        if not np.isfinite(g).all():
            raise OverflowError
        gram = g * g
        if not 0.0 < gram.min() <= gram.max() < math.inf:
            raise ValueError("singular block in group element")
        log = 0.0 - 0.5 * np.log(gram)
        mean = (np.complex128(complex(0.0, torus_total(log))) / (len(log) - 1)).imag
        self.y = log - mean
        self.y[0] = 0.0
        self.held_y = None
        self.y_norm = math.sqrt(max(float(torus_total(self.y * self.y)), 0.0))
        self.e_y = np.exp(-self.y)
        self._move()

    def y_stacks(self):
        if self.held_y is None:
            self.held_y = torus_vertex_stacks(self.y)
        return self.held_y


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
