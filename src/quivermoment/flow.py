"""Negative gradient flow of the squared moment defect and its classification.

h(x) = |mu_I(x) - theta|^2 decreases along its negative gradient flow; the
flow converges to a critical point, and trajectories entering the zero level
certify analytic semistability.  Critical values other than zero stay at
squared distance at least d_theta from it, so a stalled positive limit lands
on a higher stratum.

``flow_integrate`` holds the one step controller.  It moves the point through
``layout.orbit_point``, which the Kempf-Ness solver shares: the trials of one
step act as one stack from one diagonalization of the defect, on the stack
kernels or, when every dimension is 1, on the torus kernels, with the same
bytes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .cones import d_theta, theta_coordinates, torus_weights, weight_keys
from .layout import defect_sq_norm, defect_stacks, gradient_stacks, orbit_point
from .lie import StabilityParameter
from .moment import defect_offset
from .quiver import Representation

# step-size controller: grow an accepted step, shrink a rejected one, give up
# below MIN_STEP; STALL_WINDOW steps of vanishing gradient or descent stop the flow
STEP_GROWTH = 2.0
STEP_SHRINK = 0.5
STALL_WINDOW = 20
MIN_STEP = 1e-18
# steps dt, dt * STEP_SHRINK, ... tried as one stack of trials
TRIAL_STACK = 4
# cap on the 2^k subsets of the weight set (not on the projections run) up to
# which d_theta certifies a higher stratum; it stays because lifting it would
# turn some undecided flows into higher_stratum
D_THETA_SUBSET_CAP = 2 ** 14


@dataclass
class FlowOptions:
    """Adaptive explicit integrator controls for the descent flow."""

    initial_step: float = 0.05
    max_time: float = 1e4
    stall_tolerance: float = 1e-9

    def __post_init__(self):
        values = (self.initial_step, self.max_time, self.stall_tolerance)
        # a boolean is not a step or a time, though it compares as 0 or 1
        if any(isinstance(v, (bool, np.bool_)) for v in values) or not all(0 < v < math.inf for v in values):
            raise ValueError("flow options must be positive and finite")


@dataclass
class FlowOutcome:
    """Limit data of one flow run.

    classification is "analytically_semistable" when the defect reached the
    stall tolerance squared, "higher_stratum" when the gradient stalled at a
    defect past the certified radius, "undecided" otherwise.  stop_reason
    says why the integration ended: "reached" (the zero level), "stalled"
    (a vanishing gradient or descent), "step_underflow" (no step down to
    MIN_STEP decreased h) or "max_time".
    """

    limit_point: Representation
    h_value: float
    classification: str
    trajectory_summary: list = field(default_factory=list)  # (t, h, grad_norm)
    time: float = 0.0
    grad_norm: float = 0.0
    events: tuple = ()
    stop_reason: str = "max_time"


def h_value(theta: StabilityParameter, x: Representation) -> float:
    """Squared pairing-norm of mu_I(x) - theta."""
    layout = x.layout
    return defect_sq_norm(layout, defect_stacks(layout, x.stacks, defect_offset(theta, x)))


def grad_h(theta: StabilityParameter, x: Representation) -> Representation:
    """Gradient of h for the hyperkahler metric.

    Chain rule through the moment differential and the symplectic identity:
    4 I.(infinitesimal action of (mu - theta) at x); the constant is pinned by
    the central-difference oracle on h.
    """
    layout, stacks = x.layout, x.stacks
    defect = defect_stacks(layout, stacks, defect_offset(theta, x))
    return x.replace_stacks(gradient_stacks(layout, defect, stacks))


def flow_integrate(theta: StabilityParameter, x0: Representation, opts=None) -> FlowOutcome:
    """Integrate the negative gradient flow of h from x0.

    Explicit first-order stepping with step doubling and halving; a step is
    accepted only if h does not increase, so the recorded trajectory is
    monotone.  The gradient is the infinitesimal action of 4i(mu - theta), so
    each step applies the group element exp(-4 dt i (mu - theta)) instead of a
    vector-space increment: same flow to first order, but iterates stay on the
    group orbit exactly, preserving orbit invariants at machine precision.
    Terminates on reaching the zero level, on a persistent gradient stall, on
    step underflow, or at max_time.  The integration moves one
    ``layout.orbit_point`` and builds no objects per trial step.
    """
    opts = opts or FlowOptions()
    point = orbit_point(x0.layout, x0.stacks, defect_offset(theta, x0))
    t = 0.0
    reach_tol = opts.stall_tolerance ** 2
    dt = opts.initial_step
    stride = 1
    accepted = 0
    stall_count = 0
    frozen_count = 0
    events = []
    reason = "max_time"

    # an overflowing point gives an infinite or NaN h or trial, not a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h = point.defect_norm()
        gnorm = point.grad_norm()
        samples = [(0.0, h, gnorm)]
        while t < opts.max_time:
            if h <= reach_tol:
                reason = "reached"
                break
            # a critical point announces itself either by a vanishing gradient or
            # by descent falling below what double precision can represent in h
            if gnorm <= opts.stall_tolerance:
                stall_count += 1
            else:
                stall_count = 0
            if stall_count >= STALL_WINDOW or frozen_count >= STALL_WINDOW:
                reason = "stalled"
                break

            # Sufficient decrease, not mere non-increase: plain h_new <= h lets the
            # controller sit at the stability boundary where Euler steps flip sign
            # without contracting.  The floor keeps sub-ulp descent steps alive.
            # The steps dt, dt * STEP_SHRINK, ... down to MIN_STEP run in stacks
            # of TRIAL_STACK trials along exp(-4 dt i (mu - theta)), from one
            # diagonalization of the defect, and are tested in that order; the
            # loop variable dt is the step under test, so dt and t move exactly
            # as when trying one step at a time.
            point.direct(point.defect)
            moved = False
            while dt >= MIN_STEP and not moved:
                steps = [dt]
                while len(steps) < TRIAL_STACK and steps[-1] * STEP_SHRINK >= MIN_STEP:
                    steps.append(steps[-1] * STEP_SHRINK)
                ok = point.trials([-4.0 * d for d in steps])
                h_trials = point.trial_defect_norms()
                for k, dt in enumerate(steps):
                    h_new = float(h_trials[k]) if ok[k] else math.inf
                    wanted = h - 0.1 * dt * gnorm * gnorm + 1e-15 * (1.0 + h)
                    if math.isfinite(h_new) and h_new <= min(h, wanted):
                        frozen_count = frozen_count + 1 if h - h_new <= 1e-16 * h else 0
                        point.move(k)
                        gnorm = point.grad_norm()
                        h = h_new
                        t += dt
                        accepted += 1
                        dt *= STEP_GROWTH
                        moved = True
                        break
                else:
                    dt *= STEP_SHRINK
            if not moved:
                events.append("step_underflow")
                reason = "step_underflow"
                break
            if accepted % stride == 0:
                samples.append((t, h, gnorm))
                if len(samples) > 400:
                    samples = samples[::2]
                    stride *= 2

    samples.append((t, h, gnorm))
    x = x0.replace_stacks(point.edge_stacks())
    classification = _classify(theta, x, h, reason, opts, events)
    return FlowOutcome(
        limit_point=x,
        h_value=h,
        classification=classification,
        trajectory_summary=samples,
        time=t,
        grad_norm=gnorm,
        events=tuple(events),
        stop_reason=reason,
    )


def _classify(theta, x, h, reason, opts, events):
    if h <= opts.stall_tolerance ** 2:
        return "analytically_semistable"
    if reason != "stalled":
        return "undecided"
    threshold = opts.stall_tolerance ** 2
    radius = _certified_radius(theta, x)
    if radius is not None:
        threshold = max(threshold, radius * (1.0 - 1e-9) - 1e-12)
    else:
        events.append("d_theta_unavailable")
    return "higher_stratum" if h > threshold else "undecided"


def _certified_radius(theta, x):
    # the distinct weights are counted from their slot keys, so a weight set
    # over the cap is refused before any of its vectors is built
    if 2 ** len(weight_keys(x.quiver, x.dims)) > D_THETA_SUBSET_CAP:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        weights = torus_weights(x.quiver, x.dims)
    coords = theta_coordinates(theta.values, x.dims)
    radius = d_theta(weights, coords)
    return None if math.isinf(radius) else radius
