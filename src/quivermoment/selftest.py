"""Seeded invariant suite covering every module, runnable from the CLI, with
the independent oracles and the invariant defect functions that it and the
test suite share (public here, not exported by the package).

Each check draws its own child generator from the master seed, so checks are
independent of ordering and the whole report is reproducible byte for byte.
The budget scales instance counts; the default budget covers every invariant
at full desk scale.

Every invariant that a check and a unit test or acceptance criterion both
bound is computed by one defect function here.  It takes the drawn inputs
(or, where every caller draws alike, the generator and a count) and returns
the defect or verdict for them; each caller keeps its own seed, count, draw
order and tolerance.  Where callers scale a gap differently, the function
returns the raw gap and each caller applies its own scale.

Sixteen checks bound the worst defect over random instances.  Each is a
``Row`` of ``CHECKS``: its instance count, tolerance, detail label,
``random_instance`` options, and the draws it makes after each instance.
``worst_over(name, rng, count)`` is the one loop that runs a row; a unit
test that draws as a row does calls it with its own seed and count and bounds
the result by its own tolerance.  Checks that stop early with their own
message stay functions of (rng, budget).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import cones, flow, kempf_ness, moment, sampling, stability, transport
from .lie import (
    GroupElement,
    LieAlgebraElement,
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
    uv_basis,
)
from .quiver import (
    STRUCTURES,
    apply_structure,
    hermitian_pairing,
    hyperkahler_metric,
    hyperkahler_rotation,
    norm_sq,
    quaternion_act,
    quaternion_multiply,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _scaled(count, budget):
    return max(1, int(round(count * budget)))


def worse(*defects):
    """The largest of 0.0 and ``defects``, or NaN when one of them is NaN, so
    that a NaN defect fails every ``<= tolerance`` bound (``max`` keeps its
    first argument against a NaN)."""
    worst = 0.0
    for d in defects:
        if d != d:
            return math.nan
        if d > worst:
            worst = d
    return worst


@dataclass(frozen=True)
class Row:
    """A worst-defect check.  ``defect(rng, quiver, dims, x)`` takes one
    ``random_instance(rng, **instance)`` draw, makes the check's further draws
    in order and returns their defect; the check passes when the worst over
    ``count`` draws, scaled by the budget, is at most ``tol``, and reports it
    after ``label``."""

    count: int
    tol: float
    label: str
    defect: Callable
    instance: dict = field(default_factory=dict)


def worst_over(name, rng, count):
    """Worst defect of the row ``name`` of ``CHECKS`` over ``count`` draws
    from ``rng``; NaN when a defect is NaN."""
    row = ROWS[name]
    worst = 0.0
    for _ in range(count):
        quiver, dims, x = sampling.random_instance(rng, **row.instance)
        worst = worse(worst, row.defect(rng, quiver, dims, x))
    return worst


def run_selftest(seed=0, budget=1.0):
    """Run every invariant check; returns a list of CheckResult."""
    master = np.random.default_rng(seed)
    seeds = {name: int(master.integers(2 ** 63)) for name, _ in CHECKS}
    results = []
    for name, check in CHECKS:
        rng = np.random.default_rng(seeds[name])
        try:
            if isinstance(check, Row):
                worst = worst_over(name, rng, _scaled(check.count, budget))
                passed, detail = worst <= check.tol, f"{check.label} {worst:.2e}"
            else:
                passed, detail = check(rng, budget)
        except Exception as exc:  # a crash is a failed invariant, not a crash of the suite
            passed, detail = False, f"exception: {exc!r}"
        results.append(CheckResult(name, passed, detail))
    return results


def _adjoint(u, w):
    """u w u^dagger block by block, projected onto the compact algebra."""
    return LieAlgebraElement.project([ub @ wb @ ub.conj().T for ub, wb in zip(u.blocks, w.blocks)])


# ---------------------------------------------------------------------------
# Oracles.  The cone oracles run least squares on every support, never the
# active-set iteration they check; the wall oracle computes in integers, never
# through the exact wall scan of cones.


def support_projections(vectors, theta):
    """(mask, projection, squared distance) of every nonempty support of the
    rows of ``vectors`` whose least-squares coefficients are at least -1e-12,
    in mask order."""
    k = len(vectors)
    for mask in range(1, 2 ** k):
        a = vectors[[i for i in range(k) if mask >> i & 1]].T
        coeff, *_ = np.linalg.lstsq(a, theta, rcond=None)
        if np.any(coeff < -1e-12):
            continue
        beta = a @ coeff
        yield mask, beta, float((theta - beta) @ (theta - beta))


def projection_oracle(vectors, theta):
    """``cone_project`` by exhaustion: the feasible support nearest theta,
    where a later support must be nearer by more than 1e-15."""
    best = (np.zeros_like(theta), float(theta @ theta))
    for _, beta, dist in support_projections(vectors, theta):
        if dist < best[1] - 1e-15:
            best = (beta, dist)
    return best


def subset_distances(vectors, theta):
    """Squared distance from theta to the cone of every subset, by mask: the
    least over its feasible supports, by a subset min-transform."""
    k = len(vectors)
    dist = np.full(2 ** k, np.inf)
    dist[0] = float(theta @ theta)
    for mask, _, d in support_projections(vectors, theta):
        dist[mask] = d
    for bit in range(k):
        step = 1 << bit
        for mask in range(2 ** k):
            if mask & step:
                dist[mask] = min(dist[mask], dist[mask ^ step])
    return dist


def d_theta_oracle(weights, theta):
    """``d_theta`` by exhaustion: the least squared distance over the subset
    cones whose projection stays away from theta; inf when there is none."""
    dist = subset_distances(weights.vectors, theta)
    gap = 1e-9 * (1.0 + float(np.linalg.norm(theta)))
    candidates = dist[np.sqrt(dist) > gap]
    return float(candidates.min()) if len(candidates) else math.inf


def in_C_reg_oracle(weights, theta):
    """``in_C_reg`` by exhaustion: the whole set's cone reaches theta, and no
    subset of ``matrix_rank`` below ``torus_dim`` reaches it."""
    vectors = weights.vectors
    k = len(vectors)
    gap = 1e-9 * (1.0 + float(np.linalg.norm(theta)))
    reaches = np.sqrt(subset_distances(vectors, theta)) <= gap
    if not reaches[-1]:
        return False
    for mask in np.flatnonzero(reaches):
        subset = vectors[[i for i in range(k) if mask >> i & 1]]
        rank = np.linalg.matrix_rank(subset, tol=1e-10) if subset.size else 0
        if rank < weights.torus_dim:
            return False
    return True


def wall_oracle(dims, rational_vectors, check_balance=False):
    """The regular-locus test of ``hyperkahler_regular_check`` (a triple's
    components) and ``complex_regular_check`` (the parts of xi, with
    ``check_balance``) over cleared-denominator integers: balance where asked,
    and no wall of ``regular_walls(dims)`` annihilates every vector."""
    rows = []
    for vector in rational_vectors:
        vector = [Fraction(v) for v in vector]
        scale = math.lcm(*(v.denominator for v in vector))
        rows.append([int(v * scale) for v in vector])
    if check_balance and any(sum(d * a for d, a in zip(dims, row)) for row in rows):
        return False
    return not any(
        all(sum(c * a for c, a in zip(w, row)) == 0 for row in rows) for w in cones.regular_walls(dims)
    )


def kempf_ness_value(theta, x, g):
    """The Kempf-Ness functional ||g.x||^2 - log|chi_theta(g)|^2; invariant
    under left unitary factors."""
    return norm_sq(act(g, x, "I")) - character_log_modulus(theta, g)


def geodesic_profile(theta, x, z, ts):
    """The functional along the geodesic t -> exp(itZ); convex in t."""
    theta_sharp = theta_to_center(theta)
    slope = 2.0 * pairing(theta_sharp, z)
    values = []
    for t in ts:
        g = GroupElement.exp_i(z, float(t))
        values.append(norm_sq(act(g, x, "I")) - slope * float(t))
    return values


def hm_witness_check(theta, x, y, tol=stability.WITNESS_TOL) -> str:
    """Single-direction Hilbert-Mumford probe: "destabilizing" when the limit
    along exp(itY) exists and Y pairs nonnegatively with the central target,
    else "consistent_with_stable" (not a proof of stability)."""
    if pairing(y, y) == 0.0:
        raise ValueError("witness direction must be nonzero")
    limit_exists, _ = stability.hm_limit_filtration(x, y, tol)
    if limit_exists and pairing(theta_to_center(theta), y) >= 0.0:
        return "destabilizing"
    return "consistent_with_stable"


# ---------------------------------------------------------------------------
# Defects: one function per shared invariant (see the module docstring).


def structure_isometry_defect(x):
    """Largest relative change of |x|^2 under I, J and K."""
    worst = 0.0
    n = norm_sq(x)
    for s in STRUCTURES:
        worst = worse(worst, abs(norm_sq(apply_structure(s, x)) - n) / (1.0 + n))
    return worst


def quaternion_relations_defect(x):
    """Scaled defect of s^2 = -1 for s = I, J, K and of IJK = -1 at x."""
    worst = 0.0
    scale = math.sqrt(norm_sq(x)) + 1.0
    for s in STRUCTURES:
        twice = apply_structure(s, apply_structure(s, x))
        worst = worse(worst, math.sqrt(norm_sq(twice + x)) / scale)
    ijk = apply_structure("I", apply_structure("J", apply_structure("K", x)))
    return worse(worst, math.sqrt(norm_sq(ijk + x)) / scale)


def rotation_identities_defect(x):
    """Scaled defect of the hyperkahler rotation at x: isometry, inverse, and
    I, J, K carried to J, K, I."""
    scale = math.sqrt(norm_sq(x)) + 1.0
    rot = hyperkahler_rotation(x)
    worst = abs(norm_sq(rot) - norm_sq(x)) / scale ** 2
    back = hyperkahler_rotation(rot, "inverse")
    worst = worse(worst, math.sqrt(norm_sq(back - x)) / scale)
    for s, s_next in (("I", "J"), ("J", "K"), ("K", "I")):
        lhs = hyperkahler_rotation(apply_structure(s, x))
        rhs = apply_structure(s_next, rot)
        worst = worse(worst, math.sqrt(norm_sq(lhs - rhs)) / scale)
    return worst


def quaternion_action_defect(x, q1, q2):
    """Scaled defect of q1.(q2.x) = (q1 q2).x for unit quaternions."""
    lhs = quaternion_act(q1, quaternion_act(q2, x))
    rhs = quaternion_act(quaternion_multiply(q1, q2), x)
    return math.sqrt(norm_sq(lhs - rhs)) / (math.sqrt(norm_sq(x)) + 1.0)


def metric_polarisation_defect(u, v):
    """Largest gap between Re h_s(u, v) and g(u, v) over s = I, J, K, scaled
    by 1 + |g(u, v)|."""
    worst = 0.0
    g = hyperkahler_metric(u, v)
    scale = abs(g) + 1.0
    for s in STRUCTURES:
        worst = worse(worst, abs(hermitian_pairing(s, u, v).real - g) / scale)
    return worst


def pairing_is_positive(y):
    """Whether <y, y> > 0, as it must be on a nonzero algebra."""
    return pairing(y, y) > 0 or uv_basis(y.dims).dim == 0


def _relative(gap, reference):
    """``gap`` scaled by 1 + |reference|."""
    return gap / (1.0 + abs(reference))


def ad_invariance_gap(y, z, u):
    """|<Ad_u y, Ad_u z> - <y, z>| and <y, z>."""
    reference = pairing(y, z)
    return abs(pairing(_adjoint(u, y), _adjoint(u, z)) - reference), reference


def character_pairing_gap(theta, y, t):
    """|log|chi_theta(exp(itY))|^2 - 2 t <theta#, Y>| and 2 t <theta#, Y>."""
    lhs = character_log_modulus(theta, GroupElement.exp_i(y, t))
    rhs = 2.0 * pairing(theta_to_center(theta), y) * t
    return abs(lhs - rhs), rhs


def left_action_defect(x, g1, g2):
    """Scaled defect of (g1 g2).x = g1.(g2.x)."""
    lhs = act(g1.compose(g2), x)
    rhs = act(g1, act(g2, x))
    return math.sqrt(norm_sq(lhs - rhs)) / (1.0 + math.sqrt(norm_sq(x)))


def exp_group_law_defect(x, y, s, t):
    """Scaled defect of exp((s + t)iY).x = exp(siY).exp(tiY).x in every
    structure."""
    worst = 0.0
    for structure in STRUCTURES:
        lhs = exp_action(y, s + t, structure, x)
        rhs = exp_action(y, s, structure, exp_action(y, t, structure, x))
        worst = worse(worst, math.sqrt(norm_sq(lhs - rhs)) / (1.0 + math.sqrt(norm_sq(x))))
    return worst


def flow_derivative_defect(x, y):
    """Scaled gap between the central difference of t -> exp(itY).x at 0 and
    the infinitesimal action I(Y.x)."""
    h = 1e-5
    fd = (1.0 / (2 * h)) * (exp_action(y, h, "I", x) - exp_action(y, -h, "I", x))
    an = apply_structure("I", infinitesimal_action(y, x))
    return math.sqrt(norm_sq(fd - an)) / (1.0 + math.sqrt(norm_sq(an)))


def polar_reconstruction(g):
    """Largest entry of h exp(iY) - g for the polar factors (h, Y) of g, and
    whether h is unitary within 1e-10."""
    h, y = polar_decompose(g)
    rec = h.compose(GroupElement.exp_i(y))
    err = worse(*(float(np.abs(a - b).max(initial=0.0)) for a, b in zip(rec.blocks, g.blocks)))
    return err, h.is_unitary(1e-10)


def stabilizer_conjugation_holds(x, g):
    """Whether the stabilizer of g.x has the dimension of that of x."""
    return stabilizer_lie_dim(act(g, x)) == stabilizer_lie_dim(x)


def moment_oracle_defect(x, y, s):
    """Scaled gap between pairing(mu_s(x), y) and its finite-difference
    oracle."""
    lhs = pairing(moment.moment_real(x, s), y)
    rhs = moment.moment_pairing_fd_oracle(x, y, s)
    return abs(lhs - rhs) / (1.0 + norm_sq(x) * math.sqrt(pairing(y, y)))


def moment_equivariance_defect(x, u):
    """Scaled defect of mu_I(u.x) = Ad_u mu_I(x)."""
    mu = moment.moment_real(x, "I")
    lhs = moment.moment_real(act(u, x), "I")
    return pairing_norm(lhs - _adjoint(u, mu)) / (1.0 + pairing_norm(mu))


def complex_trace_defect(x):
    """|trace sum of mu_C(x)|, scaled by 1 + |x|^2."""
    return abs(moment.moment_complex(x).trace_sum()) / (1.0 + norm_sq(x))


def rotation_intertwining_defect(x):
    """Scaled defect of mu_s(rotation of x) = mu_s'(x), s' carried to s."""
    worst = 0.0
    rot = hyperkahler_rotation(x)
    scale = 1.0 + norm_sq(x)
    for s, s_from in {"I": "K", "J": "I", "K": "J"}.items():
        lhs = moment.moment_real(rot, s)
        rhs = moment.moment_real(x, s_from)
        worst = worse(worst, pairing_norm(lhs - rhs) / scale)
    return worst


def quaternion_equivariance_defect(x, q):
    """Scaled defect of mu(q.x) = q mu(x) q^-1 for a unit quaternion q."""
    lhs = moment.moment_hyperkahler(quaternion_act(q, x))
    rhs = moment.quaternion_conjugate_triple(q, moment.moment_hyperkahler(x))
    return (lhs - rhs).norm() / (1.0 + norm_sq(x))


def moment_homogeneity_defect(x):
    """Worst defect of mu(t x) = t^2 mu(x) over t = 0.5, 2, 3, each scaled by
    1 + min(|mu(x)|, |t^2 mu(x)|), the smaller of the two sides' sizes."""
    worst = 0.0
    base = moment.moment_hyperkahler(x)
    for t in (0.5, 2.0, 3.0):
        lhs = moment.moment_hyperkahler(t * x)
        rhs = base.scale(t * t)
        worst = worse(worst, (lhs - rhs).norm() / (1.0 + min(base.norm(), rhs.norm())))
    return worst


def complex_real_proportionality(rng, count):
    """The constants c of mu_J + i mu_K = c mu_C over ``count`` instances,
    degenerate ones skipped, and the worst residual scaled by 1 + |x|^2."""
    values = []
    worst_resid = 0.0
    for _ in range(count):
        quiver, dims, x = sampling.random_instance(rng)
        c, resid = moment.complex_vs_real_identity(x)
        if c is None:
            continue
        values.append(c)
        worst_resid = worse(worst_resid, resid / (1.0 + norm_sq(x)))
    return values, worst_resid


def solver_fixed_point(x, theta):
    """Solve mu(exp(iY).x) = theta: the outcome, the gap between its residual
    and one recomputed from Y (None unless it converged), and whether the
    objective never rose across accepted iterations."""
    outcome = kempf_ness.solve_moment_equation(x, theta)
    gap = None
    if outcome.converged:
        recomputed = pairing_norm(
            moment.moment_real(exp_action(outcome.y, 1.0, "I", x), "I")
            - theta_to_center(theta)
        )
        gap = abs(recomputed - outcome.residual)
    trace = outcome.objective_trace
    rises = any(trace[i + 1] > trace[i] + 1e-12 * (1 + abs(trace[i])) for i in range(len(trace) - 1))
    return outcome, gap, not rises


def restart_spread(x, theta, directions):
    """Solve mu(exp(iY).x) = theta, then restart at Y + 0.1 d / |d| for each
    direction d: the failure ("baseline solve failed" or "perturbed restart
    failed"), else None, and the largest distance of a restart from Y."""
    base = kempf_ness.solve_moment_equation(x, theta)
    if not base.converged:
        return "baseline solve failed", None
    spread = 0.0
    for seedling in directions:
        nrm = pairing_norm(seedling)
        perturb = (0.1 / nrm) * seedling if nrm > 0 else seedling
        restart = kempf_ness.solve_moment_equation(
            x, theta, opts=kempf_ness.SolveOptions(initial_y=base.y + perturb)
        )
        if not restart.converged:
            return "perturbed restart failed", None
        spread = worse(spread, pairing_norm(restart.y - base.y))
    return None, spread


def solution_equivariance_defect(x, theta, y, u):
    """Solve at u.x for theta, where Y solves at x: the outcome and its
    distance from Ad_u Y."""
    moved = kempf_ness.solve_moment_equation(act(u, x), theta)
    return moved, pairing_norm(moved.y - _adjoint(u, y))


def solution_inverse_defect(x, y, theta_back):
    """Solve from exp(iY).x back to ``theta_back``: the outcome and its
    distance from -Y."""
    back = kempf_ness.solve_moment_equation(exp_action(y, 1.0, "I", x), theta_back)
    return back, pairing_norm(back.y + y)


def flow_monotone(out):
    """Whether h never rose by more than 1e-12 between samples of a flow."""
    hs = [s[1] for s in out.trajectory_summary]
    return not any(hs[i + 1] > hs[i] + 1e-12 for i in range(len(hs) - 1))


def flow_solver_gap(x, theta, limit_point):
    """Distance between mu_I of a flow's limit and of the solver's image of x
    for theta; None when the solve does not converge."""
    solved = kempf_ness.solve_moment_equation(x, theta)
    if not solved.converged:
        return None
    return pairing_norm(
        moment.moment_real(limit_point, "I")
        - moment.moment_real(exp_action(solved.y, 1.0, "I", x), "I")
    )


def grad_h_defect(theta, x, d):
    """Gap between g(grad h, d) and the central difference of h along d,
    scaled by 1 + |difference|."""
    g = flow.grad_h(theta, x)
    eps = 1e-6
    fd = (flow.h_value(theta, x + eps * d) - flow.h_value(theta, x - eps * d)) / (2 * eps)
    an = hyperkahler_metric(g, d)
    return abs(fd - an) / (1.0 + abs(fd))


def projection_gaps(vectors, theta):
    """``cone_project``'s projection, and its gaps from ``projection_oracle``
    in squared distance and in projection."""
    beta, dist_sq = cones.cone_project(vectors, theta)
    brute_beta, brute_dist = projection_oracle(vectors, theta)
    return beta, abs(dist_sq - brute_dist), float(np.linalg.norm(beta - brute_beta))


def d_theta_gap(weights, theta):
    """|d_theta - d_theta_oracle|, 0.0 when both are inf; None when only one
    of them is."""
    mine = cones.d_theta(weights, theta)
    brute = d_theta_oracle(weights, theta)
    if math.isinf(mine) != math.isinf(brute):
        return None
    return 0.0 if math.isinf(mine) else abs(mine - brute)


def regular_check_agrees(dims, triple):
    """Whether ``hyperkahler_regular_check`` and ``wall_oracle`` agree."""
    ok, _ = cones.hyperkahler_regular_check(dims, triple)
    return ok == wall_oracle(dims, triple.components())


def stability_verdicts(x, theta, seed):
    """The King certificate at ``seed``, and whether the numerical
    certificate contradicts its definite verdict."""
    king = stability.king_stable_test(x, theta, seed=seed)
    numeric = stability.certify_stable_numerical(x, theta)
    definite = {"stable", "unstable"}
    both = king.verdict in definite and numeric.verdict in definite
    return king, both and king.verdict != numeric.verdict


def witness_reverifies(x, theta, king):
    """Whether an unstable King witness is a subrepresentation (residual at
    most 1e-10) of nonnegative slope; None when there is no witness."""
    if king.verdict != "unstable" or king.witness_subspace is None:
        return None
    resid = stability.subrepresentation_residual(x, king.witness_subspace)
    slope = stability.king_slope(theta, king.witness_subspace.sub_dims())
    return resid <= 1e-10 and slope >= 0


def filtration_levels_verify(x, y):
    """Whether every level of the limit filtration along exp(itY) is a
    subrepresentation within 1e-8; None when the limit does not exist."""
    limit_exists, _ = stability.hm_limit_filtration(x, y)
    if not limit_exists:
        return None
    for w in stability.filtration_subspaces(x, y):
        if not stability.verify_subrepresentation(x, w, 1e-8):
            return False
    return True


def real_transport_defects(x, theta0, theta1, u):
    """Transport x, on the fiber over theta0, to theta1: the image's fiber
    residual ("fiber") and its distances from x after transport back
    ("round"), from the transport of u.x moved back by u ("equiv") and from a
    transport through the midpoint ("path")."""
    res = transport.transport_real(x, theta1)
    back = transport.transport_real(res.image, theta0)
    res_u = transport.transport_real(act(u, x), theta1)
    mid = balanced_theta([0.5 * (a + b) for a, b in zip(theta0.values, theta1.values)], x.dims)
    two_legs = transport.transport_real(x, theta1, transport.TransportPlan(waypoints=(mid,)))
    return {
        "fiber": res.residual,
        "round": math.sqrt(norm_sq(back.image - x)),
        "equiv": math.sqrt(norm_sq(res_u.image - act(u, res.image))),
        "path": math.sqrt(norm_sq(two_legs.image - res.image)),
    }


def hyperkahler_round_trip(x, target):
    """Transport x to the triple ``target`` and back, legs K, J, I, to its
    own central moments: the image, its fiber residual and the distance of
    the round trip from x."""
    start = tuple(center_to_theta(moment.moment_real(x, s)).values for s in STRUCTURES)
    res = transport.transport_hyperkahler(x, target)
    back = transport.transport_hyperkahler(
        res.image, start, transport.TransportPlan(leg_order=("K", "J", "I"))
    )
    return res.image, res.residual, math.sqrt(norm_sq(back.image - x))


def quaternion_transport_defect(x, q, t):
    """Scaled gap between mu of the quaternion transport of x by (q, t) and
    its prediction."""
    image = transport.quaternion_transport(x, q, t)
    predicted = transport.predicted_quaternion_moment(x, q, t)
    return (moment.moment_hyperkahler(image) - predicted).norm() / (1.0 + norm_sq(x))


# ---------------------------------------------------------------------------
# Checks


def check_pairing_properties(rng, budget):
    worst = 0.0
    for _ in range(_scaled(20, budget)):
        quiver, dims, _ = sampling.random_instance(rng)
        y = sampling.random_uv_element(rng, dims)
        z = sampling.random_uv_element(rng, dims)
        if not pairing_is_positive(y):
            return False, "pairing not positive on a nonzero element"
        worst = worse(worst, _relative(*ad_invariance_gap(y, z, sampling.random_unitary(rng, dims))))
    return worst <= 1e-12, f"max Ad-invariance defect {worst:.2e}"


def check_polar_decomposition(rng, budget):
    worst = 0.0
    for _ in range(_scaled(15, budget)):
        quiver, dims, _ = sampling.random_instance(rng)
        g = sampling.random_unitary(rng, dims).compose(
            GroupElement.exp_i(sampling.random_uv_element(rng, dims, 0.7))
        )
        err, unitary = polar_reconstruction(g)
        worst = worse(worst, err)
        if not unitary:
            return False, "polar factor is not unitary"
    return worst <= 1e-10, f"max reconstruction error {worst:.2e}"


def check_stabilizer_conjugation(rng, budget):
    for _ in range(_scaled(10, budget)):
        quiver, dims, x = sampling.random_instance(rng, max_dim=3)
        g = GroupElement.exp_i(sampling.random_uv_element(rng, dims, 0.4)).compose(
            sampling.random_unitary(rng, dims)
        )
        if not stabilizer_conjugation_holds(x, g):
            return False, "stabilizer dimension changed under conjugation"
    return True, "stabilizer dimension invariant on all instances"


def check_complex_real_proportionality(rng, budget):
    values, worst_resid = complex_real_proportionality(rng, _scaled(50, budget))
    if not values:
        return False, "no nondegenerate instances"
    spread = float(np.ptp(values))  # NaN when a constant is NaN
    expected = 1.0 / moment.MU_C_FROM_JK
    ok = spread <= 1e-8 and worst_resid <= 1e-9 and abs(values[0] - expected) <= 1e-9
    return ok, f"c={values[0]:.12f}, spread {spread:.2e}, residual {worst_resid:.2e}"


def check_solver_fixed_point(rng, budget):
    worst = 0.0
    for _ in range(_scaled(15, budget)):
        quiver, dims, x = sampling.random_stable_instance(rng)
        theta = sampling.random_chamber_theta(rng, dims)
        outcome, gap, monotone = solver_fixed_point(x, theta)
        if not outcome.converged:
            return False, f"solver failed on a stable instance ({outcome.status})"
        worst = worse(worst, gap)
        if not monotone:
            return False, "objective increased across accepted iterations"
    return worst <= 1e-12, f"max residual recompute gap {worst:.2e}"


def check_solver_uniqueness(rng, budget):
    worst = 0.0
    for _ in range(_scaled(5, budget)):
        quiver, dims, x = sampling.random_stable_instance(rng)
        theta = sampling.random_chamber_theta(rng, dims)
        failure, spread = restart_spread(
            x, theta, (sampling.random_uv_element(rng, dims) for _ in range(10))
        )
        if failure:
            return False, failure
        worst = worse(worst, spread)
    return worst <= 1e-7, f"max restart spread {worst:.2e}"


def check_solver_equivariance_inverse(rng, budget):
    worst = 0.0
    for _ in range(_scaled(8, budget)):
        quiver, dims, x = sampling.random_stable_instance(rng)
        theta = sampling.random_chamber_theta(rng, dims)
        outcome = kempf_ness.solve_moment_equation(x, theta)
        if not outcome.converged:
            return False, "solve failed"
        u = sampling.random_unitary(rng, dims)
        _, defect = solution_equivariance_defect(x, theta, outcome.y, u)
        worst = worse(worst, defect)
        theta_back = center_to_theta(moment.moment_real(x, "I"))
        if pairing_norm(
            moment.moment_real(x, "I") - theta_to_center(theta_back)
        ) <= 1e-8:
            _, defect = solution_inverse_defect(x, outcome.y, theta_back)
            worst = worse(worst, defect)
    return worst <= 1e-7, f"max defect {worst:.2e}"


def check_flow_invariants(rng, budget):
    for _ in range(_scaled(8, budget)):
        quiver, dims, x = sampling.random_stable_instance(rng)
        theta = sampling.random_chamber_theta(rng, dims)
        out = flow.flow_integrate(theta, x)
        if not flow_monotone(out):
            return False, "h increased along a trajectory"
        if out.classification != "analytically_semistable":
            return False, f"stable-family flow classified {out.classification}"
        gap = flow_solver_gap(x, theta, out.limit_point)
        if gap is not None and gap > 1e-8:
            return False, f"flow and solver fibers disagree by {gap:.2e}"
    return True, "monotone, classified, consistent with the solver"


def check_cone_projection(rng, budget):
    worst = 0.0
    for _ in range(_scaled(25, budget)):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(0, 7))
        vectors = rng.normal(size=(k, n))
        theta = rng.normal(size=n)
        _, dist_gap, beta_gap = projection_gaps(vectors, theta)
        worst = worse(worst, dist_gap, beta_gap)
    return worst <= 1e-8, f"max disagreement with active-set brute force {worst:.2e}"


def check_d_theta_brute_force(rng, budget):
    worst = 0.0
    for _ in range(_scaled(12, budget)):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(1, 8))
        vectors = rng.normal(size=(k, n))
        ws = cones.WeightSet(vectors=vectors, multiplicities=np.ones(k, dtype=int), num_coords=n)
        gap = d_theta_gap(ws, rng.normal(size=n))
        if gap is None:
            return False, "d_theta finiteness disagrees with brute force"
        worst = worse(worst, gap)
    return worst <= 1e-12, f"max d_theta disagreement {worst:.2e}"


def check_regular_loci(rng, budget):
    for _ in range(_scaled(30, budget)):
        n = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(n))
        try:
            triple = sampling.random_rational_triple(rng, dims, attempts=50)
        except ValueError:
            continue  # divisible dims have an empty regular locus
        if not regular_check_agrees(dims, triple):
            return False, f"exact and integer regular checks disagree on {dims}"
    tri0 = cones.RationalThetaTriple(("0",), ("0",), ("0",), (2,))
    if cones.hyperkahler_regular_check((2,), tri0)[0]:
        return False, "divisible dimension vector accepted"
    return True, "exact and integer checks agree; divisible case rejected"


def check_stability_agreement(rng, budget):
    contradictions = 0
    checked = 0
    for _ in range(_scaled(25, budget)):
        if rng.random() < 0.7:
            quiver, dims, x = sampling.random_stable_instance(rng)
            theta = sampling.random_chamber_theta(rng, dims)
        else:
            quiver, dims, x = sampling.random_instance(rng, max_dim=2)
            theta = sampling.random_theta(rng, dims)
        king, contradiction = stability_verdicts(x, theta, int(rng.integers(2 ** 31)))
        checked += 1
        if contradiction:
            contradictions += 1
        if witness_reverifies(x, theta, king) is False:
            return False, "unstable witness failed re-verification"
    return contradictions == 0, f"{checked} instances, {contradictions} contradictions"


def check_filtration_subreps(rng, budget):
    for _ in range(_scaled(15, budget)):
        quiver, dims, x = sampling.random_instance(rng, max_dim=3)
        if filtration_levels_verify(x, sampling.random_uv_element(rng, dims)) is False:
            return False, "filtration level is not a subrepresentation"
    return True, "all limit filtrations verified as subrepresentations"


def check_transport_suite(rng, budget):
    worst = {"fiber": 0.0, "round": 0.0, "equiv": 0.0, "path": 0.0}
    for _ in range(_scaled(5, budget)):
        quiver, dims, x0 = sampling.random_stable_instance(rng)
        theta0 = sampling.random_chamber_theta(rng, dims)
        seat = kempf_ness.solve_moment_equation(x0, theta0)
        if not seat.converged:
            return False, "could not seat the start point on a fiber"
        x = exp_action(seat.y, 1.0, "I", x0)
        theta1 = sampling.random_chamber_theta(rng, dims)
        u = sampling.random_unitary(rng, dims)
        for key, value in real_transport_defects(x, theta0, theta1, u).items():
            worst[key] = worse(worst[key], value)
    ok = (
        worst["fiber"] <= 1e-8
        and worst["round"] <= 1e-7
        and worst["equiv"] <= 1e-7
        and worst["path"] <= 1e-6
    )
    return ok, (
        f"fiber {worst['fiber']:.2e}, round {worst['round']:.2e}, "
        f"equivariance {worst['equiv']:.2e}, path {worst['path']:.2e}"
    )


def check_hyperkahler_transport(rng, budget):
    worst_fiber = 0.0
    worst_round = 0.0
    for _ in range(_scaled(4, budget)):
        quiver, dims, x = sampling.random_stable_instance(rng)
        target = tuple(sampling.random_chamber_theta(rng, dims, scale=0.5).values for _ in range(3))
        _, fiber, round_trip = hyperkahler_round_trip(x, target)
        worst_fiber = worse(worst_fiber, fiber)
        worst_round = worse(worst_round, round_trip)
    ok = worst_fiber <= 1e-8 and worst_round <= 1e-7
    return ok, f"fiber {worst_fiber:.2e}, round trip {worst_round:.2e}"


def _exp_action_defect(rng, quiver, dims, x):
    """The group law and the flow derivative of exp(itY) at x, for a drawn Y
    and drawn times s and t."""
    y = sampling.random_uv_element(rng, dims, 0.5)
    s, t = float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))
    return worse(exp_group_law_defect(x, y, s, t), flow_derivative_defect(x, y))


# Every check, in report order: a Row, run by ``worst_over``, or a function of
# (rng, budget) returning (passed, detail).
CHECKS = [
    ("structure_isometries", Row(30, 1e-12, "max relative norm drift",
                                 lambda rng, quiver, dims, x: structure_isometry_defect(x))),
    ("quaternion_relations", Row(30, 1e-12, "max defect",
                                 lambda rng, quiver, dims, x: quaternion_relations_defect(x))),
    ("rotation_identities", Row(30, 1e-12, "max defect",
                                lambda rng, quiver, dims, x: rotation_identities_defect(x))),
    ("quaternion_action", Row(20, 1e-12, "max composition defect", lambda rng, quiver, dims, x: (
        quaternion_action_defect(x, sampling.random_unit_quaternion(rng),
                                 sampling.random_unit_quaternion(rng))))),
    ("metric_polarisation", Row(20, 1e-10, "max metric disagreement", lambda rng, quiver, dims, x: (
        metric_polarisation_defect(x, sampling.random_representation(rng, quiver, dims))))),
    ("pairing_properties", check_pairing_properties),
    ("character_pairing", Row(20, 1e-10, "max defect", lambda rng, quiver, dims, x: _relative(
        *character_pairing_gap(sampling.random_theta(rng, dims), sampling.random_uv_element(rng, dims),
                               float(rng.uniform(-2, 2)))))),
    ("left_action", Row(15, 1e-11, "max defect", lambda rng, quiver, dims, x: left_action_defect(
        x, GroupElement.exp_i(sampling.random_uv_element(rng, dims, 0.4)),
        sampling.random_unitary(rng, dims)))),
    ("exp_action_consistency", Row(15, 1e-8, "max defect", _exp_action_defect)),
    ("polar_decomposition", check_polar_decomposition),
    ("stabilizer_conjugation", check_stabilizer_conjugation),
    ("moment_oracle", Row(60, 1e-6, "max oracle mismatch", lambda rng, quiver, dims, x: (
        moment_oracle_defect(x, sampling.random_uv_element(rng, dims), STRUCTURES[int(rng.integers(3))])))),
    ("moment_equivariance", Row(20, 1e-10, "max equivariance defect", lambda rng, quiver, dims, x: (
        moment_equivariance_defect(x, sampling.random_unitary(rng, dims))))),
    ("moment_complex_trace", Row(20, 1e-10, "max trace sum",
                                 lambda rng, quiver, dims, x: complex_trace_defect(x))),
    ("rotation_intertwining", Row(20, 1e-10, "max intertwining defect",
                                  lambda rng, quiver, dims, x: rotation_intertwining_defect(x))),
    ("quaternion_equivariance", Row(30, 1e-9, "max equivariance defect", lambda rng, quiver, dims, x: (
        quaternion_equivariance_defect(x, sampling.random_unit_quaternion(rng))))),
    ("moment_homogeneity", Row(10, 1e-12, "max homogeneity defect",
                               lambda rng, quiver, dims, x: moment_homogeneity_defect(x))),
    ("complex_real_proportionality", check_complex_real_proportionality),
    ("solver_fixed_point", check_solver_fixed_point),
    ("solver_uniqueness", check_solver_uniqueness),
    ("solver_equivariance_inverse", check_solver_equivariance_inverse),
    ("flow_invariants", check_flow_invariants),
    ("flow_gradient", Row(15, 1e-6, "max gradient mismatch", lambda rng, quiver, dims, x: grad_h_defect(
        sampling.random_theta(rng, dims), x, sampling.random_representation(rng, quiver, dims)),
        {"max_dim": 3})),
    ("cone_projection", check_cone_projection),
    ("d_theta_brute_force", check_d_theta_brute_force),
    ("regular_loci", check_regular_loci),
    ("stability_agreement", check_stability_agreement),
    ("filtration_subreps", check_filtration_subreps),
    ("transport_real", check_transport_suite),
    ("transport_hyperkahler", check_hyperkahler_transport),
    ("transport_quaternion", Row(15, 1e-9, "max moment prediction defect", lambda rng, quiver, dims, x: (
        quaternion_transport_defect(x, sampling.random_unit_quaternion(rng),
                                    float(rng.uniform(0.3, 3.0)))))),
]
ROWS = {name: check for name, check in CHECKS if isinstance(check, Row)}
