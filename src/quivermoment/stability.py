"""Slope stability tests, subrepresentation machinery, and certificates.

A representation is stable for a weight vector theta exactly when every proper
nonzero subrepresentation has negative slope sum_j theta_j dim W_j.  Unstable
verdicts carry an independently verifiable witness (a subrepresentation of
nonnegative slope, or a one-parameter direction with an existing limit and
nonnegative pairing).  Stable verdicts are certified through the moment
solver: the orbit meets the central fiber and the stabilizer is trivial.
Exhaustive subrepresentation enumeration is a variety-level problem, so the
search is a budgeted heuristic; soundness lives in the witness verification.
One-parameter witnesses come only from the escape direction of the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .kempf_ness import SolveOptions, solve_moment_equation
from .lie import (
    LieAlgebraElement,
    StabilityParameter,
    exp_action,
    pairing,
    stabilizer_lie_dim,
    theta_to_center,
)
from .quiver import Representation

SLOPE_TIE_TOL = 1e-9
WITNESS_TOL = 1e-10


class GradedSubspace:
    """Per-vertex subspaces given by basis columns.

    ``bases[j]`` is a dims[j] x k_j complex matrix whose columns are linearly
    independent (k_j may be zero).  The constructor copies and checks them.
    """

    __slots__ = ("bases", "dims")

    def __init__(self, bases, dims=None):
        stored = []
        for j, b in enumerate(bases):
            b = np.array(b, dtype=complex)
            if b.ndim != 2:
                raise ValueError(f"basis {j} must be a matrix of column vectors")
            stored.append(b)
        self.bases = tuple(stored)
        self.dims = tuple(dims) if dims is not None else tuple(b.shape[0] for b in stored)
        for j, b in enumerate(self.bases):
            if b.shape[0] != self.dims[j]:
                raise ValueError(f"basis {j} has vectors of wrong length")
            if b.shape[1] > 0:
                rank = np.linalg.matrix_rank(b, tol=1e-10)
                if rank < b.shape[1]:
                    raise ValueError(f"basis {j} is rank deficient")

    @classmethod
    def from_orthonormal(cls, bases, dims):
        """Bases made inside the package: complex, orthonormal columns of the
        right lengths.  Stored as given, with no copy and no check."""
        w = cls.__new__(cls)
        w.bases = tuple(bases)
        w.dims = tuple(dims)
        return w

    @classmethod
    def zero(cls, dims):
        return cls.from_orthonormal([np.zeros((d, 0), dtype=complex) for d in dims], dims)

    @classmethod
    def full(cls, dims):
        return cls.from_orthonormal([np.eye(d, dtype=complex) for d in dims], dims)

    def sub_dims(self):
        return tuple(b.shape[1] for b in self.bases)

    def is_zero(self):
        return all(k == 0 for k in self.sub_dims())

    def is_full(self):
        return self.sub_dims() == self.dims

    def orthonormalized(self):
        out = []
        for b in self.bases:
            if b.shape[1] == 0:
                out.append(b.copy())
            else:
                q, _ = np.linalg.qr(b)
                out.append(q[:, : b.shape[1]])
        return out

    def __repr__(self):
        return f"GradedSubspace(dims={self.dims}, sub_dims={self.sub_dims()})"


def subrepresentation_residual(x: Representation, w: GradedSubspace) -> float:
    """Worst Frobenius norm of the component of phi_e W_tail outside the span
    of W_head, measured with orthonormalized bases; NaN when an image
    overflows, so that no tolerance accepts it."""
    if w.dims != x.dims:
        raise ValueError("subspace bound to a different dimension vector")
    qs = w.orthonormalized()
    worst = 0.0
    quiver = x.quiver
    for e in range(quiver.num_edges):
        qt = qs[quiver.tail(e)]
        if qt.shape[1] == 0:
            continue
        image = x.blocks[e] @ qt
        qh = qs[quiver.head(e)]
        outside = image - qh @ (qh.conj().T @ image)
        norm = float(np.linalg.norm(outside))
        if norm != norm:
            return math.nan
        worst = max(worst, norm)
    return worst


def verify_subrepresentation(x: Representation, w: GradedSubspace, tol=WITNESS_TOL) -> bool:
    """True when every edge map sends the subspace into itself, to residual tol."""
    return subrepresentation_residual(x, w) <= tol


def king_slope(theta: StabilityParameter, sub_dims) -> float:
    """sum_j theta_j * dim W_j."""
    if len(sub_dims) != len(theta.values):
        raise ValueError("dimension vector length mismatch")
    return float(sum(t * int(d) for t, d in zip(theta.values, sub_dims)))


def generated_subrep(x: Representation, seeds) -> GradedSubspace:
    """Smallest subrepresentation containing the seed vectors.

    Closure of the seed span under all edge maps, grown by projecting images
    onto the orthogonal complement until the dimensions stop moving or every
    vertex space is full.  An image whose norm is not finite raises
    FloatingPointError.
    """
    dims = x.dims
    bases = [np.zeros((d, 0), dtype=complex) for d in dims]

    def absorb(j, vecs):
        cur = bases[j]
        if cur.shape[1] == dims[j]:
            return False
        norm = float(np.linalg.norm(vecs))
        if not norm < math.inf:
            raise FloatingPointError("non-finite closure image in the King search")
        residual = vecs - cur @ (cur.conj().T @ vecs) if cur.shape[1] else vecs
        u, s, _ = np.linalg.svd(residual, full_matrices=False)
        scale = max(1.0, norm)
        keep = u[:, s > 1e-10 * scale]
        if keep.shape[1] == 0:
            return False
        merged = np.hstack([cur, keep])
        q, _ = np.linalg.qr(merged)
        bases[j] = q[:, : merged.shape[1]]
        return True

    for vertex, vec in seeds:
        vec = np.asarray(vec, dtype=complex).reshape(-1, 1)
        if vec.shape[0] != dims[vertex]:
            raise ValueError("seed vector has the wrong length")
        if np.linalg.norm(vec) > 0:
            absorb(int(vertex), vec / np.linalg.norm(vec))

    quiver = x.quiver
    changed = True
    while changed and any(b.shape[1] < d for b, d in zip(bases, dims)):
        changed = False
        for e in range(quiver.num_edges):
            src = bases[quiver.tail(e)]
            if src.shape[1] and absorb(quiver.head(e), x.blocks[e] @ src):
                changed = True
    return GradedSubspace.from_orthonormal(bases, dims)


def hm_limit_filtration(x: Representation, y: LieAlgebraElement, tol=WITNESS_TOL):
    """Limit existence of exp(itY).x as t grows, with the level filtration.

    Diagonalizes each hermitian block iY_j; the limit exists exactly when
    every edge entry coupling a strictly larger head eigenvalue to a smaller
    tail eigenvalue vanishes, equivalently when each sublevel space is a
    subrepresentation.  Returns (limit_exists, [(level, sub_dims)]).
    """
    if y.dims != x.dims:
        raise ValueError("algebra element bound to a different dimension vector")
    eigvecs, levels, level_of = _eigen_levels(y)

    quiver = x.quiver
    limit_exists = True
    for e in range(quiver.num_edges):
        h, t = quiver.head(e), quiver.tail(e)
        if x.dims[h] == 0 or x.dims[t] == 0:
            continue
        m = eigvecs[h].conj().T @ x.blocks[e] @ eigvecs[t]
        bad = level_of[h][:, None] > level_of[t][None, :]
        if np.any(np.abs(m[bad]) > tol):
            limit_exists = False
            break

    filtration = []
    for k, lam in enumerate(levels):
        sub = tuple(int(np.sum(level_of[j] <= k)) for j in range(len(x.dims)))
        filtration.append((float(lam), sub))
    if not levels:
        filtration.append((0.0, x.dims))
    return limit_exists, filtration


def filtration_subspaces(x, y):
    """Sublevel graded subspaces of iY, one per distinct eigenvalue level."""
    eigvecs, levels, level_of = _eigen_levels(y)
    return [
        GradedSubspace.from_orthonormal(
            [u[:, lv <= k] for u, lv in zip(eigvecs, level_of)], x.dims
        )
        for k in range(len(levels))
    ]


def _eigen_levels(y, gap=1e-8):
    """Eigenvectors of each hermitian block iY_j, the distinct eigenvalue
    levels of all blocks together (values within ``gap`` of a level's lowest
    member join it), and the level index of every eigenvalue."""
    eig = [
        np.linalg.eigh(1j * b) if b.size else (np.zeros(0), np.zeros((0, 0), dtype=complex))
        for b in y.blocks
    ]
    all_vals = np.sort(np.concatenate([w for w, _ in eig])) if eig else ()
    levels = []
    for v in all_vals:
        if not levels or v - levels[-1] > gap:
            levels.append(float(v))
    upper = np.array(levels) + gap
    level_of = [np.minimum(np.searchsorted(upper, w), len(levels) - 1) for w, _ in eig]
    return [u for _, u in eig], levels, level_of


@dataclass
class StabilityCertificate:
    """Structured verdict with verifiable witness data."""

    verdict: str  # stable | unstable | inconclusive
    witness_subspace: Optional[GradedSubspace] = None
    witness_direction: Optional[LieAlgebraElement] = None
    residuals: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)


def king_stable_test(
    x: Representation,
    theta: StabilityParameter,
    search_budget=64,
    seed=0,
) -> StabilityCertificate:
    """Slope test over a budgeted family of candidate subrepresentations.

    Candidates, in order: closures of coordinate vectors, closures of
    ``max(search_budget // 3, 1)`` random seed vectors, and closures of
    eigenvectors of random two-step edge-word operators (as many rounds).
    A verified proper nonzero candidate with positive slope is an unstable
    witness.  With no witness found, ``certify_stable_numerical`` decides, and
    a divergent solve's escape direction is its one-parameter witness.  Slope
    ties within tolerance make the verdict inconclusive rather than guessing
    at the boundary.  An overflowing word operator or closure image raises
    FloatingPointError.
    On a thin connected instance with every block modulus in [1e-9, 1e100]
    every closure is the whole space, so no candidate is built (see
    ``_every_closure_full``) and the verdict comes from the solver.
    """
    rng = np.random.default_rng(seed)
    dims = x.dims
    largest = max((abs(t) for t in theta.values), default=0.0)
    tie = SLOPE_TIE_TOL * (1.0 + largest * max(sum(dims), 1))
    boundary_found = False
    tested = 0

    def classify(w):
        nonlocal boundary_found, tested
        if w.is_zero() or w.is_full():
            return None
        resid = subrepresentation_residual(x, w)
        if not resid <= WITNESS_TOL:  # NaN too
            return None
        tested += 1
        slope = king_slope(theta, w.sub_dims())
        if slope > tie:
            return StabilityCertificate(
                "unstable",
                witness_subspace=w,
                residuals={"subrep": resid, "slope": slope},
                diagnostics={"candidates_tested": tested},
            )
        if abs(slope) <= tie:
            boundary_found = True
        return None

    candidates = () if _every_closure_full(x) else _candidate_subreps(x, rng, search_budget)
    for cand in candidates:
        found = classify(cand)
        if found is not None:
            return found

    if boundary_found:
        return StabilityCertificate(
            "inconclusive",
            diagnostics={
                "reason": "slope tie at tolerance; boundary of stability",
                "candidates_tested": tested,
            },
        )

    solver_cert = certify_stable_numerical(x, theta)
    if solver_cert.verdict == "stable":
        solver_cert.diagnostics["candidates_tested"] = tested
        return solver_cert
    if solver_cert.verdict == "unstable":
        return solver_cert
    return StabilityCertificate(
        "inconclusive",
        residuals=solver_cert.residuals,
        diagnostics={
            "reason": "no witness found and solver certification failed",
            "candidates_tested": tested,
        },
    )


def _every_closure_full(x):
    """True when every candidate closure is provably the whole space, so the
    search could neither find a witness nor a slope tie: every dimension is
    1, the base quiver is connected, and every block modulus lies in
    [1e-9, 1e100].  Then each edge map, reversed edges included, sends a line
    onto a line with a singular value far above the absorb threshold of
    ``generated_subrep``, so any nonzero seed spreads to every vertex, and
    no word operator overflows."""
    if not set(x.dims) <= {1} or x.layout.support_components != 1:
        return False
    return all(np.all((m >= 1e-9) & (m <= 1e100)) for m in map(np.abs, x.stacks))


def _candidate_subreps(x, rng, budget):
    dims = x.dims
    n = len(dims)
    for j in range(n):
        for a in range(dims[j]):
            e = np.zeros(dims[j], dtype=complex)
            e[a] = 1.0
            yield generated_subrep(x, [(j, e)])
    third = max(budget // 3, 1)
    for _ in range(third if n else 0):
        j = int(rng.integers(n))
        if dims[j]:
            v = rng.normal(size=dims[j]) + 1j * rng.normal(size=dims[j])
            yield generated_subrep(x, [(j, v)])
    for _ in range(third):
        yield from _word_eigenvector_subreps(x, rng)


def _word_eigenvector_subreps(x, rng):
    """Closures of eigenvectors of random vertex-returning two-step words."""
    quiver = x.quiver
    for j, d in enumerate(x.dims):
        if d == 0:
            continue
        op = np.zeros((d, d), dtype=complex)
        nonzero = False
        for e1 in range(quiver.num_edges):
            if quiver.tail(e1) != j:
                continue
            mid = quiver.head(e1)
            for e2 in range(quiver.num_edges):
                if quiver.tail(e2) == mid and quiver.head(e2) == j:
                    c = rng.normal() + 1j * rng.normal()
                    with np.errstate(over="ignore", invalid="ignore"):
                        op += c * (x.blocks[e2] @ x.blocks[e1])
                    nonzero = True
        if not nonzero:
            continue
        if not np.isfinite(op).all():
            raise FloatingPointError("non-finite word operator in the King search")
        for v in np.linalg.eig(op)[1].T:
            yield generated_subrep(x, [(j, v)])


def certify_stable_numerical(
    x: Representation,
    theta: StabilityParameter,
    structure="I",
    opts: Optional[SolveOptions] = None,
) -> StabilityCertificate:
    """Certification through the moment solver.

    Convergence with a trivial stabilizer at the image means the orbit meets
    the central fiber exactly in a compact orbit: stable.  Divergence gives
    the normalized escape direction Y; it destabilizes, and the verdict is
    unstable, when it pairs with the central target above the tie tolerance
    and exp(itY).x has a limit (``hm_limit_filtration``, as in
    ``selftest.hm_witness_check``).  Everything else is inconclusive.
    """
    outcome = solve_moment_equation(x, theta, structure, opts)
    if outcome.converged:
        image = exp_action(outcome.y, 1.0, structure, x)
        stab_dim = stabilizer_lie_dim(image)
        if stab_dim == 0:
            return StabilityCertificate(
                "stable",
                residuals={"solver": outcome.residual},
                diagnostics={
                    "iterations": outcome.iterations,
                    "stabilizer_lie_dim": 0,
                },
            )
        return StabilityCertificate(
            "inconclusive",
            residuals={"solver": outcome.residual},
            diagnostics={
                "reason": "fiber reached but stabilizer is positive-dimensional",
                "stabilizer_lie_dim": stab_dim,
            },
        )
    if outcome.status == "diverged" and outcome.divergence_direction is not None:
        direction = outcome.divergence_direction
        gap = pairing(theta_to_center(theta), direction)
        if gap > SLOPE_TIE_TOL and hm_limit_filtration(x, direction, tol=1e-6)[0]:
            return StabilityCertificate(
                "unstable",
                witness_direction=direction,
                residuals={"solver": outcome.residual, "pairing": gap},
                diagnostics={"iterations": outcome.iterations},
            )
        return StabilityCertificate(
            "inconclusive",
            witness_direction=direction,
            residuals={"solver": outcome.residual, "pairing": gap},
            diagnostics={"reason": "divergence direction not confirmed"},
        )
    return StabilityCertificate(
        "inconclusive",
        residuals={"solver": outcome.residual},
        diagnostics={"reason": f"solver status {outcome.status}", "iterations": outcome.iterations},
    )
