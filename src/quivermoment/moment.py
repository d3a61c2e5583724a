"""Real, complex, and hyperkahler moment maps with a finite-difference oracle.

The real moment map of a structure s is defined by
pairing(mu_s(x), Y) = 1/2 d/dt ||exp(t s Y).x||^2 at t = 0.  Structure I has
the closed form below; the maps for J and K are pulled back through the
hyperkahler rotation, which is an isometry intertwining the actions, so a
single calibrated closed form serves all three.  The finite-difference oracle
evaluates the defining derivative directly and is the ground truth every
closed form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layout import complex_moment_stacks, moment_stacks, pairing_stacks
from .lie import (
    LieAlgebraElement,
    StabilityParameter,
    VertexMatrices,
    exp_action,
    pairing,
    pairing_norm,
    theta_to_center,
)
from .quiver import Representation, inner_product, norm_sq, rotate_to_I


def moment_real(x: Representation, structure="I") -> LieAlgebraElement:
    """Real moment map of the chosen complex structure.

    For I the block at vertex j is
    -i (sum over edges into j of phi phi^dagger - sum over edges out of j of
    phi^dagger phi); the sign matches the positive definite pairing.  J and K
    are evaluated at the rotated point.
    """
    x = rotate_to_I(structure, x)
    return LieAlgebraElement.from_stacks(x.dims, moment_stacks(x.layout, x.stacks))


def moment_pairing_fd_oracle(x, y, structure="I", h=1e-4) -> float:
    """Central difference of 1/2 d/dt ||exp(t s Y).x||^2 at t = 0.

    This is the defining formula of the moment map, evaluated numerically;
    it is kept independent of the closed forms it validates.  When the h and
    h/2 estimates disagree by more than 1e-6 the Richardson extrapolant of the
    two is returned.
    """

    def estimate(step):
        plus = norm_sq(exp_action(y, step, structure, x))
        minus = norm_sq(exp_action(y, -step, structure, x))
        return 0.5 * (plus - minus) / (2.0 * step)

    coarse = estimate(h)
    fine = estimate(0.5 * h)
    if abs(coarse - fine) > 1e-6:
        return (4.0 * fine - coarse) / 3.0
    return fine


def moment_complex(x: Representation) -> VertexMatrices:
    """Complex moment map: at vertex j, sum over incoming edges of
    epsilon(e) phi_e phi_ebar.  Equivariant for the adjoint action; the trace
    sum vanishes identically."""
    return VertexMatrices.from_stacks(x.dims, complex_moment_stacks(x.layout, x.stacks))


@dataclass(frozen=True)
class MomentTriple:
    """The three real moment values bundled as one hyperkahler moment value."""

    mu_I: LieAlgebraElement
    mu_J: LieAlgebraElement
    mu_K: LieAlgebraElement

    def components(self):
        return (self.mu_I, self.mu_J, self.mu_K)

    def component(self, structure):
        return {"I": self.mu_I, "J": self.mu_J, "K": self.mu_K}[structure]

    def __sub__(self, other):
        return MomentTriple(
            self.mu_I - other.mu_I, self.mu_J - other.mu_J, self.mu_K - other.mu_K
        )

    def norm(self) -> float:
        return float(
            np.sqrt(sum(pairing(m, m) for m in self.components()))
        )

    def scale(self, factor) -> "MomentTriple":
        return MomentTriple(
            factor * self.mu_I, factor * self.mu_J, factor * self.mu_K
        )


def moment_hyperkahler(x: Representation) -> MomentTriple:
    """All three real moment maps; homogeneous of degree two in x."""
    return MomentTriple(
        moment_real(x, "I"), moment_real(x, "J"), moment_real(x, "K")
    )


def quaternion_rotation_matrix(q) -> np.ndarray:
    """SO(3) matrix of conjugation v -> q v qbar on pure quaternions (i, j, k)."""
    a, b, c, d = (float(v) for v in q)
    return np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
    )


def quaternion_conjugate_triple(q, triple: MomentTriple) -> MomentTriple:
    """Conjugate the pure-quaternion-valued moment I*mu_I + J*mu_J + K*mu_K by q."""
    rot = quaternion_rotation_matrix(q)
    comps = triple.components()
    new = []
    for i in range(3):
        acc = rot[i, 0] * comps[0]
        acc = acc + rot[i, 1] * comps[1]
        acc = acc + rot[i, 2] * comps[2]
        new.append(acc)
    return MomentTriple(*new)


def complex_vs_real_identity(x: Representation):
    """Measure the constant c in mu_J + i mu_K = c * mu_C.

    Least squares over all blocks; returns (c, residual) where the residual is
    the Frobenius norm of the mismatch.  For degenerate x with vanishing
    complex moment, c is None and the residual is the norm of mu_J + i mu_K.
    The constant is convention dependent; under the pairing used here it
    comes out to -2 (see MU_C_FROM_JK).
    """
    mu_c = moment_complex(x)
    # a measurement: a sum past the float range gives a residual that is not
    # finite (and c = nan), where element arithmetic would raise
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = [j + 1j * k for j, k in zip(moment_real(x, "J").stacks, moment_real(x, "K").stacks)]
        den = pairing(mu_c, mu_c)
        # |mu_C|^2 has degree four in x; a fixed cutoff would read rounding as signal
        size = inner_product(x, x).real
        if den <= 1e-30 * size * size:  # overflows to inf, where ** 2 raises
            return None, _pairing_norm_stacks(mu_c.layout, lhs)
        c = pairing_stacks(mu_c.layout, lhs, mu_c.stacks) / den
        return c, _pairing_norm_stacks(mu_c.layout, [a - c * b for a, b in zip(lhs, mu_c.stacks)])


def _pairing_norm_stacks(layout, stacks):
    return math.sqrt(max(pairing_stacks(layout, stacks, stacks), 0.0))


# mu_C = MU_C_FROM_JK * (mu_J + i mu_K) under the conventions of this package;
# the value is pinned by complex_vs_real_identity and asserted in the tests.
MU_C_FROM_JK = -0.5


def moment_residual(x, theta: StabilityParameter, structure="I") -> float:
    """Pairing-norm distance between the moment value and the central target."""
    return pairing_norm(moment_real(x, structure) - theta_to_center(theta))


def defect_offset(theta: StabilityParameter, x: Representation):
    """Stacks of -1.0 * theta_to_center(theta), the offset of the moment
    defect mu_I(x) - theta (see ``layout.defect_stacks``)."""
    center = theta_to_center(theta)
    if center.dims != x.dims:
        raise ValueError("elements have mismatched dimension vectors")
    return [-1.0 * s for s in center.stacks]
