"""The torus steps of ``flow_integrate`` and ``solve_moment_equation`` (every
dimension 1) give the bytes of the stack steps that every other dimension
vector runs.

Each case is run twice: as selected, with stack kernels patched to fail so
that the torus step must carry it, and with the selection patched to the
stack step.  Every ``FlowOutcome`` and ``SolveOutcome`` field is compared by
``repr``, and the limit point, Y and the divergence direction by their bytes,
in this interpreter and in a child interpreter per OpenBLAS kernel (the
variable is set on the child only).
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from quivermoment import (
    FlowOptions,
    LieAlgebraElement,
    Quiver,
    Representation,
    SolveOptions,
    StabilityParameter,
    extend,
    flow,
    kempf_ness,
)
from quivermoment import sampling as S

CORETYPES = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}
STOP_REASONS = ["max_time", "reached", "stalled", "step_underflow"]
# how the compared solves end: the three statuses, and the solver's own
# refusal of an iterate that overflows or of an initial Y whose exp(iY) is
# singular
SOLVE_ENDS = ["FloatingPointError", "ValueError", "converged", "diverged", "max_iterations"]


def _signed_zeros(rng, x):
    """x with about half of its real and imaginary parts replaced by +0 or -0."""
    out = []
    for s in x.stacks:
        parts = np.stack((s.real, s.imag))
        zero = np.where(rng.random(parts.shape) < 0.5, 0.0, -0.0)
        parts = np.where(rng.random(parts.shape) < 0.5, zero, parts)
        out.append(np.empty(s.shape, dtype=complex))
        out[-1].real, out[-1].imag = parts  # unlike re + 1j * im, keeps a real -0
    return x.replace_stacks(out)


def cases():
    """(name, theta, x, opts) for every compared flow, all of them thin."""
    rng = np.random.default_rng(1005)  # the criterion-5 family, thin draws only
    for k in range(150):
        if k % 5 != 0:
            _, dims, x = S.random_stable_instance(rng)
            yield "criterion 5", S.random_chamber_theta(rng, dims), x, None
        else:
            _, dims, x = S.random_instance(rng, max_dim=2)  # drawn, not compared, so that
            rng.normal(size=len(dims))  # the thin draws are criterion 5's own
    rng = np.random.default_rng(23)  # loops, parallel edges, disconnected quivers
    for _ in range(90):
        _, dims, x = S.random_instance(rng, max_dim=1)
        yield "max_dim 1", S.random_theta(rng, dims), x, FlowOptions(max_time=300.0)
    yield "edgeless", StabilityParameter((1.0, -0.5, -0.5), (1, 1, 1)), \
        Representation(extend(Quiver(3)), (1, 1, 1), []), None
    a2 = extend(Quiver(2, [(0, 1)]))
    for a, b in ((complex(-0.0, 1.0), complex(0.5, -0.0)), (complex(-0.0, -0.0), 1.0),
                 (1e150 + 1e150j, 1e150), (1e-150, 1e-150j), (1e150, 1e-150)):
        x = Representation(a2, (1, 1), [np.array([[a]]), np.array([[b]])])
        for theta in ((0.5, -0.5), (-1.0, 1.0), (0.0, 0.0)):
            yield f"A2 {a} {b}", StabilityParameter(theta, (1, 1)), x, None
    rng = np.random.default_rng(5)
    for _ in range(12):
        _, dims, x = S.random_stable_instance(rng)
        yield "theta 0", StabilityParameter((0.0,) * len(dims), dims), x, None
        yield "1e150", S.random_chamber_theta(rng, dims), 1e150 * x, None
        yield "1e-150", S.random_chamber_theta(rng, dims), 1e-150 * x, None
        yield "signed zeros", S.random_chamber_theta(rng, dims), _signed_zeros(rng, x), None
        yield "max_time", S.random_chamber_theta(rng, dims), x, FlowOptions(max_time=0.3)


def _shifted_real_parts(y):
    """y with 1e-14 added to the real part of every block: still
    skew-hermitian within the tolerance, but not exactly."""
    return LieAlgebraElement([b + 1e-14 for b in y.blocks])


def solve_cases():
    """(name, x, theta, structure, opts) for every compared solve, all of them thin."""
    rng = np.random.default_rng(1008)  # the criterion-8 family, thin draws only
    for k in range(120):
        if k % 4 != 0:
            _, dims, x = S.random_stable_instance(rng)
            yield "criterion 8", x, S.random_chamber_theta(rng, dims), "IJK"[k % 3], None
        else:
            _, dims, x = S.random_instance(rng, max_dim=2)  # drawn, not compared
            rng.normal(size=len(dims))
        rng.integers(2 ** 31)  # the King search's seed
    rng = np.random.default_rng(24)  # loops, parallel edges, disconnected quivers
    for k in range(90):
        _, dims, x = S.random_instance(rng, max_dim=1)
        yield "max_dim 1", x, S.random_theta(rng, dims), "IJK"[k % 3], SolveOptions(max_iterations=60)
    edgeless = Representation(extend(Quiver(3)), (1, 1, 1), [])
    for theta in ((1.0, -0.5, -0.5), (0.0, 0.0, 0.0)):
        yield "edgeless", edgeless, StabilityParameter(theta, (1, 1, 1)), "I", None
    a2 = extend(Quiver(2, [(0, 1)]))
    for a, b in ((complex(-0.0, 1.0), complex(0.5, -0.0)), (1e150 + 1e150j, 1e150), (1e-150, 1e-150j)):
        x = Representation(a2, (1, 1), [np.array([[a]]), np.array([[b]])])
        for theta in ((0.5, -0.5), (-1.0, 1.0), (0.0, 0.0)):
            yield f"A2 {a} {b}", x, StabilityParameter(theta, (1, 1)), "I", None
    path = Representation(extend(Quiver(3, [(0, 1), (1, 2)])), (1, 1, 1), [np.ones((1, 1))] * 4)
    theta = StabilityParameter((1.0, 0.0, -1.0), (1, 1, 1))
    for blocks in (([[800j]], [[-400j]], [[-400j]]), ([[-720j]], [[360j]], [[360j]])):
        # exp(iY) has a zero block, then an infinite one
        opts = SolveOptions(initial_y=LieAlgebraElement([np.array(b) for b in blocks]), divergence_norm_bound=1e4)
        yield "initial_y out of range", path, theta, "I", opts
    # exp(iY).x overflows at the start, past the divergence bound: the
    # residual reported is the stack kernels' NaN
    big = Representation(a2, (1, 1), [np.array([[1e150 + 1e150j]]), np.array([[1e150]])])
    y = LieAlgebraElement([np.array([[-5j]]), np.array([[5j]])])
    opts = SolveOptions(initial_y=y, divergence_norm_bound=1.0)
    yield "initial_y overflows", big, StabilityParameter((0.5, -0.5), (1, 1)), "I", opts
    rng = np.random.default_rng(6)
    gradient = SolveOptions(step_control="gradient-descent-armijo", max_iterations=40)
    for k in range(12):
        _, dims, x = S.random_stable_instance(rng)
        theta = S.random_chamber_theta(rng, dims)
        y = kempf_ness.solve_moment_equation(x, theta).y
        yield "initial_y", x, theta, "IJK"[k % 3], SolveOptions(initial_y=0.5 * y)
        yield "initial_y real parts", x, theta, "I", SolveOptions(initial_y=_shifted_real_parts(y))
        # a nonzero initial Y that is real, whose exp(iY) = 1 still acts
        real = LieAlgebraElement([np.array([[1e-14 * (-1) ** v]]) for v in range(len(dims))])
        yield "real initial_y", _signed_zeros(rng, x), theta, "I", SolveOptions(initial_y=real)
        yield "gradient descent", x, theta, "IJK"[k % 3], gradient
        yield "signed zeros", _signed_zeros(rng, x), theta, "IJK"[k % 3], None
        yield "1e150", 1e150 * x, theta, "I", None
        yield "1e-150", 1e-150 * x, theta, "I", None
        yield "bound 1e6", x, S.random_theta(rng, dims), "I", SolveOptions(divergence_norm_bound=1e6)


def _fingerprint(out):
    fields = [repr(getattr(out, f.name)) for f in dataclasses.fields(out)]
    return fields, b"".join(s.tobytes() for s in out.limit_point.stacks)


def _solve_fingerprint(x, theta, structure, opts):
    """How the solve ends, every outcome field's repr, and the bytes of Y
    and of the divergence direction."""
    try:
        out = kempf_ness.solve_moment_equation(x, theta, structure, opts)
    except (FloatingPointError, ValueError) as exc:
        return type(exc).__name__, repr(exc)
    fields = [repr(getattr(out, f.name)) for f in dataclasses.fields(out)]
    direction = out.divergence_direction.stacks if out.divergence_direction is not None else ()
    return out.status, fields, [s.tobytes() for s in out.y.stacks], [s.tobytes() for s in direction]


def _no_stack_kernel(*args):
    raise AssertionError("a thin step reached a stack kernel")


def _shapes(x):
    """Whether the quiver of x has a loop, a parallel edge or a split support."""
    edges = x.quiver.base.edges
    found = {
        "loop": any(t == h for t, h in edges),
        "parallel": len(set(edges)) < len(edges),
        "split": x.layout.support_components >= 2,
    }
    return {shape for shape, present in found.items() if present}


def compare():
    """Cases whose two flows or two solves differ, the number of cases, the
    flows' stop reasons, how the solves ended, and whether the draws held a
    loop, a parallel edge and a split support."""
    bad, count, reasons, shapes, solve_shapes = [], 0, set(), set(), set()
    with np.errstate(all="ignore"):
        for name, theta, x, opts in cases():
            assert set(x.dims) <= {1}
            shapes |= _shapes(x)
            with mock.patch.object(flow, "trial_stacks", _no_stack_kernel):
                torus = flow.flow_integrate(theta, x, opts)
            with mock.patch.object(flow, "_TorusStep", flow._StackStep):
                stack = flow.flow_integrate(theta, x, opts)
            if _fingerprint(torus) != _fingerprint(stack):
                bad.append(f"flow {count} {name}")
            count += 1
            reasons.add(torus.stop_reason)
        solves, ends = 0, set()
        for name, x, theta, structure, opts in solve_cases():
            assert set(x.dims) <= {1}
            solve_shapes |= _shapes(x)
            # the fallbacks of out-of-range points may call act_stacks and defect_stacks
            kernels = dict.fromkeys(("trial_stacks", "eigh_i_stacks", "polar_log_stacks"), _no_stack_kernel)
            with mock.patch.multiple(kempf_ness, **kernels):
                torus = _solve_fingerprint(x, theta, structure, opts)
            with mock.patch.object(kempf_ness, "_TorusStep", kempf_ness._StackStep):
                stack = _solve_fingerprint(x, theta, structure, opts)
            if torus != stack:
                bad.append(f"solve {solves} {name}")
            solves += 1
            ends.add(torus[0])
    return {"bad": bad, "count": count, "reasons": sorted(reasons), "shapes": sorted(shapes),
            "solves": solves, "ends": sorted(ends), "solve_shapes": sorted(solve_shapes)}


def _check(result):
    assert result["bad"] == []
    assert result["count"] == 120 + 90 + 1 + 15 + 60  # 210 draws, then the chosen cases
    assert result["reasons"] == STOP_REASONS
    assert result["shapes"] == ["loop", "parallel", "split"]
    assert result["solve_shapes"] == ["loop", "parallel", "split"]
    assert result["solves"] == 90 + 90 + 2 + 9 + 3 + 12 * 8
    assert result["ends"] == SOLVE_ENDS


def test_torus_step_matches_stack_step_bit_for_bit():
    _check(compare())


def _cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    return set(next((line for line in text.splitlines() if line.startswith("flags")), "").split())


@pytest.fixture(scope="module")
def kernel_runs():
    """One child interpreter per kernel this CPU can run, all started at once,
    each running ``compare`` with OPENBLAS_CORETYPE set on it alone."""
    flags = _cpu_flags()
    code = "import json, sys; sys.path.insert(0, sys.argv[1]); import test_torus_flow as t; print(json.dumps(t.compare()))"
    runs = {
        coretype: subprocess.Popen(
            [sys.executable, "-c", code, str(Path(__file__).parent)],
            env=dict(os.environ, OPENBLAS_CORETYPE=coretype), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for coretype, flag in CORETYPES.items() if flags is None or flag in flags
    }
    yield runs
    for run in runs.values():
        run.kill()
        run.communicate()


@pytest.mark.parametrize("coretype", sorted(CORETYPES))
def test_torus_step_matches_stack_step_under_each_blas_kernel(kernel_runs, coretype):
    if coretype not in kernel_runs:
        pytest.skip(f"this CPU cannot run the {coretype} kernel")
    out, err = kernel_runs[coretype].communicate(timeout=300)
    assert kernel_runs[coretype].returncode == 0, err
    _check(json.loads(out.splitlines()[-1]))
