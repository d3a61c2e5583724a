"""The torus step of ``flow_integrate`` (every dimension 1) gives the bytes of
the stack step that every other dimension vector runs.

Each case is integrated twice: as selected, with the stack trial kernel
patched to fail so that the torus step must carry it, and with the selection
patched to the stack step.  Every ``FlowOutcome`` field is compared by
``repr`` and the limit point by its bytes, in this interpreter and in a child
interpreter per OpenBLAS kernel (the variable is set on the child only).
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

from quivermoment import FlowOptions, Quiver, Representation, StabilityParameter, extend, flow
from quivermoment import sampling as S

CORETYPES = {"SkylakeX": "avx512f", "Haswell": "avx2", "Sandybridge": "avx", "Prescott": "pni"}
STOP_REASONS = ["max_time", "reached", "stalled", "step_underflow"]


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


def _fingerprint(out):
    fields = [repr(getattr(out, f.name)) for f in dataclasses.fields(out)]
    return fields, b"".join(s.tobytes() for s in out.limit_point.stacks)


def _no_stack_trials(*args):
    raise AssertionError("a thin flow reached the stack trial kernel")


def compare():
    """Cases whose two flows differ, the number of cases, their stop reasons
    and whether the draws held a loop and a parallel edge."""
    bad, count, reasons, shapes = [], 0, set(), set()
    with np.errstate(all="ignore"):
        for name, theta, x, opts in cases():
            assert set(x.dims) <= {1}
            edges = x.quiver.base.edges
            shapes |= {"loop"} if any(t == h for t, h in edges) else set()
            shapes |= {"parallel"} if len(set(edges)) < len(edges) else set()
            with mock.patch.object(flow, "trial_stacks", _no_stack_trials):
                torus = flow.flow_integrate(theta, x, opts)
            with mock.patch.object(flow, "_TorusStep", flow._StackStep):
                stack = flow.flow_integrate(theta, x, opts)
            if _fingerprint(torus) != _fingerprint(stack):
                bad.append(f"{count} {name}")
            count += 1
            reasons.add(torus.stop_reason)
    return {"bad": bad, "count": count, "reasons": sorted(reasons), "shapes": sorted(shapes)}


def _check(result):
    assert result["bad"] == []
    assert result["count"] == 120 + 90 + 1 + 15 + 60  # 210 draws, then the chosen cases
    assert result["reasons"] == STOP_REASONS
    assert result["shapes"] == ["loop", "parallel"]


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
