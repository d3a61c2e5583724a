"""Spec fuzzing: one field of a small valid spec replaced by a hostile value.

Every command must map every such spec to a documented exit code (0, 2 or 3)
without an exception escaping, and any report it writes must be strict JSON.
"""

import json
import os
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quivermoment.cli import main

A2 = {
    "quiver": {"vertices": 2, "edges": [[0, 1]]},
    "dims": [1, 1],
    "representation": {"blocks": [[[[1.0, 0.0]]], [[[0.5, 0.0]]]]},
    "theta": [4.0, -4.0],
}
TRIANGLE = {"quiver": {"vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]}, "dims": [1, 1, 1], "theta": [1.0, -0.5, -0.5]}
CHAIN = {"quiver": {"vertices": 3, "edges": [[0, 1], [1, 2]]}, "dims": [1, 2, 1], "theta": [1.0, -0.5, 0.0]}
LOOP = {"quiver": {"vertices": 1, "edges": [[0, 0]]}, "dims": [2], "theta": [0.0]}
BASES = (A2, TRIANGLE, CHAIN, LOOP)
COMMANDS = ("moment", "solve", "flow", "stability", "regular", "transport")


def _extras(command, base):
    """The command's own fields, sized to the base spec."""
    theta = base["theta"]
    exact = [str(Fraction(t)) for t in theta]
    zeros = [0.0] * len(theta)
    if command == "solve":
        return [{"structure": "J", "solve": {"max_iterations": 20, "gradient_tolerance": 1e-9}}]
    if command == "flow":
        return [{"flow": {"initial_step": 0.05, "max_time": 2.0, "stall_tolerance": 1e-9}}]
    if command == "stability":
        return [{"stability": {"search_budget": 4}}]
    if command == "regular":
        triple = {"theta_I": exact, "theta_J": ["0"] * len(theta), "theta_K": exact}
        return [{"theta_triple": triple, "xi": [[t, "0"] for t in exact], "export_weights": True}]
    if command == "transport":
        y = {"blocks": [[[[0.0, 0.0]] * d] * d for d in base["dims"]]}
        extras = [
            {"transport": {"target_theta": [2 * t for t in theta], "waypoints": [[3 * t for t in theta]],
                           "max_subdivision_depth": 3}},
            {"transport": {"mode": "hyperkahler", "target_triple": {
                "theta_I": [2 * t for t in theta], "theta_J": zeros, "theta_K": zeros}}},
            {"transport": {"mode": "quaternion", "q": [0.6, 0.0, 0.8, 0.0], "t": 0.5}},
            {"transport": {"mode": "replay", "log": [["J", y]]}},
        ]
        if base is A2:  # the complex moment of its given point is (-0.5, 0.5)
            extras.append({"transport": {"mode": "complex", "xi_start": [[-0.5, 0.0], [0.5, 0.0]],
                                         "xi_target": [[-1.0, 0.0], [1.0, 0.0]]}})
        return extras
    return [{}]


# hostile values; raw JSON tokens stand in a placeholder string until the
# spec is written out
RAW = {"__1e999__": "1e999", "__nan__": "NaN", "__inf__": "Infinity", "__neg_inf__": "-Infinity"}
HOSTILE = [None, True, False, "x", [], {}, [1.0], 10**400, -(10**400), "1e10000000", *RAW]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], prefix + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _paths(item, prefix + (i,))


def _replaced(node, path, value):
    if not path:
        return value
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = _replaced(node[path[0]], path[1:], value)
    return out


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@st.composite
def mutated_specs(draw):
    command = draw(st.sampled_from(COMMANDS))
    base = draw(st.sampled_from(BASES))
    spec = dict(base, **draw(st.sampled_from(_extras(command, base))))
    path = draw(st.sampled_from(list(_paths(spec))[1:]))
    value = draw(st.sampled_from(HOSTILE))
    text = json.dumps(_replaced(spec, path, value))
    for token, raw in RAW.items():
        text = text.replace(f'"{token}"', raw)
    return command, text


def _run(command, text, tmp):
    """The exit code of one in-process run; a report it writes must be strict JSON."""
    spec_path, out_path = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    extra = ["--budget", "4"] if command == "stability" else []
    with np.errstate(all="ignore"):
        code = main([command, "--input", spec_path, "--output", out_path, *extra])
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as fh:
            json.loads(fh.read(), parse_constant=_reject_constant)
    return code


def test_fuzz_starting_points_succeed(tmp_path):
    """The unmutated specs run to exit 0, so the fuzz starts from working
    inputs; transport needs a central fiber, which dims of ones guarantee."""
    for base in BASES:
        for command in COMMANDS:
            if command == "transport" and set(base["dims"]) != {1}:
                continue
            for extra in _extras(command, base):
                assert _run(command, json.dumps(dict(base, **extra)), tmp_path) == 0, (command, base, extra)


@settings(max_examples=1500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_specs())
def test_mutated_specs_exit_with_documented_codes(case):
    command, text = case
    with tempfile.TemporaryDirectory() as tmp:
        code = _run(command, text, tmp)
    assert code in (0, 2, 3), (command, text, code)
