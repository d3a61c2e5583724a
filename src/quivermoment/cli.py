"""Batch command-line front end: JSON problem specs in, JSON reports out.

Every report embeds the tool version, the resolved options, and an echo of
the parsed input, and is byte-identical across runs with equal seeds.  Exit
codes: 0 success, 1 invariant or check failure, 2 malformed input,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, selftest
from .cones import (
    EnumerationCapError,
    RationalThetaTriple,
    complex_regular_check,
    hyperkahler_regular_check,
    parse_rational,
)
from .flow import FlowOptions, flow_integrate
from .kempf_ness import SolveOptions, solve_moment_equation
from .lie import LieAlgebraElement, StabilityParameter, pairing
from .moment import (
    complex_vs_real_identity,
    moment_complex,
    moment_hyperkahler,
    moment_pairing_fd_oracle,
)
from .quiver import STRUCTURES, Quiver, Representation, extend
from .sampling import random_representation, random_uv_element
from .stability import certify_stable_numerical, king_stable_test
from .transport import (
    TransportError,
    TransportPlan,
    quaternion_transport,
    replay_transport,
    transport_complex,
    transport_hyperkahler,
    transport_real,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3
MAX_COUNT = int(np.iinfo(np.intp).max)


class SpecError(ValueError):
    """Malformed problem specification; message carries the field path."""


# ---------------------------------------------------------------------------
# serialization

def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def matrix_from_json(data, path):
    try:
        rows = [[complex(float(e[0]), float(e[1])) for e in row] for row in data]
        return np.array(rows, dtype=complex) if rows else np.zeros((0, 0), dtype=complex)
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise SpecError(f"{path}: expected a matrix of [re, im] pairs") from exc


def blocks_to_json(value):
    """Blocks of a representation or of per-vertex matrices, in order."""
    return {"blocks": [matrix_to_json(b) for b in value.blocks]}


def algebra_element_from_json(data, dims, path):
    blocks = data.get("blocks") if isinstance(data, dict) else data
    if not isinstance(blocks, list) or len(blocks) != len(dims):
        raise SpecError(f"{path}: expected one block per vertex")
    mats = [matrix_from_json(b, f"{path}[{j}]") for j, b in enumerate(blocks)]
    try:
        return LieAlgebraElement(mats)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def subspace_to_json(w):
    return {"bases": [matrix_to_json(b) for b in w.bases], "sub_dims": list(w.sub_dims())}


def certificate_to_json(cert):
    out = {
        "verdict": cert.verdict,
        "residuals": {k: float(v) for k, v in cert.residuals.items()},
        "diagnostics": {k: (v if isinstance(v, (int, str, bool)) else float(v))
                        for k, v in cert.diagnostics.items()},
    }
    if cert.witness_subspace is not None:
        out["witness_subspace"] = subspace_to_json(cert.witness_subspace)
    if cert.witness_direction is not None:
        out["witness_direction"] = blocks_to_json(cert.witness_direction)
    return out


# ---------------------------------------------------------------------------
# spec parsing

def _require(spec, key, path="spec"):
    if key not in spec:
        raise SpecError(f"{path}: missing required field {key!r}")
    return spec[key]


def _number(value, path, integer=False):
    """A JSON number a float holds finitely, or an integer when ``integer``;
    true/false are neither."""
    kinds = int if integer else (int, float)
    try:
        ok = not isinstance(value, bool) and isinstance(value, kinds) and (integer or math.isfinite(value))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise SpecError(f"{path}: expected {'an integer' if integer else 'a finite number'}")
    return value


def _is_count(value):
    """A nonnegative integer that numpy can use as an array size."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_COUNT


def parse_quiver(spec):
    q = _require(spec, "quiver")
    if not isinstance(q, dict):
        raise SpecError("quiver: expected an object")
    vertices = q.get("vertices")
    edges = q.get("edges", [])
    if not _is_count(vertices):
        raise SpecError("quiver.vertices: expected a nonnegative integer")
    try:
        quiver = extend(Quiver(vertices, [tuple(e) for e in edges]))
    except (TypeError, ValueError) as exc:
        raise SpecError(f"quiver.edges: {exc}") from exc
    dims = _require(spec, "dims")
    if not isinstance(dims, list) or len(dims) != vertices:
        raise SpecError("dims: expected one integer per vertex")
    if not all(_is_count(d) for d in dims):
        raise SpecError("dims: entries must be nonnegative integers")
    return quiver, tuple(dims)


def parse_representation(spec, quiver, dims, rng):
    data = spec.get("representation")
    if data is None:
        return random_representation(rng, quiver, dims)
    blocks = data.get("blocks") if isinstance(data, dict) else data
    if not isinstance(blocks, list) or len(blocks) != quiver.num_edges:
        raise SpecError(
            f"representation.blocks: expected {quiver.num_edges} matrices "
            "(base edges then reversed edges)"
        )
    mats = [matrix_from_json(b, f"representation.blocks[{e}]") for e, b in enumerate(blocks)]
    try:
        return Representation(quiver, dims, mats)
    except ValueError as exc:
        raise SpecError(f"representation: {exc}") from exc


def parse_theta(spec, dims, key="theta"):
    values = _require(spec, key)
    if not isinstance(values, list) or len(values) != len(dims):
        raise SpecError(f"{key}: expected one real per vertex")
    try:
        return StabilityParameter(tuple(float(v) for v in values), dims)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"{key}: {exc}") from exc


def parse_pairs(values, dims, path, parse):
    """One [re, im] pair per vertex, each part read by ``parse``."""
    if not isinstance(values, list) or len(values) != len(dims):
        raise SpecError(f"{path}: expected one [re, im] pair per vertex")
    try:
        return [(parse(p[0]), parse(p[1])) for p in values]
    except (ValueError, TypeError, IndexError, ZeroDivisionError, OverflowError) as exc:
        raise SpecError(f"{path}: {exc}") from exc


def parse_rational_triple(data, dims, path):
    if not isinstance(data, dict):
        raise SpecError(f"{path}: expected an object with theta_I/theta_J/theta_K")
    comps = []
    for name in ("theta_I", "theta_J", "theta_K"):
        vals = data.get(name)
        if not isinstance(vals, list) or len(vals) != len(dims):
            raise SpecError(f"{path}.{name}: expected one rational per vertex")
        try:
            comps.append(tuple(parse_rational(v) for v in vals))
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"{path}.{name}: {exc}") from exc
    try:
        return RationalThetaTriple(*comps, dims=dims)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands

def cmd_moment(spec, args, rng):
    quiver, dims = parse_quiver(spec)
    x = parse_representation(spec, quiver, dims, rng)
    triple = moment_hyperkahler(x)
    mu_c = moment_complex(x)
    oracle_worst = 0.0
    for structure in STRUCTURES:
        for _ in range(3):
            y = random_uv_element(rng, dims)
            lhs = pairing(triple.component(structure), y)
            rhs = moment_pairing_fd_oracle(x, y, structure)
            oracle_worst = max(oracle_worst, abs(lhs - rhs))
    c, resid = complex_vs_real_identity(x)
    return {
        "mu_I": blocks_to_json(triple.mu_I),
        "mu_J": blocks_to_json(triple.mu_J),
        "mu_K": blocks_to_json(triple.mu_K),
        "mu_C": blocks_to_json(mu_c),
        "oracle_max_mismatch": oracle_worst,
        "proportionality_c": c,
        "proportionality_residual": resid,
    }, EXIT_OK


def _solve_options(spec, args):
    opts = spec.get("solve", {})
    if not isinstance(opts, dict):
        raise SpecError("solve: expected an object")
    kwargs = {}
    for key in ("max_iterations", "gradient_tolerance", "divergence_norm_bound"):
        if key in opts:
            kwargs[key] = _number(opts[key], f"solve.{key}", integer=key == "max_iterations")
    if "step_control" in opts:
        kwargs["step_control"] = opts["step_control"]
    if args.tolerance is not None:
        kwargs["gradient_tolerance"] = _number(args.tolerance, "--tolerance")
    try:
        return SolveOptions(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"solve: {exc}") from exc


def cmd_solve(spec, args, rng):
    quiver, dims = parse_quiver(spec)
    x = parse_representation(spec, quiver, dims, rng)
    theta = parse_theta(spec, dims)
    structure = spec.get("structure", "I")
    if structure not in STRUCTURES:
        raise SpecError(f"structure: expected one of {list(STRUCTURES)}, got {structure!r}")
    outcome = solve_moment_equation(x, theta, structure, _solve_options(spec, args))
    report = {
        "status": outcome.status,
        "structure": outcome.structure,
        "iterations": outcome.iterations,
        "residual": outcome.residual,
        "y": blocks_to_json(outcome.y),
    }
    if outcome.divergence_direction is not None:
        report["divergence_direction"] = blocks_to_json(outcome.divergence_direction)
    return report, EXIT_OK if outcome.converged else EXIT_NO_CONVERGENCE


def cmd_flow(spec, args, rng):
    quiver, dims = parse_quiver(spec)
    x = parse_representation(spec, quiver, dims, rng)
    theta = parse_theta(spec, dims)
    opts_data = spec.get("flow", {})
    if not isinstance(opts_data, dict):
        raise SpecError("flow: expected an object")
    kwargs = {
        k: _number(opts_data[k], f"flow.{k}")
        for k in ("initial_step", "max_time", "stall_tolerance")
        if k in opts_data
    }
    if args.tolerance is not None:
        kwargs["stall_tolerance"] = _number(args.tolerance, "--tolerance")
    try:
        opts = FlowOptions(**kwargs)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"flow: {exc}") from exc
    outcome = flow_integrate(theta, x, opts)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("t,h,grad_norm\n")
            for t, h, g in outcome.trajectory_summary:
                fh.write(f"{t!r},{h!r},{g!r}\n")
    return {
        "classification": outcome.classification,
        "h_value": outcome.h_value,
        "grad_norm": outcome.grad_norm,
        "time": outcome.time,
        "events": list(outcome.events),
        "stop_reason": outcome.stop_reason,
        "limit_point": blocks_to_json(outcome.limit_point),
        "trajectory_samples": len(outcome.trajectory_summary),
    }, EXIT_OK


def cmd_stability(spec, args, rng):
    quiver, dims = parse_quiver(spec)
    x = parse_representation(spec, quiver, dims, rng)
    theta = parse_theta(spec, dims)
    stability_opts = spec.get("stability", {})
    if not isinstance(stability_opts, dict):
        raise SpecError("stability: expected an object")
    if args.budget is not None:
        budget = _number(args.budget, "--budget")
    else:
        budget = _number(stability_opts.get("search_budget", 64), "stability.search_budget")
    king = king_stable_test(x, theta, search_budget=int(budget), seed=args.seed)
    numeric = certify_stable_numerical(x, theta, opts=_solve_options(spec, args))
    return {
        "king": certificate_to_json(king),
        "numerical": certificate_to_json(numeric),
    }, EXIT_OK


def cmd_regular(spec, args, rng):
    quiver, dims = parse_quiver(spec)
    report = {}
    if spec.get("export_weights"):
        import warnings

        from .cones import torus_weights

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ws = torus_weights(quiver, dims)
        report["torus_weights"] = {
            "vectors": [[float(v) for v in row] for row in ws.vectors],
            "multiplicities": [int(m) for m in ws.multiplicities],
            "spans_torus": bool(ws.spans_torus),
            "kernel_warning": bool(caught),
        }
    try:
        if "theta_triple" in spec:
            triple = parse_rational_triple(spec["theta_triple"], dims, "theta_triple")
            ok, witness = hyperkahler_regular_check(dims, triple)
            report["hyperkahler"] = {
                "in_regular_locus": ok,
                "violating_w": list(witness) if witness is not None else None,
            }
        if "xi" in spec:
            pairs = parse_pairs(spec["xi"], dims, "xi", parse_rational)
            report["complex"] = {"in_regular_locus": complex_regular_check(dims, pairs)}
    except EnumerationCapError as exc:
        raise SpecError(f"dims: {exc}") from exc
    if not report:
        raise SpecError("regular: provide theta_triple and/or xi")
    return report, EXIT_OK


def cmd_transport(spec, args, rng):
    quiver, dims = parse_quiver(spec)
    x = parse_representation(spec, quiver, dims, rng)
    tspec = spec.get("transport", {})
    if not isinstance(tspec, dict):
        raise SpecError("transport: expected an object")
    mode = tspec.get("mode", "real")
    plan_kwargs = {}
    if "max_subdivision_depth" in tspec:
        plan_kwargs["max_subdivision_depth"] = _number(
            tspec["max_subdivision_depth"], "transport.max_subdivision_depth", integer=True
        )
    if args.tolerance is not None:
        plan_kwargs["tolerance"] = _number(args.tolerance, "--tolerance")
    elif "tolerance" in tspec:
        plan_kwargs["tolerance"] = _number(tspec["tolerance"], "transport.tolerance")
    if "leg_order" in tspec:
        if not isinstance(tspec["leg_order"], list):
            raise SpecError("transport.leg_order: expected a list of structures")
        plan_kwargs["leg_order"] = tuple(tspec["leg_order"])

    try:
        if mode == "real":
            target = parse_theta(tspec, dims, "target_theta")
            waypoints = tspec.get("waypoints", [])
            if not isinstance(waypoints, list):
                raise SpecError("transport.waypoints: expected a list of theta vectors")
            waypoints = tuple(parse_theta({"w": w}, dims, "w") for w in waypoints)
            result = transport_real(x, target, TransportPlan(waypoints=waypoints, **plan_kwargs))
        elif mode == "hyperkahler":
            data = _require(tspec, "target_triple", "transport")
            if not isinstance(data, dict):
                raise SpecError("transport.target_triple: expected an object")
            names = ("theta_I", "theta_J", "theta_K")
            target = tuple(parse_theta(data, dims, name).values for name in names)
            gate = tuple(
                parse_rational_triple(g, dims, "transport.regular_gate")
                for g in tspec.get("regular_gate", [])
            )
            result = transport_hyperkahler(
                x, target, TransportPlan(regular_gate=gate, **plan_kwargs)
            )
        elif mode == "complex":
            xi_start, xi_target = (
                [complex(*p) for p in parse_pairs(_require(tspec, k, "transport"), dims, k, float)]
                for k in ("xi_start", "xi_target")
            )
            result = transport_complex(x, xi_start, xi_target, TransportPlan(**plan_kwargs))
        elif mode == "quaternion":
            q = _require(tspec, "q", "transport")
            if not isinstance(q, list):
                raise SpecError("transport.q: expected a list of four numbers")
            q = tuple(float(_number(v, "transport.q")) for v in q)
            t = float(_number(tspec.get("t", 1.0), "transport.t"))
            image = quaternion_transport(x, q, t)
            return {
                "mode": mode,
                "image": blocks_to_json(image),
                "residual": 0.0,
            }, EXIT_OK
        elif mode == "replay":
            entries = _require(tspec, "log", "transport")
            if not isinstance(entries, list):
                raise SpecError("transport.log: expected a list of [structure, y] pairs")
            log = []
            for k, entry in enumerate(entries):
                if not isinstance(entry, list) or len(entry) != 2:
                    raise SpecError(f"transport.log[{k}]: expected a [structure, y] pair")
                structure, y_data = entry
                log.append((structure, algebra_element_from_json(y_data, dims, f"transport.log[{k}]")))
            image = replay_transport(x, log)
            return {
                "mode": mode,
                "image": blocks_to_json(image),
            }, EXIT_OK
        else:
            raise SpecError(f"transport.mode: unknown mode {mode!r}")
    except TransportError as exc:
        return {"mode": mode, "error": str(exc)}, EXIT_NO_CONVERGENCE
    except ValueError as exc:
        raise SpecError(f"transport: {exc}") from exc

    return {
        "mode": mode,
        "image": blocks_to_json(result.image),
        "residual": result.residual,
        "subdivisions_used": result.subdivisions_used,
        "applied_y_log": [
            [structure, blocks_to_json(y)] for structure, y in result.applied_y_log
        ],
    }, EXIT_OK


def cmd_selftest(spec, args, rng):
    budget = float(args.budget) if args.budget is not None else float(spec.get("budget", 1.0))
    results = selftest.run_selftest(seed=args.seed, budget=budget)
    checks = [
        {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
    ]
    ok = all(r.passed for r in results)
    return {
        "checks": checks,
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
    }, (EXIT_OK if ok else EXIT_CHECK_FAILED)


COMMANDS = {
    "moment": cmd_moment,
    "solve": cmd_solve,
    "flow": cmd_flow,
    "stability": cmd_stability,
    "regular": cmd_regular,
    "transport": cmd_transport,
    "selftest": cmd_selftest,
}


# ---------------------------------------------------------------------------
# driver

def _reject_constant(name):
    raise SpecError(f"invalid JSON: non-finite number {name}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise SpecError(f"invalid JSON: number {text} is out of range")
    return value


def _load_input(args):
    if args.input is None:
        if args.command == "selftest":
            return {}
        raise SpecError("--input is required for this command")
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float)
    except OSError as exc:
        raise SpecError(f"cannot read input: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _run_one(command, spec, args):
    if not isinstance(spec, dict):
        raise SpecError("spec: expected a JSON object")
    rng = np.random.default_rng(args.seed)
    try:
        result, code = COMMANDS[command](spec, args, rng)
    except FloatingPointError as exc:  # a solve left the representable range
        result, code = {"error": str(exc)}, EXIT_NO_CONVERGENCE
    report = {
        "command": command,
        "version": __version__,
        "options": {
            "seed": args.seed,
            "tolerance": args.tolerance,
            "budget": args.budget,
        },
        "input": spec,
        "result": result,
    }
    return report, code


def _nulled(report):
    """The report as strict JSON holds it: a report with NaN or infinite
    floats gets them as null and "non_finite": true."""
    try:
        json.dumps(report, allow_nan=False)
    except ValueError:
        return dict(json.loads(json.dumps(report), parse_constant=lambda _: None), non_finite=True)
    return report


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivermoment",
        description="Moment maps of quiver representations: solvers, flows, "
        "stability certificates, and transport.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", help="JSON problem spec (object or array of objects)")
    parser.add_argument("--output", help="report path (default stdout)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override the command's main tolerance")
    parser.add_argument("--budget", type=float, default=None,
                        help="search budget (stability) or size budget (selftest)")
    parser.add_argument("--csv", help="flow only: write the trajectory as CSV")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        payload = _load_input(args)
        if isinstance(payload, list):
            reports = []
            code = EXIT_OK
            for entry in payload:
                report, entry_code = _run_one(args.command, entry, args)
                reports.append(report)
                code = max(code, entry_code)
            out = reports
        else:
            out, code = _run_one(args.command, payload, args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT

    try:
        text = json.dumps(out, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        out = [_nulled(r) for r in out] if isinstance(out, list) else _nulled(out)
        text = json.dumps(out, indent=2, sort_keys=True, allow_nan=False)
        code = max(code, EXIT_NO_CONVERGENCE)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
