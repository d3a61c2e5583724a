"""Batch command-line front end: JSON problem specs in, JSON reports out.

Every report embeds the tool version, the resolved options, and an echo of
the parsed input, and is byte-identical across runs with equal seeds.  Exit
codes:

* 0 success;
* 1 invariant or check failure;
* 2 malformed input, a budget over its cap, or an output that cannot be
  written;
* 3 numerical non-convergence, or a report with non-finite values;
* 4 internal error: any other exception, reported on one stderr line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings

import numpy as np

from . import __version__, selftest
from .cones import (
    EnumerationCapError,
    RationalThetaTriple,
    complex_regular_check,
    hyperkahler_regular_check,
    parse_rational,
    torus_weights,
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
EXIT_INTERNAL_ERROR = 4
MAX_SEARCH_BUDGET = 10_000  # stability: the King search's cost grows linearly in it
# selftest: scales every check's instance count; budget 36 runs in about a minute
MAX_SELFTEST_BUDGET = 36
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


def _object(value, path):
    if not isinstance(value, dict):
        raise SpecError(f"{path}: expected an object")
    return value


def _list(value, path, what):
    if not isinstance(value, list):
        raise SpecError(f"{path}: expected a list of {what}")
    return value


def _per_vertex(values, dims, path, what):
    if not isinstance(values, list) or len(values) != len(dims):
        raise SpecError(f"{path}: expected one {what} per vertex")
    return values


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


def _budget(args, value, path, cap):
    """``--budget`` when given, else the spec's ``value``: a finite number at
    most ``cap``, because the work it buys grows with it."""
    if args.budget is not None:
        value, path = args.budget, "--budget"
    if _number(value, path) > cap:
        raise SpecError(f"{path}: at most {cap}")
    return value


def _matrices(data, count, path):
    """``count`` matrices, given as a list or as the list under "blocks"."""
    blocks = data.get("blocks") if isinstance(data, dict) else data
    if not isinstance(blocks, list) or len(blocks) != count:
        raise SpecError(f"{path}: expected {count} matrices")
    return [matrix_from_json(b, f"{path}[{j}]") for j, b in enumerate(blocks)]


def _options(cls, data, path, args, tolerance, integers=(), numbers=(), **extra):
    """``cls`` built from the spec object ``data``: the fields named in
    ``integers`` and ``numbers`` as given, ``--tolerance`` in place of the
    field ``tolerance``, and the fields in ``extra``, already read."""
    kwargs = {
        k: _number(data[k], f"{path}.{k}", integer=k in integers)
        for k in (*integers, *numbers)
        if k in data
    }
    if args.tolerance is not None:
        kwargs[tolerance] = _number(args.tolerance, "--tolerance")
    try:
        return cls(**kwargs, **extra)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{path}: {exc}") from exc


def parse_quiver(spec):
    q = _object(_require(spec, "quiver"), "quiver")
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


def parse_theta(values, dims, path):
    _per_vertex(values, dims, path, "real")
    try:
        return StabilityParameter(tuple(float(v) for v in values), dims)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"{path}: {exc}") from exc


def parse_point(spec, rng, theta=True):
    """The representation of a spec, drawn from ``rng`` when it gives none,
    and its ``theta`` (None unless ``theta``)."""
    quiver, dims = parse_quiver(spec)
    data = spec.get("representation")
    if data is None:
        x = random_representation(rng, quiver, dims)
    else:
        blocks = _matrices(data, quiver.num_edges, "representation.blocks")
        try:
            x = Representation(quiver, dims, blocks)
        except ValueError as exc:
            raise SpecError(f"representation: {exc}") from exc
    return x, (parse_theta(_require(spec, "theta"), dims, "theta") if theta else None)


def algebra_element_from_json(data, dims, path):
    blocks = _matrices(data, len(dims), path)
    try:
        return LieAlgebraElement(blocks)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def parse_pairs(values, dims, path, parse):
    """One [re, im] pair per vertex, each part read by ``parse``."""
    _per_vertex(values, dims, path, "[re, im] pair")
    try:
        return [(parse(p[0]), parse(p[1])) for p in values]
    except (ValueError, TypeError, IndexError, ZeroDivisionError, OverflowError) as exc:
        raise SpecError(f"{path}: {exc}") from exc


def parse_rational_triple(data, dims, path):
    data = _object(data, path)
    comps = []
    for name in ("theta_I", "theta_J", "theta_K"):
        values = _per_vertex(data.get(name), dims, f"{path}.{name}", "rational")
        try:
            comps.append(tuple(parse_rational(v) for v in values))
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"{path}.{name}: {exc}") from exc
    try:
        return RationalThetaTriple(*comps, dims=dims)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands

def cmd_moment(spec, args, rng):
    x, _ = parse_point(spec, rng, theta=False)
    triple = moment_hyperkahler(x)
    mu_c = moment_complex(x)
    oracle_worst = 0.0
    for structure in STRUCTURES:
        for _ in range(3):
            y = random_uv_element(rng, x.dims)
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
    data = _object(spec.get("solve", {}), "solve")
    extra = {"step_control": data["step_control"]} if "step_control" in data else {}
    return _options(SolveOptions, data, "solve", args, "gradient_tolerance", ("max_iterations",),
                    ("gradient_tolerance", "divergence_norm_bound"), **extra)


def cmd_solve(spec, args, rng):
    x, theta = parse_point(spec, rng)
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


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc}") from exc


def cmd_flow(spec, args, rng):
    x, theta = parse_point(spec, rng)
    data = _object(spec.get("flow", {}), "flow")
    opts = _options(FlowOptions, data, "flow", args, "stall_tolerance",
                    numbers=("initial_step", "max_time", "stall_tolerance"))
    outcome = flow_integrate(theta, x, opts)
    if args.csv:
        rows = (f"{t!r},{h!r},{g!r}\n" for t, h, g in outcome.trajectory_summary)
        _write(args.csv, "".join(["t,h,grad_norm\n", *rows]))
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
    x, theta = parse_point(spec, rng)
    data = _object(spec.get("stability", {}), "stability")
    budget = _budget(args, data.get("search_budget", 64), "stability.search_budget", MAX_SEARCH_BUDGET)
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
    x, _ = parse_point(spec, rng, theta=False)
    dims = x.dims
    tspec = _object(spec.get("transport", {}), "transport")
    mode = tspec.get("mode", "real")
    # waypoints serve only real legs and the exact gate only hyperkahler ones
    waypoints = _list(tspec.get("waypoints", []) if mode == "real" else [], "transport.waypoints",
                      "theta vectors")
    gate = _list(tspec.get("regular_gate", []) if mode == "hyperkahler" else [], "transport.regular_gate",
                 "theta triples")
    extra = {}
    if "leg_order" in tspec:
        extra["leg_order"] = tuple(_list(tspec["leg_order"], "transport.leg_order", "structures"))
    plan = _options(
        TransportPlan, tspec, "transport", args, "tolerance", ("max_subdivision_depth",), ("tolerance",),
        waypoints=tuple(parse_theta(w, dims, f"transport.waypoints[{k}]") for k, w in enumerate(waypoints)),
        regular_gate=tuple(parse_rational_triple(g, dims, "transport.regular_gate") for g in gate),
        **extra,
    )
    try:
        if mode == "real":
            target = parse_theta(_require(tspec, "target_theta", "transport"), dims, "target_theta")
            result = transport_real(x, target, plan)
        elif mode == "hyperkahler":
            data = _object(_require(tspec, "target_triple", "transport"), "transport.target_triple")
            target = tuple(
                parse_theta(data.get(name), dims, f"transport.target_triple.{name}").values
                for name in ("theta_I", "theta_J", "theta_K")
            )
            result = transport_hyperkahler(x, target, plan)
        elif mode == "complex":
            xi_start, xi_target = (
                [complex(*p) for p in parse_pairs(_require(tspec, k, "transport"), dims, k, float)]
                for k in ("xi_start", "xi_target")
            )
            result = transport_complex(x, xi_start, xi_target, plan)
        elif mode == "quaternion":
            q = _list(_require(tspec, "q", "transport"), "transport.q", "four numbers")
            q = tuple(float(_number(v, "transport.q")) for v in q)
            t = float(_number(tspec.get("t", 1.0), "transport.t"))
            image = quaternion_transport(x, q, t)
            return {"mode": mode, "image": blocks_to_json(image), "residual": 0.0}, EXIT_OK
        elif mode == "replay":
            entries = _list(_require(tspec, "log", "transport"), "transport.log", "[structure, y] pairs")
            log = []
            for k, entry in enumerate(entries):
                if not isinstance(entry, list) or len(entry) != 2:
                    raise SpecError(f"transport.log[{k}]: expected a [structure, y] pair")
                log.append((entry[0], algebra_element_from_json(entry[1], dims, f"transport.log[{k}]")))
            return {"mode": mode, "image": blocks_to_json(replay_transport(x, log))}, EXIT_OK
        else:
            raise SpecError(f"transport.mode: unknown mode {mode!r}")
    except TransportError as exc:
        return {"mode": mode, "error": str(exc)}, EXIT_NO_CONVERGENCE
    except SpecError:
        raise  # already names its field
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
    budget = float(_budget(args, spec.get("budget", 1.0), "budget", MAX_SELFTEST_BUDGET))
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
    """The report of one spec and its exit code.  A report with NaN or
    infinite floats gets them as null and "non_finite": true, as strict JSON
    holds it, and exits at least 3."""
    rng = np.random.default_rng(args.seed)
    try:
        result, code = COMMANDS[command](_object(spec, "spec"), args, rng)
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
    try:
        json.dumps(report, allow_nan=False)
    except ValueError:
        report = dict(json.loads(json.dumps(report), parse_constant=lambda _: None), non_finite=True)
        code = max(code, EXIT_NO_CONVERGENCE)
    return report, code


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
        batch = isinstance(payload, list)
        runs = [_run_one(args.command, spec, args) for spec in (payload if batch else [payload])]
        reports = [report for report, _ in runs]
        text = json.dumps(reports if batch else reports[0], indent=2, sort_keys=True, allow_nan=False)
        if args.output:
            _write(args.output, text + "\n")
        else:
            print(text)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # a defect of the program, reported without a traceback
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    return max((code for _, code in runs), default=EXIT_OK)


if __name__ == "__main__":
    sys.exit(main())
