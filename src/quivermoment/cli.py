"""Batch command-line front end: JSON problem specs in, JSON reports out.

Every report embeds the tool version, the resolved options, and an echo of
the parsed input, and is byte-identical across runs with equal seeds.  Exit
codes:

* 0 success;
* 1 invariant or check failure;
* 2 malformed input, a budget not above 0 or over its cap (a stability
  search budget is also a whole number), a size over its cap, or an output
  that cannot be written.  Each kind of JSON value has one reader: every
  number field (blocks, theta, waypoints, ``target_triple``,
  complex-transport xi, ``q``, ``t`` and the options) is a JSON number,
  never a string or true/false (``_number``); a rational is a "p/q" or
  decimal string or a JSON number, never a bool (``_rational``); a pair has
  exactly two entries (``_pair``); ``export_weights`` is true or false.  A
  constructor that refuses what was read exits 2 through ``_made``, with
  the field's path.  A ``regular`` request meets its two size caps before
  it enumerates anything: the torus-weight export may hold at most
  ``MAX_WEIGHT_ENTRIES`` (10^6) floats, counted as matrix entry slots times
  coordinates, and a wall scan (also that of a transport's
  ``regular_gate``) at most ``cones.ENUMERATION_CAP`` (10^5) dimension
  vectors;
* 3 numerical non-convergence, or a report with non-finite values;
* 4 internal error: any other exception, reported on one stderr line.

Each command imports the library modules it runs, inside its function, so a
run loads only those: ``regular`` never loads the solver, and only
``selftest`` loads ``selftest``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from functools import lru_cache, partial

import numpy as np

from . import __version__

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL_ERROR = 4
MAX_SEARCH_BUDGET = 10_000  # stability: the King search's cost grows linearly in it
# selftest: scales every check's instance count; budget 36 runs in about a minute
MAX_SELFTEST_BUDGET = 36
# regular: the torus-weight export holds up to (slots x coordinates) floats
MAX_WEIGHT_ENTRIES = 10 ** 6
MAX_COUNT = int(np.iinfo(np.intp).max)


class SpecError(ValueError):
    """Malformed problem specification; message carries the field path."""


# ---------------------------------------------------------------------------
# serialization

def matrix_to_json(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


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


def _count(value, path):
    """A nonnegative integer that numpy can use as an array size."""
    if not 0 <= _number(value, path, integer=True) <= MAX_COUNT:
        raise SpecError(f"{path}: expected a nonnegative integer")
    return value


def _rational(value, path):
    """An exact rational: a "p/q" or decimal string or a JSON number, never
    true/false."""
    from .cones import parse_rational

    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise SpecError(f"{path}: expected a rational (a \"p/q\" string or a number)")
    return _made(path, parse_rational, value)


def _pair(value, path, read=_number):
    """A list of exactly two entries, each read by ``read``: the complex
    number re + i im of an [re, im] pair of numbers, else the two entries."""
    if not isinstance(value, list) or len(value) != 2:
        raise SpecError(f"{path}: expected a list of two entries")
    first, second = read(value[0], path), read(value[1], path)
    return complex(first, second) if read is _number else (first, second)


def _per_vertex(values, dims, path, read, *args):
    """One entry per vertex, each read by ``read(entry, path, *args)``."""
    if not isinstance(values, list) or len(values) != len(dims):
        raise SpecError(f"{path}: expected a list of one entry per vertex")
    return tuple(read(v, path, *args) for v in values)


def _triple(data, dims, path, read):
    """The theta_I, theta_J and theta_K vectors of the object ``data``, each
    read by ``read(values, dims, path)``."""
    data = _object(data, path)
    return tuple(read(data.get(name), dims, f"{path}.{name}") for name in ("theta_I", "theta_J", "theta_K"))


def _made(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``; the TypeError, ValueError or
    ZeroDivisionError of a constructor that refuses its input is a SpecError
    naming ``path``."""
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _budget(args, value, path, cap, whole=False):
    """``--budget`` when given, else the spec's ``value``: a number above 0
    and at most ``cap``, because the work it buys grows with it, and a whole
    number when ``whole``."""
    if args.budget is not None:
        value, path = args.budget, "--budget"
    if not 0 < _number(value, path) <= cap or (whole and value != int(value)):
        raise SpecError(f"{path}: expected a {'whole ' if whole else ''}number above 0 and at most {cap}")
    return value


def matrix_from_json(data, path):
    """A complex matrix from rows of [re, im] pairs."""
    rows = [[_pair(e, path) for e in _list(row, path, "[re, im] pairs")] for row in _list(data, path, "rows")]
    return _made(path, np.array, rows, complex) if rows else np.zeros((0, 0), dtype=complex)


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
    return _made(path, cls, **kwargs, **extra)


def parse_quiver(spec):
    from .quiver import Quiver, extend

    q = _object(_require(spec, "quiver"), "quiver")
    vertices = _count(q.get("vertices"), "quiver.vertices")
    edges = [_pair(e, "quiver.edges", _count) for e in _list(q.get("edges", []), "quiver.edges", "edges")]
    dims = _per_vertex(_require(spec, "dims"), range(vertices), "dims", _count)
    return extend(_made("quiver.edges", Quiver, vertices, edges)), dims


def parse_theta(values, dims, path):
    from .lie import StabilityParameter

    return _made(path, StabilityParameter, _per_vertex(values, dims, path, _number), dims)


def parse_point(spec, rng, theta=True):
    """The representation of a spec, drawn from ``rng`` when it gives none,
    and its ``theta`` (None unless ``theta``)."""
    quiver, dims = parse_quiver(spec)
    data = spec.get("representation")
    if data is None:
        from .sampling import random_representation

        x = random_representation(rng, quiver, dims)
    else:
        from .quiver import Representation

        blocks = _matrices(data, quiver.num_edges, "representation.blocks")
        x = _made("representation", Representation, quiver, dims, blocks)
    return x, (parse_theta(_require(spec, "theta"), dims, "theta") if theta else None)


def algebra_element_from_json(data, dims, path):
    from .lie import LieAlgebraElement

    return _made(path, LieAlgebraElement, _matrices(data, len(dims), path))


def parse_rational_triple(data, dims, path):
    from .cones import RationalThetaTriple

    rationals = partial(_per_vertex, read=_rational)
    return _made(path, RationalThetaTriple, *_triple(data, dims, path, rationals), dims)


# ---------------------------------------------------------------------------
# commands

def cmd_moment(spec, args, rng):
    from .lie import pairing
    from .moment import complex_vs_real_identity, moment_complex, moment_hyperkahler, moment_pairing_fd_oracle
    from .quiver import STRUCTURES
    from .sampling import random_uv_element

    x, _ = parse_point(spec, rng, theta=False)
    triple = moment_hyperkahler(x)
    mu_c = moment_complex(x)
    mismatches = []
    for structure in STRUCTURES:
        for _ in range(3):
            y = random_uv_element(rng, x.dims)
            lhs = pairing(triple.component(structure), y)
            rhs = moment_pairing_fd_oracle(x, y, structure)
            mismatches.append(abs(lhs - rhs))
    c, resid = complex_vs_real_identity(x)
    return {
        "mu_I": blocks_to_json(triple.mu_I),
        "mu_J": blocks_to_json(triple.mu_J),
        "mu_K": blocks_to_json(triple.mu_K),
        "mu_C": blocks_to_json(mu_c),
        "oracle_max_mismatch": float(np.max(mismatches)),  # NaN, unlike max, reaches _strict
        "proportionality_c": c,
        "proportionality_residual": resid,
    }, EXIT_OK


def _solve_options(spec, args):
    from .kempf_ness import SolveOptions

    data = _object(spec.get("solve", {}), "solve")
    extra = {"step_control": data["step_control"]} if "step_control" in data else {}
    return _options(SolveOptions, data, "solve", args, "gradient_tolerance", ("max_iterations",),
                    ("gradient_tolerance", "divergence_norm_bound"), **extra)


def cmd_solve(spec, args, rng):
    from .kempf_ness import solve_moment_equation
    from .quiver import STRUCTURES

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
    from .flow import FlowOptions, flow_integrate

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
    from .stability import certify_stable_numerical, king_stable_test

    x, theta = parse_point(spec, rng)
    data = _object(spec.get("stability", {}), "stability")
    budget = _budget(args, data.get("search_budget", 64), "stability.search_budget", MAX_SEARCH_BUDGET, whole=True)
    king = king_stable_test(x, theta, search_budget=int(budget), seed=args.seed)
    numeric = certify_stable_numerical(x, theta, opts=_solve_options(spec, args))
    return {
        "king": certificate_to_json(king),
        "numerical": certificate_to_json(numeric),
    }, EXIT_OK


def cmd_regular(spec, args, rng):
    from .cones import EnumerationCapError, complex_regular_check, hyperkahler_regular_check, torus_weights

    quiver, dims = parse_quiver(spec)
    export = spec.get("export_weights", False)
    if not isinstance(export, bool):
        raise SpecError("export_weights: expected true or false")
    if export:
        # the weight matrix has up to one row per matrix entry slot
        slots = sum(dims[quiver.head(e)] * dims[quiver.tail(e)] for e in range(quiver.num_edges))
        if slots * sum(dims) > MAX_WEIGHT_ENTRIES:
            raise SpecError(f"export_weights: {slots} slots of {sum(dims)} coordinates exceed the cap "
                            f"{MAX_WEIGHT_ENTRIES} on weight matrix entries")
    report = {}
    try:
        if "theta_triple" in spec:
            triple = parse_rational_triple(spec["theta_triple"], dims, "theta_triple")
            ok, witness = hyperkahler_regular_check(dims, triple)
            report["hyperkahler"] = {
                "in_regular_locus": ok,
                "violating_w": list(witness) if witness is not None else None,
            }
        if "xi" in spec:
            pairs = _per_vertex(spec["xi"], dims, "xi", _pair, _rational)
            report["complex"] = {"in_regular_locus": complex_regular_check(dims, pairs)}
    except EnumerationCapError as exc:
        raise SpecError(f"dims: {exc}") from exc
    if export:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ws = torus_weights(quiver, dims)
        report["torus_weights"] = {
            "vectors": [[float(v) for v in row] for row in ws.vectors],
            "multiplicities": [int(m) for m in ws.multiplicities],
            "spans_torus": ws.spans_torus,
            "kernel_warning": bool(caught),
        }
    if not report:
        raise SpecError("regular: provide theta_triple and/or xi")
    return report, EXIT_OK


def cmd_transport(spec, args, rng):
    from .cones import EnumerationCapError
    from .transport import (
        TransportError,
        TransportPlan,
        quaternion_transport,
        replay_transport,
        transport_complex,
        transport_hyperkahler,
        transport_real,
    )

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
            data = _require(tspec, "target_triple", "transport")
            target = tuple(t.values for t in _triple(data, dims, "transport.target_triple", parse_theta))
            result = transport_hyperkahler(x, target, plan)
        elif mode == "complex":
            xi_start, xi_target = (
                _per_vertex(_require(tspec, k, "transport"), dims, f"transport.{k}", _pair)
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
    except (ValueError, EnumerationCapError) as exc:
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
    from . import selftest

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
    """The report of one spec and its exit code."""
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
    return report, code


def _strict(report, code):
    """The report as strict JSON holds it: NaN and infinite floats become
    null and "non_finite": true, and the exit code is at least 3."""
    try:
        json.dumps(report, allow_nan=False)
    except ValueError:
        report = dict(json.loads(json.dumps(report), parse_constant=lambda _: None), non_finite=True)
        code = max(code, EXIT_NO_CONVERGENCE)
    return report, code


@lru_cache(maxsize=1)
def build_parser():
    """The command-line parser, built once: parsing leaves it unchanged, so
    every ``main`` call shares it."""
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


def _encode(runs, batch):
    reports = [report for report, _ in runs]
    return json.dumps(reports if batch else reports[0], indent=2, sort_keys=True, allow_nan=False)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:  # numpy's generators take nonnegative seeds only
            raise SpecError("--seed: expected a nonnegative integer")
        payload = _load_input(args)
        batch = isinstance(payload, list)
        runs = [_run_one(args.command, spec, args) for spec in (payload if batch else [payload])]
        try:
            text = _encode(runs, batch)
        except ValueError:  # some report holds a non-finite float
            runs = [_strict(*run) for run in runs]
            text = _encode(runs, batch)
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
