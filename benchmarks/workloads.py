"""The two benchmark workloads: seeded inputs, one call per instance, checks.

Each workload is an object with

* ``stream(rng)``: an endless iterator of instances drawn from the seed; all
  sampling happens here, before any timing;
* ``run(instance)``: the timed call into the program, returning its result;
  it reaches the program through module attributes so the tracer's wrappers
  are seen;
* ``check(instance, result)``: a list of correctness failures (empty if ok),
  run outside the timed call;
* ``digest(instance, result)``: bytes that two runs on the same seed must
  reproduce exactly;
* ``chunk``: consecutive instances per throughput sample, a whole number of
  the workload's own mix.
* ``warmup``, ``trace_rate`` and ``pool_rate``: untimed calls before
  timing, traced instances per requested second, and instances drawn per
  requested second for a timed run.

Instance families are those of the acceptance criteria 5 (flow) and 8
(stability).  Their costs are heavy tailed and depend mostly on the vertex
and edge counts, the dimension vector and, for generic quivers, on whether the
quiver is connected (a disconnected generic instance is almost never stable,
so its solves run to the iteration cap).  Runs draw these strata in their
natural proportions through a low-discrepancy schedule instead of
independently, so that a run of a few hundred instances holds close to the
expected mix and seeds differ mainly in the instances themselves.  Within a
stratum, instances come from the unmodified ``quivermoment.sampling``
generators by rejection.
"""

from __future__ import annotations

import collections
import hashlib
import json
import math
import os

import numpy as np

from quivermoment import cli, flow
from quivermoment.flow import FlowOptions
from quivermoment.lie import balanced_theta
from quivermoment.sampling import (
    random_chamber_theta,
    random_instance,
    random_rational_triple,
    random_stable_instance,
)
from quivermoment.stability import GradedSubspace, king_slope, subrepresentation_residual

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Iteration cap of the explicitly requested solves (cli_mixed `solve`, and
# the certify_stable_numerical call of its `stability` requests), a tenth of
# the library default, as a caller would set it through the `solve` options
# of a spec.  At the default, solves that do not converge (about one
# stability request in ten) run 1-2 s each: a few would set a whole run's
# throughput and put its 90th percentile on the gap between them and
# everything else.  The iterations themselves are unchanged.
SOLVE_ITERATIONS = 50
BATCH = 2000  # first draws of a family; their stratum frequencies are the weights


class Strata:
    """Stratum schedule: the k-th draw takes the stratum holding
    frac(u + k * golden ratio) in the cumulative weights, u drawn once from
    the seed.  Any window of draws then matches the weights closely."""

    def __init__(self, rng, weights):
        self.keys = sorted(weights)
        w = np.array([weights[k] for k in self.keys], dtype=float)
        self.cdf = np.cumsum(w / w.sum())
        self.offset = float(rng.random())
        self.k = 0

    def next(self):
        p = (self.offset + self.k * GOLDEN) % 1.0
        self.k += 1
        return self.keys[min(int(np.searchsorted(self.cdf, p, side="right")), len(self.keys) - 1)]


class Family:
    """Instances of one sampling generator, handed out stratum by stratum.

    The stratum weights are the frequencies among the first BATCH draws
    (restricted to those ``keep`` accepts); each later request takes the next
    scheduled stratum, drawing more instances when its queue is empty.  No
    draw is discarded unless ``keep`` rejects it, so each stratum receives
    independent draws from the generator conditioned on that stratum.
    """

    def __init__(self, rng, sample, key, keep=None):
        self.rng, self.sample, self.key = rng, sample, key
        self.keep = keep or (lambda inst: True)
        self.queues = {}
        for _ in range(BATCH):
            self._add(sample(rng))
        self.strata = Strata(rng, {k: len(q) for k, q in self.queues.items()})

    def _add(self, inst):
        if self.keep(inst):
            self.queues.setdefault(self.key(inst), collections.deque()).append(inst)

    def draw(self):
        queue = self.queues[self.strata.next()]
        while not queue:
            self._add(self.sample(self.rng))
        return queue.popleft()


def is_connected(quiver) -> bool:
    n = quiver.num_vertices
    parent = list(range(n))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for t, h in quiver.base.edges:
        parent[root(t)] = root(h)
    return len({root(v) for v in range(n)}) == 1


def thin_family(rng):
    """random_stable_instance (connected, all dimensions one), stratified by
    vertex and edge count."""
    return Family(rng, random_stable_instance, lambda inst: (inst[0].num_vertices, inst[0].base.num_edges))


def generic_family(rng, connected=(True, False)):
    """random_instance(max_dim=2), stratified by vertex and edge count,
    connectivity and the number of dimension-2 vertices."""
    return Family(
        rng,
        lambda r: random_instance(r, max_dim=2),
        lambda inst: (inst[0].num_vertices, inst[0].base.num_edges, is_connected(inst[0]), inst[1].count(2)),
        keep=lambda inst: is_connected(inst[0]) in connected,
    )


def generic_theta(rng, dims):
    return balanced_theta(rng.normal(size=len(dims)), dims)


# ---------------------------------------------------------------------------
# flow_sweep: the criterion-5 family, one flow_integrate call per instance

class FlowSweep:
    warmup = 20  # untimed calls before measuring
    chunk = 20
    pool_rate = 30.0  # instances drawn per requested second, above the run's rate
    trace_rate = 5.0  # traced instances per requested second

    def stream(self, rng):
        thin, generic = thin_family(rng), generic_family(rng)
        k = 0
        while True:
            if k % 5 != 0:
                quiver, dims, x = thin.draw()
                yield x, random_chamber_theta(rng, dims), FlowOptions()
            else:
                quiver, dims, x = generic.draw()
                yield x, generic_theta(rng, dims), FlowOptions(max_time=300.0)
            k += 1

    def run(self, instance):
        x, theta, opts = instance
        return flow.flow_integrate(theta, x, opts)

    def check(self, instance, out):
        _, _, opts = instance
        errors = []
        hs = [s[1] for s in out.trajectory_summary]
        if any(hs[i + 1] > hs[i] + 1e-12 for i in range(len(hs) - 1)):
            errors.append("h is not monotone along the trajectory")
        if out.classification == "analytically_semistable" and not out.h_value <= opts.stall_tolerance ** 2:
            errors.append(f"semistable limit with h = {out.h_value!r}")
        if out.classification == "higher_stratum" and not out.h_value > 0.0:
            errors.append("higher stratum with h = 0")
        return errors

    def digest(self, instance, out):
        return f"{out.classification}:{out.h_value!r}:{out.time!r}:{len(out.trajectory_summary)}".encode()


# ---------------------------------------------------------------------------
# cli_mixed: in-process requests to quivermoment.cli.main, file in, file out

# One cycle of 36 requests.  The five solves on disconnected generic quivers
# are the long requests (they end diverged or at the iteration cap), and the
# five `stability` requests (the criterion-8 family: three in four thin with a
# chamber theta, one in four random_instance(max_dim=2) with a balanced theta)
# spread over 10-350 ms; together they hold the 90th percentile inside that
# upper part of the mix.  24 requests take under about 12 ms (solves that
# converge, real transports, wall tests), so the median lies well inside that
# cluster rather than on its gap to the 15-40 ms moment and hyperkahler
# requests.
CLI_CYCLE = (
    "solve_thin", "transport_real", "solve_unstable", "regular", "solve_generic",
    "stability", "solve_thin", "transport_real", "regular",
    "solve_unstable", "solve_thin", "stability", "transport_real", "moment",
    "regular", "solve_thin", "solve_unstable", "solve_generic",
    "stability", "transport_real", "regular", "solve_thin", "solve_unstable",
    "transport_real", "stability", "regular", "solve_thin",
    "solve_generic", "solve_unstable", "transport_hyperkahler", "stability", "solve_thin",
    "transport_real", "regular", "solve_generic", "solve_thin",
)
STRUCTURES = ("I", "J", "K")


def _spec(quiver, dims, x):
    return {
        "quiver": {"vertices": quiver.num_vertices, "edges": [list(e) for e in quiver.base.edges]},
        "dims": list(dims),
        "representation": {"blocks": [cli.matrix_to_json(b) for b in x.blocks]},
    }


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in report")


def _check_stability(x, theta, result):
    """Definite King and numerical verdicts agree; an unstable witness is a
    subrepresentation of non-negative slope."""
    king, numeric = result["king"], result["numerical"]
    errors = []
    definite = ("stable", "unstable")
    if king["verdict"] in definite and numeric["verdict"] in definite and king["verdict"] != numeric["verdict"]:
        errors.append(f"king says {king['verdict']}, solver says {numeric['verdict']}")
    witness = king.get("witness_subspace")
    if king["verdict"] == "unstable" and witness is not None:
        w = GradedSubspace([cli.matrix_from_json(b, "witness") for b in witness["bases"]], x.dims)
        if not subrepresentation_residual(x, w) <= 1e-10:
            errors.append("unstable witness is not a subrepresentation")
        if not king_slope(theta, w.sub_dims()) >= 0.0:
            errors.append("unstable witness has negative slope")
    return errors


class CliMixed:
    warmup = len(CLI_CYCLE)
    trace_rate = 10.0
    chunk = len(CLI_CYCLE)
    pool_rate = 60.0

    def __init__(self, workdir):
        self.workdir = workdir

    def stream(self, rng):
        thin = thin_family(rng)
        connected = generic_family(rng, connected=(True,))
        disconnected = generic_family(rng, connected=(False,))
        generic = generic_family(rng)
        counters = {}
        k = 0
        while True:
            kind = CLI_CYCLE[k % len(CLI_CYCLE)]
            turn = counters.get(kind, 0)
            counters[kind] = turn + 1
            if kind == "stability" and turn % 4 == 0:
                quiver, dims, x = generic.draw()
                theta = generic_theta(rng, dims)
            elif kind in ("solve_generic", "solve_unstable") or (kind == "moment" and turn % 2):
                quiver, dims, x = (disconnected if kind == "solve_unstable" else connected).draw()
                theta = generic_theta(rng, dims)
            else:
                quiver, dims, x = thin.draw()
                theta = random_chamber_theta(rng, dims)
            spec = _spec(quiver, dims, x)
            if kind.startswith("solve"):
                command = "solve"
                spec.update(theta=list(theta.values), structure=STRUCTURES[turn % 3],
                            solve={"max_iterations": SOLVE_ITERATIONS})
            elif kind == "stability":
                command = "stability"
                spec.update(theta=list(theta.values), solve={"max_iterations": SOLVE_ITERATIONS})
            elif kind == "moment":
                command = "moment"
            elif kind == "regular":
                command = "regular"
                triple = random_rational_triple(rng, dims)
                spec["theta_triple"] = {
                    name: [str(v) for v in comp]
                    for name, comp in zip(("theta_I", "theta_J", "theta_K"), triple.components())
                }
                spec["xi"] = [[str(a), str(b)] for a, b in zip(triple.theta_J, triple.theta_K)]
                spec["export_weights"] = True
            elif kind == "transport_real":
                command = "transport"
                spec["transport"] = {"mode": "real", "target_theta": list(theta.values)}
            else:
                command = "transport"
                others = [random_chamber_theta(rng, dims) for _ in range(2)]
                spec["transport"] = {
                    "mode": "hyperkahler",
                    "target_triple": {
                        "theta_I": list(theta.values),
                        "theta_J": list(others[0].values),
                        "theta_K": list(others[1].values),
                    },
                }
            path = os.path.join(self.workdir, f"in-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            argv = [command, "--input", path, "--output", os.path.join(self.workdir, f"out-{k}.json"),
                    "--seed", str(int(rng.integers(2 ** 31)))]
            # a stability witness is checked against the representation and
            # theta; only those requests keep them, so memory does not grow
            # with the number of requests a run gets through
            yield kind, command, argv, (x, theta) if command == "stability" else None
            k += 1

    def run(self, instance):
        return cli.main(instance[2])

    def report(self, instance):
        with open(instance[2][4], "rb") as fh:
            return fh.read()

    def check(self, instance, code):
        kind, command, _, stability_input = instance
        if code not in (cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE):
            return [f"{kind}: undocumented exit code {code}"]
        try:
            report = json.loads(self.report(instance), parse_constant=_reject_constant)
        except (OSError, ValueError) as exc:
            return [f"{kind}: no strict JSON report ({exc})"]
        result = report["result"]
        errors = []
        if command == "solve" and result["status"] == "converged":
            tol = report["input"]["solve"].get("gradient_tolerance", 1e-10)
            if not result["residual"] <= tol:
                errors.append(f"{kind}: converged solve with residual {result['residual']!r}")
        if command == "transport" and code == cli.EXIT_OK and not result["residual"] <= 1e-8:
            errors.append(f"{kind}: transport residual {result['residual']!r}")
        if command == "stability":
            errors.extend(f"{kind}: {msg}" for msg in _check_stability(*stability_input, result))
        if code == cli.EXIT_NO_CONVERGENCE and command != "solve" and "error" not in result:
            errors.append(f"{kind}: exit 3 without an error message")
        return errors

    def digest(self, instance, code):
        return b"%d:" % code + hashlib.sha256(self.report(instance)).digest()
