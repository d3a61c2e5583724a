"""Benchmark of quivermoment: two seeded workloads, timed end to end or traced per layer.

    python3 benchmarks/run.py --workload flow_sweep --seed 1 --seconds 50 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 50

Run from anywhere; the program is imported from the ``src`` directory next to
this one, never from an installed copy.  Each run is a single process with
one BLAS/OpenMP thread.  It draws its inputs from ``--seed`` before timing,
runs an untimed warm-up on the first instances, then either

* ``--trace 0``: calls the program on instance after instance until
  ``--seconds`` of wall time have passed (and at least 100 instances ran),
  and reports the end-to-end metrics of ``BENCHMARK.json``; or
* ``--trace 1``: runs a fixed number of instances (``trace_rate`` per
  requested second, so counts repeat exactly on a seed) once untraced and once
  with every layer wrapped in spans, and reports the per-layer metrics plus
  the tracing overhead.

Each output is checked right after its call, outside the call's timing; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy is imported anywhere in this process

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("flow_sweep", "cli_mixed")
MIN_SAMPLES = 100  # the 90th percentile then has ten samples beyond it
MAX_POOL = 20000
# A few flows in a thousand are stiff and take tens of seconds; the cap keeps
# a run within its time budget.  Such calls count in the latencies at the cap
# and are reported as timeouts, not as failures.
INSTANCE_TIMEOUT_S = 10.0
TRACE_CHUNK = 10
SETUP_REPEATS = 5
IMPORT_PROBE = "import quivermoment, quivermoment.cli"


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


class InstanceTimeout(BaseException):
    """Raised by SIGALRM inside a call that ran past INSTANCE_TIMEOUT_S.

    A BaseException, so that the program's own ``except`` clauses cannot
    swallow it; the program keeps no state between calls, so abandoning one
    is safe.
    """


def _alarm(signum, frame):
    raise InstanceTimeout


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(repeats):
    """Wall times of fresh interpreters importing the package and its CLI."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchmarkError(f"importing quivermoment failed:\n{proc.stderr}")
    return times


def load_program():
    if not (SRC / "quivermoment" / "__init__.py").is_file():
        raise BenchmarkError(f"no quivermoment sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import quivermoment

    if Path(quivermoment.__file__).resolve().parent != SRC / "quivermoment":
        raise BenchmarkError(f"quivermoment imported from {quivermoment.__file__}, not {SRC}")


def machine_facts():
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "kernel": platform.release(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Run:
    """Results of a sequence of calls: raw outputs, failures, latencies, digests."""

    def __init__(self, workload, instances):
        self.workload = workload
        self.instances = instances
        self.outputs = []
        self.errors = []  # (call index, message)
        self.latencies = []
        self.digests = []
        self.timeouts = 0

    def call(self, index, runner=None):
        """One call on instances[index]; returns its end time."""
        instance = self.instances[index % len(self.instances)]
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INSTANCE_TIMEOUT_S)
        try:
            out = runner(index, self.workload.run, instance) if runner else self.workload.run(instance)
        except InstanceTimeout:
            out = None
            self.timeouts += 1
        except Exception as exc:  # a failing instance is counted, not fatal
            out = exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        self.latencies.append(end - start)
        self.outputs.append(out)
        return end

    def check(self):
        """Correctness gate and digests of the calls not checked yet.

        Runs outside any timed call, but before the next calls, because
        cli_mixed reads each report back from a file that a later call on the
        same instance rewrites.  A checked output is dropped, so that the
        process's peak memory is the program's and not a backlog of results
        that grows with the number of calls a run gets through.
        """
        for i in range(len(self.digests), len(self.outputs)):
            out = self.outputs[i]
            self.outputs[i] = None
            if out is None or isinstance(out, Exception):
                if out is not None:
                    self.errors.append((i, f"raised {type(out).__name__}: {out}"))
                self.digests.append(None)
                continue
            instance = self.instances[i % len(self.instances)]
            self.errors.extend((i, msg) for msg in self.workload.check(instance, out))
            self.digests.append(self.workload.digest(instance, out))

    def compare(self, reference, what):
        """Same-input calls must reproduce the reference digests exactly."""
        for i, (a, b) in enumerate(zip(reference.digests, self.digests)):
            if a is not None and b is not None and a != b:
                self.errors.append((i, f"{what}: output differs from an earlier run of the same input"))


def make_workload(name, workdir):
    import workloads

    return {
        "flow_sweep": workloads.FlowSweep,
        "cli_mixed": lambda: workloads.CliMixed(str(workdir)),
    }[name]()


def timed_run(workload, rng, seconds):
    """Warm up, then call the program on new instances until ``seconds`` are up."""
    stream = workload.stream(rng)
    warm = Run(workload, [next(stream) for _ in range(workload.warmup)])
    for i in range(workload.warmup):
        warm.call(i)
    warm.check()

    # the timed run starts over from the warm-up instances, which checks that
    # repeated calls reproduce their outputs exactly.  The pool's size depends
    # on the requested seconds only, so that memory and set-up do not move
    # with the machine's speed; a run that outpaces it starts over.
    size = min(MAX_POOL, max(2 * MIN_SAMPLES, math.ceil(workload.pool_rate * seconds)))
    timed = Run(workload, warm.instances + [next(stream) for _ in range(size - workload.warmup)])
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        end = timed.call(i)
        timed.check()
        i += 1
        if end >= deadline and i >= MIN_SAMPLES:
            break
    wall = end - start
    timed.compare(warm, "repeat")

    # median of means: a rare instance that runs for seconds, or a burst of
    # load from other tenants of the machine, moves one chunk, not the run
    lat = timed.latencies
    chunk = workload.chunk
    chunks = [math.fsum(lat[i:i + chunk]) for i in range(0, len(lat) - chunk + 1, chunk)]
    metrics = {
        "throughput_ips": (chunk / statistics.median(chunks), "instances/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(lat, n=10)[8], "ms"),
    }
    info = {"samples": len(lat), "chunks": len(chunks), "pool": len(timed.instances), "timed_s": wall,
            "wall_ips": len(lat) / wall,
            "digest": _digest(timed.digests[:MIN_SAMPLES])}
    return metrics, [warm, timed], info


def traced_run(workload, rng, seconds):
    """Untraced and traced calls on the same instances, in alternating chunks
    so that both sides see the same machine conditions."""
    from tracer import Tracer

    count = max(workload.warmup, math.ceil(workload.trace_rate * seconds))
    stream = workload.stream(rng)
    instances = [next(stream) for _ in range(count)]
    warm = Run(workload, instances)
    for i in range(workload.warmup):
        warm.call(i)
    warm.check()

    plain, traced = Run(workload, instances), Run(workload, instances)
    tracer = Tracer()
    seconds_on = {False: 0.0, True: 0.0}
    for c, lo in enumerate(range(0, count, TRACE_CHUNK)):
        chunk = range(lo, min(lo + TRACE_CHUNK, count))
        for on in (False, True) if c % 2 == 0 else (True, False):
            run = traced if on else plain
            if on:
                tracer.install()
            try:
                start = time.perf_counter()
                for i in chunk:
                    end = run.call(i, tracer.run_instance if on else None)
                seconds_on[on] += end - start
            finally:
                tracer.uninstall()
            run.check()
    plain.compare(warm, "repeat")
    traced.compare(plain, "traced")

    metrics = tracer.metrics()
    untraced_ips, traced_ips = count / seconds_on[False], count / seconds_on[True]
    metrics["trace.untraced_ips"] = (untraced_ips, "instances/s")
    metrics["trace.traced_ips"] = (traced_ips, "instances/s")
    metrics["trace.overhead_ratio"] = (untraced_ips / traced_ips, "ratio")
    info = {"samples": count, "untraced_s": seconds_on[False], "traced_s": seconds_on[True],
            "digest": _digest(plain.digests)}
    return metrics, [warm, plain, traced], info


def _digest(digests):
    h = hashlib.sha256()
    for d in digests:
        h.update(b"-" if d is None else d)
        h.update(b"\n")
    return h.hexdigest()[:16]


def run_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    load_program()
    if not args.trace:
        measure_setup(1)  # fills the bytecode cache
        setup_times = measure_setup(SETUP_REPEATS)
    import numpy as np

    signal.signal(signal.SIGALRM, _alarm)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, workdir)
        rng = np.random.default_rng(args.seed)
        if args.trace:
            metrics, runs, info = traced_run(workload, rng, args.seconds)
        else:
            metrics, runs, info = timed_run(workload, rng, args.seconds)
            # half the set-ups before and half after the timed run, so that
            # their median spans the run's machine conditions
            setup_times += measure_setup(SETUP_REPEATS)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    want = {m["name"]: m["unit"] for m in declared}
    have = {name: unit for name, (_, unit) in metrics.items()}
    if want != have:
        diff = sorted(set(want.items()) ^ set(have.items()))
        raise BenchmarkError(f"metrics or units differ from BENCHMARK.json: {diff}")

    info["timeouts"] = sum(run.timeouts for run in runs)
    attempted = sum(len(run.outputs) for run in runs)
    failed = sum(len({i for i, _ in run.errors}) for run in runs)
    for run in runs:
        for i, msg in run.errors[:10]:
            print(f"FAIL call {i}: {msg}", file=sys.stderr)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"# machine {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"# run {json.dumps(info, sort_keys=True)}")
    print(f"# failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} instances)")
    for m in declared:
        print(f"{m['name']:<44} {metrics[m['name']][0]:>16.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own fresh process."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        sys.stdout.flush()
        code = max(code, subprocess.run(cmd, timeout=900).returncode)
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        run_workload(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
