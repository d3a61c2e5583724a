"""Span tracing of the program's layers, installed from the benchmark's side.

Each traced public function is replaced by a wrapper that records one span:
name, start, end, parent span and instance id.  Modules bind these names with
``from .x import f``, so the wrapper replaces the binding in every
``quivermoment`` module that holds the original object, and ``uninstall``
puts every binding back.  Spans stay in memory as flat arrays; a layer's self
time is its spans' durations minus the durations of their direct children.
Counts and ratios are read off return values at the same boundaries.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("quiver", "lie", "moment", "kempf_ness", "flow", "stability", "cones", "transport", "cli")

# (layer, attribute path) of every function that gets a span
TRACED = (
    ("quiver", "norm_sq"),
    ("quiver", "apply_structure"),
    ("quiver", "hyperkahler_rotation"),
    ("lie", "act"),
    ("lie", "GroupElement.exp_i"),
    ("lie", "infinitesimal_action"),
    ("lie", "theta_to_center"),
    ("lie", "pairing"),
    ("lie", "polar_decompose"),
    ("lie", "stabilizer_lie_dim"),
    ("moment", "moment_real"),
    ("moment", "moment_pairing_fd_oracle"),
    ("moment", "moment_complex"),
    ("kempf_ness", "solve_moment_equation"),
    ("flow", "h_value"),
    ("flow", "grad_h"),
    ("flow", "flow_integrate"),
    ("stability", "king_stable_test"),
    ("stability", "generated_subrep"),
    ("stability", "subrepresentation_residual"),
    ("stability", "certify_stable_numerical"),
    ("cones", "d_theta"),
    ("cones", "cone_project"),
    ("cones", "torus_weights"),
    ("cones", "hyperkahler_regular_check"),
    ("transport", "transport_real"),
    ("transport", "transport_hyperkahler"),
    ("cli", "main"),
)

SOLVE_STATUSES = ("converged", "diverged", "max_iterations")
VERDICTS = ("stable", "unstable", "inconclusive")
CLASSIFICATIONS = ("analytically_semistable", "higher_stratum", "undecided")
EXIT_CODES = (0, 3)


def _on_solve(tracer, result, args, duration):
    tracer.counts["kempf_ness.iterations"] += result.iterations
    tracer.counts[f"kempf_ness.status.{result.status}"] += 1
    if result.status != "converged":
        tracer.counts["kempf_ness.nonconverged_s"] += duration


def _on_king(tracer, result, args, duration):
    tracer.counts["stability.candidates_tested"] += int(result.diagnostics.get("candidates_tested", 0))
    tracer.counts[f"stability.verdict.{result.verdict}"] += 1


def _on_flow(tracer, result, args, duration):
    tracer.counts[f"flow.classification.{result.classification}"] += 1


def _on_transport(tracer, result, args, duration):
    tracer.counts["transport.subdivisions_used"] += result.subdivisions_used
    tracer.counts["transport.legs"] += len(result.applied_y_log)


def _on_cli(tracer, result, args, duration):
    tracer.counts[f"cli.exit_code.{result}"] += 1
    argv = args[0]
    if "--output" in argv:
        tracer.counts["cli.report_bytes"] += os.path.getsize(argv[argv.index("--output") + 1])


ON_RETURN = {
    "kempf_ness.solve_moment_equation": _on_solve,
    "stability.king_stable_test": _on_king,
    "flow.flow_integrate": _on_flow,
    "transport.transport_real": _on_transport,
    "transport.transport_hyperkahler": _on_transport,
    "cli.main": _on_cli,
}

ROOT_SPAN = "instance"


class Tracer:
    """Spans and counts of one traced run; ``install`` and ``uninstall``
    switch the wrappers on and off without losing what was recorded."""

    def __init__(self):
        self.names = [ROOT_SPAN]
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_instance = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.instance = -1
        self.counts = Counter()
        self.patches = self._patches()  # (owner, attribute, original, wrapped)

    # -- recording ---------------------------------------------------------

    def _open(self, name_id):
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_instance.append(self.instance)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self.span_end[idx] = end
        self.stack.pop()
        return end - self.span_start[idx]

    def run_instance(self, instance_id, fn, *args):
        """Run one benchmark instance under a root span."""
        self.instance = instance_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name, func):
        name_id = len(self.names)
        self.names.append(name)
        on_return = ON_RETURN.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = tracer._close(idx)
            if on_return is not None:
                on_return(tracer, result, args, duration)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def _count_init(self, cls):
        original = cls.__dict__["__init__"]
        counts = self.counts
        key = f"quiver.{cls.__name__}.calls"

        def init(obj, *args, **kwargs):
            counts[key] += 1
            original(obj, *args, **kwargs)

        return cls, "__init__", original, init

    # -- installing ----------------------------------------------------------

    def _patches(self):
        modules = [m for n, m in sys.modules.items() if n == "quivermoment" or n.startswith("quivermoment.")]
        patches = []
        for layer, path in TRACED:
            module = importlib.import_module(f"quivermoment.{layer}")
            name = f"{layer}.{path}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                patches.append((cls, attr, raw, wrapped))
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        patches.append((m, attr, original, wrapped))
        patches.append(self._count_init(importlib.import_module("quivermoment.quiver").Representation))
        return patches

    def install(self):
        for owner, attr, _, wrapped in self.patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)

    # -- deriving ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        names = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_by_name = np.bincount(names, weights=self_time, minlength=k)
        total = float(dur[names == 0].sum())

        out = {}
        for j, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = (int(calls[j]), "count")
            out[f"{name}.self_s"] = (float(self_by_name[j]), "s")
        rep = "quiver.Representation.calls"
        out[rep] = (int(self.counts[rep]), "count")

        c = self.counts
        solve_id = self.names.index("kempf_ness.solve_moment_equation")
        exp_id = self.names.index("lie.GroupElement.exp_i")
        in_solve = _inside(names, parent, solve_id)
        exp_in_solve = int(np.sum((names == exp_id) & in_solve))
        out["kempf_ness.iterations"] = (int(c["kempf_ness.iterations"]), "count")
        out["kempf_ness.exp_i_per_iteration"] = (_ratio(exp_in_solve, c["kempf_ness.iterations"]), "ratio")
        for s in SOLVE_STATUSES:
            out[f"kempf_ness.status.{s}"] = (int(c[f"kempf_ness.status.{s}"]), "count")
        out["kempf_ness.nonconverged_share"] = (_ratio(c["kempf_ness.nonconverged_s"], total), "ratio")

        subrep_id = self.names.index("stability.generated_subrep")
        out["stability.candidates_tested"] = (int(c["stability.candidates_tested"]), "count")
        out["stability.useful_ratio"] = (_ratio(c["stability.candidates_tested"], calls[subrep_id]), "ratio")
        for v in VERDICTS:
            out[f"stability.verdict.{v}"] = (int(c[f"stability.verdict.{v}"]), "count")
        outermost = (names == subrep_id) & ~_inside(names, parent, subrep_id)
        out["stability.generated_subrep_share"] = (_ratio(float(dur[outermost].sum()), total), "ratio")

        out["transport.subdivisions_used"] = (int(c["transport.subdivisions_used"]), "count")
        out["transport.legs"] = (int(c["transport.legs"]), "count")
        out["cli.report_bytes"] = (int(c["cli.report_bytes"]), "bytes")
        for code in EXIT_CODES:
            out[f"cli.exit_code.{code}"] = (int(c[f"cli.exit_code.{code}"]), "count")
        for cls in CLASSIFICATIONS:
            out[f"flow.classification.{cls}"] = (int(c[f"flow.classification.{cls}"]), "count")

        for layer in LAYERS:
            ids = [j for j, n in enumerate(self.names) if n.startswith(layer + ".")]
            out[f"layer.{layer}.share"] = (_ratio(float(self_by_name[ids].sum()), total), "ratio")
        out["trace.spans"] = (int(len(dur)), "count")
        out["trace.traced_s"] = (total, "s")
        return out


def _inside(names, parent, target):
    """Flag per span: some proper ancestor is a span of ``target``.

    Parents precede their children in recording order, so one forward pass
    settles every flag.
    """
    hit = (names == target).tolist()
    flag = [False] * len(hit)
    for i, p in enumerate(parent.tolist()):
        if p >= 0:
            flag[i] = hit[p] or flag[p]
    return np.array(flag, dtype=bool)


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0
