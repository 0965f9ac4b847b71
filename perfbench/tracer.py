"""Span recorder for the traced run.

``install`` replaces the public functions at each module boundary of
fracstep with wrappers that record one span per call: name, start, end and
the enclosing span. The modules bind each other's functions with
``from .x import y``, so a function is replaced under every name it is
called by. The untraced run calls ``install`` never and runs the program
untouched.

Spans are kept in memory as flat arrays and written out once, when the run
ends. A span's self time is its duration minus the time its child spans
cover; ``Recorder.metrics`` sums self time and calls per span name.
"""

from __future__ import annotations

import array
import functools
import resource
import time

# span name -> [(module name, attribute)]; a dotted attribute is a method
BOUNDARIES = {
    "cli.main": [("cli", "main")],
    "harness.study": [("harness", "run_study")],
    "schemes.solve": [("schemes", "solve")],
    "baselines.solve": [("baselines", "solve_baseline")],
    "cq.weights": [("schemes", "cq_weights"), ("baselines", "cq_weights")],
    "numkit.cg": [("schemes", "cg_solve"), ("baselines", "cg_solve"), ("meshfem", "cg_solve")],
    "numkit.matvec": [("numkit", "SparseMatrix.matvec")],
    "numkit.eig": [("reference", "gen_sym_eig")],
    "mlf": [("reference", "mlf_neg")],
    "reference.discrete": [("reference", "discrete_reference")],
    "reference.exact": [("reference", "modal_coefficients"), ("reference", "exact_solution")],
    "reference.series": [("reference", "ExactSolution.__call__"), ("reference", "ExactSolution.grad")],
    "meshfem.assemble": [("meshfem", "build_mesh"), ("meshfem", "assemble")],
    "meshfem.project": [
        ("meshfem", "load_vector"),
        ("meshfem", "l2_project"),
        ("meshfem", "ritz_project"),
    ],
    "meshfem.norms": [("meshfem", "l2_norm"), ("meshfem", "h1_seminorm"), ("meshfem", "error_norms")],
}


def _grid_steps(args, kwargs):
    """Step count of the TimeGrid among a solver's arguments."""
    for a in list(args) + list(kwargs.values()):
        if hasattr(a, "N") and hasattr(a, "tau"):
            return int(a.N)
    return 0


def _rss_mb():
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2 ** 20


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    def __init__(self):
        self.enabled = False
        self.names = []
        self._name_ids = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = []  # [span index, start, time covered by children]
        self.self_s = {}
        self.calls = {}
        self.counts = {}

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s[name] = 0.0
            self.calls[name] = 0
        return self._name_ids[name]

    def count(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def count_max(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def wrap(self, name, fn, after=None):
        """fn with a span around each call while the recorder is enabled.

        ``after(args, kwargs, result)`` adds the call's counts.
        """
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            stack = self._stack
            self.name_of.append(nid)
            self.parent.append(stack[-1][0] if stack else -1)
            t0 = time.perf_counter()
            self.start.append(t0)
            self.end.append(0.0)
            frame = [idx, t0, 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.end[idx] = t1
                dur = t1 - t0
                self.self_s[name] += dur - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def save(self, path):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def metrics(self):
        """Per-layer metrics: self times in s, call and work counts."""
        s, n, c = self.self_s, self.calls, self.counts

        def get(d, k):
            return d.get(k, 0)

        return {
            "numkit.cg_s": (get(s, "numkit.cg"), "s"),
            "numkit.cg_calls": (get(n, "numkit.cg"), "count"),
            "numkit.cg_iters": (get(c, "cg_iters"), "count"),
            "numkit.cg_iters_max": (get(c, "cg_iters_max"), "count"),
            "numkit.matvec_s": (get(s, "numkit.matvec"), "s"),
            "numkit.matvec_calls": (get(n, "numkit.matvec"), "count"),
            "numkit.eig_s": (get(s, "numkit.eig"), "s"),
            "numkit.eig_calls": (get(n, "numkit.eig"), "count"),
            "mlf.s": (get(s, "mlf"), "s"),
            "mlf.calls": (get(n, "mlf"), "count"),
            "reference.discrete_s": (get(s, "reference.discrete"), "s"),
            "reference.exact_s": (get(s, "reference.exact"), "s"),
            "reference.series_s": (get(s, "reference.series"), "s"),
            "reference.series_points": (get(c, "series_points"), "count"),
            "schemes.solve_s": (get(s, "schemes.solve"), "s"),
            "schemes.steps": (get(c, "schemes_steps"), "count"),
            "schemes.peak_alloc_mb": (get(c, "schemes_peak_mb"), "MiB"),
            "baselines.solve_s": (get(s, "baselines.solve"), "s"),
            "baselines.steps": (get(c, "baselines_steps"), "count"),
            "cq.weights_s": (get(s, "cq.weights"), "s"),
            "cq.weights_calls": (get(n, "cq.weights"), "count"),
            "meshfem.assemble_s": (get(s, "meshfem.assemble"), "s"),
            "meshfem.project_s": (get(s, "meshfem.project"), "s"),
            "meshfem.norms_s": (get(s, "meshfem.norms"), "s"),
            "harness.study_s": (get(s, "harness.study"), "s"),
            "cli.main_s": (get(s, "cli.main"), "s"),
            "trace.spans": (len(self.start), "count"),
        }


def install(rec, modules):
    """Wrap every boundary of BOUNDARIES in ``modules`` (name -> module).

    A boundary whose attribute does not exist is skipped, so its metrics
    read 0.
    """

    def after_cg(args, kwargs, out):
        stats = args[5] if len(args) > 5 else kwargs.get("stats")
        its = stats.get("iterations", 0) if stats else 0
        rec.count("cg_iters", its)
        rec.count_max("cg_iters_max", its)

    def after_series(args, kwargs, out):
        rec.count("series_points", getattr(args[1], "size", 1))

    def after_baseline(args, kwargs, out):
        rec.count("baselines_steps", _grid_steps(args, kwargs))

    extra = {"numkit.cg": after_cg, "reference.series": after_series,
             "baselines.solve": after_baseline}
    for name, targets in BOUNDARIES.items():
        for mod_name, attr in targets:
            owner = modules[mod_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                continue
            if name == "numkit.cg":
                wrapped = _with_stats(rec.wrap(name, fn, after_cg))
            elif name == "schemes.solve":
                wrapped = _measure_rss(rec, rec.wrap(name, fn))
            else:
                wrapped = rec.wrap(name, fn, extra.get(name))
            setattr(owner, leaf, wrapped)


def _with_stats(fn):
    """Pass a stats dict to cg_solve when the caller passed none."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if len(args) < 6 and kwargs.get("stats") is None:
            kwargs["stats"] = {}
        return fn(*args, **kwargs)

    return call


def _measure_rss(rec, fn):
    """Count steps of schemes.solve and the growth of peak RSS across it.

    The growth is counted only when the call raised the process's peak,
    so it is the call's own peak use above what was resident at entry.
    """

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        rss0, peak0 = _rss_mb(), _peak_rss_mb()
        out = fn(*args, **kwargs)
        peak1 = _peak_rss_mb()
        if peak1 > peak0:
            rec.count_max("schemes_peak_mb", peak1 - rss0)
        rec.count("schemes_steps", _grid_steps(args, kwargs))
        return out

    return call
