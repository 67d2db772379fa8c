"""Spans around the calls into each demroots module, for the traced run.

The benchmark wraps a fixed set of public functions, one or more per module
(layer), by replacing every module attribute that refers to them; calls made
inside the library through those names are traced too. A span records name,
start, end, parent and job id and stays in memory; counters are read from the
return values at the same boundary. Nothing is wrapped in the untraced run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

TRACED = {
    "lattice": ("smith_normal_form",),
    "cones": ("build_cone", "dual_monoid"),
    "toric": ("enumerate_demazure_roots", "exponentiate"),
    "rootsystems": ("root_system", "nilradical_highest_weights"),
    "spherical": ("validate", "full_cone", "weight_monoid", "slice_cone", "slice_monoid"),
    "classifier": ("lnd_basis", "classify"),
    "search": ("gstable_report", "find_witness"),
    "datumio": ("parse_datum",),
    "cli": ("main",),
}


def _count(counts, name, result):
    if name == "lattice.smith_normal_form":
        counts["lattice.smith_normal_form.calls"] += 1
    elif name == "cones.build_cone":
        counts["cones.extremal_rays"] += len(result.extremal_rays)
    elif name == "cones.dual_monoid":
        counts["cones.hilbert_basis"] += len(result.hilbert_basis)
    elif name == "toric.enumerate_demazure_roots":
        counts["toric.roots"] += len(result)
    elif name == "toric.exponentiate":
        counts["toric.flow_terms"] += sum(len(c.terms) for c in result.coefficients)
    elif name == "rootsystems.root_system":
        counts["rootsystems.positive_roots"] += len(result.positive_roots)
    elif name == "classifier.lnd_basis":
        counts["classifier.basis_dim"] += len(result)
    elif name == "search.find_witness":
        counts["search.divisors"] += 1
        counts["search.ray_holds"] += result.check.status == "holds"
        counts["search.witness"] += result.status == "witness"
        counts["search.inconclusive"] += result.status == "inconclusive"


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index, job id, outermost)
        self.counts = Counter()
        self.scale = {}        # job id -> factor from wall time to rescaled time
        self._stack = []
        self._depth = Counter()
        self._job = None
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack, depth, counts = self.spans, self._stack, self._depth, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = depth[name] == 0
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except ValueError as exc:
                if name == "cones.dual_monoid" and "too large" in str(exc):
                    counts["cones.dual_monoid.refused"] += 1
                raise
            finally:
                end = clock()
                depth[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, self._job, outer)
            _count(counts, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "demroots" or n.startswith("demroots."))]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"demroots.{layer}")
            if module is None:
                continue
            for fname in names:
                orig = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches.clear()

    def job(self, job_id):
        return _JobSpan(self, job_id)


class _JobSpan:
    """Root span of one job; its self time is benchmark and untraced code."""

    def __init__(self, tracer, job_id):
        self.t, self.job_id = tracer, job_id

    def __enter__(self):
        t = self.t
        t._job = self.job_id
        self.idx = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.idx)
        self.start = time.perf_counter()

    def __exit__(self, *exc):
        t = self.t
        t._stack.pop()
        t.spans[self.idx] = ("bench.job", self.start, time.perf_counter(), -1,
                             self.job_id, True)
        t._job = None
        return False


def aggregate(spans, scale):
    """Busy time per function (outermost calls) and self time per layer and function.

    Durations are multiplied by their job's factor in scale.
    """
    child = defaultdict(float)
    for name, start, end, parent, job, _ in spans:
        if parent >= 0:
            child[parent] += (end - start) * scale[job]
    busy = defaultdict(float)
    self_fn = defaultdict(float)
    self_layer = defaultdict(float)
    total = 0.0
    for i, (name, start, end, parent, job, outer) in enumerate(spans):
        dur = (end - start) * scale[job]
        if parent < 0:
            total += dur
        if outer:
            busy[name] += dur
        own = dur - child[i]
        self_fn[name] += own
        self_layer[name.split(".")[0]] += own
    return total, dict(busy), dict(self_fn), dict(self_layer)
