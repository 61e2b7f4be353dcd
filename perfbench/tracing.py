"""Spans and counts around named boxforms entry points, installed from outside.

The tracer replaces each named function, in every ``boxforms`` module
namespace that binds it, by a wrapper; names brought in with ``from ...
import`` are caught because the replacement goes by identity.  For a
class, its ``__init__`` is wrapped.  Spans (name, start, end, parent) are
kept in memory and written out when the run ends.  A ``_s`` metric is a
self time: the span's duration minus the time of its child spans.

A name that no longer exists in the package is skipped, and its metrics
then read 0.
"""

import functools
import math
import sys
import time
from collections import defaultdict


def _count_reports(tracer, args, kwargs, result):
    tracer.counts["verify.reports"] += len(result)


def _count_adjoint_pairing(tracer, args, kwargs, result):
    tracer.counts["forms.adjoint_pairings"] += 1


def _count_projector(tracer, args, kwargs, result):
    tracer.counts["projection.local_projectors"] += 1


def _count_rref(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    tracer.counts["exactla.rref_calls"] += 1
    tracer.counts["exactla.rref_entries"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _count_constraints(tracer, args, kwargs, result):
    tracer.counts["whitney.constraint_rows"] += result.n_rows
    tracer.counts["whitney.broken_cols"] += result.ncols


def _count_kernel(tracer, args, kwargs, result):
    tracer.counts["whitney.kernel_dim"] += result.dim


def _count_generators(tracer, args, kwargs, result):
    tracer.counts["whitney.generators"] += result.dim


def _count_prune(tracer, args, kwargs, result):
    space = args[0] if args else kwargs["space"]
    tracer.counts["whitney.prune_inputs"] += len(space.vectors)
    tracer.counts["whitney.generators_kept"] += len(result[1])


def _gram_size(tracer, args, kwargs, result):
    gram = result.G
    if hasattr(gram, "indptr"):
        nbytes = gram.data.nbytes + gram.indices.nbytes + gram.indptr.nbytes
    else:
        nbytes = gram.nbytes
    tracer.peaks["solver.gram_mb"] = max(tracer.peaks.get("solver.gram_mb", 0.0), nbytes / 1e6)


def _count_cg(tracer, args, kwargs, result):
    x, history = result
    tracer.counts["solver.cg_calls"] += 1
    # an immediate return (zero right-hand side) leaves x = 0 and one history entry
    tracer.counts["solver.cg_iterations"] += len(history) if x.any() else 0


#: (module, attribute, self-time metric, result hook)
TIMED = (
    ("boxforms.fields", "manufactured", "fields.manufactured_s", None),
    ("boxforms.cli", "main", "cli.main_s", None),
    ("boxforms.verify", "operator_law_suite", "verify.operator_law_suite_s", _count_reports),
    ("boxforms.verify", "local_space_suite", "verify.local_space_suite_s", _count_reports),
    ("boxforms.verify", "projection_suite", "verify.projection_suite_s", _count_reports),
    ("boxforms.verify", "mesh_suite", "verify.mesh_suite_s", _count_reports),
    ("boxforms.forms", "adjoint_pairing", "forms.adjoint_pairing_s", _count_adjoint_pairing),
    ("boxforms.projection", "LocalProjector", "projection.local_projector_s", _count_projector),
    ("boxforms.global_spaces", "build_space", "global_spaces.build_space_s", None),
    ("boxforms.exactla", "rref", "exactla.rref_s", _count_rref),
    ("boxforms.whitney", "PiecewiseWhitney", "whitney.piecewise_s", None),
    ("boxforms.whitney", "build_constraints", "whitney.constraints_s", _count_constraints),
    ("boxforms.whitney", "kernel_space", "whitney.kernel_s", _count_kernel),
    ("boxforms.whitney", "interpolated_generating_set", "whitney.generators_s",
     _count_generators),
    ("boxforms.whitney", "prune_vectors", "whitney.prune_s", _count_prune),
    ("boxforms.solver", "assemble", "solver.assemble_s", _gram_size),
    ("boxforms.solver", "conjugate_gradient", "solver.cg_s", _count_cg),
    ("boxforms.exactla", "solve", "solver.exact_solve_s", None),
    ("boxforms.solver", "broken_error", "solver.broken_error_s", None),
    ("boxforms.solver", "consistency_residual", "solver.consistency_s", None),
)

#: (module, attribute, call-count metric); too frequent for spans
COUNTED = (
    ("boxforms.forms", "Polynomial", "forms.polynomials"),
    ("boxforms.quadrature", "polyform_values", "quadrature.polyform_values_calls"),
)

COUNT_METRICS = (
    "verify.reports", "forms.polynomials", "forms.adjoint_pairings",
    "projection.local_projectors", "exactla.rref_calls", "exactla.rref_entries",
    "whitney.constraint_rows", "whitney.broken_cols", "whitney.kernel_dim",
    "whitney.generators", "whitney.generators_kept", "solver.cg_calls",
    "solver.cg_iterations", "quadrature.polyform_values_calls",
)


class Tracer:
    """Span stack, per-metric self times and counters for one process."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []                      # [name, start, end, parent index]
        self._stack = []                     # [span index, child time]
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.peaks = {}

    def timed(self, metric, fn, hook=None):
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            index = len(spans)
            spans.append([metric, start - self.origin, None, stack[-1][0] if stack else None])
            stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                _, child = stack.pop()
                spans[index][2] = end - self.origin
                self.self_time[metric] += (end - start) - child
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def counted(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def snapshot(self):
        """Accumulated self times, counts and peaks, as one flat dict."""
        out = dict(self.self_time)
        out.update(self.counts)
        out.update(self.peaks)
        return out


def _rebind(target, wrapper):
    """Replace ``target`` by ``wrapper`` wherever a boxforms module binds it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "boxforms" or name.startswith("boxforms.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is target:
                setattr(module, attr, wrapper)


def install(tracer):
    """Wrap every named entry point that exists; return the names skipped."""
    skipped = []
    plan = [(mod, attr, tracer.timed, (metric, hook)) for mod, attr, metric, hook in TIMED]
    plan += [(mod, attr, tracer.counted, (metric,)) for mod, attr, metric in COUNTED]
    for module_name, attr, make, extra in plan:
        target = getattr(sys.modules.get(module_name), attr, None)
        if target is None:
            skipped.append(f"{module_name}.{attr}")
        elif isinstance(target, type):
            target.__init__ = make(extra[0], target.__init__, *extra[1:])
        else:
            _rebind(target, make(extra[0], target, *extra[1:]))
    return skipped


def per_layer(setup, run, rounds, import_s):
    """Per-layer metrics for one set-up plus one average round.

    ``setup`` and ``run`` are snapshots taken before and after the rounds;
    counts of a round repeat exactly, so their per-round share is whole.
    """
    names = [metric for _, _, metric, _ in TIMED] + list(COUNT_METRICS)
    out = {"boxforms.import_s": {"value": import_s, "unit": "s"}}
    for name in names:
        before = setup.get(name, 0)
        value = before + (run.get(name, 0) - before) / rounds
        if name in COUNT_METRICS:
            value = round(value) if math.isclose(value, round(value)) else value
        out[name] = {"value": value, "unit": "count" if name in COUNT_METRICS else "s"}
    out["solver.gram_mb"] = {"value": run.get("solver.gram_mb", 0.0), "unit": "MB"}
    inputs = run.get("whitney.prune_inputs", 0)
    out["whitney.kept_ratio"] = {
        "value": run.get("whitney.generators_kept", 0) / inputs if inputs else 0.0,
        "unit": "ratio"}
    return out
