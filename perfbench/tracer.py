"""Outside-in span tracer for the ggp lab.

The tracer wraps public ggp functions at the module attribute their caller
looks up (`ggp.experiments.convex_hull`, not `ggp.hull.convex_hull`), so no
file of the lab changes and an untraced run executes exactly the lab's own
code. Spans (name, layer, start, end, parent, replication) and the counts
read from return values are kept in memory; `to_json` hands them to the
caller, which writes them out when the run ends.

The layer of a span is the ggp module that defines the wrapped function.
A layer's busy time is the self time of its spans: each span's duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

# Names the experiment runners call, bound in ggp.experiments.
EXPERIMENT_CALLEES = (
    "sample_polytope_input",
    "sample_standardized_max",
    "convex_hull",
    "transform_batch",
    "windowed_festoon",
    "phi_boundary_batch",
    "rescaled_hull_boundary",
    "ball_grid",
    "psi_lambda_envelope",
    "ks_statistic",
    "bootstrap_median_ci",
    "fit_line",
    "summary_stats",
    "validate_params",
    "critical_radius",
)
# Names the CLI calls, bound in ggp.cli: the runners and parameter validation.
CLI_CALLEES = (
    "run_gumbel",
    "run_intensity",
    "run_scaling_limit",
    "run_moments",
    "run_clt",
    "run_tails",
    "run_slln_trend",
    "concentration_check",
    "validate_params",
)
WRAPPED = (
    [("ggp.experiments", name) for name in EXPERIMENT_CALLEES]
    + [("ggp.festoon", "radial_function_batch")]
    + [("ggp.cli", name) for name in CLI_CALLEES]
)
LAYERS = ("cli", "params", "sampling", "hull", "rescale", "festoon", "stats", "experiments")
BOUNDARY_SPANS = ("festoon.phi_boundary_batch", "festoon.rescaled_hull_boundary")
QHULL_REF = "trace.qhull_ref"


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    replication: int
    counts: dict


def _counts(name: str, args, kwargs, out) -> dict:
    """Work counts read from a wrapped call's arguments and return value."""
    if name == "sample_polytope_input":
        return {"points": len(out)}
    if name == "sample_standardized_max":
        n = kwargs.get("n", args[1] if len(args) > 1 else 0)
        size = kwargs.get("size", args[4] if len(args) > 4 else None)
        return {"points": int(n) * (1 if size is None else int(size))}
    if name == "convex_hull":
        return {"vertices": len(out.vertices), "facets": len(out.facets)}
    if name == "transform_batch":
        return {"points": len(args[0])}
    if name == "windowed_festoon":
        fest, kept, _ = out
        return {"kept_points": len(kept), "extreme_points": len(fest.extreme_indices)}
    if name in ("phi_boundary_batch", "rescaled_hull_boundary"):
        return {"boundary_evals": int(np.size(out))}
    if name.startswith("run_") or name == "concentration_check":
        reps = [r for r in out.records if r.replication >= 0]
        return {"reps": len(reps),
                "skipped": sum(1 for r in reps if r.metrics.get("skipped") == 1.0)}
    return {}


class Tracer:
    """Collects spans for calls made while `installed()` is active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.replication = -1

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent,
                               self.replication, {}))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        index = self._open(name, layer)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def _wrap(self, fn, attr: str):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{attr}"
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name, layer) as span:
                out = fn(*args, **kwargs)
            span.counts = _counts(attr, args, kwargs, out)
            if attr == "convex_hull":
                tracer._qhull_reference(args[0], span)
            return out

        return wrapper

    def _qhull_reference(self, cloud, hull_span: Span):
        """Time raw Qhull on the hull's input, as a sibling span outside the hull span."""
        points = np.asarray(getattr(cloud, "points", cloud), dtype=float)
        hull_span.counts["input_points"] = len(points)
        with self.span(QHULL_REF, "trace"):
            try:
                ConvexHull(points)
            except (QhullError, ValueError):
                pass  # the reference is timed even where Qhull rejects the input

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED (and the runners' stream class) until exit."""
        patched = []
        try:
            for module_name, attr in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is not None:
                    patched.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, attr))
            experiments = importlib.import_module("ggp.experiments")
            patched.append((experiments, "RngStream", experiments.RngStream))
            experiments.RngStream = self._stream_class(experiments.RngStream)
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def _stream_class(self, base):
        """RngStream subclass that tags later spans with the stream id (the replication)."""
        tracer = self

        @dataclass(frozen=True)
        class TracedStream(base):
            def __post_init__(self):
                super().__post_init__()
                tracer.replication = self.stream_id

        return TracedStream

    def called(self) -> set:
        return {s.name for s in self.spans}

    def self_times(self) -> list:
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self) -> dict:
        """Per-layer busy time, call counts and work counts for one traced run."""
        own = self.self_times()
        m: dict = {f"{layer}.busy_s": 0.0 for layer in LAYERS}
        m.update({f"{layer}.calls": 0 for layer in LAYERS})
        totals: dict = {}
        for s, t in zip(self.spans, own):
            m[f"{s.layer}.busy_s"] = m.get(f"{s.layer}.busy_s", 0.0) + t
            m[f"{s.layer}.calls"] = m.get(f"{s.layer}.calls", 0) + 1
            for key, value in s.counts.items():
                totals[f"{s.layer}.{key}"] = totals.get(f"{s.layer}.{key}", 0) + value
        hull_in = totals.get("hull.input_points", 0)
        kept = totals.get("festoon.kept_points", 0)
        return {
            "params.busy_s": m["params.busy_s"],
            "params.calls": m["params.calls"],
            "sampling.busy_s": m["sampling.busy_s"],
            "sampling.calls": m["sampling.calls"],
            "sampling.points": totals.get("sampling.points", 0),
            "hull.busy_s": m["hull.busy_s"],
            "hull.calls": m["hull.calls"],
            "hull.input_points": hull_in,
            "hull.vertices": totals.get("hull.vertices", 0),
            "hull.facets": totals.get("hull.facets", 0),
            "hull.vertex_yield": totals.get("hull.vertices", 0) / hull_in if hull_in else 0.0,
            "hull.qhull_ref_s": m.get("trace.busy_s", 0.0),
            "rescale.busy_s": m["rescale.busy_s"],
            "rescale.points": totals.get("rescale.points", 0),
            "festoon.busy_s": m["festoon.busy_s"],
            "festoon.calls": m["festoon.calls"],
            "festoon.kept_points": kept,
            "festoon.extreme_points": totals.get("festoon.extreme_points", 0),
            "festoon.extreme_yield": (totals.get("festoon.extreme_points", 0) / kept
                                      if kept else 0.0),
            "festoon.boundary_s": sum((s.end - s.start for s in self.spans
                                       if s.name in BOUNDARY_SPANS), 0.0),
            "festoon.boundary_evals": totals.get("festoon.boundary_evals", 0),
            "stats.busy_s": m["stats.busy_s"],
            "stats.calls": m["stats.calls"],
            "experiments.self_s": m["experiments.busy_s"],
            "experiments.reps": totals.get("experiments.reps", 0),
            "experiments.skipped": totals.get("experiments.skipped", 0),
            "cli.self_s": m["cli.busy_s"],
        }

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.replication, s.counts] for s in self.spans]
