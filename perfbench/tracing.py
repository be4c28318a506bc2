"""In-memory spans around canica's layer boundaries, and the metrics they give.

A ``Tracer`` replaces a layer function by a timing wrapper at the name its
caller looks it up under (``canica.pipeline.order_stability``, not
``canica.subject_level.order_stability``), so the program's own files stay
untouched. Each span records its name, start, end, parent span and thread.
Spans opened on a thread with no open span of its own (the per-subject
pool workers) attach to the innermost open ``pipeline.fit_group`` span.
"""

import threading
import time

FIT_GROUP = "pipeline.fit_group"
SUBJECT_STAGE = ("subject_level.order_stability", "subject_level.svd_reduce")


class Tracer:
    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._fit_groups = []  # ids of the open fit_group spans, innermost last

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs, describe=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        with self._lock:
            span_id = len(self.spans)
            if stack:
                parent = stack[-1]
            else:
                parent = self._fit_groups[-1] if self._fit_groups else None
            span = {"id": span_id, "name": name, "parent": parent,
                    "thread": threading.get_ident(), "start": None, "end": None}
            self.spans.append(span)
            if name == FIT_GROUP:
                self._fit_groups.append(span_id)
        stack.append(span_id)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if name == FIT_GROUP:
                with self._lock:
                    self._fit_groups.remove(span_id)
        if describe is not None:
            span.update(describe(args, kwargs, result))
        return result

    def wrap(self, module, attr, name, describe=None):
        """Replace ``module.attr`` by a wrapper that runs it inside a span.

        ``describe(args, kwargs, result)`` returns extra fields for the span.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, describe)

        setattr(module, attr, traced)


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span, children):
    """A span's duration minus the union of its children's intervals.

    Children may come from several threads and overlap each other; the
    overlap is counted once. Child intervals are clipped to the span.
    """
    lo, hi = span["start"], span["end"]
    clipped = [(max(c["start"], lo), min(c["end"], hi)) for c in children]
    return (hi - lo) - union_length([c for c in clipped if c[1] > c[0]])


def _busy(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def _calls(spans, name):
    return sum(1 for s in spans if s["name"] == name)


def layer_metrics(spans, output_bytes):
    """Per-layer metrics (``<layer>.<name>``) from one traced invocation."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def self_of(name):
        return sum(self_time(s, children.get(s["id"], []))
                   for s in spans if s["name"] == name)

    phase_s, stage_busy = 0.0, 0.0
    for fit in (s for s in spans if s["name"] == FIT_GROUP):
        stage = [c for c in children.get(fit["id"], []) if c["name"] in SUBJECT_STAGE]
        if stage:
            phase_s += max(c["end"] for c in stage) - min(c["start"] for c in stage)
            stage_busy += sum(c["end"] - c["start"] for c in stage)
    # a subject's stage is one (fit_group, subject) pair, whichever of
    # order selection and reduction it ran
    stages = {(s["parent"], s["subject"]) for s in spans if s["name"] in SUBJECT_STAGE}
    ica = [s for s in spans if s["name"] == "source_separation.fastica"]
    maps = [s for s in spans if s["name"] == "thresholding.threshold_map"]
    return {
        "data_model.read_matrix.s": _busy(spans, "data_model.read_matrix"),
        "data_model.read_bytes": sum(s["bytes"] for s in spans
                                     if s["name"] == "data_model.read_matrix"),
        "data_model.standardize.s": _busy(spans, "data_model.standardize"),
        "data_model.write_matrix.s": _busy(spans, "data_model.write_matrix"),
        "subject_level.order_stability.s": _busy(spans, SUBJECT_STAGE[0]),
        "subject_level.order_stability.calls": _calls(spans, SUBJECT_STAGE[0]),
        "subject_level.svd_reduce.s": _busy(spans, SUBJECT_STAGE[1]),
        "subject_level.svd_reduce.calls": _calls(spans, SUBJECT_STAGE[1]),
        "pipeline.fit_group.s": _busy(spans, FIT_GROUP),
        "pipeline.fit_group.self_s": self_of(FIT_GROUP),
        "pipeline.subject_phase_s": phase_s,
        "pipeline.subject_parallelism": stage_busy / phase_s if phase_s else 0.0,
        "group_level.group_cca.s": _busy(spans, "group_level.group_cca"),
        "group_level.noise_threshold.s": _busy(spans, "group_level.noise_threshold"),
        "group_level.bootstrap_draws": sum(
            s["draws"] for s in spans
            if s["name"] == "group_level.bootstrap_max_correlations"),
        "source_separation.fastica.s": _busy(spans, "source_separation.fastica"),
        "source_separation.fastica.iterations": sum(s["iterations"] for s in ica),
        "source_separation.converged_frac": (
            sum(s["converged"] for s in ica) / len(ica) if ica else 0.0),
        "thresholding.s": (_busy(spans, "thresholding.fit_empirical_null")
                           + _busy(spans, "thresholding.threshold_map")),
        "thresholding.voxels_selected": sum(s["selected"] for s in maps),
        "reproducibility.split_half.s": _busy(spans, "reproducibility.split_half"),
        "reproducibility.fit_group.calls": sum(
            1 for s in spans
            if s["name"] == FIT_GROUP and s.get("caller") == "reproducibility"),
        "reproducibility.build_report.s": _busy(spans, "reproducibility.build_report"),
        "reproducibility.subject_reuse_ratio": (
            len({subject for _, subject in stages}) / len(stages) if stages else 0.0),
        "cli.command.s": _busy(spans, "cli.command"),
        "cli.self_s": self_of("cli.command"),
        "cli.output_bytes": output_bytes,
    }
