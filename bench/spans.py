"""In-memory spans around the layer calls that ``gradflux.study`` makes.

For the length of a traced run the tracer replaces the names through
which ``study`` calls into the other modules with wrappers that record
a span each: name, start, end, parent span and request id.  A wrapped
call is a child of the innermost open span of its request; the
request's own span is named ``study``, so its self time is study's own
work.  The wrappers also verify every solve (relative residual
recomputed with scipy) and count nnz and repeated matrices; that work
is a ``bench.check`` span of its own, so it is kept out of every
program layer.
"""

import hashlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# name in gradflux.study -> layer span name.  The data layer is timed
# around problem_data_for, the step that assigns a sampled data set to
# the elements (assign_to_elements, a nested span of the same layer) or,
# without one, passes the exact data fields through; so it is measured
# on every workload.
WRAPPED = {
    "unit_square_mesh": "mesh.build",
    "sector_mesh": "mesh.build",
    "problem_data_for": "data_assign.assign",
    "assign_to_elements": "data_assign.assign",
    "assemble": "forms.assemble",
    "apply_dirichlet": "forms.dirichlet",
    "solve_direct": "solver.solve",
    "error_norms": "postproc.error_norms",
    "second_law_audit": "postproc.audit",
}
REQUEST = "study"
CHECK = "bench.check"
TIMED_LAYERS = tuple(dict.fromkeys(WRAPPED.values())) + (REQUEST, CHECK)
RESIDUAL_RTOL = 1e-10


def time_metric(layer):
    """Per-layer metric name of a span name's summed self time."""
    return "study.self_s" if layer == REQUEST else f"{layer}_s"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int        # -1 for a request span
    request: int
    round: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans while installed on a ``study`` module.

    Use as a context manager; the original functions are put back on
    exit.  Raises LookupError when ``study`` no longer calls a layer
    through one of the wrapped names, so no layer is silently lost.
    """

    def __init__(self, study):
        missing = [name for name in WRAPPED
                   if not callable(getattr(study, name, None))]
        if missing:
            raise LookupError("gradflux.study has no callable "
                              + ", ".join(missing) + ": the traced run "
                              "would lose that layer")
        self.study = study
        self.spans = []
        self.failures = []
        self._originals = {}
        self._open = []           # open spans, the request first
        self._round = 0
        self._seen = set()        # matrix digests solved in this round

    def __enter__(self):
        for name, layer in WRAPPED.items():
            fn = getattr(self.study, name)
            self._originals[name] = fn
            wrapper = (self._traced_solve(fn) if layer == "solver.solve"
                       else self._traced(layer, fn))
            setattr(self.study, name, wrapper)
        return self

    def __exit__(self, *exc):
        for name, fn in self._originals.items():
            setattr(self.study, name, fn)
        self._originals.clear()

    def begin_round(self, index):
        self._round = index
        self._seen = set()

    @contextmanager
    def request(self):
        span = Span(len(self.spans), REQUEST, time.perf_counter(), 0.0, -1,
                    len(self.spans), self._round)
        self.spans.append(span)
        self._open = [span]
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open = []

    @contextmanager
    def _span(self, name):
        if not self._open:
            raise RuntimeError(f"{name} called outside a request")
        parent = self._open[-1]
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    parent.id, parent.request, self._round)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def _traced(self, layer, fn):
        def traced(*args, **kwargs):
            with self._span(layer) as span:
                out = fn(*args, **kwargs)
            if layer == "forms.assemble":
                span.attrs["nnz"] = int(out.matrix.nnz)
            return out
        return traced

    def _traced_solve(self, fn):
        def traced(matrix, rhs):
            with self._span("solver.solve") as span:
                x = fn(matrix, rhs)
            with self._span(CHECK):
                span.attrs.update(self._verify(matrix, rhs, x))
            return x
        return traced

    def _verify(self, matrix, rhs, x):
        mat = sp.csr_matrix(matrix)
        rhs = np.asarray(rhs, dtype=float)
        scale = max(float(np.linalg.norm(rhs)), np.finfo(float).tiny)
        residual = float(np.linalg.norm(mat @ x - rhs)) / scale
        if not residual <= RESIDUAL_RTOL:
            self.failures.append(
                f"solve of {mat.shape[0]} unknowns: relative residual "
                f"{residual:.2e} > {RESIDUAL_RTOL:g}")
        digest = hashlib.blake2b(repr(mat.shape).encode())
        for arr in (mat.indptr, mat.indices, mat.data):
            digest.update(np.ascontiguousarray(arr).tobytes())
        key = digest.digest()
        repeat = key in self._seen
        self._seen.add(key)
        return {"residual": residual, "repeat": repeat}


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its child spans cover."""
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.end - span.start
            - covered(children.get(span.id, ())) for span in spans]


def silent_layers(spans):
    """A program layer without a single span: study no longer calls it
    through a wrapped name, and its time would read 0 unnoticed."""
    seen = {span.name for span in spans}
    return [f"layer {layer} recorded no span: study no longer calls it "
            "through a wrapped name"
            for layer in dict.fromkeys(WRAPPED.values()) if layer not in seen]


def closure_failures(spans, selfs):
    """Each request's layer self times must sum to its duration."""
    total = {}
    for span, own in zip(spans, selfs):
        total[span.request] = total.get(span.request, 0.0) + own
    failures = []
    for span in spans:
        if span.name != REQUEST:
            continue
        duration = span.end - span.start
        if abs(total[span.request] - duration) > 1e-9 * max(1.0, duration):
            failures.append(f"request {span.request}: layer self times sum "
                            f"to {total[span.request]:.9f} s, duration "
                            f"{duration:.9f} s")
    return failures


def layer_metrics(spans, selfs):
    """Per-layer figures of one round each, median over the rounds.

    Times are the round's summed self time per layer (s); counts and
    nnz are summed over the round; the repeat share is the share of the
    round's solves whose matrix was solved earlier in the same round.
    """
    rounds = {}
    for span, own in zip(spans, selfs):
        r = rounds.setdefault(span.round, {
            **{time_metric(layer): 0.0 for layer in TIMED_LAYERS},
            "forms.nnz": 0, "solver.calls": 0, "repeats": 0})
        r[time_metric(span.name)] += own
        r["forms.nnz"] += span.attrs.get("nnz", 0)
        if span.name == "solver.solve":
            r["solver.calls"] += 1
            r["repeats"] += span.attrs["repeat"]
    for r in rounds.values():
        repeats = r.pop("repeats")
        r["solver.repeat_matrix_share"] = (repeats / r["solver.calls"]
                                           if r["solver.calls"] else 0.0)
    names = next(iter(rounds.values())).keys() if rounds else ()
    return {name: float(np.median([r[name] for r in rounds.values()]))
            for name in names}
