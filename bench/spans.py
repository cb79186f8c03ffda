"""Outside-in span recorder for nk6's layers.

`install` replaces the public functions of each nk6 module (and the jet and
tangent-field methods of `PolynomialSphereImmersion`) with wrappers that
record one span per call.  The layers call each other through module
globals, so the wrappers also see internal calls such as
nabla_h -> frame -> jet.  Spans are kept in memory and written when the run
ends; a span's self time is its duration minus the time its child spans
cover, so per-module self times add up to the time spent under the
outermost wrapped call.  That sum cannot show a call that skipped its
wrapper (its time lands in the caller's self time), so `coverage` counts the
calls of each original function's code under sys.setprofile and compares
them with the wrapped calls.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from functools import wraps

import numpy as np

MODULES = ("models", "geometry", "canonical", "simons", "cayley", "cli")

# <module>.<function> -> (where it lives, argument that carries the batch,
# trailing axes of one row of that argument).  The batch argument is None
# where a call does not take a batch of points.
WRAPPED = {
    "models.jet": ("models.PolynomialSphereImmersion", "q", 1),
    "models.tangent_fields": ("models.PolynomialSphereImmersion", "q", 1),
    "geometry.frame": ("geometry", "q", 1),
    "geometry.second_fundamental_form": ("geometry", "q", 1),
    "geometry.nabla_h": ("geometry", "q", 1),
    "geometry.laplace_beltrami": ("geometry", "q", 1),
    "geometry.fd_jet": ("geometry", "q", 1),
    "geometry.curvature_from_sff": ("geometry", "sff", 3),
    "canonical.maximize_theta": ("canonical", "sff_like", 3),
    "canonical.canonical_basis": ("canonical", "sff_like", 3),
    "canonical.closed_forms": ("canonical", None, 0),
    "canonical.commutator_invariant_direct": ("canonical", None, 0),
    "simons.integrate_inequality": ("simons", None, 0),
    "simons.laplacian_identity_check": ("simons", None, 0),
    "simons.j_parallel_defect": ("simons", "nh", 4),
    "simons.t_tensor": ("simons", "nh", 4),
    "simons.f_tensor": ("simons", "sff", 3),
    "cayley.verify_nk_identities": ("cayley", None, 0),
    "cli.main": ("cli", None, 0),
    "cli.analyze_point": ("cli", None, 0),
}


def batch_rows(value, tail):
    """Number of rows in a batch argument: points (..., 3), h (..., 3, 3, 3)
    or nabla h (..., 3, 3, 3, 3), given as an array or a packet holding one."""
    for attr in ("h", "coeffs"):
        value = getattr(value, attr, value)
    shape = np.shape(value)
    return math.prod(shape[: len(shape) - tail])


def theta_gradient(h, u):
    """max |3 (h(u,u) - f(u) u)| over rows: the tangential gradient of the
    cubic form at the maximizer that `maximize_theta` returned."""
    h = getattr(h, "h", h)
    v2 = np.einsum("...kij,...i,...j->...k", h, u, u)
    f = np.sum(v2 * u, axis=-1)
    return float(np.max(np.abs(3.0 * (v2 - f[..., None] * u)), initial=0.0))


class SpanRecorder:
    """Spans of one process: (name, start, end, parent, op, rows, self).

    `parent` is the index of the enclosing span or -1; `op` is the benchmark
    op that was running.  Self time is filled in when a span closes, from
    the durations of the spans it directly encloses.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []      # open span indices
        self._child = []      # time covered by direct children of each open span
        self._theta = []      # (h, u) per maximize_theta call, checked after the run

    def enter(self, name, rows):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, rows, 0.0])
        self._stack.append(len(self.spans) - 1)
        self._child.append(0.0)
        return len(self.spans) - 1

    def leave(self, index, start, end):
        self._stack.pop()
        covered = self._child.pop()
        span = self.spans[index]
        span[1], span[2], span[6] = start, end, (end - start) - covered
        if self._child:
            self._child[-1] += end - start

    def record_theta(self, h, u):
        self._theta.append((h, u))

    def max_theta_gradient(self):
        return max((theta_gradient(h, u) for h, u in self._theta), default=0.0)

    def write(self, path):
        keys = ("name", "start", "end", "parent", "op", "rows", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def summary(self, n_ops, nodes_per_op):
        """Per-layer metrics, each a total over the traced ops divided by
        `n_ops`."""
        calls, self_s, rows = defaultdict(int), defaultdict(float), defaultdict(int)
        for name, _, _, _, _, r, s in self.spans:
            calls[name] += 1
            self_s[name] += s
            rows[name] += r
        n = max(n_ops, 1)
        out = {}
        for name, (_, arg, _) in WRAPPED.items():
            out[f"{name}.calls"] = (calls[name] / n, "count")
            out[f"{name}.self_s"] = (self_s[name] / n, "s")
            if arg is not None:
                out[f"{name}.rows"] = (rows[name] / n, "count")
        for module in MODULES:
            total = sum(v for k, v in self_s.items() if k.startswith(module + "."))
            out[f"{module}.self_s"] = (total / n, "s")
        out["models.jet.rows_per_node"] = (rows["models.jet"] / n / nodes_per_op, "rows/node")
        out["canonical.maximize_theta.max_grad"] = (self.max_theta_gradient(), "1")
        return out


def _owner(nk6, where):
    obj = nk6
    for part in where.split("."):
        obj = getattr(obj, part)
    return obj


def _wrap(recorder, name, fn, arg, tail):
    clock = time.perf_counter
    pos = None
    if arg is not None:
        pos = list(inspect.signature(fn).parameters).index(arg)
    is_theta = name == "canonical.maximize_theta"

    @wraps(fn)
    def wrapper(*args, **kwargs):
        rows = 0
        if pos is not None:
            rows = batch_rows(args[pos] if len(args) > pos else kwargs[arg], tail)
        index = recorder.enter(name, rows)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.leave(index, start, clock())
        if is_theta:
            recorder.record_theta(args[0] if args else kwargs["sff_like"], result[0])
        return result

    return wrapper


def install(nk6, recorder):
    """Wrap every function in WRAPPED; returns a callable that restores them."""
    saved = []
    for name, (where, arg, tail) in WRAPPED.items():
        owner = _owner(nk6, where)
        attr = name.split(".", 1)[1]
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(recorder, name, original, arg, tail))

    def restore():
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    return restore


def coverage(nk6, call):
    """Run `call()` with the wrappers installed and under sys.setprofile.

    Returns {name: (wrapped calls, calls of the original's code)} for every
    function in WRAPPED.  The two counts differ when some caller reached an
    original without going through its wrapper, for example through a name
    bound by `from nk6.geometry import frame` before the wrappers went in.
    """
    codes = {}
    for name, (where, _, _) in WRAPPED.items():
        codes[_owner(nk6, where).__dict__[name.split(".", 1)[1]].__code__] = name
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    recorder = SpanRecorder()
    restore = install(nk6, recorder)
    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
        restore()
    wrapped = Counter(span[0] for span in recorder.spans)
    return {name: (wrapped[name], seen[name]) for name in WRAPPED}
