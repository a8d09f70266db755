"""In-process traced run: per-layer self times and exact call counts.

The harness wraps quantcat from outside.  Every public function of each
layer module is replaced, in every quantcat module that imported it by
name, with a wrapper that records a span (name, start, end, parent,
request).  Quantale operations are far too frequent for spans, so they
only count calls.  Self time of a span is its duration minus the time
its child spans cover; a layer metric sums it over the layer's spans.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import statistics
import sys
import time
import types
from array import array
from collections import Counter
from fractions import Fraction
from functools import wraps

LAYERS = ("quantale", "vcat", "dist", "presheaf", "ball", "monadkit",
          "colimit", "lawvere", "selftest", "cli")
QUANTALE_OPS = ("tensor", "hom", "leq", "join2", "meet2")
# (metric suffix, builtin kind, parameter)
RATE_KINDS = (("boolean2", "boolean2", None),
              ("goedel_chain4", "goedel_chain", 4),
              ("lukasiewicz_chain4", "lukasiewicz_chain", 4),
              ("ext_real_plus", "ext_real_plus", None),
              ("unit_interval_product", "unit_interval_product", None))
RATE_OPS_PER_SAMPLE = 10000
RATE_SAMPLES = 3
# private cli helpers that build or print the report; with json.dumps
# they make up `cli.render`
RENDER_HELPERS = ("_fragment", "_render_text", "_jsonable")
# lru caches whose state would let one request warm the next
CACHES = (("presheaf", "presheaf_category"), ("presheaf", "_member_index"),
          ("ball", "ball_category"), ("ball", "_pair_index"))


class Tracer:
    """Spans in flat arrays, plus call counters for quantale operations."""

    def __init__(self):
        self.labels, self._ids = [], {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = []
        self.current_request = -1
        self.calls = Counter()
        self.truthy = Counter()

    def _id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.labels)
            self.labels.append(label)
        return self._ids[label]

    def span(self, label, fn, count_truthy=False):
        nid = self._id(label)
        clock = time.perf_counter
        names, parents, requests = self.name, self.parent, self.request
        starts, ends, stack = self.start, self.end, self._open
        truthy = self.truthy

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.current_request)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count_truthy and result:
                truthy[label] += 1
            return result
        return traced

    def counter(self, label, fn):
        calls = self.calls

        @wraps(fn)
        def counted(*args):
            calls[label] += 1
            return fn(*args)
        return counted

    def summary(self):
        """{label: (calls, self seconds)} over every recorded span."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls, self_s = Counter(), Counter()
        for i in range(n):
            label = self.labels[self.name[i]]
            calls[label] += 1
            self_s[label] += self.end[i] - self.start[i] - child[i]
        return {label: (calls[label], self_s[label]) for label in self.labels}

    def write(self, path):
        """Every span, column by column, as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"labels": self.labels, "name": self.name.tolist(),
                       "parent": self.parent.tolist(), "request": self.request.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist()}, fh)


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def undo(self):
        while self._undo:
            obj, attr, old = self._undo.pop()
            setattr(obj, attr, old)


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == mod.__name__:
            yield attr, obj


def _instrument(qc, tracer, patches):
    """Wrap every layer's public functions wherever they are bound."""
    bound = [m for name, m in sys.modules.items()
             if name == "quantcat" or name.startswith("quantcat.")]
    for layer in LAYERS:
        mod = qc[layer]
        for attr, fn in list(_public_functions(mod)):
            label = f"{layer}.{attr}"
            wrapped = tracer.span(label, fn, count_truthy=label == "presheaf.is_presheaf")
            for m in bound:
                if vars(m).get(attr) is fn:
                    patches.set(m, attr, wrapped)
    Quantale = qc["quantale"].Quantale
    for op in QUANTALE_OPS:
        patches.set(Quantale, op, tracer.counter(f"quantale.{op}", getattr(Quantale, op)))
    cli = qc["cli"]
    for attr in RENDER_HELPERS:
        patches.set(cli, attr, tracer.span("cli.render", getattr(cli, attr)))
    shim = types.SimpleNamespace(**vars(cli.json))
    shim.dumps = tracer.span("cli.render", cli.json.dumps)
    patches.set(cli, "json", shim)


def _time_criteria(qc, patches, tracer=None):
    """Replace the battery's criteria by wrappers; returns their timings."""
    selftest = qc["selftest"]
    seconds = {}
    wrapped = []
    for k, crit in enumerate(selftest.CRITERIA, start=1):
        inner = tracer.span(f"selftest.C{k}", crit) if tracer else crit

        def timed(*args, _k=k, _inner=inner):
            t0 = time.perf_counter()
            try:
                return _inner(*args)
            finally:
                seconds[_k] = seconds.get(_k, 0.0) + time.perf_counter() - t0
        wrapped.append(timed)
    patches.set(selftest, "CRITERIA", tuple(wrapped))
    return seconds


def _clear_caches(caches, hits=None):
    """Empty the caches; first add their hit counts to `hits` by module."""
    for (mod, _), cache in zip(CACHES, caches):
        if hits is not None:
            hits[mod] += cache.cache_info().hits
        cache.cache_clear()


def _drive(qc, caches, requests, tracer=None, hits=None):
    """Run each request through cli.main with cold caches.

    Returns (wall seconds, failure reasons, report bytes).
    """
    main = qc["cli"].main
    failures, report_bytes = [], 0
    t0 = time.perf_counter()
    for i, req in enumerate(requests):
        _clear_caches(caches, hits)
        if tracer:
            tracer.current_request = i
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(req.argv))
            except SystemExit as e:
                code = e.code
            except Exception as e:  # the CLI contract forbids escaping errors
                failures.append(f"{req.name}: {type(e).__name__} escaped cli.main")
                continue
        data = out.getvalue().encode()
        report_bytes += len(data)
        reason = req.check(code, data)
        if reason:
            failures.append(f"{req.name}: {reason}")
    return time.perf_counter() - t0, failures, report_bytes


def _rates(builtin):
    """Operations per second of each quantale op on each builtin kind."""
    out = {}
    for suffix, kind, param in RATE_KINDS:
        q = builtin(kind, param)
        if q.enumerable:
            elems = list(q.carrier)
        else:
            vals = [Fraction(i, 8) for i in range(0, 40, 3)] if kind == "ext_real_plus" \
                else [Fraction(i, 13) for i in range(14)]
            elems = [q.elem(v) for v in vals]
        pairs = [(u, v) for u in elems for v in elems]
        reps = RATE_OPS_PER_SAMPLE // len(pairs) + 1
        work = pairs * reps
        for op in QUANTALE_OPS:
            fn = getattr(q, op)
            samples = []
            for _ in range(RATE_SAMPLES):
                t0 = time.perf_counter()
                for u, v in work:
                    fn(u, v)
                samples.append(len(work) / (time.perf_counter() - t0))
            out[f"quantale.rate.{op}.{suffix}"] = statistics.median(samples)
    return out


def layer_metrics(src, requests, spans_path):
    """Per-layer figures for `requests`, a list of workloads.Request.

    An untraced in-process pass comes first; the traced pass repeats it,
    and their difference is the tracing overhead.  The spans of the
    traced pass are written to `spans_path`.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    qc = {layer: importlib.import_module(f"quantcat.{layer}") for layer in LAYERS}
    import_s = time.perf_counter() - t0
    caches = [getattr(qc[mod], name) for mod, name in CACHES]

    patches = _Patches()
    try:
        criteria_s = _time_criteria(qc, patches)
        plain_wall, _, _ = _drive(qc, caches, requests)
    finally:
        patches.undo()

    tracer = Tracer()
    hits = Counter()
    try:
        _instrument(qc, tracer, patches)
        _time_criteria(qc, patches, tracer)
        traced_wall, failures, report_bytes = _drive(qc, caches, requests, tracer, hits)
        _clear_caches(caches, hits)
    finally:
        patches.undo()

    tracer.write(spans_path)
    m = {}
    for label, (calls, self_s) in tracer.summary().items():
        m[f"{label}.calls"] = calls
        m[f"{label}.self_s"] = self_s
    m.update({f"quantale.{op}.calls": tracer.calls[f"quantale.{op}"] for op in QUANTALE_OPS})
    m.update(_rates(qc["quantale"].builtin))
    candidates = m.get("presheaf.is_presheaf.calls", 0)
    members = tracer.truthy["presheaf.is_presheaf"]
    m.update({
        "presheaf.candidates": candidates,
        "presheaf.members": members,
        "presheaf.useful_ratio": members / candidates if candidates else 0.0,
        "presheaf.cache_hits": hits["presheaf"],
        "ball.cache_hits": hits["ball"],
        "cli.report_bytes": report_bytes,
        "cli.import_s": import_s,
        "trace.overhead_s": traced_wall - plain_wall,
    })
    m.update({f"selftest.C{k}_s": v for k, v in criteria_s.items()})
    return m, failures, len(tracer.name)
