"""Outside-in span tracing of the singwald layers.

The package source is left untouched: :func:`install` replaces each public
function at the name its caller looks it up (``singwald.cli.sample_wald``,
``singwald.sampler.factor``, ...) with a wrapper that records a span.  Spans
are held in memory by a :class:`Recorder` and written out once, when the run
ends; :func:`layer_metrics` turns them into the per-layer metrics.

A span record is the list ``[id, parent, name, thread, t0, t1, count, key]``.
``parent`` is the span that caused it: the enclosing span on the same
thread, or, for work handed to a thread pool, the span that submitted it.
``count`` is the work the call did (rows, points, draws) and ``key`` an
optional identity used for ratios of useful work.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAW_KINDS = ("scaled-chisq", "mix2", "tetrad", "stable")

# Public check functions of singwald.verify, one metric each.
VERIFY_CHECKS = (
    "verify_monomial_theorem",
    "verify_conjecture_monomial",
    "verify_cauchy",
    "verify_reciprocal",
    "counterexample_negative_weights",
    "moment_invariance_check",
    "verify_trig_lemma",
    "verify_beta_representation",
    "verify_bounds_suite",
    "verify_pathwise_invariance",
    "verify_tetrad_kronecker",
    "verify_tetrad_convergence",
)


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), stack[-1] if stack else None, name,
                threading.get_ident(), self.clock(), None, 0, None]
        stack.append(span[0])
        return span

    def end(self, span: list, count: int = 0, key=None, t1=None) -> None:
        span[5] = self.clock() if t1 is None else t1
        span[6] = count
        span[7] = key
        self._stack().pop()
        self.spans.append(span)

    def adopt(self, parent) -> None:
        """Make ``parent`` (a span id of another thread) the cause of the
        spans this thread opens until :meth:`release`."""
        self._stack().append(parent)

    def release(self) -> None:
        self._stack().pop()

    def add(self, name: str, t0: float, t1: float) -> None:
        """Record a span timed by the caller, under the current span."""
        self.spans.append([next(self._ids), self.current(), name,
                           threading.get_ident(), t0, t1, 0, None])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def wrap(rec: Recorder, name, fn, count=None, key=None):
    """``fn`` recording one span per call.

    ``count`` and ``key`` are callables of the positional arguments, the
    keyword arguments and the result, evaluated after a successful call.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.end(span)
            raise
        t1 = rec.clock()
        rec.end(
            span,
            count(args, kwargs, result) if count else 0,
            key(args, kwargs, result) if key else None,
            t1,
        )
        return result

    return traced


def traced_executor(rec: Recorder, name: str | None):
    """ThreadPoolExecutor whose tasks keep the submitting span as their
    cause and, when ``name`` is given, run inside a span of that name."""

    class TracedExecutor(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = rec.current()

            def task(*a, **k):
                rec.adopt(parent)
                try:
                    if name is None:
                        return fn(*a, **k)
                    span = rec.begin(name)
                    try:
                        return fn(*a, **k)
                    finally:
                        rec.end(span)
                finally:
                    rec.release()

            return super().submit(task, *args, **kwargs)

    return TracedExecutor


class _TimedGenerator:
    """Proxy of a numpy Generator that times and counts normal draws."""

    def __init__(self, rec: Recorder, gen):
        self._rec = rec
        self._gen = gen

    def standard_normal(self, size=None, *args, **kwargs):
        span = self._rec.begin("gaussian.normals")
        try:
            return self._gen.standard_normal(size, *args, **kwargs)
        finally:
            self._rec.end(span, int(np.prod(size)) if size is not None else 1)

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _arg(pos: int, kw: str):
    return lambda args, kwargs, result: args[pos] if len(args) > pos else kwargs[kw]


def _patch(owner, attr: str, make) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def _traced_sample_wald(rec: Recorder, fn):
    """sample_wald recording its proposal and rejection counts."""

    @functools.wraps(fn)
    def traced(f, sigma, cfg, sampler=None, stats_out=None):
        stats = {} if stats_out is None else stats_out
        span = rec.begin("sampler.sample_wald")
        try:
            return fn(f, sigma, cfg, sampler=sampler, stats_out=stats)
        finally:
            rec.end(span, stats.get("proposed", 0), stats.get("rejected", 0))

    return traced


def install(rec: Recorder) -> None:
    """Wrap the public calls of every singwald layer at their call sites."""
    # The package re-exports functions under some module names (classify),
    # so the modules are taken from the import system, not as attributes.
    classify, cli, gaussian, laws, poly, sampler, tetrad, verify = (
        importlib.import_module(f"singwald.{name}")
        for name in ("classify", "cli", "gaussian", "laws", "poly", "sampler", "tetrad", "verify")
    )

    def w(name, count=None, key=None):
        return lambda fn: wrap(rec, name, fn, count, key)

    def timed_generator(fn):
        return functools.wraps(fn)(lambda *a, **k: _TimedGenerator(rec, fn(*a, **k)))

    for mod in (sampler, gaussian, laws, classify, verify):
        _patch(mod, "make_generator", timed_generator)

    # cli: the calls dispatch makes into the other layers.
    _patch(cli, "load_polynomial", w("poly.load"))
    _patch(cli, "load_matrix", w("gaussian.load"))
    _patch(cli, "validate_covariance", w("gaussian.validate"))
    _patch(cli, "sample_wald", lambda fn: _traced_sample_wald(rec, fn))
    _patch(cli, "classify", w("classify.classify"))
    _patch(cli, "load_data_csv", w("tetrad.load_csv"))
    _patch(cli, "wald_tetrad_test", w("tetrad.test"))
    _patch(cli, "run_suite", w("verify.run_suite"))

    # poly
    _patch(poly.HomogeneousPolynomial, "evaluate", w("poly.evaluate", _rows))
    _patch(poly.HomogeneousPolynomial, "gradient", w("poly.gradient", _rows))
    _patch(poly.MonomialForm, "reciprocal_wald", w("poly.reciprocal", _rows))

    # gaussian
    _patch(sampler, "factor", w("gaussian.factor"))
    _patch(gaussian, "factor", w("gaussian.factor"))

    # sampler
    sampler.ThreadPoolExecutor = traced_executor(rec, "sampler.batch")
    ks_points = lambda args, kwargs, result: args[0].n + (
        args[1].n if isinstance(args[1], laws.EmpiricalDistribution) else 0
    )
    _patch(sampler, "two_sample_ks", w("sampler.ks", ks_points))

    # laws
    for cls, kind in (
        (laws.ScaledChiSquare, "scaled-chisq"),
        (laws.TwoChiSquareMix, "mix2"),
        (laws.TetradSingular, "tetrad"),
    ):
        _patch(cls, "cdf", w(f"laws.cdf.{kind}", _points))
    _patch(laws.LimitLaw, "quantile", w("laws.quantile"))
    _patch(laws.LimitLaw, "sample", w("laws.draw", _arg(1, "n")))
    sort = laws.EmpiricalDistribution.__dict__["from_samples"].__func__
    laws.EmpiricalDistribution.from_samples = classmethod(
        wrap(rec, "laws.sort", sort, lambda a, k, r: r.n)
    )

    # tetrad
    _patch(tetrad, "empirical_covariance",
           w("tetrad.cov", key=lambda a, k, r: id(getattr(a[0], "values", a[0]))))
    _patch(tetrad, "asymptotic_v_normal", w("tetrad.v"))
    _patch(tetrad, "chi2_sf", w("laws.sf"))
    _patch(tetrad, "tetrad_singular_cdf", w("laws.cdf.tetrad", lambda a, k, r: int(np.size(a[0]))))

    # verify: its calls into the lower layers, then its own checks.
    _patch(verify, "factor", w("gaussian.factor"))
    _patch(verify, "validate_covariance", w("gaussian.validate"))
    _patch(verify, "sample_wald", lambda fn: _traced_sample_wald(rec, fn))
    _patch(verify, "ks_distance", w("sampler.ks", ks_points))
    _patch(verify, "two_sample_ks", w("sampler.ks", ks_points))
    _patch(verify, "dominance_check", w("sampler.dominance"))
    _patch(verify, "classify", w("classify.classify"))
    _patch(verify, "sample_canonical", w("classify.canonical", _arg(1, "n")))
    _patch(verify, "sample_stable", w("laws.draw", _arg(1, "n")))
    _patch(verify, "stable_cdf", w("laws.cdf.stable", _points))
    verify.ThreadPoolExecutor = traced_executor(rec, None)
    for fn_name in VERIFY_CHECKS:
        _patch(verify, fn_name, w(f"verify.check.{fn_name}"))
    verify._REGISTRY = tuple(
        (claims, tier, wrap(rec, "verify.entry", runner))
        for claims, tier, runner in verify._REGISTRY
    )


# ---------------------------------------------------------------------------
# From spans to metrics.
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    end = -np.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover.

    Children may run on other threads (work a span handed to a pool), so
    their intervals can overlap; the covered part is their union, clipped
    to the parent's interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s[1] is not None:
            children[s[1]].append((s[4], s[5]))
    out = {}
    for s in spans:
        t0, t1 = s[4], s[5]
        clipped = [(max(lo, t0), min(hi, t1)) for lo, hi in children.get(s[0], ())]
        out[s[0]] = (t1 - t0) - _union_length([c for c in clipped if c[1] > c[0]])
    return out


def _outermost(spans) -> list:
    """Spans with no ancestor of the same name (nested re-entry counted once)."""
    by_id = {s[0]: s for s in spans}
    keep = []
    for s in spans:
        p = by_id.get(s[1])
        while p is not None and p[2] != s[2]:
            p = by_id.get(p[1])
        if p is None:
            keep.append(s)
    return keep


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = ["cli.import_s", "cli.self_s", "cli.bytes_out",
             "poly.evaluate_s", "poly.gradient_s", "poly.rows", "poly.load_s",
             "poly.reciprocal_s",
             "gaussian.normals_s", "gaussian.normals", "gaussian.factor_s",
             "gaussian.factor_calls", "gaussian.validate_s", "gaussian.load_s",
             "sampler.sample_wald_s", "sampler.self_s", "sampler.proposed",
             "sampler.rejected", "sampler.ks_s", "sampler.ks_points",
             "sampler.dominance_s", "sampler.thread_speedup"]
    for stem in ("cdf_s", "cdf_points", "cdf_calls"):
        names += [f"laws.{stem}.{kind}" for kind in LAW_KINDS]
    names += ["laws.sf_s", "laws.sf_calls", "laws.quantile_s", "laws.quantile_calls",
              "laws.sort_s", "laws.draw_s",
              "classify.classify_s", "classify.calls", "classify.canonical_s",
              "classify.canonical_draws",
              "tetrad.test_s", "tetrad.tests", "tetrad.cov_s", "tetrad.cov_calls",
              "tetrad.cov_useful_ratio", "tetrad.v_s", "tetrad.load_csv_s"]
    names += [f"verify.check_s.{fn}" for fn in VERIFY_CHECKS]
    names += ["verify.thread_busy_max_s", "verify.thread_busy_min_s",
              "trace.overhead_s", "trace.coverage"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s") or ".check_s." in name or ".cdf_s." in name:
        return "s"
    if name in ("cli.bytes_out",):
        return "bytes"
    if name.endswith(("_ratio", "coverage", "speedup")):
        return "ratio"
    return "count"


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer totals of one traced invocation (no trace.* or cli.bytes_out)."""
    spans = [s for s in spans if s[5] is not None]
    top = _outermost(spans)
    selfs = self_times(spans)
    incl = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for s in top:
        incl[s[2]] += s[5] - s[4]
        calls[s[2]] += 1
        counts[s[2]] += s[6]
    m = {
        "cli.import_s": incl["cli.import"],
        "cli.self_s": sum(selfs[s[0]] for s in spans if s[2] == "cli.run"),
        "poly.evaluate_s": incl["poly.evaluate"],
        "poly.gradient_s": incl["poly.gradient"],
        "poly.rows": counts["poly.evaluate"],
        "poly.load_s": incl["poly.load"],
        "poly.reciprocal_s": incl["poly.reciprocal"],
        "gaussian.normals_s": incl["gaussian.normals"],
        "gaussian.normals": counts["gaussian.normals"],
        "gaussian.factor_s": incl["gaussian.factor"],
        "gaussian.factor_calls": calls["gaussian.factor"],
        "gaussian.validate_s": incl["gaussian.validate"],
        "gaussian.load_s": incl["gaussian.load"],
        "sampler.sample_wald_s": incl["sampler.sample_wald"],
        "sampler.self_s": sum(
            selfs[s[0]] for s in spans
            if s[2] in ("sampler.sample_wald", "sampler.batch")
        ),
        "sampler.proposed": counts["sampler.sample_wald"],
        "sampler.rejected": sum(s[7] or 0 for s in top if s[2] == "sampler.sample_wald"),
        "sampler.ks_s": incl["sampler.ks"],
        "sampler.ks_points": counts["sampler.ks"],
        "sampler.dominance_s": incl["sampler.dominance"],
    }
    for kind in LAW_KINDS:
        m[f"laws.cdf_s.{kind}"] = incl[f"laws.cdf.{kind}"]
        m[f"laws.cdf_points.{kind}"] = counts[f"laws.cdf.{kind}"]
        m[f"laws.cdf_calls.{kind}"] = calls[f"laws.cdf.{kind}"]
    m.update({
        "laws.sf_s": incl["laws.sf"],
        "laws.sf_calls": calls["laws.sf"],
        "laws.quantile_s": incl["laws.quantile"],
        "laws.quantile_calls": calls["laws.quantile"],
        "laws.sort_s": incl["laws.sort"],
        "laws.draw_s": incl["laws.draw"],
        "classify.classify_s": incl["classify.classify"],
        "classify.calls": calls["classify.classify"],
        "classify.canonical_s": incl["classify.canonical"],
        "classify.canonical_draws": counts["classify.canonical"],
        "tetrad.test_s": incl["tetrad.test"],
        "tetrad.tests": calls["tetrad.test"],
        "tetrad.cov_s": incl["tetrad.cov"],
        "tetrad.cov_calls": calls["tetrad.cov"],
        "tetrad.cov_useful_ratio": (
            len({s[7] for s in top if s[2] == "tetrad.cov"}) / calls["tetrad.cov"]
            if calls["tetrad.cov"] else 0.0
        ),
        "tetrad.v_s": incl["tetrad.v"],
        "tetrad.load_csv_s": incl["tetrad.load_csv"],
    })
    for fn in VERIFY_CHECKS:
        m[f"verify.check_s.{fn}"] = incl[f"verify.check.{fn}"]
    busy = defaultdict(float)
    for s in top:
        if s[2] == "verify.entry":
            busy[s[3]] += s[5] - s[4]
    per_thread = sorted(busy.values(), reverse=True)
    if per_thread:
        per_thread += [0.0] * max(0, threads - len(per_thread))
    m["verify.thread_busy_max_s"] = per_thread[0] if per_thread else 0.0
    m["verify.thread_busy_min_s"] = per_thread[-1] if per_thread else 0.0
    return m


def covered_time(spans) -> float:
    """Time the main thread (the one running ``cli.run``) spent in any span."""
    main = {s[3] for s in spans if s[2] == "cli.run"}
    return _union_length([(s[4], s[5]) for s in spans if s[3] in main and s[1] is None])
