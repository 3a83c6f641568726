"""In-memory span tracer around symheat's module boundaries.

Spans are opened from the benchmark's own code: around the calls it makes
itself (spaces, bundles, engine, cli), and through wrappers it installs on
the names the engine and bundle code look up at call time.  `engine`
imports its series and wick helpers by name, so the wrappers replace
`symheat.engine.det_sinhc_pencil` and friends, not the `symheat.series`
originals.  `Matrix.matmul` and `SeriesPoly.__mul__` run thousands of times
per job, so they only add counts and time to the innermost open span; a
`SeriesPoly` product made directly under `engine.solve` (the bracket) gets
a span of its own.

A span's self time is its duration minus the time its children cover,
matmul time included.
"""
from __future__ import annotations

import contextlib
import time
from collections import Counter

_now = time.perf_counter


class Span:
    __slots__ = ("id", "name", "job", "parent", "start", "end", "child_s",
                 "matmul_calls", "matmul_s", "terms")

    def __init__(self, id_, name, job, parent, start):
        self.id, self.name, self.job, self.parent, self.start = id_, name, job, parent, start
        self.end = None
        self.child_s = 0.0
        self.matmul_calls = 0
        self.matmul_s = 0.0
        self.terms = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json(self) -> dict:
        out = {"id": self.id, "name": self.name, "job": self.job, "parent": self.parent,
               "start": self.start, "end": self.end, "self_s": self.self_s,
               "matmul_calls": self.matmul_calls, "matmul_s": self.matmul_s}
        if self.terms is not None:
            out["terms"] = self.terms
        return out


class Tracer:
    """Spans and counts for the jobs run while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts = Counter()
        self.moment_keys: set = set()
        self._stack: list[Span] = []
        self._job = None
        self._model = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, self._job, parent.id if parent else None, _now())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = _now()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.duration

    @contextlib.contextmanager
    def job(self, job_id: int):
        self._job = job_id
        with self.span("job") as s:
            yield s

    def set_model(self, model):
        """The model of the current job; tells the two det pencils apart."""
        self._model = model

    # -- wrappers --------------------------------------------------------

    def _spanned(self, name, fn, count_terms=False):
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if count_terms:
                s.terms = len(out.terms)
            return out
        return wrapper

    def _det_pencil(self, fn):
        def det_sinhc_pencil(mats, *args, **kwargs):
            name = "series.det_F" if mats is self._model.F else "series.det_D"
            with self.span(name) as s:
                out = fn(mats, *args, **kwargs)
            s.terms = len(out.terms)
            return out
        return det_sinhc_pencil

    def _build_rep(self, fn):
        def build_rep(*args, **kwargs):
            self.counts["bundles.build_rep_calls"] += 1
            with self.span("bundles.build_rep"):
                return fn(*args, **kwargs)
        return build_rep

    def _average_monomial(self, fn):
        def average_monomial(indices, w):
            self.counts["wick.monomials"] += 1
            self.moment_keys.add((self._job, tuple(sorted(indices))))
            return fn(indices, w)
        return average_monomial

    def _poly_mul(self, fn):
        def __mul__(a, b):
            self.counts["series.poly_mul_calls"] += 1
            if self._stack[-1].name != "engine.solve":
                return fn(a, b)
            with self.span("series.bracket") as s:
                out = fn(a, b)
            s.terms = len(out.terms)
            return out
        return __mul__

    def _matmul(self, fn):
        def matmul(a, b):
            t0 = _now()
            try:
                return fn(a, b)
            finally:
                dt = _now() - t0
                top = self._stack[-1]
                top.matmul_calls += 1
                top.matmul_s += dt
                top.child_s += dt
        return matmul

    @contextlib.contextmanager
    def installed(self):
        """Wrap symheat's boundaries for the duration of the block."""
        from symheat import bundles, engine, exact, series, wick

        patches = [
            (engine, "cosh_pencil", self._spanned("series.cosh", engine.cosh_pencil, True)),
            (engine, "det_sinhc_pencil", self._det_pencil(engine.det_sinhc_pencil)),
            (engine, "average_poly", self._spanned("wick.average", engine.average_poly)),
            (engine, "matrix_exp_series",
             self._spanned("series.prefactor", engine.matrix_exp_series)),
            (engine, "det_sinhc_numeric",
             self._spanned("series.twist", engine.det_sinhc_numeric)),
            (bundles, "build_rep", self._build_rep(bundles.build_rep)),
            (bundles, "validate_rep", self._spanned("bundles.validate", bundles.validate_rep)),
            (wick, "average_monomial", self._average_monomial(wick.average_monomial)),
            (series.SeriesPoly, "__mul__", self._poly_mul(series.SeriesPoly.__mul__)),
            (exact.Matrix, "matmul", self._matmul(exact.Matrix.matmul)),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)
