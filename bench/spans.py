"""In-memory spans recorded around calls into polyaurn's public functions.

Tracing works from outside the package: `Tracer.install` replaces each
traced function in every polyaurn module namespace that holds it (so both
direct calls and calls between modules go through the wrapper), and
`Tracer.uninstall` puts the originals back.  Untraced runs never install
anything.  Spans made inside worker processes of a pool are not recorded.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

_CURRENT = contextvars.ContextVar("bench_span", default=None)
_REQUEST = contextvars.ContextVar("bench_request", default=None)


@dataclass
class Span:
    id: int
    parent: int | None
    request: int | None
    name: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _arg(args, kw, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kw.get(name, default)


def _exact_pmf_dp(args, kw, out):
    N = _arg(args, kw, 1, "N")
    exact = out.is_exact
    return {
        "mode": "exact" if exact else "float",
        "cells": N * (N + 1) // 2,
        "max_bits": max(_bits(q) for q in out.probs) if exact else 0,
    }


def _product_ratio(args, kw, out):
    return {"bits": _bits(out) if hasattr(out, "denominator") else 0}


def _limit_density(args, kw, out):
    x = _arg(args, kw, 1, "x")
    if hasattr(x, "__len__"):
        return {"points": len(x)}
    return {"points": 1, "x": float(x)}


def _run_blocks(args, kw, out):
    total, block = _arg(args, kw, 1, "total"), _arg(args, kw, 2, "block_size")
    return {"threads": _arg(args, kw, 4, "threads", 1), "blocks": -(-total // block)}


def _white_batch(args, kw, out):
    steps = max(_arg(args, kw, 1, "checkpoints"))
    return {"draws": steps * _arg(args, kw, 2, "n_reps")}


def _counts_batch(args, kw, out):
    return {"draws": _arg(args, kw, 1, "N") * _arg(args, kw, 2, "n_reps")}


def _statistic_batch(args, kw, out):
    p, N, reps = (_arg(args, kw, i, name) for i, name in ((1, "p"), (2, "N"), (3, "n_reps")))
    mode, bar = _arg(args, kw, 6, "mode", "standard"), _arg(args, kw, 7, "bar_beta")
    slots = N + N // p + (mode == "crp") + (bar is not None)
    return {"slot_steps": N * slots * reps}


def _cli_run(args, kw, out):
    return {"exit": out}


# Public functions wrapped in a traced run, by module, with the optional
# function that derives work counts from a call's inputs and output.
TRACED = {
    "urns": {
        "exact_pmf_dp": _exact_pmf_dp,
        "enumerate_histories": None,
        "marginal_pmf": None,
        "simulate_white_batch": _white_batch,
        "simulate_counts_batch": _counts_batch,
    },
    "moments": {
        "product_ratio": _product_ratio,
        "log_product_ratio": None,
        "rising_factorial_moment": None,
        "raw_moments": None,
        "g_factor": None,
        "pmf_via_moments": None,
        "asymptotic_constants": None,
        "limit_moments": None,
        "limit_density": _limit_density,
        "density_cutoff": None,
        "tilted_density_moment": None,
    },
    "specialfn": {"log_gamma": None},
    "laws": {"verify_decomposition": None, "decomposition_for": None},
    "martingale": {"tail_sum_experiment": None, "tail_variance": None},
    "rng": {"run_blocks": _run_blocks},
    "trees": {
        "simulate_statistic_batch": _statistic_batch,
        "descendants_urn": None,
        "root_descendants_urn": None,
        "outdegree_urn": None,
    },
    "stirling": {
        "simulate_block_counts": None,
        "block_count_urn": None,
        "block_count_pmf_from_urn": None,
    },
    "crp": {
        "simulate_table_count_batch": None,
        "table_count_urn": None,
        "table_count_pmf": None,
    },
    "cli": {"run": _cli_run},
}


class Tracer:
    """Collects spans; `install` wraps the TRACED functions of a package."""

    def __init__(self):
        self.spans: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str):
        parent = _CURRENT.get()
        span = Span(len(self.spans), parent.id if parent else None, _REQUEST.get(),
                    name, time.perf_counter())
        self.spans.append(span)
        return span, _CURRENT.set(span)

    def close(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)

    @contextlib.contextmanager
    def request(self, request_id: int, name: str):
        """A root span whose descendants all carry request_id."""
        rtoken = _REQUEST.set(request_id)
        span, token = self.open(name)
        try:
            yield span
        finally:
            self.close(span, token)
            _REQUEST.reset(rtoken)

    def _wrap(self, name: str, fn, describe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kw):
            span, token = tracer.open(name)
            try:
                out = fn(*args, **kw)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer.close(span, token)
            if describe is not None:
                span.attrs.update(describe(args, kw, out))
            return out

        return traced

    def install(self, package: str = "polyaurn") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for short, functions in TRACED.items():
            home = sys.modules[f"{package}.{short}"]
            for fname, describe in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original, describe)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), default=str) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def busy_time(spans: list[Span], name: str, where=None) -> float:
    """Wall time inside calls named `name` (those passing `where`), counting
    a call nested in another call of the same name once."""
    by_id = {s.id: s for s in spans}

    def nested(s: Span) -> bool:
        p = s.parent
        while p is not None:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    return math.fsum(s.duration for s in spans
                     if s.name == name and (where is None or where(s)) and not nested(s))
