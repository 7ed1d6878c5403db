"""Spans and counts around calls into specqual's modules, installed from outside.

`instrument(tracer)` replaces module attributes that callers look up
(`qualification.tail_limit`, `rates.parse_expr`, the public functions of
`operators` and `experiments`, ...) with wrappers that record one span per
call, and restores them on exit.  A filter's `_r_log` is a dataclass field,
so it is wrapped by handing out `dataclasses.replace` copies from
`get_filter`.  Nothing inside `src/` is changed.

A span is (name, start, end, parent).  Calls are single-threaded, so child
spans never overlap and a span's self time is its duration minus the sum of
its direct children's durations.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# spans whose calls are also counted under each enclosing span, so that
# e.g. "r_log calls made by check_order_source_pair" is measured directly
NESTED_COUNTS = ("filters.r_log", "limits.tail_limit")

QUALIFICATION_FUNCS = (
    "classify",
    "srho_table",
    "check_weak_pair",
    "check_order_source_pair",
    "estimate_classical_order",
    "check_mp_qualification",
    "construct_weak_qualification",
)


class Tracer:
    """Holds the spans of one operation in memory; `summary` aggregates them."""

    def __init__(self):
        self.reset()

    def reset(self):
        self._spans = []  # [name, start, end, parent index, points]
        self._stack = []

    def wrap(self, name, fn, points=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    points(*args) if points else 0]
            self._stack.append(len(self._spans))
            self._spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def summary(self) -> dict:
        """Flat totals: NAME.calls, NAME.total_s, NAME.self_s, NAME.points
        and OUTER>INNER.calls for the NESTED_COUNTS spans."""
        spans = self._spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, points) in enumerate(spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[i]
            out[f"{name}.points"] += points
            if name in NESTED_COUNTS:
                seen = set()
                while parent >= 0:
                    outer = spans[parent][0]
                    if outer not in seen:
                        seen.add(outer)
                        out[f"{outer}>{name}.calls"] += 1
                    parent = spans[parent][3]
        return dict(out)


def _points(alpha, lam):
    return int(np.broadcast(np.asarray(alpha), np.asarray(lam)).size)


def _public_functions(module):
    return [
        (value, f"{module.__name__.rsplit('.', 1)[-1]}.{name}")
        for name, value in vars(module).items()
        if inspect.isfunction(value) and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every specqual module attribute that names a traced function."""
    from specqual import experiments, expressions, filters, limits, operators, qualification, rates

    targets = [
        (limits.tail_limit, "limits.tail_limit"),
        (expressions.parse_expr, "expressions.parse_expr"),
        (expressions.eval_array, "expressions.eval_array"),
        (rates.certify_order_fn, "rates.certify"),
        (rates.certify_source_fn, "rates.certify"),
    ]
    targets += [(getattr(qualification, n), f"qualification.{n}") for n in QUALIFICATION_FUNCS]
    targets += _public_functions(operators) + _public_functions(experiments)

    get_filter = filters.get_filter

    def traced_get_filter(*args, **kwargs):
        filt = get_filter(*args, **kwargs)
        return dataclasses.replace(
            filt, _r_log=tracer.wrap("filters.r_log", filt._r_log, _points))

    replacements = [(fn, tracer.wrap(name, fn)) for fn, name in targets]
    replacements.append((get_filter, traced_get_filter))

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "specqual" or name.startswith("specqual."))]
    patched = []
    try:
        for original, replacement in replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
