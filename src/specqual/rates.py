"""Order-of-convergence and source functions with numeric certification.

An *order function* rho(alpha) is admissible when it is positive,
nondecreasing and vanishes at the origin; a *source function* s(lambda)
when it is positive for lambda > 0, continuous, and vanishes at 0.  Both
conditions are asymptotic, so certification is a grid proxy with explicit
thresholds.  Orders and sources share the rules on ln f over the grid:

* positive: ln f is finite at every grid point;
* vanishing at 0: f at the small end is below 1e-6 and below 1e-3 of the
  grid maximum, or, for slow decayers such as -1/ln(alpha) that shrink
  less than 1000x over the whole double range, f at 1e-300 is at most
  0.9 of f at 1e-30 and half the grid maximum.

Orders must be nondecreasing on the grid.  A source is continuous when
no step between neighbours, either of them above 1e-3 of the peak, is
tenfold; below that, steep continuous sources such as exp(-1/lambda)
change faster.  The default source grid steps by exactly 10^(1/16), so
lambda^16 and higher powers read as jumps and are rejected.

Every value comes from the log channel (``expressions.log_eval``), so
2*exp(-1/alpha), which underflows long before the grid bottom, is still
positive and decaying.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .expressions import (
    DomainError,
    FuncExpr,
    eval_array,
    log_eval,
    parse_expr,
    to_string,
    variables_of,
)
from .limits import sat_exp_array, tail_limit, tail_of

# decay-to-zero proxy thresholds
FAST_DECAY_REL = 1e-3
FAST_DECAY_ABS = 1e-6
FAR_TAIL_ALPHA = 1e-300
MID_TAIL_ALPHA = 1e-30
FAR_TAIL_SHRINK = 0.9   # still shrinking decade over decade at the far tail
FAR_TAIL_TOTAL = 0.5    # and at most half the grid-top value
SOURCE_JUMP_FACTOR = 10.0


def default_order_grid() -> np.ndarray:
    return np.geomspace(1e-7, 0.5, 64 * 7)


def default_source_grid() -> np.ndarray:
    return np.geomspace(1e-6, 10.0, 16 * 7 + 1)


def default_compare_grid() -> np.ndarray:
    # wide range: the boundedness-vs-divergence threshold needs many decades
    # to separate power-law ratios
    return np.geomspace(1e-12, 0.25, 16 * 12)


def _log_values(expr: FuncExpr, var: str, grid) -> np.ndarray:
    """ln of expr over the grid: -inf where it is 0, NaN where negative."""
    grid = np.asarray(grid, dtype=float)
    lv, sign = log_eval(expr, {var: grid})
    out = np.where(sign < 0, np.nan, lv)  # a new array: it never aliases the grid
    return out if out.shape == grid.shape else np.broadcast_to(out, grid.shape).astype(float)


def _scalar_or_array(out):
    return float(out) if np.ndim(out) == 0 else out


class _ClosedForm(NamedTuple):
    """A certified (or rejected) closed-form function of ``_var``."""

    expr: FuncExpr
    certified: bool
    label: str

    def at(self, x):
        x = np.asarray(x, dtype=float)
        out = np.broadcast_to(np.asarray(eval_array(self.expr, {self._var: x})), x.shape)
        return _scalar_or_array(out.astype(float))

    def log_at(self, x):
        return _scalar_or_array(_log_values(self.expr, self._var, x))


class OrderFn(_ClosedForm):
    """A certified (or rejected) order-of-convergence function of alpha."""

    __slots__ = ()
    _var, _kind = "alpha", "order"


class SourceFn(_ClosedForm):
    """A certified (or rejected) source function of lambda."""

    __slots__ = ()
    _var, _kind = "lambda", "source"


def _table_log_at(table, x):
    """ln of ``table`` at x, log-log linear in its knots (the first field),
    whose ln is taken on each call: the table reads as it stands."""
    out = _loglog_interp(np.log(np.asarray(x, dtype=float)), np.log(table[0]), table.log_values)
    return _scalar_or_array(out)


def _table_at(table, x):
    return _scalar_or_array(sat_exp_array(_table_log_at(table, x)))


class TabulatedOrder(NamedTuple):
    """Order function backed by a table, interpolated log-log linearly."""

    alphas: np.ndarray
    log_values: np.ndarray
    certified: bool = True
    label: str = "tabulated"

    log_at, at = _table_log_at, _table_at


class TabulatedSource(NamedTuple):
    """Source function backed by a table over lambda, log-log interpolated."""

    lambdas: np.ndarray
    log_values: np.ndarray
    certified: bool = True
    label: str = "tabulated"

    log_at, at = _table_log_at, _table_at


def _loglog_interp(x, xs, ys):
    """Piecewise-linear interpolation with linear extrapolation at both ends."""
    out = np.interp(x, xs, ys)
    if len(xs) >= 2:
        lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(x < xs[0], ys[0] + lo_slope * (x - xs[0]), out)
        out = np.where(x > xs[-1], ys[-1] + hi_slope * (x - xs[-1]), out)
    return out


def _certify(cls, expr_or_text, grid, shape_ok):
    """Parse, check the variable, and certify on ``grid`` by the shared
    rules plus ``shape_ok``."""
    expr = parse_expr(expr_or_text) if isinstance(expr_or_text, str) else expr_or_text
    var, vars_ = cls._var, variables_of(expr)
    if vars_ - {var}:
        raise DomainError(f"{cls._kind} function must depend on {var} only, got {sorted(vars_)}")
    lv = _log_values(expr, var, grid)
    ok = bool(np.all(np.isfinite(lv))) and shape_ok(lv) and _decays_to_zero(expr, var, lv)
    return cls(expr, ok, to_string(expr))


def _decays_to_zero(expr, var, lv) -> bool:
    top = float(np.max(lv))
    if lv[0] < min(math.log(FAST_DECAY_ABS), top + math.log(FAST_DECAY_REL)):
        return True
    # slow decayers: probe the far tail of the representable range
    far, mid = _log_values(expr, var, [FAR_TAIL_ALPHA, MID_TAIL_ALPHA]).tolist()
    if math.isnan(far) or math.isnan(mid):
        return False
    return far <= mid + math.log(FAR_TAIL_SHRINK) and far <= top + math.log(FAR_TAIL_TOTAL)


def _nondecreasing(lv) -> bool:
    return bool(np.all(np.diff(lv) >= -1e-12))


def _no_jump(lv) -> bool:
    high = lv >= np.max(lv) + math.log(FAST_DECAY_REL)
    steps = np.abs(np.diff(lv))[high[1:] | high[:-1]]
    return bool(np.all(steps < math.log(SOURCE_JUMP_FACTOR)))


def certify_order_fn(expr_or_text, grid: np.ndarray | None = None) -> OrderFn:
    """Run the admissibility checks for an order function of alpha."""
    grid = default_order_grid() if grid is None else grid
    return _certify(OrderFn, expr_or_text, grid, _nondecreasing)


def certify_source_fn(expr_or_text, grid: np.ndarray | None = None) -> SourceFn:
    """Run the admissibility checks for a source function of lambda."""
    grid = default_source_grid() if grid is None else grid
    return _certify(SourceFn, expr_or_text, grid, _no_jump)


class CompareVerdict(NamedTuple):
    """Outcome of a precedes/equivalence comparison near the origin."""

    holds: bool
    constant: float | None = None
    constants: tuple[float, float] | None = None
    witness_alpha: float | None = None

    def __bool__(self) -> bool:
        return self.holds


def precedes(rho1, rho2, grid: np.ndarray | None = None) -> CompareVerdict:
    """Does rho1 stay within a constant multiple of rho2 toward alpha -> 0?

    The ratio rho1/rho2 is followed over a wide geometric grid by the
    tail estimator (``limits.tail_limit``), the same rule as every other
    boundedness verdict: the comparison holds when the limsup of the
    ratio reads as bounded, with the constant its tail maximum, and
    otherwise fails with the alpha where the ratio peaks.
    """
    if not (rho1.certified and rho2.certified):
        raise DomainError("precedes requires certified order functions")
    grid = default_compare_grid() if grid is None else np.asarray(grid, dtype=float)
    l1, l2 = rho1.log_at(grid), rho2.log_at(grid)
    # where both logs underflow to -inf the ratio is unobserved, not undefined
    seen = (l1 != -np.inf) | (l2 != -np.inf)
    if not seen.all() and seen.sum() < 8:
        raise DomainError(f"both logs underflow on all but {seen.sum()} comparison points")
    grid, lr = grid[seen], l1[seen] - l2[seen]
    if np.any(np.isnan(lr)):
        raise DomainError("comparison grid left the functions' domain")
    t = tail_of(grid)
    est = tail_limit(t, lr[t.index], "limsup")
    if not est.bounded:
        return CompareVerdict(holds=False, witness_alpha=float(grid[np.argmax(lr)]))
    return CompareVerdict(holds=True, constant=est.tail_max)


def equivalent_at_origin(rho1, rho2, grid: np.ndarray | None = None) -> CompareVerdict:
    """rho1 and rho2 bound each other by constants near the origin."""
    fwd = precedes(rho1, rho2, grid)
    bwd = precedes(rho2, rho1, grid)
    if fwd.holds and bwd.holds:
        return CompareVerdict(holds=True, constants=(fwd.constant, bwd.constant))
    witness = fwd.witness_alpha if not fwd.holds else bwd.witness_alpha
    return CompareVerdict(holds=False, witness_alpha=witness)


def _admissible(fn, text: str):
    if not fn.certified:
        raise DomainError(f"'{text}' is not an admissible {fn._kind} function")
    return fn


def order_fn(text: str, grid: np.ndarray | None = None) -> OrderFn:
    """Parse and certify, raising if the function is not admissible."""
    return _admissible(certify_order_fn(text, grid), text)


def source_fn(text: str, grid: np.ndarray | None = None) -> SourceFn:
    return _admissible(certify_source_fn(text, grid), text)
