"""Order-of-convergence and source functions with numeric certification.

An *order function* rho(alpha) is admissible when it is positive,
nondecreasing and vanishes at the origin; a *source function* s(lambda)
is admissible when it is positive for lambda > 0, continuous, and
vanishes at 0.  Both conditions are asymptotic, so certification here is
a grid proxy with explicit thresholds:

* positivity and monotonicity are checked on the working grid;
* decay to zero is accepted either by the fast-decay test
  (value at the small end below 1e-3 of the large end, or below 1e-6
  absolute) or, for slowly decaying closed forms such as -1/ln(alpha)
  whose total decay over the whole double range is less than 1000x, by a
  far-tail probe showing the function is still strictly shrinking at
  alpha = 1e-300.

All checks run through the log channel so that expressions like
exp(-1/alpha), which underflow to 0.0 long before the grid bottom, are
still recognized as positive and decaying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import (
    Binary,
    DomainError,
    FuncExpr,
    Unary,
    eval_array,
    eval_expr,
    parse_expr,
    to_string,
    variables_of,
)
from .limits import sat_exp_array

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


def derive_log_expr(expr: FuncExpr) -> FuncExpr | None:
    """Closed form for ln(expr) when the root makes one available.

    exp(u) -> u and u^v -> v*ln(u); these are the forms that underflow
    in practice (exp(-1/alpha), (1-mu*sqrt(alpha))^(1/alpha)).
    """
    if isinstance(expr, Unary) and expr.op == "exp":
        return expr.child
    if isinstance(expr, Binary) and expr.op == "^":
        return Binary("*", expr.right, Unary("ln", expr.left))
    return None


def _log_values(expr: FuncExpr, log_expr: FuncExpr | None, var: str, grid) -> np.ndarray:
    """ln of expr over the grid; -inf where the value underflows to 0."""
    grid = np.asarray(grid, dtype=float)
    if log_expr is not None:
        out = np.asarray(eval_array(log_expr, {var: grid}), dtype=float)
        return np.broadcast_to(out, grid.shape).copy() if out.shape != grid.shape else out
    vals = np.asarray(eval_array(expr, {var: grid}), dtype=float)
    vals = np.broadcast_to(vals, grid.shape).astype(float, copy=True) \
        if vals.shape != grid.shape else vals
    out = np.full_like(vals, -np.inf)
    np.log(vals, out=out, where=vals > 0)
    out[np.isnan(vals) | (vals < 0)] = np.nan
    return out


@dataclass(frozen=True)
class OrderFn:
    """A certified (or rejected) order-of-convergence function of alpha."""

    expr: FuncExpr
    log_expr: FuncExpr | None
    certified: bool
    label: str

    def at(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        out = np.broadcast_to(np.asarray(eval_array(self.expr, {"alpha": alpha})), alpha.shape)
        return float(out) if out.ndim == 0 else out.astype(float)

    def log_at(self, alpha):
        out = _log_values(self.expr, self.log_expr, "alpha", np.asarray(alpha, dtype=float))
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class SourceFn:
    """A certified (or rejected) source function of lambda."""

    expr: FuncExpr
    certified: bool
    label: str

    def at(self, lam):
        lam = np.asarray(lam, dtype=float)
        out = np.broadcast_to(np.asarray(eval_array(self.expr, {"lambda": lam})), lam.shape)
        return float(out) if out.ndim == 0 else out.astype(float)

    def log_at(self, lam):
        out = _log_values(self.expr, None, "lambda", np.asarray(lam, dtype=float))
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class TabulatedOrder:
    """Order function backed by a table, interpolated log-log linearly."""

    alphas: np.ndarray
    log_values: np.ndarray
    certified: bool = True
    label: str = "tabulated"

    def log_at(self, alpha):
        x = np.log(np.asarray(alpha, dtype=float))
        out = _loglog_interp(x, np.log(self.alphas), self.log_values)
        return float(out) if np.ndim(out) == 0 else out

    def at(self, alpha):
        out = sat_exp_array(self.log_at(alpha))
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class TabulatedSource:
    """Source function backed by a table over lambda, log-log interpolated."""

    lambdas: np.ndarray
    log_values: np.ndarray
    certified: bool = True
    label: str = "tabulated"

    def log_at(self, lam):
        x = np.log(np.asarray(lam, dtype=float))
        out = _loglog_interp(x, np.log(self.lambdas), self.log_values)
        return float(out) if np.ndim(out) == 0 else out

    def at(self, lam):
        out = sat_exp_array(self.log_at(lam))
        return float(out) if np.ndim(out) == 0 else out


def _loglog_interp(x, xs, ys):
    """Piecewise-linear interpolation with linear extrapolation at both ends."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.interp(x, xs, ys)
    if len(xs) >= 2:
        lo = x < xs[0]
        hi = x > xs[-1]
        if np.any(lo):
            slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
            out[lo] = ys[0] + slope * (x[lo] - xs[0])
        if np.any(hi):
            slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            out[hi] = ys[-1] + slope * (x[hi] - xs[-1])
    return out[0] if scalar else out


def eval_log(order, alpha):
    """ln(rho(alpha)) through the closed log form when one exists."""
    return order.log_at(alpha)


def _as_expr(expr_or_text) -> FuncExpr:
    if isinstance(expr_or_text, str):
        return parse_expr(expr_or_text)
    return expr_or_text


def certify_order_fn(expr_or_text, grid: np.ndarray | None = None) -> OrderFn:
    """Run the admissibility checks for an order function of alpha."""
    expr = _as_expr(expr_or_text)
    vars_ = variables_of(expr)
    if vars_ - {"alpha"}:
        raise DomainError(f"order function must depend on alpha only, got {sorted(vars_)}")
    grid = default_order_grid() if grid is None else np.asarray(grid, dtype=float)
    log_expr = derive_log_expr(expr)
    label = to_string(expr)

    lv = _log_values(expr, log_expr, "alpha", grid)
    ok = bool(np.all(np.isfinite(lv) | (lv == -np.inf)))  # positive (log > -inf allows underflow? no)
    ok = ok and bool(np.all(lv > -np.inf))                # strictly positive on grid
    ok = ok and bool(np.all(np.diff(lv) >= -1e-12))       # nondecreasing
    if ok:
        ok = _decays_to_zero(expr, log_expr, lv, grid)
    return OrderFn(expr=expr, log_expr=log_expr, certified=ok, label=label)


def _decays_to_zero(expr, log_expr, lv, grid) -> bool:
    top = lv[-1]
    bottom = lv[0]
    if bottom < min(math.log(FAST_DECAY_ABS), top + math.log(FAST_DECAY_REL)):
        return True
    # slow decayers: probe the far tail of the representable range
    probe = _log_values(expr, log_expr, "alpha", np.array([FAR_TAIL_ALPHA, MID_TAIL_ALPHA]))
    far, mid = float(probe[0]), float(probe[1])
    if math.isnan(far) or math.isnan(mid):
        return False
    return far <= mid + math.log(FAR_TAIL_SHRINK) and far <= top + math.log(FAR_TAIL_TOTAL)


def certify_source_fn(expr_or_text, grid: np.ndarray | None = None) -> SourceFn:
    """Run the admissibility checks for a source function of lambda."""
    expr = _as_expr(expr_or_text)
    vars_ = variables_of(expr)
    if vars_ - {"lambda"}:
        raise DomainError(f"source function must depend on lambda only, got {sorted(vars_)}")
    grid = default_source_grid() if grid is None else np.asarray(grid, dtype=float)
    label = to_string(expr)

    vals = np.asarray(eval_array(expr, {"lambda": grid}), dtype=float)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).astype(float, copy=True)
    ok = bool(np.all(np.isfinite(vals)) and np.all(vals > 0))
    if ok:
        ratios = vals[1:] / vals[:-1]
        ok = bool(np.all(ratios < SOURCE_JUMP_FACTOR) and np.all(ratios > 1.0 / SOURCE_JUMP_FACTOR))
    if ok:
        peak = float(np.max(vals))
        if not vals[0] < FAST_DECAY_REL * peak:
            # power laws with small exponents decay too slowly for the grid
            # test; accept them if the far tail still heads to zero
            far = eval_expr(expr, {"lambda": FAR_TAIL_ALPHA})
            ok = math.isfinite(far) and 0 <= far < FAST_DECAY_REL * peak
    return SourceFn(expr=expr, certified=ok, label=label)


@dataclass(frozen=True)
class CompareVerdict:
    """Outcome of a precedes/equivalence comparison near the origin."""

    holds: bool
    constant: float | None = None
    constants: tuple[float, float] | None = None
    witness_alpha: float | None = None

    def __bool__(self) -> bool:
        return self.holds


DIVERGENCE_GROWTH = 100.0


def precedes(rho1, rho2, grid: np.ndarray | None = None) -> CompareVerdict:
    """Does rho1 stay within a constant multiple of rho2 toward alpha -> 0?

    The ratio rho1/rho2 is followed over a wide geometric grid; the
    comparison fails when the ratio at the small end has grown more than
    100x past its grid-median value, and otherwise holds with the fitted
    constant max tail ratio.
    """
    if not (rho1.certified and rho2.certified):
        raise DomainError("precedes requires certified order functions")
    grid = default_compare_grid() if grid is None else np.asarray(grid, dtype=float)
    lr = np.asarray(rho1.log_at(grid), dtype=float) - np.asarray(rho2.log_at(grid), dtype=float)
    if np.any(np.isnan(lr)):
        raise DomainError("comparison grid left the functions' domain")
    median = float(np.median(lr))
    if lr[0] > median + math.log(DIVERGENCE_GROWTH):
        exceed = np.nonzero(lr > median + math.log(DIVERGENCE_GROWTH))[0]
        return CompareVerdict(holds=False, witness_alpha=float(grid[exceed[-1]]))
    tail = lr[: len(lr) // 2]  # small-alpha half of the ascending grid
    c = float(sat_exp_array(np.max(tail)))
    return CompareVerdict(holds=True, constant=c)


def equivalent_at_origin(rho1, rho2, grid: np.ndarray | None = None) -> CompareVerdict:
    """rho1 and rho2 bound each other by constants near the origin."""
    fwd = precedes(rho1, rho2, grid)
    bwd = precedes(rho2, rho1, grid)
    if fwd.holds and bwd.holds:
        return CompareVerdict(holds=True, constants=(fwd.constant, bwd.constant))
    witness = fwd.witness_alpha if not fwd.holds else bwd.witness_alpha
    return CompareVerdict(holds=False, witness_alpha=witness)


def order_fn(text: str, grid: np.ndarray | None = None) -> OrderFn:
    """Parse and certify, raising if the function is not admissible."""
    fn = certify_order_fn(text, grid)
    if not fn.certified:
        raise DomainError(f"'{text}' is not an admissible order function")
    return fn


def source_fn(text: str, grid: np.ndarray | None = None) -> SourceFn:
    fn = certify_source_fn(text, grid)
    if not fn.certified:
        raise DomainError(f"'{text}' is not an admissible source function")
    return fn
