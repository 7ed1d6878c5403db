"""Numerical liminf/limsup estimation on geometric parameter grids.

The estimators in this package all reduce to the same question: what is
the liminf (or limsup) of some positive statistic q(alpha) as
alpha -> 0+, observed only on a finite geometric grid?

Raw tail extrema are not enough.  Three behaviors must be told apart:

* stabilized   -- the tail extremum settles (Tikhonov-type ratios, and
  oscillatory families whose sin-peaks are densely sampled);
* drifting     -- the extremum still moves like L + c/x with x = -ln(alpha)
  (logarithmic filters approach their limits at a 1/|ln alpha| rate, far
  too slowly for any representable grid to finish the journey), which a
  two-point Richardson step in x inverts exactly;
* divergent    -- the extremum grows block over block without settling;
  power-law divergences reach only ~1e6 on representable grids, so the
  1e12 cap alone cannot flag them and the trend has to.

The tail (small-alpha half of the grid in log scale) is split into
consecutive geometric blocks; block extrema and their locations drive
the trend classification, the Richardson correction, and the
stabilization verdict (the estimate must move less than 5% when the
window is advanced by one block).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

CAP = 1e12        # statistics beyond this count as +infinity
FLOOR = 1e-12     # statistics below this count as zero
DRIFT_TOL = 0.005  # relative block-to-block movement that triggers correction
STAB_TOL = 0.05    # max relative movement for a "stabilized" verdict
N_BLOCKS = 4
TAIL_FRACTION = 0.5
LOG_SATURATION = 709.0  # exp overflow edge for IEEE doubles


@dataclass(frozen=True)
class LimitEstimate:
    """A numerically estimated liminf or limsup with tail diagnostics."""

    kind: str             # "liminf" | "limsup"
    value: float          # may be math.inf
    tail_min: float
    tail_max: float
    stabilized: bool
    grid_meta: dict = field(default_factory=dict)

    @property
    def trend(self) -> str:
        return self.grid_meta.get("trend", "flat")

    @property
    def bounded(self) -> bool:
        """Usable as a finite bound: not divergent, not growing uncontrolled."""
        return (
            math.isfinite(self.value)
            and self.value < CAP
            and (self.stabilized or self.trend != "up")
        )

    @property
    def positive(self) -> bool:
        """Bounded away from zero: not vanishing in the limit."""
        return self.value > FLOOR and (self.stabilized or self.trend != "down")


def sat_exp(logv: float) -> float:
    """math.exp of a scalar log value, saturating to +inf past the overflow edge."""
    return math.inf if logv > LOG_SATURATION else math.exp(logv)


def sat_exp_array(logv) -> np.ndarray:
    """np.exp of log values, saturating to +inf past the overflow edge."""
    logv = np.asarray(logv, dtype=float)
    out = np.empty_like(logv)
    hi = logv > LOG_SATURATION
    with np.errstate(under="ignore"):
        np.exp(logv, out=out, where=~hi)
    out[hi] = np.inf
    return out


def _block_extrema(t_xs, t_lv, edges, pick_min: bool):
    """Extremum of each row of t_lv per block, with the x where it is attained.

    ``t_xs`` is ascending, so each closed block [lo, hi] is a contiguous
    column slice.  Returns two (rows, blocks) arrays; an empty block holds
    nan and the block midpoint.
    """
    rows = np.arange(t_lv.shape[0])
    ms = np.full((t_lv.shape[0], len(edges) - 1), math.nan)
    xe = np.empty_like(ms)
    for j, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        i0 = np.searchsorted(t_xs, lo, "left")
        i1 = np.searchsorted(t_xs, hi, "right")
        if i0 >= i1:
            xe[:, j] = 0.5 * (lo + hi)
            continue
        seg = t_lv[:, i0:i1]
        idx = np.argmin(seg, axis=1) if pick_min else np.argmax(seg, axis=1)
        ms[:, j] = seg[rows, idx]
        xe[:, j] = t_xs[i0 + idx]
    return ms, xe


def _tail_edge(xs):
    """The x at which the tail of the ascending grid ``xs`` begins."""
    return xs[0] + TAIL_FRACTION * (xs[-1] - xs[0])


def tail_start(xs) -> int:
    """Index of the first column of the ascending grid ``xs`` that
    ``tail_limit`` reads; the columns before it are never read, so a
    caller may leave them unevaluated."""
    return int(np.searchsorted(xs, _tail_edge(xs), "left"))


def _richardson(x1, m1, x2, m2):
    """Limit of the model m(x) = L + c/x through two points."""
    return (m2 * x2 - m1 * x1) / (x2 - x1)


def tail_limit(
    xs: np.ndarray,
    log_values: np.ndarray,
    kind: str,
    *,
    cap: float = CAP,
    n_blocks: int = N_BLOCKS,
    meta: dict | list | None = None,
) -> LimitEstimate | list[LimitEstimate]:
    """Estimate lim inf/sup of exp(log_values) as x = -ln(alpha) -> +inf.

    ``xs`` must be ascending (toward alpha -> 0); ``log_values`` holds
    ln(q) and may contain +-inf (q saturated or exactly zero).  Only the
    columns from ``tail_start(xs)`` on are read: the head columns before
    it are never read and may hold anything, NaN included.

    ``log_values`` may also be 2-d, one row per sequence on the shared
    ``xs`` (rows x points); then the result is a list with one estimate
    per row, and ``meta`` may be a list with one dict per row.  The block
    extrema of all rows are found at once; each row's estimate is the one
    a 1-d call on that row returns.
    """
    if kind not in ("liminf", "limsup"):
        raise ValueError(f"kind must be liminf or limsup, got {kind!r}")
    xs = np.asarray(xs, dtype=float)
    lv = np.asarray(log_values, dtype=float)
    if xs.ndim != 1 or xs.size < 8 or lv.ndim not in (1, 2) or lv.shape[-1] != xs.size:
        raise ValueError("need a 1-d xs with at least 8 points and log_values "
                         "of matching width (1-d, or 2-d with one row per sequence)")
    rows = lv.reshape(-1, xs.size)
    metas = meta if isinstance(meta, list) else [meta] * rows.shape[0]
    if len(metas) != rows.shape[0]:
        raise ValueError("meta needs one dict per row of log_values")

    start = tail_start(xs)
    t_xs, t_lv = xs[start:], rows[:, start:]

    edges = np.linspace(_tail_edge(xs), xs[-1], n_blocks + 1)
    ms_log, xe = _block_extrema(t_xs, t_lv, edges, kind == "liminf")
    raw_min = np.min(t_lv, axis=1)
    raw_max = np.max(t_lv, axis=1)

    grid = {
        "estimator": "block-trend",
        "x_range": (float(xs[0]), float(xs[-1])),
        "alpha_range": (float(math.exp(-xs[-1])), float(math.exp(-xs[0]))),
        "points": int(xs.size),
        "tail_points": int(t_xs.size),
    }
    out = []
    for i in range(rows.shape[0]):
        ms = [sat_exp(v) for v in ms_log[i].tolist()]
        row_meta = {**(metas[i] or {}), **grid,
                    "blocks": [None if math.isnan(m) else m for m in ms],
                    "extrapolated": False}
        out.append(_row_limit(kind, ms, xe[i].tolist(), sat_exp(float(raw_min[i])),
                              sat_exp(float(raw_max[i])), row_meta, cap))
    return out if lv.ndim == 2 else out[0]


def _row_limit(kind, ms, xe, raw_min, raw_max, meta, cap):
    """The trend verdict of one sequence from its block extrema ``ms``
    (attained at ``xe``) and its raw tail extrema."""
    m2, m3, m4 = ms[-3], ms[-2], ms[-1]
    x2, x3, x4 = xe[-3], xe[-2], xe[-1]

    # literal divergence: the statistic itself exceeded the cap (or was
    # +inf from a zero residual) throughout the late blocks
    if all(m >= cap for m in (m3, m4)):
        meta["trend"] = "up"
        return LimitEstimate(kind, math.inf, raw_min, raw_max, True, meta)

    scale = max(abs(m3), abs(m4), 1e-300)
    d43 = (m4 - m3) / scale

    monotone_down = m4 < m3 < m2
    monotone_up = m4 > m3 > m2

    if math.isinf(m2) or math.isinf(m3) or math.isinf(m4):
        # mixed finite/infinite late blocks: unstable divergence
        meta["trend"] = "up"
        return LimitEstimate(kind, math.inf, raw_min, raw_max, False, meta)

    if x4 - x3 < 1e-9 or x3 - x2 < 1e-9:
        # degenerate extremum placement; fall back to the flat verdict
        monotone_down = monotone_up = False

    delta4 = m4 - m3
    delta3 = m3 - m2
    # geometric approach (exponential in x): increments shrink by more
    # than half per block, and the Aitken delta-squared limit applies;
    # a 1/x drift keeps the increment ratio near (x2/x4) ~ 0.75
    geometric = abs(delta4) < 0.5 * abs(delta3)

    if monotone_down and -d43 > DRIFT_TOL:
        meta.update(trend="down", extrapolated=True)
        if geometric:
            lhat = m4 - delta4 * delta4 / (delta4 - delta3)
            value = max(lhat, 0.0)
            stab = abs(value - m4) <= STAB_TOL * max(abs(value), FLOOR)
        else:
            # invert the 1/x approach
            value = max(_richardson(x3, m3, x4, m4), 0.0)
            lprev = max(_richardson(x2, m2, x3, m3), 0.0)
            stab = abs(value - lprev) <= STAB_TOL * max(abs(value), FLOOR)
        return LimitEstimate(kind, value, min(raw_min, value), raw_max, stab, meta)

    if monotone_up and d43 > DRIFT_TOL:
        if geometric:
            # saturating from below toward a finite limit
            lhat = m4 - delta4 * delta4 / (delta4 - delta3)
            meta.update(trend="saturating", extrapolated=True)
            if math.isfinite(lhat) and lhat < cap:
                stab = abs(lhat - m4) <= STAB_TOL * max(abs(lhat), FLOOR)
                return LimitEstimate(kind, lhat, raw_min,
                                     max(raw_max, lhat), stab, meta)
            return LimitEstimate(kind, m4, raw_min, raw_max, False, meta)
        lhat = _richardson(x3, m3, x4, m4)
        lprev = _richardson(x2, m2, x3, m3)
        meta["trend"] = "up"
        if (
            math.isfinite(lhat)
            and math.isfinite(lprev)
            and abs(lhat - lprev) <= STAB_TOL * max(abs(lhat), FLOOR)
            and lhat < cap
        ):
            # coherent slow convergence from below
            meta["extrapolated"] = True
            return LimitEstimate(kind, lhat, raw_min, max(raw_max, lhat), True, meta)
        # sustained growth with no coherent limit: treat as divergent
        return LimitEstimate(kind, m4, raw_min, raw_max, False, meta)

    # flat (or noisy) blocks: report the late-window extremum
    value = min(m3, m4) if kind == "liminf" else max(m3, m4)
    stab = abs(m4 - m3) <= STAB_TOL * max(abs(m3), abs(m4), FLOOR)
    meta["trend"] = "flat"
    return LimitEstimate(kind, value, raw_min, raw_max, stab, meta)
