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

``tail_of`` turns an alpha grid, in any order, into its ``Tail``: the
small-alpha half of the grid in log scale, as the alphas, their
positions in the grid and x = -ln(alpha), ascending in x.  A caller
evaluates its statistic on ``Tail.alphas`` only and hands the values to
``tail_limit``.  The tail is split into consecutive geometric blocks;
block extrema and their locations drive the trend classification, the
Richardson correction, and the stabilization verdict (the estimate must
move less than 5% when the window is advanced by one block).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

CAP = 1e12        # statistics beyond this count as +infinity
FLOOR = 1e-12     # statistics below this count as zero
DRIFT_TOL = 0.005  # relative block-to-block movement that triggers correction
STAB_TOL = 0.05    # max relative movement for a "stabilized" verdict
N_BLOCKS = 4
TAIL_FRACTION = 0.5
LOG_SATURATION = 709.0  # exp overflow edge for IEEE doubles


class LimitEstimate(NamedTuple):
    """A numerically estimated liminf or limsup with tail diagnostics."""

    kind: str             # "liminf" | "limsup"
    value: float          # may be math.inf
    tail_min: float
    tail_max: float
    stabilized: bool
    grid_meta: dict       # trend, extrapolated, blocks: see ``tail_limit``

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


def sat_exp_column(logv: np.ndarray) -> list[float]:
    """sat_exp of each value of a 1-d array: libm's exp, not np.exp's SIMD one."""
    return list(map(math.exp, np.where(logv > LOG_SATURATION, math.inf, logv).tolist()))


def sat_exp_array(logv) -> np.ndarray:
    """np.exp of log values, saturating to +inf past the overflow edge."""
    logv = np.asarray(logv, dtype=float)
    out = np.empty_like(logv)
    hi = logv > LOG_SATURATION
    with np.errstate(under="ignore"):
        np.exp(logv, out=out, where=~hi)
    out[hi] = np.inf
    return out


class Tail(NamedTuple):
    """The points of an alpha grid that ``tail_limit`` reads."""

    alphas: np.ndarray  # the tail alphas, ascending in x (descending alpha)
    index: np.ndarray   # their positions in the grid
    xs: np.ndarray      # -ln of those alphas, ascending
    edge: float         # the x where the tail begins


def tail_of(alpha_grid) -> Tail:
    """The ``Tail`` of a 1-d grid of at least 8 alphas, in any order: the
    points from x = -ln(alpha) at ``TAIL_FRACTION`` of the way from the
    grid's smallest x to its largest on."""
    alphas = np.asarray(alpha_grid, dtype=float)
    if alphas.ndim != 1 or alphas.size < 8:
        raise ValueError("need a 1-d alpha grid with at least 8 points")
    xs = -np.log(alphas)
    order = np.argsort(xs)
    xs = xs[order]
    edge = xs[0] + TAIL_FRACTION * (xs[-1] - xs[0])
    k = int(np.searchsorted(xs, edge, "left"))
    return Tail(alphas[order[k:]], order[k:], xs[k:], edge)


def _richardson(x1, m1, x2, m2):
    """Limit of the model m(x) = L + c/x through two points."""
    return (m2 * x2 - m1 * x1) / (x2 - x1)


def tail_limit(
    tail: Tail,
    log_values: np.ndarray,
    kind: str,
    *,
    cap: float = CAP,
    n_blocks: int = N_BLOCKS,
) -> LimitEstimate | list[LimitEstimate]:
    """Estimate lim inf/sup of exp(log_values) as x = -ln(alpha) -> +inf.

    ``log_values`` holds ln(q) at ``tail.alphas``, one value per tail
    point, and may contain +-inf (q saturated or exactly zero).

    ``log_values`` may also be 2-d, one row per sequence on the shared
    tail (rows x points); then the result is a list with one estimate
    per row, each the one a 1-d call on that row returns.  The block and
    raw extrema of all rows go through libm's exp in one map (``np.exp``'s
    SIMD path can differ in the last bit); the scalar ``_row_limit`` then
    reads each row, which on 1 to 13 rows beats whole-array branches.

    ``grid_meta`` of each estimate holds its trend class, whether an
    extrapolation fired, and the block extrema.
    """
    if kind not in ("liminf", "limsup"):
        raise ValueError(f"kind must be liminf or limsup, got {kind!r}")
    t_xs = tail.xs
    lv = np.asarray(log_values, dtype=float)
    if lv.ndim not in (1, 2) or lv.shape[-1] != t_xs.size:
        raise ValueError("need log_values with one column per tail point "
                         "(1-d, or 2-d with one row per sequence)")
    t_lv = lv.reshape(-1, t_xs.size)

    # each closed block [lo, hi] of the ascending t_xs is a column slice;
    # per row: the block extrema, then the raw tail min and max
    edges = np.linspace(tail.edge, t_xs[-1], n_blocks + 1)
    starts = np.searchsorted(t_xs, edges[:-1], "left").tolist()
    ends = np.searchsorted(t_xs, edges[1:], "right").tolist()
    rows = np.arange(t_lv.shape[0])
    ext = np.full((rows.size, n_blocks + 2), math.nan)
    xe = np.empty((rows.size, n_blocks))  # where each extremum is attained
    pick = np.argmin if kind == "liminf" else np.argmax
    for j, (i0, i1) in enumerate(zip(starts, ends)):
        if i0 >= i1:  # an empty block: nan at the block midpoint
            xe[:, j] = 0.5 * (edges[j] + edges[j + 1])
            continue
        idx = i0 + pick(t_lv[:, i0:i1], axis=1)
        ext[:, j] = t_lv[rows, idx]
        xe[:, j] = t_xs[idx]
    ext[:, -2], ext[:, -1] = np.min(t_lv, axis=1), np.max(t_lv, axis=1)
    vals = sat_exp_column(ext.ravel())

    out = []
    for i, xs in enumerate(xe.tolist()):
        *ms, raw_min, raw_max = vals[i * (n_blocks + 2):(i + 1) * (n_blocks + 2)]
        row_meta = {"blocks": [None if math.isnan(m) else m for m in ms],
                    "extrapolated": False}
        out.append(_row_limit(kind, ms, xs, raw_min, raw_max, row_meta, cap))
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
            # saturating from below toward a finite limit; a limit past
            # the cap counts as +inf, as a statistic past it does
            lhat = m4 - delta4 * delta4 / (delta4 - delta3)
            if math.isfinite(lhat) and lhat < cap:
                meta.update(trend="saturating", extrapolated=True)
                stab = abs(lhat - m4) <= STAB_TOL * max(abs(lhat), FLOOR)
                return LimitEstimate(kind, lhat, raw_min,
                                     max(raw_max, lhat), stab, meta)
            meta.update(trend="up", extrapolated=True)
            return LimitEstimate(kind, math.inf, raw_min, raw_max, False, meta)
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
