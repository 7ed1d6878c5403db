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
``tail_limit``.  The tail is split into consecutive geometric blocks,
whose extrema and their locations drive the trend classification.  A
drift (three monotone block extrema, the last step over 0.5%) takes one
path, down or up: the rate model is chosen once, Aitken's delta-squared
for a geometric approach or the Richardson step for L + c/x, and gives
the limit and the estimate one block earlier.  One agreement test, the
same for both models, makes the stabilized verdict of every extrapolated
limit: it must be finite and move less than 5% when the window advances
by one block.
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
    per row, each the one a 1-d call on that row returns.  The blocks, cut
    at Python-float edges, give one column of extrema each; joined once with
    the raw extrema, they go through libm's exp in one map (``np.exp``'s
    SIMD path can differ in the last bit); the scalar ``_row_limit`` reads
    each row as a strided slice, which on 1 to 13 rows beats whole-array branches.

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

    # each closed block of the ascending t_xs, edges made as np.linspace makes them,
    # is a column slice; one column per block, then the raw tail min and max
    lo, hi = float(tail.edge), float(t_xs[-1])
    edges = [lo + j * ((hi - lo) / n_blocks) for j in range(n_blocks)] + [hi]
    starts = t_xs.searchsorted(edges[:-1], "left").tolist()
    ends = t_xs.searchsorted(edges[1:], "right").tolist()
    rows = np.arange(t_lv.shape[0])
    pick = np.ndarray.argmin if kind == "liminf" else np.ndarray.argmax
    ext, xe = [], []  # xe: where each block extremum lies
    for j, (i0, i1) in enumerate(zip(starts, ends)):
        if i0 >= i1:  # an empty block: nan at the block midpoint
            ext.append(np.full(rows.size, math.nan))
            xe.append(np.full(rows.size, 0.5 * (edges[j] + edges[j + 1])))
            continue
        idx = i0 + pick(t_lv[:, i0:i1], 1)
        ext.append(t_lv[rows, idx])
        xe.append(t_xs[idx])
    vals = sat_exp_column(np.concatenate(ext + [t_lv.min(1), t_lv.max(1)]))
    xe = np.concatenate(xe).tolist()
    out, n = [], rows.size
    for i in range(n):  # row i: every n-th value from i
        *ms, raw_min, raw_max = vals[i::n]
        row_meta = {"blocks": [None if math.isnan(m) else m for m in ms],
                    "extrapolated": False}
        out.append(_row_limit(kind, ms, xe[i::n], raw_min, raw_max, row_meta, cap))
    return out if lv.ndim == 2 else out[0]


def _row_limit(kind, ms, xe, raw_min, raw_max, meta, cap):
    """The trend verdict of one sequence from its block extrema ``ms``
    (attained at ``xe``) and its raw tail extrema."""
    m2, m3, m4 = ms[-3], ms[-2], ms[-1]
    x2, x3, x4 = xe[-3], xe[-2], xe[-1]

    # literal divergence: the statistic itself exceeded the cap (or was
    # +inf from a zero residual) throughout the late blocks; mixed
    # finite/infinite late blocks: unstable divergence
    past_cap = m3 >= cap and m4 >= cap
    if past_cap or math.isinf(m2) or math.isinf(m3) or math.isinf(m4):
        meta["trend"] = "up"
        return LimitEstimate(kind, math.inf, raw_min, raw_max, past_cap, meta)

    delta3, delta4 = m3 - m2, m4 - m3
    drift = delta4 / max(abs(m3), abs(m4), 1e-300)
    down = m4 < m3 < m2 and -drift > DRIFT_TOL
    up = m4 > m3 > m2 and drift > DRIFT_TOL
    if not (down or up) or x4 - x3 < 1e-9 or x3 - x2 < 1e-9:
        # flat (or noisy) blocks, or a degenerate extremum placement:
        # report the late-window extremum
        value = min(m3, m4) if kind == "liminf" else max(m3, m4)
        stab = abs(m4 - m3) <= STAB_TOL * max(abs(m3), abs(m4), FLOOR)
        meta["trend"] = "flat"
        return LimitEstimate(kind, value, raw_min, raw_max, stab, meta)

    # geometric approach (exponential in x): increments shrink by more
    # than half per block, and the Aitken delta-squared limit applies;
    # a 1/x drift keeps the increment ratio near (x2/x4) ~ 0.75.  Either
    # model gives the limit and the estimate one block earlier.
    geometric = abs(delta4) < 0.5 * abs(delta3)
    if geometric:
        lhat, lprev = m4 - delta4 * delta4 / (delta4 - delta3), m4
    else:
        # invert the 1/x approach
        lhat, lprev = _richardson(x3, m3, x4, m4), _richardson(x2, m2, x3, m3)
    if down:
        lhat, lprev = max(lhat, 0.0), max(lprev, 0.0)
    stab = math.isfinite(lhat) and abs(lhat - lprev) <= STAB_TOL * max(abs(lhat), FLOOR)

    if down:
        meta.update(trend="down", extrapolated=True)
        return LimitEstimate(kind, lhat, min(raw_min, lhat), raw_max, stab, meta)
    # saturating from below toward a finite limit, or coherent slow
    # convergence from below; a limit past the cap counts as +inf, as a
    # statistic past it does
    if math.isfinite(lhat) and lhat < cap and (geometric or stab):
        meta.update(trend="saturating" if geometric else "up", extrapolated=True)
        return LimitEstimate(kind, lhat, raw_min, max(raw_max, lhat), stab, meta)
    # sustained growth with no coherent limit: treat as divergent
    meta.update(trend="up", extrapolated=geometric)
    return LimitEstimate(kind, math.inf if geometric else m4, raw_min, raw_max, False, meta)
