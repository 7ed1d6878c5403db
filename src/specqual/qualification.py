"""The qualification calculus for spectral filter families.

Given a filter family and an order-of-convergence function rho, this
module estimates the induced source function

    s_rho(lambda) = liminf_{alpha -> 0+}  rho(alpha) / |r_alpha(lambda)|,

checks the three pair predicates that tie source functions to orders,

  * weak source-order pair:   s(lm)|r_a(lm)| / rho(a) stays bounded per lambda,
  * strong source-order pair: additionally its limsup never vanishes,
  * order-source pair:        s(lm)|r_a(lm)| / rho(a) >= gamma > 0 uniformly
                              for lambda >= h(alpha), h(alpha) -> 0,

and classifies rho into one of four levels:

    none < weak < strong < optimal

where strong holds iff 0 < s_rho < inf on the sampled lambdas and
optimal additionally requires (rho, s_rho) to be an order-source pair.
Classical order (the supremum of mu with lambda^mu |r| = O(alpha^mu))
and the increasing-weight qualification inequality
sup_lm |r_a(lm)| rho(lm) <= gamma rho(a) are checked alongside.

All ratio arithmetic runs in the log domain through the filters'
closed-form residual channels, which is what makes ratios like
exp(-1/alpha) / exp(-lambda/alpha) computable at all.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .filters import (FilterFamily, default_alpha_grid, default_lambda_grid,
                      residual_log_sign)
from .limits import CAP, FLOOR, LimitEstimate, sat_exp, sat_exp_array, tail_limit, tail_of
from .rates import (
    TabulatedOrder,
    TabulatedSource,
    certify_source_fn,
)

SCHEMA_VERSION = 1

# deep probe used by the classical-order check: slow statistics such as
# alpha^(-1/64) / |ln alpha| only start growing below alpha ~ e^(-64)
DEEP_ALPHA_MIN = 1e-300
DEEP_PER_DECADE = 16

MP_LAMBDA_MIN = 1e-4  # small end of the increasing-weight check's lambda grid

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SQRT_EPS = math.sqrt(np.finfo(float).eps)
LAMBDA_TINY = 1e-300


class QualificationError(ValueError):
    pass


class UncertifiedError(QualificationError):
    def __init__(self, what: str):
        super().__init__(f"{what} is not certified; certify it first")


class HypothesisViolation(QualificationError):
    """The constructive builder's monotonicity hypotheses fail on the grid."""

    def __init__(self, message: str, alpha: float, lam: float):
        super().__init__(f"{message} (witness alpha={alpha:.6g}, lambda={lam:.6g})")
        self.alpha = alpha
        self.lam = lam


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of a source-order / order-source pair test."""

    holds: bool
    bound_k: float | None = None
    gamma: float | None = None
    h_used: str | None = None
    witnesses: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds

    def to_json_dict(self) -> dict:
        return jsonable({
            "holds": self.holds,
            "bound_k": self.bound_k,
            "gamma": self.gamma,
            "h_used": self.h_used,
            "witnesses": self.witnesses,
        })


@dataclass(frozen=True)
class ClassicalOrder:
    """Dyadic bracket for the classical qualification order.

    ``classify`` shares one instance between the reports of a filter, so
    every field is immutable: ``mu_grid`` is the ascending mu grid and
    ``passed`` the verdict of each of its entries.
    """

    low: float | None      # largest passing mu
    high: float | None     # smallest failing mu
    zero: bool             # even the smallest mu fails
    infinite: bool         # even the largest mu passes
    mu_grid: tuple[float, ...] = ()
    passed: tuple[bool, ...] = ()

    def to_json_dict(self) -> dict:
        return jsonable({
            "low": self.low,
            "high": self.high,
            "zero": self.zero,
            "infinite": self.infinite,
        })


@dataclass(frozen=True)
class MPVerdict:
    """Result of the increasing-weight qualification inequality check."""

    passes: bool
    gamma: float | None = None
    witness_alpha: float | None = None
    growth: float | None = None
    weak_certificate: dict | None = None

    def to_json_dict(self) -> dict:
        out = {"passes": self.passes}
        if self.passes:
            out["gamma"] = self.gamma
        else:
            out["witness_alpha"] = self.witness_alpha
            out["growth"] = self.growth
        if self.weak_certificate is not None:
            out["weak_certificate"] = self.weak_certificate
        return jsonable(out)


@dataclass(frozen=True)
class QualificationReport:
    """Full qualification verdict for one (filter, rho) combination."""

    filter_id: str
    rho_label: str
    level: str  # none | weak | strong | optimal
    srho_table: dict  # lambda -> LimitEstimate
    classical_mu0: ClassicalOrder | None
    mp_verdict: MPVerdict | None
    evidence: dict  # level name -> PairVerdict
    source_label: str | None = None
    grid_meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return jsonable({
            "schema_version": SCHEMA_VERSION,
            "filter": self.filter_id,
            "order": self.rho_label,
            "level": self.level,
            "source": self.source_label,
            "srho_table": [
                {"lambda": lam, "estimate": est.value, "stabilized": est.stabilized}
                for lam, est in sorted(self.srho_table.items())
            ],
            "classical_mu0": self.classical_mu0.to_json_dict() if self.classical_mu0 else None,
            "mp": self.mp_verdict.to_json_dict() if self.mp_verdict else None,
            "evidence": {k: v.to_json_dict() for k, v in self.evidence.items()},
            "grid_meta": self.grid_meta,
        })


def jsonable(x):
    """``x`` as RFC 8259 JSON values, walking dicts, lists and tuples: a
    float becomes a Python float or the string +inf, -inf or nan (an
    infinite s_rho or ratio is an answer, and JSON has no number for it);
    any other value passes through unchanged."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("+inf" if x > 0 else "-inf")
    return float(x) if isinstance(x, float) else x


def csv_text(rows) -> str:
    """Rows (dicts with the same keys) as CSV text under a header of the
    keys.  Each cell is the ``jsonable`` value: null is an empty cell, a
    boolean is true or false, and a float is its repr."""
    def cell(v):
        v = jsonable(v)
        if v is None:
            return ""
        return str(v).lower() if isinstance(v, bool) else str(v)  # str is repr for a float

    lines = [",".join(rows[0])] + [",".join(map(cell, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


def _require_certified(fn, what):
    if not getattr(fn, "certified", False):
        raise UncertifiedError(what)


def _grids(filt, lambda_grid, alpha_grid):
    """The lambda and alpha grids as float arrays, each the family's
    default where it is None."""
    lams = default_lambda_grid(filt) if lambda_grid is None else lambda_grid
    alphas = default_alpha_grid(filt) if alpha_grid is None else alpha_grid
    return np.asarray(lams, dtype=float), np.asarray(alphas, dtype=float)


# ---------------------------------------------------------------------------
# s_rho estimation
# ---------------------------------------------------------------------------

def estimate_srho(
    filt: FilterFamily,
    rho,
    lam: float,
    alpha_grid: np.ndarray | None = None,
) -> LimitEstimate:
    """liminf of rho(alpha)/|r_alpha(lambda)| on the working grid.

    Computed entirely in the log domain; a vanishing residual contributes
    +inf to the ratio, so methods that annihilate the component exactly
    (truncation) report an infinite source value.
    """
    return srho_table(filt, rho, np.array([lam], dtype=float), alpha_grid)[float(lam)]


def srho_table(
    filt: FilterFamily,
    rho,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> dict[float, LimitEstimate]:
    """``estimate_srho`` at every lambda: one residual mesh over
    (lambda x alpha) and one batched tail estimate."""
    _require_certified(rho, "order function")
    lams, alphas = _grids(filt, lambda_grid, alpha_grid)
    bad = lams[~(lams > 0)]
    if bad.size:
        raise QualificationError(f"lambda must be positive, got {bad[0]}")
    t = tail_of(alphas)
    with np.errstate(all="ignore"):
        log_ratio = rho.log_at(t.alphas) - filt._r_log(t.alphas, lams[:, None])
    ests = tail_limit(t, log_ratio, "liminf")
    return {float(lam): est for lam, est in zip(lams, ests)}


# ---------------------------------------------------------------------------
# pair predicates
# ---------------------------------------------------------------------------

def _pair_limsup(filt, s, rho, lams, alphas):
    """limsup over alpha of s(lm)|r_alpha(lm)| / rho(alpha), one estimate
    per entry of the 1-d array ``lams``."""
    t = tail_of(alphas)
    with np.errstate(all="ignore"):
        lq = (
            s.log_at(lams)[:, None]
            + np.asarray(filt._r_log(t.alphas, lams[:, None]), dtype=float)
            - rho.log_at(t.alphas)
        )
    return tail_limit(t, lq, "limsup")


def check_weak_pair(
    filt: FilterFamily,
    s,
    rho,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> PairVerdict:
    """Is s(lm)|r|/rho bounded in alpha for every sampled lambda?"""
    _require_certified(s, "source function")
    _require_certified(rho, "order function")
    lams, alphas = _grids(filt, lambda_grid, alpha_grid)

    witnesses = []
    bound = 0.0
    estimates = {}
    for lam, est in zip(lams.tolist(), _pair_limsup(filt, s, rho, lams, alphas)):
        estimates[lam] = est
        if not est.bounded:
            witnesses.append((float(np.min(alphas)), lam))
        else:
            bound = max(bound, est.tail_max)
    holds = not witnesses
    return PairVerdict(
        holds=holds,
        bound_k=bound if holds else None,
        witnesses=witnesses,
        detail={"estimates": estimates},
    )


def check_strong_pair(
    filt: FilterFamily,
    s,
    rho,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> PairVerdict:
    """Weak pair whose limsup also stays bounded away from zero."""
    lams, alphas = _grids(filt, lambda_grid, alpha_grid)
    weak = check_weak_pair(filt, s, rho, lams, alphas)
    if not weak.holds:
        return PairVerdict(holds=False, witnesses=weak.witnesses,
                           detail={"failed": "weak", **weak.detail})
    alpha_min = float(np.min(alphas))
    witnesses = [(alpha_min, lam) for lam, est in weak.detail["estimates"].items()
                 if not est.positive]
    return PairVerdict(
        holds=not witnesses,
        bound_k=weak.bound_k,
        witnesses=witnesses,
        detail=weak.detail,
    )


def _refine_minima(log_q, lo, hi):
    """Batched golden-section minimization of log_q over [lo, hi].

    ``log_q`` maps an array of lambda to an array of ln q; ``lo``/``hi``
    are equal-shaped bracket endpoints in ln-lambda, one lane per entry,
    and every call of ``log_q`` evaluates all lanes at once.  Each
    iteration evaluates one new interior point per lane and reuses the
    other (Kiefer 1953).  A lane stops when its bracket is at most
    sqrt(eps) * max(1, |a|) wide, the resolution to which a double locates
    a smooth minimum, or can no longer be split (a < c < d < b fails).
    Returns the refined lambdas and values, one per lane.
    """
    def splittable():
        return ((a < c) & (c < d) & (d < b)
                & (b - a > SQRT_EPS * np.maximum(1.0, np.abs(a))))

    a = np.array(lo, dtype=float)
    b = np.array(hi, dtype=float)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = log_q(np.exp(c)), log_q(np.exp(d))
    active = splittable()
    # each pass shrinks the bracket of every active lane by the golden
    # ratio, so the brackets reach the stopping width and the loop ends
    while True:
        left = fc < fd  # the minimum lies in [a, d], else in [c, b]
        a = np.where(active & ~left, c, a)
        b = np.where(active & left, d, b)
        new = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        c, d = np.where(left, new, d), np.where(left, c, new)
        active &= splittable()
        if not active.any():
            break
        f_new = log_q(np.exp(new))
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    lam = np.exp(0.5 * (a + b))
    return lam, log_q(lam)


COARSE_POINTS = 64  # lambdas of the coarse scan of each window
WINDOW_ALPHAS = 96  # geometric alpha subgrid whose window infima are estimated


def _scan_window(log_q, log_lo, log_hi):
    """The coarse scan of each lane's window, from ``log_lo`` (one entry
    per lane) to ``log_hi`` in ln lambda, and the golden read of its
    minimum; edge lanes settle by the probe rule of
    ``check_order_source_pair``.

    Returns the scan lambdas, then the lambdas and ln q of the reads as
    two lists of arrays: the refined minima first when the golden search
    ran, then the scan.
    """
    t = np.linspace(0.0, 1.0, COARSE_POINTS)
    Lc = np.exp(log_lo[:, None] + t * (log_hi - log_lo)[:, None])
    # the scan and a probe inside each window edge, in one call of log_q
    ln_edge = np.log(Lc[:, [0, -1]])
    probe = ln_edge + np.array([1.0, -1.0]) * SQRT_EPS * np.maximum(1.0, np.abs(ln_edge))
    Qc, Qp = np.split(log_q(np.concatenate([Lc, np.exp(probe)], axis=1)), [COARSE_POINTS], axis=1)
    idx = np.argmin(Qc, axis=1)[:, None]
    lo = np.log(np.take_along_axis(Lc, np.maximum(idx - 1, 0), axis=1))
    hi = np.log(np.take_along_axis(Lc, np.minimum(idx + 1, COARSE_POINTS - 1), axis=1))
    top = (idx == COARSE_POINTS - 1).astype(int)  # column of the lane's probe
    p = np.take_along_axis(probe, top, axis=1)
    settled = (((idx == 0) | (top == 1)) & (lo < p) & (p < hi)
               & (np.take_along_axis(Qp, top, axis=1) > np.take_along_axis(Qc, idx, axis=1)))
    if settled.all():
        return Lc, [Lc], [Qc]
    lam_ref, q_ref = _refine_minima(log_q, lo, hi)
    return Lc, [lam_ref, Lc], [q_ref, Qc]


def check_order_source_pair(
    filt: FilterFamily,
    rho,
    s,
    h,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> PairVerdict:
    """Does s(lm)|r|/rho stay >= gamma > 0 for lambda in [h(alpha), lm_max]?

    For each alpha of a geometric subgrid, the infimum of q over the
    lambda window is the least of three reads:

      * a coarse geometric scan of the window;
      * golden-section refinement of the coarse minimum over the bracket
        of its two scan neighbours, to sqrt(eps) in ln lambda.  An edge
        lane, whose coarse minimum is the window's first or last scan
        point, is settled instead by one probe a golden stopping width
        delta = sqrt(eps) * max(1, |ln lambda_edge|) inside that edge,
        read in the same residual call as the scan.  If q is unimodal on
        the bracket, as the golden search assumes, and its minimiser lay
        beyond the probe, q would be non-increasing from the edge to the
        probe; so q at the probe strictly above q at the edge puts the
        minimiser within delta of the edge, below the width the golden
        search stops at, and the coarse edge read stands.  A tie (q flat
        at the edge) or a probe outside the bracket settles nothing.
        When every lane settles, no golden search runs; otherwise every
        lane is refined as before;
      * for an oscillatory family, q at its dips: each scan lambda snapped
        down to the largest phase root below it (``FilterFamily._dips``)
        that lies in the window, where |r| takes its exact local minimum;
        lambda_max itself gives the lowest dip of the window.  No lambda
        scan resolves these dips, so an oscillatory family without a dip
        set raises ``QualificationError`` instead of a verdict.

    The per-alpha infima then go through the tail estimator: the pair
    holds when their liminf stays above the positivity floor.
    """
    _require_certified(rho, "order function")
    _require_certified(s, "source function")
    _require_certified(h, "window function h")
    if filt.oscillatory and filt._dips is None:
        raise QualificationError(
            f"oscillatory filter '{filt.id}' has its dips unknown (no dip set), "
            "so its order-source window infimum cannot be bounded"
        )
    lams, alphas = _grids(filt, lambda_grid, alpha_grid)
    lam_max = float(np.max(lams))
    n_alpha = min(WINDOW_ALPHAS, alphas.size)
    sub = np.geomspace(np.min(alphas), np.max(alphas), n_alpha)

    # one row per alpha: the coarse scan, its refined minimum, the dips
    A = sub[:, None]
    log_rho = rho.log_at(sub)[:, None]
    log_hi = math.log(lam_max)
    log_lo = np.minimum(np.maximum(h.log_at(sub), math.log(LAMBDA_TINY)), log_hi - 1e-6)

    def log_q(lam, log_r):
        with np.errstate(all="ignore"):
            return s.log_at(lam) + np.asarray(log_r, dtype=float) - log_rho

    def residual_q(lam):
        return log_q(lam, filt._r_log(A, lam))

    Lc, L, Q = _scan_window(residual_q, log_lo, log_hi)
    if filt._dips is not None:
        Ld, log_rd = filt._dips(A, Lc)
        inside = (Ld >= Lc[:, :1]) & (Ld <= lam_max)
        L.append(Ld)
        Q.append(np.where(inside, log_q(Ld, log_rd), np.inf))
    L, Q = np.concatenate(L, axis=1), np.concatenate(Q, axis=1)
    best = np.argmin(Q, axis=1)[:, None]
    gam_log = np.take_along_axis(Q, best, axis=1)[:, 0]
    gam_lam = np.take_along_axis(L, best, axis=1)[:, 0]

    t = tail_of(sub)
    est = tail_limit(t, gam_log[t.index], "liminf")

    holds = est.positive
    worst = int(np.argmin(gam_log))
    witnesses = [] if holds else [(float(sub[worst]), float(gam_lam[worst]))]
    return PairVerdict(
        holds=holds,
        gamma=sat_exp(float(gam_log[worst])) if holds else None,
        h_used=getattr(h, "label", "h"),
        witnesses=witnesses,
        detail={"inf_estimate": est},
    )


# ---------------------------------------------------------------------------
# classical order and the increasing-weight check
# ---------------------------------------------------------------------------

def _sup_log_ratio(log_r, log_w_lam, log_w_alpha) -> np.ndarray:
    """ln of sup_lm |r_alpha(lm)| w(lm) / w(alpha) over the sampled lambdas.
    ``log_r`` is a (lambda x alpha) ln|r| mesh, or broadcasts to one;
    ``log_w_lam`` and ``log_w_alpha`` hold ln w, one row per weight."""
    with np.errstate(all="ignore"):
        return np.max(log_w_lam[:, :, None] + log_r, axis=1) - log_w_alpha


def _deep_alpha_grid(filt: FilterFamily) -> np.ndarray:
    top = filt.alpha_max / 2.0
    decades = math.log10(top / DEEP_ALPHA_MIN)
    n = int(decades * DEEP_PER_DECADE)
    return np.geomspace(DEEP_ALPHA_MIN, top, n)


def default_mu_grid() -> np.ndarray:
    return np.array([2.0 ** j for j in range(-6, 7)])


def estimate_classical_order(
    filt: FilterFamily,
    mu_grid: np.ndarray | None = None,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> ClassicalOrder:
    """Bracket the classical order on a dyadic mu grid.

    The mu grid is probed in ascending order, whatever its given order.
    For each mu, boundedness of sup_lm lm^mu |r| / alpha^mu over the
    sampled lambdas is tested over a deep alpha grid reaching 1e-300:
    statistics like alpha^(-1/64)/|ln alpha| only reveal their divergence
    hundreds of decades down, far below any working grid.  The whole mu
    grid is one batch: one (lambda x alpha) residual mesh, one sampled-sup
    row per mu and one tail estimate; mu passes when its row reads bounded.
    """
    mu_grid = default_mu_grid() if mu_grid is None else np.sort(np.asarray(mu_grid, dtype=float))
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(filt, per_decade=2)
    if alpha_grid is None:
        alpha_grid = _deep_alpha_grid(filt)
    lams = np.asarray(lambda_grid, dtype=float)
    t = tail_of(alpha_grid)
    with np.errstate(all="ignore"):
        rlog = filt._r_log(t.alphas, lams[:, None])
    mu = mu_grid[:, None]
    lq = _sup_log_ratio(rlog, mu * np.log(lams), mu * np.log(t.alphas))
    passed = tuple(est.bounded for est in tail_limit(t, lq, "limsup", n_blocks=5))
    k = passed.index(False) if False in passed else len(passed)  # the first failing mu
    return ClassicalOrder(
        low=float(mu_grid[k - 1]) if k else None,
        high=float(mu_grid[k]) if k < len(passed) else None,
        zero=k == 0,
        infinite=k == len(passed),
        mu_grid=tuple(float(m) for m in mu_grid),
        passed=passed,
    )


@functools.lru_cache(maxsize=64)
def _classical_order(filt: FilterFamily) -> ClassicalOrder:
    """``estimate_classical_order(filt)`` on its default grids, probed once
    per filter instance: the classical order belongs to the method alone,
    not to the (method, rho) pair that ``classify`` is asked about.  A
    family compares by identity, so a ``dataclasses.replace`` copy probes
    again."""
    return estimate_classical_order(filt)


def check_mp_qualification(
    filt: FilterFamily,
    rho,
    a: float = 1.0,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> MPVerdict:
    """Check sup_lm |r_alpha(lm)| rho(lm) <= gamma rho(alpha) on (0, a].

    The ratio sup_lm |r_alpha(lm)| rho(lm) / rho(alpha) is followed toward
    alpha -> 0 by the tail estimator, the same rule as every other
    boundedness verdict: the check passes when its limsup reads as
    bounded, with gamma = the ratio's maximum over the whole alpha grid,
    so gamma bounds the ratio at every sampled alpha.  A failure
    reports the alpha where the ratio is largest (the smallest such alpha
    on a tie) and its growth, the
    largest over the smallest ratio on the alpha grid; the growth is +inf
    when that quotient overflows a double or the ratio is not finite (an
    order with a pole in (0, a]).  On failure a companion certificate
    reports whether the given rho still bounds the residual in the
    constructive windowed sense (sup over lambda >= h(alpha) of |r|
    below rho(alpha) for a vanishing h), which is how methods with
    infinite classical order keep a meaningful order of convergence.
    """
    _require_certified(rho, "order function")
    if not 0 < a < math.inf:
        raise QualificationError(f"interval bound a must be positive and finite, got {a}")
    if lambda_grid is None:
        lam_top = a if filt.lambda_sup is None else min(a, 0.95 * filt.lambda_sup)
        if not lam_top >= MP_LAMBDA_MIN:
            raise QualificationError(
                f"interval bound a={a:g} leaves the default lambda grid "
                f"[{MP_LAMBDA_MIN:g}, {lam_top:g}] empty")
        lambda_grid = np.geomspace(MP_LAMBDA_MIN, lam_top,
                                   int(16 * math.log10(lam_top / MP_LAMBDA_MIN)) + 1)
    if alpha_grid is None:
        top = min(a, filt.alpha_max * (1 - 1e-12))
        alpha_grid = np.geomspace(1e-7, top, int(64 * math.log10(top / 1e-7)))
    alphas = np.sort(np.asarray(alpha_grid, dtype=float))
    lams = np.asarray(lambda_grid, dtype=float)

    with np.errstate(all="ignore"):
        R = np.asarray(filt._r_log(alphas[None, :], lams[:, None]), dtype=float)
        lrho = rho.log_at(alphas)
        ratio_log = _sup_log_ratio(R, rho.log_at(lams)[None], lrho[None])[0]

    t = tail_of(alphas)
    est = tail_limit(t, ratio_log[t.index], "limsup")
    hi, lo = float(np.max(ratio_log)), float(np.min(ratio_log))
    if est.bounded:
        return MPVerdict(passes=True, gamma=sat_exp(hi))
    return MPVerdict(
        passes=False,
        witness_alpha=float(alphas[np.argmax(ratio_log)]),
        growth=sat_exp(hi - lo) if hi < math.inf else math.inf,  # +inf or NaN: a pole
        weak_certificate=_windowed_certificate(R.T, lrho, lams),
    )


def _windowed_certificate(R, lrho, lams) -> dict:
    """Does some vanishing window h(alpha) give sup_{lm>=h} |r| <= rho(alpha)?

    ``R`` is the (alpha x lambda) mesh of ln|r| and ``lrho`` holds
    ln rho(alpha), one entry per row of ``R``, the rows in ascending alpha.
    """
    ok = _suffix_max(R) <= lrho[:, None] + 1e-9
    h_vals = np.where(np.any(ok, axis=1), lams[np.argmax(ok, axis=1)], np.nan)
    found = np.isfinite(h_vals)
    tail = found[: max(len(lrho) // 2, 1)]
    holds = bool(np.all(tail))
    vanishing = False
    if holds:
        lo = h_vals[np.nonzero(found)[0][0]]
        # clamped to the last lambda, so a one-point grid has a reference
        vanishing = bool(lo <= lams[min(max(1, len(lams) // 5), len(lams) - 1)])
    return {
        "holds": holds and vanishing,
        "h_at_alpha_min": float(h_vals[0]),
        "coverage": float(np.mean(found)),
    }


def _suffix_max(R):
    """Suffix maxima along each row: entry j holds max(R[i, j:])."""
    with np.errstate(all="ignore"):
        return np.flip(np.maximum.accumulate(np.flip(R, axis=1), axis=1), axis=1)


# ---------------------------------------------------------------------------
# constructive weak qualification
# ---------------------------------------------------------------------------

BISECT_TOL = 1e-10  # absolute alpha tolerance of the theta bisection


@dataclass(frozen=True)
class ConstructResult:
    h: TabulatedOrder
    rho_star: TabulatedOrder
    certificate: PairVerdict
    theta: np.ndarray
    f: np.ndarray
    lambdas: np.ndarray


def construct_weak_qualification(
    filt: FilterFamily,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> ConstructResult:
    """Build the (h, rho*) pair that certifies weak qualification.

    Requires, and first verifies on the grids, that the residual is
    positive and decreasing in lambda while the filter is decreasing in
    alpha.  Then theta(lm) = sup{ gamma : r_gamma(lm) <= lm } is found by
    bisection (monotone in gamma because r increases with alpha),
    f = (1 - e^-lm) theta(lm) is made strictly increasing, h is its
    inverse, interpolated log-log on the knots f and held at the top
    lambda from the top of f up to alpha_max, z(alpha) = r_alpha(h(alpha)),
    and rho* is the running-maximum envelope of z.  The certificate
    re-verifies sup_{lm >= h(alpha)} |r| <= rho*(alpha), for the same h,
    by an independent sweep.
    """
    if lambda_grid is None:
        # inside the family's lambda range, and at least a decade wide
        top = 100.0 if filt.lambda_sup is None else min(100.0, 0.95 * filt.lambda_sup)
        lambda_grid = np.geomspace(min(1e-4, top / 10.0), top, 321)
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(filt, per_decade=64)
    lams = np.asarray(lambda_grid, dtype=float)
    alphas = np.asarray(alpha_grid, dtype=float)

    _verify_part_b_hypotheses(filt, alphas, lams)

    # theta by vectorized bisection over the lambda batch
    lo = np.full(lams.shape, alphas[0] * 1e-3)
    hi = np.full(lams.shape, filt.alpha_max * (1.0 - 1e-12))
    with np.errstate(all="ignore"):
        top_ok = sat_exp_array(filt._r_log(hi, lams)) <= lams
    theta = np.where(top_ok, hi, np.nan)
    active = ~top_ok
    steps = int(math.ceil(math.log2(float(filt.alpha_max) / BISECT_TOL)))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        with np.errstate(all="ignore"):
            ok = sat_exp_array(filt._r_log(mid, lams)) <= lams
        lo = np.where(active & ok, mid, lo)
        hi = np.where(active & ~ok, mid, hi)
    theta = np.where(active, lo, theta)
    if np.any(theta <= 0) or np.any(np.isnan(theta)):
        raise QualificationError("bisection for theta failed to converge")

    f = -np.expm1(-lams) * theta
    # strict increase (the underlying function is nondecreasing; remove
    # flat spots so the inverse is single-valued)
    f = np.maximum.accumulate(f)
    eps = np.spacing(f)
    for i in range(1, len(f)):
        if f[i] <= f[i - 1]:
            f[i] = f[i - 1] + eps[i - 1]

    h = TabulatedOrder(alphas=np.append(f, filt.alpha_max),
                       log_values=np.log(np.append(lams, lams[-1])),
                       label="h (inverse of f)")
    with np.errstate(all="ignore"):
        z_log = np.asarray(filt._r_log(alphas, np.exp(h.log_at(alphas))), dtype=float)
    rho_star_log = np.maximum.accumulate(z_log)
    rho_star = TabulatedOrder(alphas=alphas, log_values=rho_star_log,
                              label="rho* (envelope of r at the window edge)")
    step = max(1, len(alphas) // 128)
    certificate = _construct_certificate(filt, h, alphas[::step], rho_star_log[::step],
                                         np.geomspace(lams[0], lams[-1], 1024))
    return ConstructResult(h=h, rho_star=rho_star, certificate=certificate,
                           theta=theta, f=f, lambdas=lams)


def _construct_certificate(filt, h, alphas, log_bound, sweep) -> PairVerdict:
    """Does sup_{lm >= h(alpha)} |r_alpha(lm)| stay below exp(log_bound)?

    One (alpha x sweep) residual mesh; each row is read at the first sweep
    point at or above h(alpha) through its suffix maxima.  An alpha whose
    window holds no sweep point is skipped.  Witnesses are (alpha, the
    lambda of the largest residual in its window) for each alpha whose
    supremum exceeds the bound by more than 1e-6 in log.
    """
    with np.errstate(all="ignore"):
        R = np.asarray(filt._r_log(alphas[:, None], sweep), dtype=float)
    start = np.searchsorted(sweep, np.exp(h.log_at(alphas)), "left")
    rows = np.nonzero(start < sweep.size)[0]
    gap = _suffix_max(R)[rows, start[rows]] - log_bound[rows]
    failing = rows[gap > 1e-6]
    witnesses = [(float(alphas[i]), float(sweep[start[i] + np.argmax(R[i, start[i]:])]))
                 for i in failing.tolist()]
    return PairVerdict(
        holds=not witnesses,
        witnesses=witnesses,
        detail={"worst_log_gap": float(np.fmax.reduce(gap, initial=-math.inf))},
    )


def _verify_part_b_hypotheses(filt, alphas, lams):
    probe_a = alphas[:: max(1, len(alphas) // 48)]
    probe_l = lams[:: max(1, len(lams) // 48)]
    with np.errstate(all="ignore"):
        R, signs = residual_log_sign(filt, probe_a[:, None], probe_l[None, :])
        G = np.asarray(filt._g(probe_a[:, None], probe_l[None, :]), dtype=float)
    bad = signs <= 0
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise HypothesisViolation("residual is not positive",
                                  float(probe_a[i]), float(probe_l[j]))
    inc = np.diff(R, axis=1) > 1e-9
    if np.any(inc):
        i, j = np.argwhere(inc)[0]
        raise HypothesisViolation("residual is not decreasing in lambda",
                                  float(probe_a[i]), float(probe_l[j + 1]))
    ginc = np.diff(G, axis=0) > 1e-9 * np.maximum(np.abs(G[1:]), 1.0)
    if np.any(ginc):
        i, j = np.argwhere(ginc)[0]
        raise HypothesisViolation("filter is not decreasing in alpha",
                                  float(probe_a[i + 1]), float(probe_l[j]))


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

CANONICAL_SOURCES = ("lambda", "lambda^0.5", "lambda/(1+lambda)")


@functools.cache
def _canonical_sources():
    """The certified CANONICAL_SOURCES, made once per process on first use
    (not at import, so a CLI call that never needs them pays nothing)."""
    return tuple(certify_source_fn(text) for text in CANONICAL_SOURCES)


def classify(
    filt: FilterFamily,
    rho,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
    companions: bool = True,
) -> QualificationReport:
    """Classify rho as none/weak/strong/optimal qualification of the filter.

    strong requires every sampled s_rho estimate to be stabilized and
    strictly between the positivity floor and the divergence cap;
    optimal additionally requires the tabulated s_rho to form an
    order-source pair with rho (the window h is rho itself, clamped into
    the lambda range); weak falls back to a canonical list of
    bounded certified sources when strong fails.  With ``companions``
    the report also carries the classical-order bracket and the
    increasing-weight check; without them both are None.  The bracket
    depends on the filter alone, so it is probed once per filter
    instance and the same ``ClassicalOrder`` is shared by every report
    of that instance; this assumes the family's ``g`` and ``_r_log`` are
    pure functions.
    """
    _require_certified(rho, "order function")
    lambda_grid, alpha_grid = _grids(filt, lambda_grid, alpha_grid)

    table = srho_table(filt, rho, lambda_grid, alpha_grid)
    evidence: dict[str, PairVerdict] = {}

    # FLOOR < v < CAP also rules out nan and inf
    failing = [lam for lam, est in table.items()
               if not (est.stabilized and FLOOR < est.value < CAP)]
    strong = not failing
    level = "none"
    source_label = None

    if strong:
        level = "strong"
        lams = np.array(sorted(table))
        vals = np.array([table[l].value for l in lams])
        s_tab = TabulatedSource(lambdas=lams, log_values=np.log(vals),
                                label="s_rho (tabulated)")
        source_label = s_tab.label
        evidence["strong"] = PairVerdict(
            holds=True,
            bound_k=float(np.max(vals) / np.min(vals)),
            detail={"criterion": "0 < s_rho < inf at every sampled lambda"},
        )
        evidence["weak"] = evidence["strong"]
        osp = check_order_source_pair(filt, rho, s_tab, rho, lambda_grid, alpha_grid)
        evidence["optimal"] = osp
        if osp.holds:
            level = "optimal"
    else:
        evidence["strong"] = PairVerdict(
            holds=False,
            witnesses=[(float(np.min(alpha_grid)), lam) for lam in failing[:4]],
            detail={"criterion": "s_rho must be finite, positive and stabilized"},
        )
        # weak fallback: a bounded certified source that keeps the ratio bounded
        candidates = [*_capped_srho_candidates(table), *_canonical_sources()]
        for cand in candidates:
            verdict = check_weak_pair(filt, cand, rho, lambda_grid, alpha_grid)
            if verdict.holds:
                level = "weak"
                source_label = getattr(cand, "label", "candidate")
                evidence["weak"] = verdict
                break
        else:
            evidence["weak"] = PairVerdict(
                holds=False, detail={"criterion": "no candidate source found"}
            )

    return QualificationReport(
        filter_id=filt.id,
        rho_label=getattr(rho, "label", "rho"),
        level=level,
        srho_table=table,
        classical_mu0=_classical_order(filt) if companions else None,
        mp_verdict=check_mp_qualification(filt, rho) if companions else None,
        evidence=evidence,
        source_label=source_label,
        grid_meta={
            "lambda_grid": [float(x) for x in lambda_grid],
            "alpha_points": int(alpha_grid.size),
            "alpha_range": (float(np.min(alpha_grid)), float(np.max(alpha_grid))),
        },
    )


def _capped_srho_candidates(table):
    """A bounded source built by capping the finite part of the s_rho table."""
    lams = np.array(sorted(table))
    vals = np.array([table[l].value for l in lams])
    finite = np.isfinite(vals) & (vals > 0)
    if finite.sum() >= 2:
        cap_val = float(10.0 * np.max(vals[finite]))
        capped = np.minimum(np.where(finite, vals, cap_val), cap_val)
        yield TabulatedSource(lambdas=lams, log_values=np.log(capped),
                              label="capped s_rho")
