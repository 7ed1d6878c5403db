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

import collections
import functools
import math
import weakref
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .filters import (ALPHA_GRID_MIN, LAMBDA_GRID_MAX, FilterFamily, ParameterRangeError,
                      _check_alpha, _check_lambda, default_alpha_grid, default_lambda_grid,
                      lambda_top, residual_log_sign)
from .limits import TAIL_MIN_POINTS, LimitEstimate, sat_exp, sat_exp_array, tail_limit, tail_of
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


_NO_ENTRIES = MappingProxyType({})  # a record's empty default mapping, read-only


class PairVerdict(NamedTuple):
    """Outcome of a source-order / order-source pair test."""

    holds: bool
    bound_k: float | None = None
    gamma: float | None = None
    h_used: str | None = None
    witnesses: list = ()
    detail: dict = _NO_ENTRIES

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


class ClassicalOrder(NamedTuple):
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


class MPVerdict(NamedTuple):
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


class QualificationReport(NamedTuple):
    """Full qualification verdict for one (filter, rho) combination."""

    filter_id: str
    rho_label: str
    level: str  # none | weak | strong | optimal
    srho_table: dict  # lambda -> LimitEstimate
    classical_mu0: ClassicalOrder | None
    mp_verdict: MPVerdict | None
    evidence: dict  # level name -> PairVerdict
    source_label: str | None = None
    grid_meta: dict = _NO_ENTRIES

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
    any other value passes through unchanged.  A record (a NamedTuple)
    raises TypeError, as ``json.dumps`` would: its document is its
    ``to_json_dict``, never the list of its fields."""
    if isinstance(x, (dict, MappingProxyType)):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        if hasattr(x, "_fields"):
            raise TypeError(f"{type(x).__name__} record is not a JSON value; "
                            "use its to_json_dict()")
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


def _grid(filt, name, grid, default) -> np.ndarray:
    """A verdict's alpha, lambda or mu grid: ``default()`` for None, else
    ``grid`` as a float array.  QualificationError unless it is 1-d and
    non-empty with every value finite and positive, and an alpha grid has
    the ``TAIL_MIN_POINTS`` a tail estimate reads; ParameterRangeError if an
    alpha or lambda grid breaks the family's range (the CLI's rule)."""
    if grid is None:
        return default()
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or not g.size:
        raise QualificationError(f"{name} grid of shape {g.shape} is not 1-d and non-empty")
    if name == "alpha" and g.size < TAIL_MIN_POINTS:
        raise QualificationError(f"alpha grid of {g.size} points has fewer than {TAIL_MIN_POINTS}")
    ok = np.isfinite(g) & (g > 0)
    if not ok.all():
        raise QualificationError(f"{name} grid value {g[~ok][0]} is not finite and positive")
    if name == "mu":  # exponents, not points of the family's range
        return g
    try:
        return (_check_alpha if name == "alpha" else _check_lambda)(filt, g)
    except ParameterRangeError as exc:
        raise ParameterRangeError(f"{name} grid value {g.max()} is out of range: {exc}") from exc


# ln|r| over (lambda x tail) for the s_rho table and the weak pair, with its grids
_Mesh = collections.namedtuple("_Mesh", "lams alphas tail r_log")


def _mesh(filt, rho, lambda_grid, alpha_grid) -> tuple[_Mesh, np.ndarray]:
    """Certify ``rho``, then the residual mesh on the given grids (kept,
    rho-free, on the default ones) and ln rho at its tail."""
    _require_certified(rho, "order function")
    def build():
        lams = _grid(filt, "lambda", lambda_grid, lambda: default_lambda_grid(filt))
        alphas = _grid(filt, "alpha", alpha_grid, lambda: default_alpha_grid(filt))
        t = tail_of(alphas)
        with np.errstate(all="ignore"):
            return _Mesh(lams, alphas, t, np.asarray(filt._r_log(t.alphas, lams[:, None]), float))
    m = _kept(filt, "mesh", build, lambda_grid, alpha_grid)
    return m, rho.log_at(m.tail.alphas)


def _frozen(x):
    """``x``, with every array in it (through nested tuples) read-only."""
    if isinstance(x, np.ndarray):
        x.setflags(write=False)
    elif isinstance(x, tuple):
        for v in x:
            _frozen(v)
    return x


_STORE = weakref.WeakKeyDictionary()  # a live family -> its ``_defaults``


def _defaults(filt: FilterFamily) -> dict:
    """What the verdicts read of ``filt`` alone, freed with ``filt``: the
    s_rho ``mesh``, the order-source ``window``, the ``classical`` order and
    the ``mp`` mesh (233 kB at 65 x 447), as a call on every default, ``a``
    = 1 for the mp-check, builds them (see ``_kept``)."""
    return _STORE.setdefault(filt, {})


def _kept(filt, key, build, *given):
    """``build()``, kept read-only under ``key`` in ``_defaults(filt)`` when
    every input it is built from, ``given``, is None: the store's one rule."""
    if any(g is not None for g in given):
        return build()
    kept = _defaults(filt)
    if key not in kept:
        kept[key] = _frozen(build())
    return kept[key]


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
    return _srho(*_mesh(filt, rho, lambda_grid, alpha_grid))


def _srho(m: _Mesh, lrho) -> dict[float, LimitEstimate]:
    """The s_rho table on the residual mesh ``m``; ``lrho`` is ln rho at its tail."""
    with np.errstate(all="ignore"):
        log_ratio = lrho - m.r_log
    return dict(zip(m.lams.tolist(), tail_limit(m.tail, log_ratio, "liminf")))


# ---------------------------------------------------------------------------
# pair predicates
# ---------------------------------------------------------------------------

def check_weak_pair(
    filt: FilterFamily,
    s,
    rho,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> PairVerdict:
    """Is s(lm)|r|/rho bounded in alpha for every sampled lambda?"""
    _require_certified(s, "source function")
    return _weak_pair(*_mesh(filt, rho, lambda_grid, alpha_grid), s)


def _weak_pair(m: _Mesh, lrho, s) -> PairVerdict:
    """The weak pair on the residual mesh ``m``, ``lrho`` being ln rho at its
    tail: the limsup over alpha of s(lm)|r_alpha(lm)| / rho(alpha) at each lambda."""
    with np.errstate(all="ignore"):
        lq = s.log_at(m.lams)[:, None] + m.r_log - lrho
    witnesses = []
    bound = 0.0
    estimates = {}
    for lam, est in zip(m.lams.tolist(), tail_limit(m.tail, lq, "limsup")):
        estimates[lam] = est
        if not est.bounded:
            witnesses.append((float(np.min(m.alphas)), lam))
        else:
            bound = max(bound, est.tail_max)
    holds = not witnesses
    return PairVerdict(holds=holds, bound_k=bound if holds else None, witnesses=witnesses,
                       detail={"estimates": estimates})


def check_strong_pair(
    filt: FilterFamily,
    s,
    rho,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> PairVerdict:
    """Weak pair whose limsup also stays bounded away from zero."""
    _require_certified(s, "source function")
    m, lrho = _mesh(filt, rho, lambda_grid, alpha_grid)
    weak = _weak_pair(m, lrho, s)
    if not weak.holds:
        return PairVerdict(holds=False, witnesses=weak.witnesses,
                           detail={"failed": "weak", **weak.detail})
    alpha_min = float(np.min(m.alphas))
    witnesses = [(alpha_min, lam) for lam, est in weak.detail["estimates"].items()
                 if not est.positive]
    return PairVerdict(holds=not witnesses, bound_k=weak.bound_k, witnesses=witnesses,
                       detail=weak.detail)


SCAN_POINTS = 64    # geometric lambdas of the scan of each window, both ends included
WINDOW_ALPHAS = 96  # geometric alpha subgrid whose window infima are estimated
_SCAN_FRACTIONS = _frozen(np.linspace(0.0, 1.0, SCAN_POINTS))  # of each window's log span


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
    lambda window is the least of two reads:

      * a geometric scan of SCAN_POINTS lambdas from the window's low end,
        h(alpha) clamped into [LAMBDA_TINY, lm_max), to lm_max, both ends
        included: one ``_r_log`` call for the whole subgrid.  A window
        whose q is monotone has its infimum at a scanned end, and a smooth
        interior minimum is read to O(step^2);
      * q at the family's dips (``FilterFamily._dips``), the exact minima
        of |r| in lambda, in closed form: each scan lambda snapped down to
        the largest dip below it, kept when it lies in the window.  The
        dips of an oscillatory family are its phase roots, which no lambda
        scan resolves, so an oscillatory family without a dip set raises
        ``QualificationError`` instead of a verdict; ex7's dip is the root
        of its residual, where q is 0.  Without a dip set, r is taken as
        continuous in lambda: a strict sign change between adjacent scan
        lambdas brackets a root, and q reads 0 at the upper one; only a
        family with a sign channel (``_r_log_sign``) can mark one.

    The per-alpha infima then go through the tail estimator: the pair
    holds when their liminf stays above the positivity floor, with gamma
    the least sampled q.
    """
    _require_certified(rho, "order function")
    _require_certified(s, "source function")
    _require_certified(h, "window function h")
    if filt.oscillatory and filt._dips is None:
        raise QualificationError(
            f"oscillatory filter '{filt.id}' has its dips unknown (no dip set), "
            "so its order-source window infimum cannot be bounded"
        )
    lam_max = (lambda_top(filt, LAMBDA_GRID_MAX) if lambda_grid is None  # the default grid's top
               else float(np.max(_grid(filt, "lambda", lambda_grid, None))))

    def window():  # the alpha subgrid and its Tail
        alphas = _grid(filt, "alpha", alpha_grid, lambda: default_alpha_grid(filt))
        sub = np.geomspace(np.min(alphas), np.max(alphas), min(WINDOW_ALPHAS, alphas.size))
        return sub, tail_of(sub)
    sub, t = _kept(filt, "window", window, alpha_grid)

    # one row per alpha: the scan, then the dips
    A = sub[:, None]
    log_rho = rho.log_at(sub)[:, None]
    log_h = log_rho[:, 0] if h is rho else h.log_at(sub)  # classify's window is rho itself
    log_hi = math.log(lam_max)
    log_lo = np.minimum(np.maximum(log_h, math.log(LAMBDA_TINY)), log_hi - 1e-6)
    L = np.exp(log_lo[:, None] + _SCAN_FRACTIONS * (log_hi - log_lo)[:, None])

    def log_q(lam, log_r):
        with np.errstate(all="ignore"):
            return s.log_at(lam) + np.asarray(log_r, dtype=float) - log_rho

    if filt._dips is not None:  # one log_q over the scan and the dips
        Ld, log_rd = filt._dips(A, L)
        inside = (Ld >= L[:, :1]) & (Ld <= lam_max)
        log_r = np.concatenate([filt._r_log(A, L), log_rd], 1)
        L = np.concatenate([L, Ld], 1)
        Q = log_q(L, log_r)
        Q[:, SCAN_POINTS:][~inside] = math.inf
    elif filt._r_log_sign is None:  # r >= 0: no sign change to mark
        Q = log_q(L, filt._r_log(A, L))
    else:
        log_r, sign = filt._r_log_sign(A, L)
        Q = log_q(L, log_r)
        Q[:, 1:][sign[:, :-1] * sign[:, 1:] < 0] = -math.inf
    best = (np.arange(sub.size), Q.argmin(1))  # each row's least q
    gam_log, gam_lam = Q[best], L[best]

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
    return default_alpha_grid(filt, DEEP_ALPHA_MIN, per_decade=DEEP_PER_DECADE)


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
    The order depends on the filter alone, so on the default grids it is
    probed once per instance and the same ``ClassicalOrder`` is returned.
    """
    def probe():
        mus = np.sort(_grid(filt, "mu", mu_grid, default_mu_grid))
        lams = _grid(filt, "lambda", lambda_grid, lambda: default_lambda_grid(filt, per_decade=2))
        t = tail_of(_grid(filt, "alpha", alpha_grid, lambda: _deep_alpha_grid(filt)))
        with np.errstate(all="ignore"):
            rlog = filt._r_log(t.alphas, lams[:, None])
        mu = mus[:, None]
        lq = _sup_log_ratio(rlog, mu * np.log(lams), mu * np.log(t.alphas))
        passed = tuple(est.bounded for est in tail_limit(t, lq, "limsup", n_blocks=5))
        k = passed.index(False) if False in passed else len(passed)  # the first failing mu
        return ClassicalOrder(
            low=float(mus[k - 1]) if k else None,
            high=float(mus[k]) if k < len(passed) else None,
            zero=k == 0,
            infinite=k == len(passed),
            mu_grid=tuple(float(m) for m in mus),
            passed=passed,
        )
    return _kept(filt, "classical", probe, mu_grid, lambda_grid, alpha_grid)


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
    on a tie) and its growth, the largest over the smallest ratio on the
    alpha grid; the growth is +inf when that quotient overflows a double
    or the ratio is not finite (an order with a pole in (0, a]).  On
    failure a companion certificate reports whether the given rho still
    bounds the residual in the constructive windowed sense (sup over
    lambda >= h(alpha) of |r| below rho(alpha) for a vanishing h), which
    is how methods with infinite classical order keep a meaningful order
    of convergence.

    On the default grids and ``a`` = 1, the call ``classify`` makes, the
    rho-free ln|r| mesh is built once and kept per instance; a given grid
    or another ``a`` builds its own.
    """
    _require_certified(rho, "order function")
    if not 0 < a < math.inf:
        raise QualificationError(f"interval bound a must be positive and finite, got {a}")

    def default_lams():
        lam_top = lambda_top(filt, a)
        if not lam_top >= MP_LAMBDA_MIN:
            raise QualificationError(
                f"interval bound a={a:g} leaves the default lambda grid "
                f"[{MP_LAMBDA_MIN:g}, {lam_top:g}] empty")
        return np.geomspace(MP_LAMBDA_MIN, lam_top,
                            int(16 * math.log10(lam_top / MP_LAMBDA_MIN)) + 1)

    def default_alphas():
        top = min(a, filt.alpha_max * (1 - 1e-12))
        return np.geomspace(ALPHA_GRID_MIN, top, int(64 * math.log10(top / ALPHA_GRID_MIN)))

    def grids():
        lams = _grid(filt, "lambda", lambda_grid, default_lams)
        alphas = np.sort(_grid(filt, "alpha", alpha_grid, default_alphas))
        t = tail_of(alphas)
        with np.errstate(all="ignore"):
            R = np.asarray(filt._r_log(alphas[None, :], lams[:, None]), dtype=float)
        return lams, alphas, t, R

    lams, alphas, t, R = _kept(filt, "mp", grids, lambda_grid, alpha_grid, a != 1.0 or None)

    with np.errstate(all="ignore"):
        lrho = rho.log_at(alphas)
        ratio_log = _sup_log_ratio(R, rho.log_at(lams)[None], lrho[None])[0]

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
    A row's window h starts past its last lambda where ln|r| <= ln rho(alpha)
    + 1e-9 fails (as it does for a nan), or is nan if that is the last lambda.
    """
    bad = ~(R <= lrho[:, None] + 1e-9)
    start = np.where(np.any(bad, axis=1), len(lams) - np.argmax(bad[:, ::-1], axis=1), 0)
    h_vals = np.append(lams, np.nan)[start]  # nan: no window
    found = np.isfinite(h_vals)
    tail = found[: max(len(lrho) // 2, 1)]
    holds = bool(np.all(tail))
    vanishing = False
    if holds:
        lo = h_vals[0]  # row 0 is in the tail, so it has a window
        # clamped to the last lambda, so a one-point grid has a reference
        vanishing = bool(lo <= lams[min(max(1, len(lams) // 5), len(lams) - 1)])
    return {
        "holds": holds and vanishing,
        "h_at_alpha_min": float(h_vals[0]),
        "coverage": float(np.mean(found)),
    }


# ---------------------------------------------------------------------------
# constructive weak qualification
# ---------------------------------------------------------------------------

BISECT_TOL = 1e-10  # absolute alpha tolerance of the theta bisection


class ConstructResult(NamedTuple):
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
    alphas = _grid(filt, "alpha", alpha_grid, lambda: default_alpha_grid(filt, per_decade=64))
    top = lambda_top(filt, 100.0)  # the default lambdas: in range, at least a decade wide
    lams = _grid(filt, "lambda", lambda_grid, lambda: np.geomspace(min(1e-4, top / 10.0), top, 321))

    _verify_part_b_hypotheses(filt, alphas, lams)

    # theta by vectorized bisection over the lambda batch
    lo = np.full(lams.shape, alphas[0] * 1e-3)
    top = hi = np.full(lams.shape, filt.alpha_max * (1.0 - 1e-12))  # np.where never writes hi
    with np.errstate(all="ignore"):
        top_ok = sat_exp_array(filt._r_log(top, lams)) <= lams
    steps = int(math.ceil(math.log2(float(filt.alpha_max) / BISECT_TOL)))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        with np.errstate(all="ignore"):
            ok = sat_exp_array(filt._r_log(mid, lams)) <= lams
        lo = np.where(ok, mid, lo)
        hi = np.where(ok, hi, mid)
    theta = np.where(top_ok, top, lo)
    if not np.all(theta > 0):  # NaN too
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

    One (alpha x sweep) residual mesh; each row is read over its window,
    the sweep points at or above h(alpha).  An alpha whose window holds
    no sweep point is skipped.  Witnesses are (alpha, the lambda of the
    largest residual in its window) for each alpha whose supremum exceeds
    the bound by more than 1e-6 in log.
    """
    window = sweep >= np.exp(h.log_at(alphas))[:, None]
    with np.errstate(all="ignore"):
        R = np.where(window, filt._r_log(alphas[:, None], sweep), -np.inf)
    rows = np.nonzero(window.any(axis=1))[0]
    gap = R[rows].max(axis=1) - log_bound[rows]
    failing = rows[gap > 1e-6]
    witnesses = [(float(alphas[i]), float(sweep[np.argmax(R[i])])) for i in failing.tolist()]
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

@functools.cache
def _lambda_source():
    """The certified source ``lambda``, made once per process on first use
    (not at import, so a CLI call that never needs it pays nothing)."""
    return certify_source_fn("lambda")


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
    the lambda range).  When strong fails, weak checks one source, the
    capped s_rho table if it has a finite positive value and lambda
    otherwise: a positive factor on s(lm) cannot change whether
    s(lm)|r_alpha(lm)|/rho(alpha) stays bounded at lm.  With ``companions``
    the report also carries the classical-order bracket and the
    increasing-weight check; without them both are None.  Every report
    of one instance shares its ``ClassicalOrder`` and the grids, tails and
    meshes of the default grids (see ``_kept``); this assumes the family's
    ``g`` and ``_r_log`` are pure functions.
    """
    m, lrho = _mesh(filt, rho, lambda_grid, alpha_grid)  # shared by s_rho and the weak fallback
    table = _srho(m, lrho)
    evidence: dict[str, PairVerdict] = {}

    failing = [lam for lam, est in table.items()
               if not (est.stabilized and est.bounded and est.positive)]
    strong = not failing
    level = "none"
    source_label = None
    lams = np.array(sorted(table))
    vals = np.array([table[l].value for l in lams])

    if strong:
        level = "strong"
        s_tab = TabulatedSource(lambdas=lams, log_values=np.log(vals),
                                label="s_rho (tabulated)")
        source_label = s_tab.label
        evidence["strong"] = PairVerdict(
            holds=True,
            bound_k=float(np.max(vals) / np.min(vals)),
            detail={"criterion": "0 < s_rho < inf at every sampled lambda"},
        )
        evidence["weak"] = evidence["strong"]
        # both grids as given: default ones take the kept alpha subgrid and the lambda top
        osp = check_order_source_pair(filt, rho, s_tab, rho, lambda_grid, alpha_grid)
        evidence["optimal"] = osp
        if osp.holds:
            level = "optimal"
    else:
        evidence["strong"] = PairVerdict(
            holds=False,
            witnesses=[(float(np.min(m.alphas)), lam) for lam in failing[:4]],
            detail={"criterion": "s_rho must be finite, positive and stabilized"},
        )
        source = _weak_source(lams, vals)
        weak = _weak_pair(m, lrho, source)
        if weak.holds:
            level, source_label = "weak", source.label
        evidence["weak"] = weak if weak.holds else PairVerdict(
            holds=False, detail={"criterion": f"the source checked, {source.label}, is not weak"})

    return QualificationReport(
        filter_id=filt.id,
        rho_label=getattr(rho, "label", "rho"),
        level=level,
        srho_table=table,
        classical_mu0=estimate_classical_order(filt) if companions else None,
        mp_verdict=check_mp_qualification(filt, rho) if companions else None,
        evidence=evidence,
        source_label=source_label,
        grid_meta={
            "lambda_grid": [float(x) for x in m.lams],
            "alpha_points": int(m.alphas.size),
            "alpha_range": (float(np.min(m.alphas)), float(np.max(m.alphas))),
        },
    )


def _weak_source(lams, vals):
    """The s_rho table (``vals`` at ``lams``), each value not finite and
    positive set to 10x the largest that is, or lambda when none is: the
    table scales the weak ratio to O(1), away from ``FLOOR`` and ``CAP``."""
    finite = np.isfinite(vals) & (vals > 0)
    if not finite.any():
        return _lambda_source()
    capped = np.where(finite, vals, 10.0 * np.max(vals[finite]))
    return TabulatedSource(lambdas=lams, log_values=np.log(capped), label="capped s_rho")
