"""Spectral filter families and the regularization-method axiom checker.

A filter family g_alpha(lambda) approximates 1/lambda as alpha -> 0.
Each catalog entry carries closed forms for the filter g and for the log
of its residual r_alpha(lambda) = 1 - lambda*g_alpha(lambda), the
quantity that controls the componentwise regularization error.

ln|r| is the one residual definition.  Ratios like
exp(-1/alpha) / r_alpha(lambda) that drive the source-function
estimators live far below double-precision range for
e^(-lambda/alpha)-type methods, so the whole estimation stack works on
ln|r|; the value of r is derived from it as sign * e^(ln|r|), with
ln|r| and the sign from one kernel call in ``residual_log_sign``.

Catalog ids (stable interface, used by the CLI and config files):
tikhonov, tsvd, ex3_exp, ex4_log, ex7_piecewise, ex8_osc(k),
ex9_osc, ex10_osc, landweber(mu), showalter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .limits import sat_exp_array

NEG_INF = -np.inf

# H3 deep-probe parameters: the residual must have shrunk at alpha=1e-300,
# either below the absolute tolerance or to half its value at the grid floor
H3_PROBE_ALPHA = 1e-300
H3_ABS_TOL = 0.05
H3_SHRINK = 0.5
H3_LAMBDA_MIN = 0.01

ALPHA_GRID_MIN = 1e-7  # default small end of the working alpha grid
LAMBDA_GRID_MAX = 10.0  # top of the default lambda grid before the lambda_sup clamp


class FilterError(ValueError):
    """Base class for filter-family failures."""


class UnknownFilterError(FilterError):
    def __init__(self, name: str):
        super().__init__(f"unknown catalog filter '{name}'")
        self.name = name


class ParameterRangeError(FilterError):
    """alpha or lambda outside the family's valid range."""


class ResidualValue(NamedTuple):
    """r_alpha(lambda) with an underflow-safe logarithmic channel."""

    value: float
    log_abs: float  # ln|r|, -inf when r == 0
    sign: int       # -1, 0, +1


@dataclass(frozen=True, eq=False)
class FilterFamily:
    """A parametric spectral filter with a closed-form ln|r|.

    ``_g``, ``_r_log`` and ``_r_log_sign`` accept numpy arrays (broadcast
    over alpha and lambda).  A family whose residual can be negative
    supplies ``_r_log_sign(alpha, lambda) -> (ln|r|, sign)``, both from one
    evaluation of its kernel; for any other it is None, and
    ``residual_log_sign`` reads the sign from ln|r|.  ``_r_log`` stays the
    estimators' one-output path.  The value of r comes from
    ``residual_value``.
    ``_dips(alpha, lambda)`` is the dip set of a family whose |r| has
    known exact minima in lambda: it returns the largest such point
    <= lambda (the first one when lambda lies below it) and ln|r| there;
    it is None for a family without one.  Instances are immutable and safe
    to share.  A family is made of closures, so it compares and hashes by
    identity: two ``get_filter`` calls give two unequal families, and
    ``qualification``'s verdicts keep the classical order and the default
    grids and meshes per instance, until the instance is freed.
    """

    id: str
    alpha_max: float
    h2_constant: float
    oscillatory: bool
    params: dict[str, float] = field(default_factory=dict)
    lambda_sup: float | None = None  # exclusive upper bound on valid lambda
    _g: Callable = None
    _r_log: Callable = None
    _r_log_sign: Callable = None
    _dips: Callable = None

    def __post_init__(self):
        if not self.alpha_max > 0:
            raise FilterError(f"alpha_max must be positive, got {self.alpha_max}")
        if not self.h2_constant > 0:
            raise FilterError(f"h2_constant must be positive, got {self.h2_constant}")


def _check_alpha(filt: FilterFamily, alpha) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    # ex10_osc's range is open at alpha_max = 1, where -1/ln(alpha) is infinite
    is_open = filt.id == "ex10_osc"
    out = (a <= 0) | (a > filt.alpha_max) | (is_open & (a == filt.alpha_max))
    if np.any(out):
        raise ParameterRangeError(
            f"alpha={a[out].flat[0]} outside (0, {filt.alpha_max}{')' if is_open else ']'} "
            f"for filter '{filt.id}'"
        )
    return a


def _check_lambda(filt: FilterFamily, lam) -> np.ndarray:
    lm = np.asarray(lam, dtype=float)
    if np.any(lm < 0):
        raise ParameterRangeError(f"lambda must be nonnegative for filter '{filt.id}'")
    if filt.lambda_sup is not None and np.any(lm > filt.lambda_sup):
        raise ParameterRangeError(
            f"lambda exceeds {filt.lambda_sup} (valid range) for filter '{filt.id}'"
        )
    return lm


def eval_g(filt: FilterFamily, alpha: float, lam: float) -> float:
    """The filter value g_alpha(lambda); may saturate to inf on overflow."""
    a = _check_alpha(filt, alpha)
    lm = _check_lambda(filt, lam)
    return float(filt._g(a, lm))


def eval_residual(filt: FilterFamily, alpha: float, lam: float) -> ResidualValue:
    """r_alpha(lambda) = 1 - lambda*g_alpha(lambda), with ln|r| channel."""
    a = _check_alpha(filt, alpha)
    lm = _check_lambda(filt, lam)
    log_abs, sign = residual_log_sign(filt, a, lm)
    return ResidualValue(value=float(sign * sat_exp_array(log_abs)),
                         log_abs=float(log_abs), sign=int(sign))


def residual_log_sign(filt: FilterFamily, alpha, lam):
    """``(ln|r|, sign)`` of r_alpha(lambda) from one kernel call (no range
    checks): the family's own ``_r_log_sign`` if it has one, else
    ``_r_log`` with the sign 0 where ln|r| is -inf or NaN (NaN compares
    false) and +1 elsewhere."""
    a, lm = np.asarray(alpha, dtype=float), np.asarray(lam, dtype=float)
    if filt._r_log_sign is not None:
        return filt._r_log_sign(a, lm)
    log_abs = filt._r_log(a, lm)
    return log_abs, np.where(log_abs > NEG_INF, 1, 0)


def residual_value(filt: FilterFamily, alpha, lam) -> np.ndarray:
    """Vectorized r_alpha(lambda) = sign * e^(ln|r|), saturating past the
    overflow edge (no range checks)."""
    log_abs, sign = residual_log_sign(filt, alpha, lam)
    return sign * sat_exp_array(log_abs)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _softplus(u):
    """ln(1 + e^u), stable for large |u|."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)
    big = u > 34.0
    with np.errstate(over="ignore"):
        out[~big] = np.log1p(np.exp(u[~big]))
    out[big] = u[big]  # + e^-u, below double resolution
    return out


def _piecewise(a, lm, mask, on, off):
    """An array of the broadcast shape of ``a`` and ``lm``: ``on(a, lm)``
    where ``mask(a, lm)`` holds and ``off(a, lm)`` elsewhere, each closed
    form evaluated on its own points only."""
    a, lm = np.broadcast_arrays(np.asarray(a, float), np.asarray(lm, float))
    out = np.empty(a.shape)
    m = mask(a, lm)
    out[m] = on(a[m], lm[m])
    out[~m] = off(a[~m], lm[~m])
    return out


def _tikhonov():
    def g(a, lm):
        return 1.0 / (lm + a)

    def r_log(a, lm):
        return np.log(a) - np.log(a + lm)

    return FilterFamily(
        id="tikhonov", alpha_max=1.0, h2_constant=1.0, oscillatory=False,
        _g=g, _r_log=r_log,
    )


def _tsvd():
    def g(a, lm):
        with np.errstate(divide="ignore"):
            return np.where(lm >= a, 1.0 / np.asarray(lm, dtype=float), 0.0)

    def r_log(a, lm):
        return np.where(lm >= a, NEG_INF, 0.0)

    return FilterFamily(
        id="tsvd", alpha_max=1.0, h2_constant=1.0, oscillatory=False,
        _g=g, _r_log=r_log,
    )


def _ex3_exp():
    # g = (1 - e^(-1/a)) / (lm + e^(-1/a));  r = (1+lm) / (1 + lm*e^(1/a))
    def g(a, lm):
        with np.errstate(over="ignore", divide="ignore"):
            e = np.exp(-1.0 / a)
            return (1.0 - e) / (lm + e)

    def r_log_pos(a, lm):
        with np.errstate(divide="ignore"):
            u = 1.0 / a + np.log(lm)
        return np.log1p(lm) - _softplus(u)

    def r_log(a, lm):  # lambda = 0: r = 1
        return _piecewise(a, lm, lambda a, lm: lm > 0, r_log_pos, lambda a, lm: 0.0)

    return FilterFamily(
        id="ex3_exp", alpha_max=1.0, h2_constant=1.0, oscillatory=False,
        _g=g, _r_log=r_log,
    )


def _ex4_log():
    # alpha_0 < 1/e;  g = (1 + 1/ln(a)) / (lm - 1/ln(a));  r = (1+lm)/(1 - lm*ln(a))
    def g(a, lm):
        inv = 1.0 / np.log(a)
        return (1.0 + inv) / (lm - inv)

    def r_log(a, lm):
        return np.log1p(lm) - np.log(1.0 - lm * np.log(a))

    return FilterFamily(
        id="ex4_log", alpha_max=0.3, h2_constant=1.0, oscillatory=False,
        _g=g, _r_log=r_log,
    )


def _ex7_piecewise():
    # alpha_0 < 1/2.  Inner region [0, 2a) uses the constant filter value
    # c(a) = (2a - (a + 2a^2)/ln 3)^(-1); outer region uses
    # g = (1 - h)/(lm + h) with h = a / (a + ln(a/(a+lm))).
    # The inner residual 1 - lm*c(a) vanishes at lm = 1/c(a) (~1.09a as a -> 0),
    # inside [0, 2a) for every alpha in the range: ``_dips`` returns that root.
    LN3 = math.log(3.0)

    def root(a):
        return 2.0 * a - (a + 2.0 * a * a) / LN3

    def c_of(a):
        return 1.0 / root(a)

    def g_outer(a, lm):
        h = a / (a + np.log(a / (a + lm)))
        return (1.0 - h) / (lm + h)

    def g(a, lm):
        return _piecewise(a, lm, lambda a, lm: lm < 2.0 * a, lambda a, lm: c_of(a), g_outer)

    def log_sign(a, lm):
        # inner: r = 1 - lm*c(a); outer: r = a(1+lm)/den, whose numerator
        # is positive, so r has the sign of den
        a, lm = np.broadcast_arrays(np.asarray(a, float), np.asarray(lm, float))
        out, v = np.empty(a.shape), np.empty(a.shape)
        inner = lm < 2.0 * a
        ao, lo = a[~inner], lm[~inner]
        with np.errstate(divide="ignore"):
            v[inner] = 1.0 - lm[inner] * c_of(a[inner])
            v[~inner] = lo * np.log(ao / (ao + lo)) + ao * (1.0 + lo)
            np.log(np.abs(v), out=out)
            out[~inner] = np.log(ao) + np.log1p(lo) - out[~inner]
        return out, np.sign(v)

    def dips(a, lm):
        shape = np.broadcast_shapes(np.shape(a), np.shape(lm))
        return np.broadcast_to(root(np.asarray(a, float)), shape), np.full(shape, -math.inf)

    return FilterFamily(
        id="ex7_piecewise", alpha_max=0.4, h2_constant=6.0, oscillatory=False,
        _g=g, _r_log=lambda a, lm: log_sign(a, lm)[0], _r_log_sign=log_sign, _dips=dips,
    )


def _osc_family(fid: str, coeff_log, h2: float, alpha_max: float = 1.0, params=None):
    """Shared form for the oscillatory entries:

    r = e^(-lm/a) + c(a) * lm^(-1/2) * |sin(lm^(3/2)/a)|
    g = (1 - e^(-lm/a))/lm - c(a) * lm^(-3/2) * |sin(lm^(3/2)/a)|

    ``coeff_log`` returns ln c(alpha) for the family's perturbation size.
    The dips sit at the phase roots lambda_k = (k pi alpha)^(2/3), k >= 1,
    where the sin term vanishes and ln r = -lambda_k/alpha exactly;
    ``_dips`` snaps lambda down to the largest one <= lambda (k = 1 below
    the first root).
    """

    def g_pos(a, lm):
        return ((1.0 - np.exp(-lm / a)) / lm
                - np.exp(coeff_log(a)) * lm ** -1.5 * np.abs(np.sin(lm ** 1.5 / a)))

    def g(a, lm):  # limit at lambda -> 0: (1 - c(a))/a
        return _piecewise(a, lm, lambda a, lm: lm == 0,
                          lambda a, lm: (1.0 - np.exp(coeff_log(a))) / a, g_pos)

    def r_log(a, lm):
        # each factor on its own axis, then one broadcast; lambda == 0
        # gives r = 1 (its nan from inf - inf is replaced by log 1 = 0)
        a, lm = np.asarray(a, float), np.asarray(lm, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            t2 = coeff_log(a) - 0.5 * np.log(lm) + np.log(np.abs(np.sin(lm ** 1.5 / a)))
            return np.where(lm > 0, np.logaddexp(-lm / a, t2), 0.0)

    def dips(a, lm):
        a, lm = np.asarray(a, float), np.asarray(lm, float)
        x = np.maximum(np.floor(lm ** 1.5 / (math.pi * a)), 1.0) * math.pi * a
        lk = x / np.cbrt(x)  # x^(2/3) to ~2 ulp, with no underflow of x*x
        return lk, -lk / a

    return FilterFamily(
        id=fid, alpha_max=alpha_max, h2_constant=h2, oscillatory=True,
        params=params or {},
        _g=g, _r_log=r_log, _dips=dips,
    )


def _ex8_osc(k: float = 1.0):
    def coeff_log(a):
        return k * np.log(a)

    return _osc_family("ex8_osc", coeff_log, h2=2.5, params={"k": float(k)})


def _ex9_osc():
    def coeff_log(a):
        return -1.0 / np.sqrt(a)

    return _osc_family("ex9_osc", coeff_log, h2=2.0)


def _ex10_osc():
    def coeff_log(a):
        return -np.log(-np.log(a))  # ln of -1/ln(alpha), positive for alpha < 1

    return _osc_family("ex10_osc", coeff_log, h2=8.0)


def _landweber(mu: float = 0.5):
    def g(a, lm):
        return _piecewise(a, lm, lambda a, lm: lm == 0, lambda a, lm: mu / a,
                          lambda a, lm: -np.expm1(np.log1p(-mu * lm) / a) / lm)

    def r_log(a, lm):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log1p(-mu * np.asarray(lm, float)) / np.asarray(a, float)

    return FilterFamily(
        id="landweber", alpha_max=1.0, h2_constant=1.0, oscillatory=False,
        params={"mu": float(mu)}, lambda_sup=1.0 / mu,
        _g=g, _r_log=r_log,
    )


def _showalter():
    def g(a, lm):
        return _piecewise(a, lm, lambda a, lm: lm == 0, lambda a, lm: 1.0 / a,
                          lambda a, lm: -np.expm1(-lm / a) / lm)

    def r_log(a, lm):
        return -np.asarray(lm, float) / np.asarray(a, float)

    return FilterFamily(
        id="showalter", alpha_max=1.0, h2_constant=1.0, oscillatory=False,
        _g=g, _r_log=r_log,
    )


_BUILDERS: dict[str, Callable[..., FilterFamily]] = {
    "tikhonov": _tikhonov,
    "tsvd": _tsvd,
    "ex3_exp": _ex3_exp,
    "ex4_log": _ex4_log,
    "ex7_piecewise": _ex7_piecewise,
    "ex8_osc": _ex8_osc,
    "ex9_osc": _ex9_osc,
    "ex10_osc": _ex10_osc,
    "landweber": _landweber,
    "showalter": _showalter,
}

_ALIASES = {
    "ex3": "ex3_exp",
    "ex4": "ex4_log",
    "ex7": "ex7_piecewise",
    "ex8": "ex8_osc",
    "ex9": "ex9_osc",
    "ex10": "ex10_osc",
}


def list_filters() -> list[str]:
    return sorted(_BUILDERS)


def get_filter(name: str, **params) -> FilterFamily:
    """Instantiate a catalog family by id (aliases ex3..ex10 accepted).

    Every catalog parameter (``k`` of ex8_osc, ``mu`` of landweber) is a
    positive finite real; any other value raises ``FilterError``.
    """
    key = _ALIASES.get(name, name)
    builder = _BUILDERS.get(key)
    if builder is None:
        raise UnknownFilterError(name)
    for param, value in params.items():
        if not 0 < value < math.inf:
            raise FilterError(f"{key} requires {param} positive and finite, got {value}")
    return builder(**params)


def make_custom_filter(
    fid: str,
    g: Callable,
    alpha_max: float,
    h2_constant: float,
    oscillatory: bool = False,
) -> FilterFamily:
    """Wrap an arbitrary g(alpha, lambda); the residual channel is generic.

    A custom family has no dip set, so for an ``oscillatory`` one
    ``check_order_source_pair`` raises ``QualificationError`` (dips
    unknown) rather than report a window infimum that missed them.  Its
    residual 1 - lambda g is assumed continuous in lambda: that check
    reads a sign change of r between two scanned lambdas as a root.
    """

    def log_sign(a, lm):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = 1.0 - lm * g(a, lm)
            return np.log(np.abs(r)), np.sign(r)

    return FilterFamily(
        id=fid, alpha_max=alpha_max, h2_constant=h2_constant,
        oscillatory=oscillatory,
        _g=g, _r_log=lambda a, lm: log_sign(a, lm)[0], _r_log_sign=log_sign,
    )


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

class AxiomReport(NamedTuple):
    """Grid verdicts for the three regularization-method hypotheses."""

    h1_finite: bool
    h2_bounded: bool
    h3_pointwise: bool
    h2_observed_sup: float
    h3_worst_deviation: float
    failures: list[dict] = ()
    notes: list[str] = ()

    @property
    def all_pass(self) -> bool:
        return self.h1_finite and self.h2_bounded and self.h3_pointwise


def _decades(lo: float, hi: float) -> float:
    """log10(hi / lo), from the logs of the ends where the ratio overflows."""
    return math.log10(hi / lo) if hi / lo < math.inf else math.log10(hi) - math.log10(lo)


def default_alpha_grid(filt: FilterFamily, alpha_min: float = ALPHA_GRID_MIN,
                       alpha_max: float | None = None,
                       per_decade: int | None = None) -> np.ndarray:
    """Working geometric alpha grid; oscillatory families get 8x density."""
    if alpha_max is None:
        alpha_max = filt.alpha_max / 2.0
    if per_decade is None:
        per_decade = 512 if filt.oscillatory else 64
    n = max(int(math.ceil(per_decade * _decades(alpha_min, alpha_max))) + 1, 16)
    return np.geomspace(alpha_min, alpha_max, n)


def lambda_top(filt: FilterFamily, cap: float) -> float:
    """A default lambda grid's top ``cap``, clamped to 0.95 lambda_sup."""
    return cap if filt.lambda_sup is None else min(cap, 0.95 * filt.lambda_sup)


def default_lambda_grid(filt: FilterFamily, lam_min: float = 1e-2,
                        per_decade: int = 4) -> np.ndarray:
    """Default lambda sample set up to LAMBDA_GRID_MAX, clamped below the
    family's valid bound.

    The grid ascends and stays below ``lambda_sup``: when the clamped top
    falls to or below ``lam_min`` (landweber with mu >= 0.95 / lam_min),
    the grid spans the decade below the clamped top instead.
    """
    lam_max = lambda_top(filt, LAMBDA_GRID_MAX)
    if lam_max <= lam_min:
        lam_min = lam_max / 10.0
    decades = math.log10(lam_max / lam_min)
    n = max(int(round(per_decade * decades)) + 1, 4)
    return np.geomspace(lam_min, lam_max, n)


def verify_srm_axioms(filt: FilterFamily,
                      alpha_grid: np.ndarray | None = None,
                      lambda_grid: np.ndarray | None = None) -> AxiomReport:
    """Empirically check the three method hypotheses on sampling grids.

    H1: g is a well-defined (non-NaN) function at every sampled point;
    overflow of a mathematically finite g(., 0) is recorded as a note.
    H2: |lambda*g| stays below the family's declared constant.
    H3: for each lambda > 0 the residual at the deep probe alpha=1e-300
    is below H3_ABS_TOL, or at most half its value at the grid floor
    (slow log-type convergence never looks "small" on a double grid, but
    it does keep shrinking).
    Failures are reported with witnessing (alpha, lambda), never raised.
    """
    if alpha_grid is None:
        alpha_grid = default_alpha_grid(filt, per_decade=64 if not filt.oscillatory else 128)
    if lambda_grid is None:
        lam = default_lambda_grid(filt, lam_min=1e-4, per_decade=8)
        lambda_grid = np.concatenate(([0.0], lam))
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    lambda_grid = np.asarray(lambda_grid, dtype=float)

    A = alpha_grid[:, None]
    L = lambda_grid[None, :]
    failures: list[dict] = []
    notes: list[str] = []

    with np.errstate(all="ignore"):
        gv = filt._g(A, L)
        rv = residual_value(filt, A, L)

    # H1: piecewise continuity proxy -- g defined (no NaN); infs at
    # lambda=0 come from overflow of finite values and are noted only
    nan_mask = np.isnan(gv)
    inf_mask = np.isinf(gv) & (L > 0)
    h1 = not (np.any(nan_mask) or np.any(inf_mask))
    if not h1:
        i, j = np.argwhere(nan_mask | inf_mask)[0]
        failures.append({"axiom": "H1", "alpha": float(alpha_grid[i]),
                         "lambda": float(lambda_grid[j])})
    if np.any(np.isinf(gv) & (L == 0)):
        notes.append("g(alpha, 0) overflows double precision at small alpha")

    # H2: |lambda*g| = |1 - r|, computed from the residual channel
    lg = np.abs(1.0 - rv)
    observed = float(np.nanmax(lg))
    h2 = bool(observed <= filt.h2_constant + 1e-9)
    if not h2:
        i, j = np.argwhere(lg > filt.h2_constant + 1e-9)[0]
        failures.append({"axiom": "H2", "alpha": float(alpha_grid[i]),
                         "lambda": float(lambda_grid[j]),
                         "observed": float(lg[i, j])})

    # H3: pointwise convergence of g to 1/lambda, i.e. r -> 0, sampled on
    # moderate lambdas: below ~0.01 the log-rate families shrink by less
    # than a factor 2 over the entire representable alpha range
    h3_lams = lambda_grid[lambda_grid >= H3_LAMBDA_MIN]
    if h3_lams.size == 0:
        h3_lams = lambda_grid[lambda_grid > 0]
    with np.errstate(all="ignore"):
        r_floor = sat_exp_array(filt._r_log(np.array([alpha_grid[0]]), h3_lams))
        r_deep = sat_exp_array(filt._r_log(np.array([H3_PROBE_ALPHA]), h3_lams))
    ok = (r_deep <= H3_ABS_TOL) | (r_deep <= H3_SHRINK * r_floor)
    h3 = bool(np.all(ok))
    worst = float(np.max(r_deep)) if r_deep.size else 0.0
    if not h3:
        j = int(np.argmax(~ok))
        failures.append({"axiom": "H3", "alpha": H3_PROBE_ALPHA,
                         "lambda": float(h3_lams[j]),
                         "deviation": float(r_deep[j])})

    return AxiomReport(
        h1_finite=h1, h2_bounded=h2, h3_pointwise=h3,
        h2_observed_sup=observed, h3_worst_deviation=worst,
        failures=failures, notes=notes,
    )
