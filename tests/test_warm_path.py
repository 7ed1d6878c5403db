"""The warm verdict path against references written by definition.

``rates._loglog_interp`` extrapolates only the points outside its knots,
``limits.tail_limit`` builds its block edges as Python floats and stacks
its block columns once, and ``check_order_source_pair`` reads the scan and
the dips through one ``log_q`` call and the residual without a sign
channel through ``_r_log``.  Each test here compares one of them with a
plain reference that does the same arithmetic the long way: two full-array
``np.where`` passes, boolean block masks over ``np.linspace`` edges, and
``residual_log_sign`` with ``np.take_along_axis``.  Every comparison is
exact.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specqual as sq
from specqual import limits, qualification
from specqual.filters import residual_log_sign
from specqual.qualification import LAMBDA_TINY
from specqual.limits import Tail, sat_exp, tail_limit, tail_of
from specqual.rates import _loglog_interp


# ---------------------------------------------------------------------------
# _loglog_interp
# ---------------------------------------------------------------------------

def reference_interp(x, xs, ys):
    """np.interp, then a linear extrapolation past each end knot, each
    computed over the whole array and picked by np.where."""
    out = np.interp(x, xs, ys)
    if len(xs) >= 2:
        lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        out = np.where(x < xs[0], ys[0] + lo_slope * (x - xs[0]), out)
        out = np.where(x > xs[-1], ys[-1] + hi_slope * (x - xs[-1]), out)
    return out


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


_finite = st.floats(-1e3, 1e3, allow_nan=False)
_knots = st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8).map(
    lambda gaps: np.cumsum(gaps) - 20.0)
_points = st.one_of(st.floats(-40.0, 40.0), st.just(math.nan))


@settings(max_examples=100, deadline=None)
@given(knots=_knots, data=st.data())
@example(knots=np.array([-3.0, -1.0, 2.0]), data=None)
@example(knots=np.array([0.5]), data=None)
def test_loglog_interp_matches_two_where_passes(knots, data):
    """Scalars and 1-d and 2-d arrays, with points below, inside and above
    the knots and NaN, on tables of one knot and more: the same bits."""
    if data is None:  # the fixed examples: every kind of point, by hand
        ys = np.linspace(-2.0, 5.0, knots.size) ** 2
        xs_1d = np.array([-9.0, knots[0], 0.0, knots[-1], 7.5, math.nan])
        scalars = [-9.0, 0.0, 7.5, math.nan]
    else:
        ys = np.array(data.draw(st.lists(_finite, min_size=knots.size, max_size=knots.size)))
        xs_1d = np.array(data.draw(st.lists(_points, min_size=1, max_size=12)))
        scalars = [data.draw(_points)]
    with np.errstate(all="ignore"):
        for x in [*scalars, xs_1d, np.stack([xs_1d, xs_1d[::-1]])]:
            x = np.float64(x) if np.ndim(x) == 0 else x  # a scalar as np.log gives it
            assert_same_bits(_loglog_interp(x, knots, ys), reference_interp(x, knots, ys))


def test_loglog_interp_reads_each_side_of_the_knots():
    """Below, inside and above three knots on a line, and a one-knot table,
    which holds its value everywhere."""
    xs, ys = np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 6.0])
    got = _loglog_interp(np.array([-2.0, 0.5, 2.0, 5.0, math.nan]), xs, ys)
    assert got[:4].tolist() == [-1.0, 1.5, 4.0, 10.0] and math.isnan(got[4])
    assert float(_loglog_interp(np.float64(-2.0), xs, ys)) == -1.0
    assert _loglog_interp(np.array([-5.0, 0.0, 5.0]), np.array([0.0]), np.array([2.0])).tolist() \
        == [2.0, 2.0, 2.0]


# ---------------------------------------------------------------------------
# tail_limit
# ---------------------------------------------------------------------------

def _masked_blocks(tail, log_values, kind, n_blocks):
    """Per row: the block extrema (nan for an empty block), where they lie
    (the block midpoint for an empty one) and the raw tail min and max,
    each block a boolean mask of the closed interval between two
    ``np.linspace`` edges, its extremum the first point that attains it."""
    edges = np.linspace(tail.edge, tail.xs[-1], n_blocks + 1)
    pick = np.argmin if kind == "liminf" else np.argmax
    rows = []
    for lv in np.atleast_2d(log_values):
        ms, xe = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            inside = np.flatnonzero((tail.xs >= lo) & (tail.xs <= hi))
            if inside.size == 0:
                ms.append(math.nan)
                xe.append(float(0.5 * (lo + hi)))
                continue
            k = inside[pick(lv[inside])]
            ms.append(sat_exp(float(lv[k])))
            xe.append(float(tail.xs[k]))
        rows.append((ms, xe, sat_exp(float(np.min(lv))), sat_exp(float(np.max(lv)))))
    return rows


def _hand_built_tail():
    """Nine points on x in [0.3, 4.7]: one lies exactly on the edge between
    the first two blocks, and the third block [2.5, 3.6] holds none."""
    edges = np.linspace(0.3, 4.7, 5)
    xs = np.array([0.3, 0.9, edges[1], 1.8, 2.2, 3.9, 4.1, 4.4, 4.7])
    return Tail(np.exp(-xs), np.arange(xs.size), xs, 0.3), edges


@pytest.mark.parametrize("kind", ["liminf", "limsup"])
def test_tail_limit_matches_masked_blocks(kind, monkeypatch):
    """Every field of every row's estimate, the block values and the
    locations handed to ``_row_limit`` (the midpoint for the empty block)
    equal the masked reference's."""
    t, edges = _hand_built_tail()
    assert t.xs[2] == edges[1] and not np.any((t.xs >= edges[2]) & (t.xs <= edges[3]))
    rng = np.random.default_rng(34)
    lv = rng.normal(size=(6, t.xs.size))
    lv[1, 2] = lv[1].min() - 1.0 if kind == "liminf" else lv[1].max() + 1.0  # the edge point wins
    lv[2] = np.linspace(3.0, 0.0, t.xs.size)   # a steady descent
    lv[3] = np.linspace(0.0, 3.0, t.xs.size)   # a steady climb
    lv[4, -3:] = math.inf
    lv[5, :4] = -math.inf
    seen = []
    row_limit = limits._row_limit

    def recorded(kind_, ms, xe, *args):
        seen.append((list(ms), list(xe)))
        return row_limit(kind_, ms, xe, *args)

    monkeypatch.setattr(limits, "_row_limit", recorded)
    got = tail_limit(t, lv, kind)
    monkeypatch.undo()

    ref = _masked_blocks(t, lv, kind, limits.N_BLOCKS)
    assert len(got) == len(seen) == len(ref)
    for est, (ms, xe), (want_ms, want_xe, raw_min, raw_max) in zip(got, seen, ref):
        assert [m.hex() for m in ms] == [m.hex() for m in want_ms]
        assert xe == want_xe
        assert math.isnan(ms[2]) and xe[2] == 0.5 * (edges[2] + edges[3])
        assert est.grid_meta["blocks"] == [None if math.isnan(m) else m for m in want_ms]
        meta = {"blocks": est.grid_meta["blocks"], "extrapolated": False}
        want = row_limit(kind, want_ms, want_xe, raw_min, raw_max, meta, limits.CAP)
        assert repr(est) == repr(want)


# ---------------------------------------------------------------------------
# check_order_source_pair
# ---------------------------------------------------------------------------

def reference_pair(filt, rho, s, h):
    """The pair check on the default grids as first written: the residual
    through ``residual_log_sign`` (a root mark wherever the sign flips),
    the dips through their own ``log_q`` and ``np.where``, and gamma and
    its lambda through ``np.take_along_axis``."""
    lams, alphas = sq.default_lambda_grid(filt), sq.default_alpha_grid(filt)
    lam_max = float(np.max(lams))
    sub = np.geomspace(np.min(alphas), np.max(alphas),
                       min(qualification.WINDOW_ALPHAS, alphas.size))
    t = tail_of(sub)
    A = sub[:, None]
    log_rho = rho.log_at(sub)[:, None]
    log_h = h.log_at(sub)
    log_hi = math.log(lam_max)
    log_lo = np.minimum(np.maximum(log_h, math.log(LAMBDA_TINY)), log_hi - 1e-6)
    fractions = np.linspace(0.0, 1.0, qualification.SCAN_POINTS)
    L = np.exp(log_lo[:, None] + fractions * (log_hi - log_lo)[:, None])

    def log_q(lam, log_r):
        with np.errstate(all="ignore"):
            return s.log_at(lam) + np.asarray(log_r, dtype=float) - log_rho

    if filt._dips is None:
        log_r, sign = residual_log_sign(filt, A, L)
        Q = log_q(L, log_r)
        Q[:, 1:][sign[:, :-1] * sign[:, 1:] < 0] = -math.inf
    else:
        Q = log_q(L, filt._r_log(A, L))
        Ld, log_rd = filt._dips(A, L)
        inside = (Ld >= L[:, :1]) & (Ld <= lam_max)
        L = np.concatenate([L, Ld], axis=1)
        Q = np.concatenate([Q, np.where(inside, log_q(Ld, log_rd), np.inf)], axis=1)
    best = np.argmin(Q, axis=1)[:, None]
    gam_log = np.take_along_axis(Q, best, axis=1)[:, 0]
    gam_lam = np.take_along_axis(L, best, axis=1)[:, 0]
    est = tail_limit(t, gam_log[t.index], "liminf")
    worst = int(np.argmin(gam_log))
    holds = est.positive
    gamma = sat_exp(float(gam_log[worst])) if holds else None
    witnesses = [] if holds else [(float(sub[worst]), float(gam_lam[worst]))]
    return holds, gamma, witnesses, repr(est)


def _sign_flipping():
    """r = (2 alpha - lambda)/(2 alpha + lambda): negative past lambda =
    2 alpha, so every window's scan brackets a root."""
    return sq.make_custom_filter("flip", lambda a, lm: 2.0 / (lm + 2.0 * a), 1.0, 1.0)


_KNOTS = np.geomspace(0.01, 1.0, 9)
_SOURCES = {
    "lambda": sq.source_fn("lambda"),
    "lambda^0.5": sq.source_fn("lambda^0.5"),
    # a table over a narrow range: most of each scan extrapolates
    "table": sq.TabulatedSource(lambdas=_KNOTS, log_values=0.75 * np.log(_KNOTS)),
}


@pytest.mark.parametrize("family", ["tikhonov", "ex3_exp", "flip", "ex7_piecewise", "ex8_osc"])
@pytest.mark.parametrize("order", ["alpha", "alpha^0.5"])
@pytest.mark.parametrize("source", sorted(_SOURCES))
def test_order_source_pair_matches_reference(family, order, source):
    filt = _sign_flipping() if family == "flip" else sq.get_filter(family)
    rho, s = sq.order_fn(order), _SOURCES[source]
    got = sq.check_order_source_pair(filt, rho, s, rho)
    assert (got.holds, got.gamma, got.witnesses, repr(got.detail["inf_estimate"])) \
        == reference_pair(filt, rho, s, rho)


def test_sign_flipping_family_marks_its_root():
    """Only a family with a sign channel marks a root: the flipping one
    reads q = 0 in every window and fails, at the root above 2 alpha."""
    filt, rho = _sign_flipping(), sq.order_fn("alpha")
    v = sq.check_order_source_pair(filt, rho, sq.source_fn("lambda"), rho)
    assert not v.holds and v.detail["inf_estimate"].value == 0.0
    (alpha, lam), = v.witnesses
    assert 2.0 * alpha <= lam
