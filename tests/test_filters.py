"""Filter catalog closed forms, residual channels, and axiom checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specqual as sq
from specqual.filters import residual_log_sign, residual_value

ALL_IDS = ["tikhonov", "tsvd", "ex3_exp", "ex4_log", "ex7_piecewise",
           "ex8_osc", "ex9_osc", "ex10_osc", "landweber", "showalter"]


def sample_grids(filt):
    alphas = np.geomspace(1e-6, filt.alpha_max / 2, 40)
    lam_hi = 10.0 if filt.lambda_sup is None else 0.9 * filt.lambda_sup
    lams = np.geomspace(1e-4, lam_hi, 40)
    return alphas, lams


class TestFilterValues:
    def test_tikhonov_point(self, tikhonov):
        assert sq.eval_g(tikhonov, 1.0, 1.0) == pytest.approx(0.5)

    def test_tsvd_truncates_below_threshold(self, tsvd):
        assert sq.eval_g(tsvd, 0.5, 0.25) == 0.0

    def test_tsvd_inverts_above_threshold(self, tsvd):
        assert sq.eval_g(tsvd, 0.5, 2.0) == pytest.approx(0.5)

    def test_unknown_filter(self):
        with pytest.raises(sq.UnknownFilterError):
            sq.get_filter("nonsense")

    def test_alpha_out_of_range(self, tikhonov):
        with pytest.raises(sq.ParameterRangeError):
            sq.eval_g(tikhonov, 1.5, 1.0)
        with pytest.raises(sq.ParameterRangeError):
            sq.eval_g(tikhonov, 0.0, 1.0)

    def test_landweber_lambda_range(self, landweber):
        with pytest.raises(sq.ParameterRangeError):
            sq.eval_g(landweber, 0.5, 3.0)  # beyond 1/mu = 2

    def test_aliases(self):
        assert sq.get_filter("ex3").id == "ex3_exp"
        assert sq.get_filter("ex9").id == "ex9_osc"


class TestResiduals:
    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_residual_at_zero_is_one(self, fid):
        filt = sq.get_filter(fid)
        rv = sq.eval_residual(filt, filt.alpha_max / 3, 0.0)
        assert rv.value == pytest.approx(1.0)
        assert rv.log_abs == pytest.approx(0.0, abs=1e-12)

    def test_tikhonov_residual_point(self, tikhonov):
        rv = sq.eval_residual(tikhonov, 0.1, 0.9)
        assert rv.value == pytest.approx(0.1)

    def test_showalter_underflow_keeps_log_channel(self, showalter):
        rv = sq.eval_residual(showalter, 0.01, 10.0)
        assert rv.value == 0.0  # e^-1000 underflows
        assert rv.log_abs == pytest.approx(-1000.0)
        assert rv.sign == 1

    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_definitional_identity(self, fid):
        """1 - lambda*g equals the closed residual form pointwise."""
        filt = sq.get_filter(fid)
        alphas, lams = sample_grids(filt)
        for a in alphas[::6]:
            for lm in lams[::6]:
                g = sq.eval_g(filt, float(a), float(lm))
                rv = sq.eval_residual(filt, float(a), float(lm))
                direct = 1.0 - lm * g
                if math.isfinite(direct) and math.isfinite(rv.value):
                    assert abs(direct - rv.value) < 1e-12 * max(1.0, abs(rv.value))

    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_log_channel_reconstructs_value(self, fid):
        """``residual_value``, sign * e^(ln|r|), against a closed form of r.

        The double-precision value forms of ``VALUE_FORMS`` are the oracle
        to 1e-13 relative, with exact zeros and signs.  The other families'
        value forms are no better than e^(ln|r|) in double (e^(1/alpha)
        overflows, (1 - mu*lambda)^(1/alpha) amplifies the rounding of its
        base by 1/alpha), so they are held to the 50-digit oracle at the
        conditioning of exp: a rounding of ln|r| moves e^(ln|r|) by |ln r|
        times as much.
        """
        filt = sq.get_filter(fid)
        alphas = np.geomspace(1e-7, filt.alpha_max, 60, endpoint=False)[:, None]
        lam_hi = 10.0 if filt.lambda_sup is None else 0.9 * filt.lambda_sup
        lams = np.geomspace(1e-4, lam_hi, 60)[None, :]
        got = residual_value(filt, alphas, lams)
        if fid in VALUE_FORMS:
            want = VALUE_FORMS[fid](alphas, lams)
            np.testing.assert_array_equal(np.sign(got), np.sign(want))
            np.testing.assert_array_equal(got == 0, want == 0)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            return
        mpmath = pytest.importorskip("mpmath")
        tiny = np.finfo(float).tiny  # below it a double has no relative precision
        with np.errstate(all="ignore"):
            phase = lams ** 1.5 / alphas
        with mpmath.workdps(50):
            for (i, j), value in np.ndenumerate(got[::7, ::7]):
                a, lm = mpmath.mpf(alphas[7 * i, 0]), mpmath.mpf(lams[0, 7 * j])
                r = RESIDUAL_ORACLES[fid](mpmath.mp, a, lm, mpmath.mpf(phase[7 * i, 7 * j]))
                bound = RESIDUAL_LOG_TOL * abs(r) * max(1, abs(mpmath.log(abs(r)))) + tiny
                assert abs(mpmath.mpf(value) - r) <= bound, (fid, float(a), float(lm))

    @pytest.mark.parametrize("fid,alpha,lams,want", [
        ("tsvd", 0.1, [0.05, 0.1, 0.2, 10.0], [1, 0, 0, 0]),
        ("landweber", 0.5, [1.0, 1.999, 2.0], [1, 1, 0]),
        # c(0.1) = 11.02, so r = 1 - lambda*c(0.1) < 0 for 0.091 < lambda < 0.2
        ("ex7_piecewise", 0.1, [0.05, 0.15, 0.199], [1, -1, -1]),
    ])
    def test_residual_sign(self, fid, alpha, lams, want):
        filt = sq.get_filter(fid)
        for lam, sign in zip(lams, want):
            rv = sq.eval_residual(filt, alpha, lam)
            assert rv.sign == sign and np.sign(rv.value) == sign, (fid, lam)
            assert (rv.log_abs == -np.inf) == (sign == 0)

    def test_custom_residual_sign(self):
        """A custom family's sign is sign(1 - lambda*g), wherever it changes."""
        def g(a, lm):
            return 1.0 / a * np.ones(np.broadcast(a, lm).shape)

        filt = sq.make_custom_filter("custom", g, alpha_max=1.0, h2_constant=5.0)
        A = np.geomspace(1e-3, 0.5, 9)[:, None]
        L = np.concatenate((np.geomspace(1e-4, 10.0, 9), [0.5, 0.25]))[None, :]
        want = np.sign(1.0 - L * g(A, L))
        assert {-1, 0, 1} <= set(want.ravel().tolist())
        np.testing.assert_array_equal(filt._r_log_sign(A, L)[1], want)
        np.testing.assert_array_equal(np.sign(residual_value(filt, A, L)), want)

    def test_tsvd_exact_zero_one(self, tsvd):
        alphas = np.geomspace(1e-6, 0.5, 25)
        for a in alphas:
            assert sq.eval_residual(tsvd, float(a), float(a) * 1.5).value == 0.0
            assert sq.eval_residual(tsvd, float(a), float(a)).value == 0.0
            assert sq.eval_residual(tsvd, float(a), float(a) * 0.5).value == 1.0

    def test_tikhonov_closed_form(self, tikhonov):
        alphas = np.geomspace(1e-7, 0.5, 50)
        lams = np.geomspace(1e-3, 10, 30)
        got = residual_value(tikhonov, alphas[:, None], lams[None, :])
        want = alphas[:, None] / (alphas[:, None] + lams[None, :])
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_piecewise_constant_branch_forms_agree(self, ex7):
        """The two published expressions for the inner-region filter value."""
        ln3 = math.log(3.0)
        for a in np.geomspace(1e-6, 0.499, 60):
            h2a = a / (a + math.log(a / (a + 2 * a)))
            lhs = (1.0 - h2a) / (2 * a + h2a)
            rhs = 1.0 / (2 * a - (a + 2 * a * a) / ln3)
            assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_showalter_monotonicity_hypotheses(self, showalter):
        """Residual positive and decreasing in lambda; filter decreasing in alpha."""
        alphas = np.geomspace(1e-6, 0.5, 30)
        lams = np.geomspace(1e-4, 50.0, 120)
        R = residual_value(showalter, alphas[:, None], lams[None, :])
        assert np.all(R >= 0)
        logs, _ = residual_log_sign(showalter, alphas[:, None], lams[None, :])
        assert np.all(np.diff(logs, axis=1) <= 1e-12)
        G = showalter._g(alphas[:, None], lams[None, :])
        assert np.all(np.diff(G, axis=0) <= 1e-12)


class TestAxioms:
    def test_tikhonov_passes_with_unit_bound(self, tikhonov):
        report = sq.verify_srm_axioms(tikhonov)
        assert report.all_pass
        assert report.h2_observed_sup <= 1.0 + 1e-9

    def test_log_filter_passes(self, ex4):
        report = sq.verify_srm_axioms(ex4)
        assert report.all_pass, report.failures

    def test_broken_family_fails_h2(self):
        broken = sq.make_custom_filter(
            "broken", lambda a, lm: 1.0 / a * np.ones(np.broadcast(a, lm).shape),
            alpha_max=1.0, h2_constant=5.0,
        )
        report = sq.verify_srm_axioms(broken)
        assert not report.h2_bounded
        assert any(f["axiom"] == "H2" for f in report.failures)

    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_catalog_h2_bound_holds_on_default_grids(self, fid):
        filt = sq.get_filter(fid)
        report = sq.verify_srm_axioms(filt)
        assert report.h2_bounded, (fid, report.h2_observed_sup, filt.h2_constant)

    @pytest.mark.parametrize("fid", ALL_IDS)
    def test_catalog_h3_pointwise(self, fid):
        report = sq.verify_srm_axioms(sq.get_filter(fid))
        assert report.h3_pointwise, (fid, report.failures)


@settings(max_examples=30, deadline=None)
@given(
    fid=st.sampled_from(ALL_IDS),
    ax=st.floats(min_value=1e-5, max_value=0.9),
    lx=st.floats(min_value=1e-4, max_value=0.9),
)
def test_residual_identity_randomized(fid, ax, lx):
    """Random spot checks of r = 1 - lambda*g across the catalog."""
    filt = sq.get_filter(fid)
    alpha = ax * filt.alpha_max
    lam = lx * (filt.lambda_sup if filt.lambda_sup else 10.0)
    g = sq.eval_g(filt, alpha, lam)
    rv = sq.eval_residual(filt, alpha, lam)
    direct = 1.0 - lam * g
    if math.isfinite(direct) and math.isfinite(rv.value):
        assert abs(direct - rv.value) <= 1e-12 * max(1.0, abs(rv.value))


def _osc_oracle(coeff):
    """r = e^(-lm/a) + c(a) lm^(-1/2) |sin(phase)| at the given phase."""
    def r(mp, a, lm, phase):
        return mp.exp(-lm / a) + coeff(mp, a) * lm ** mp.mpf(-0.5) * abs(mp.sin(phase))
    return r


def _ex7_oracle(mp, a, lm, phase):
    if lm < 2 * a:
        return 1 - lm / (2 * a - (a + 2 * a * a) / mp.log(3))
    return a * (1 + lm) / (lm * mp.log(a / (a + lm)) + a * (1 + lm))


def _ex7_value(a, lm):
    c = 1.0 / (2.0 * a - (a + 2.0 * a * a) / math.log(3.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        outer = a * (1.0 + lm) / (lm * np.log(a / (a + lm)) + a * (1.0 + lm))
    return np.where(lm < 2.0 * a, 1.0 - lm * c, outer)


# closed value forms of r_alpha(lambda) that are accurate in double precision
VALUE_FORMS = {
    "tikhonov": lambda a, lm: a / (a + lm),
    "tsvd": lambda a, lm: np.where(lm >= a, 0.0, 1.0),
    "ex4_log": lambda a, lm: (1.0 + lm) / (1.0 - lm * np.log(a)),
    "ex7_piecewise": _ex7_value,
}

# r_alpha(lambda) of every catalog family at its default parameters, in
# mpmath arithmetic: (mp, alpha, lambda, phase) -> r
RESIDUAL_ORACLES = {
    "tikhonov": lambda mp, a, lm, phase: a / (a + lm),
    "tsvd": lambda mp, a, lm, phase: mp.mpf(0 if lm >= a else 1),
    "ex3_exp": lambda mp, a, lm, phase: (1 + lm) / (1 + lm * mp.exp(1 / a)),
    "ex4_log": lambda mp, a, lm, phase: (1 + lm) / (1 - lm * mp.log(a)),
    "ex7_piecewise": _ex7_oracle,
    "ex8_osc": _osc_oracle(lambda mp, a: a),
    "ex9_osc": _osc_oracle(lambda mp, a: mp.exp(-1 / mp.sqrt(a))),
    "ex10_osc": _osc_oracle(lambda mp, a: -1 / mp.log(a)),
    "landweber": lambda mp, a, lm, phase: mp.exp(mp.log(1 - lm / 2) / a),  # mu = 0.5
    "showalter": lambda mp, a, lm, phase: mp.exp(-lm / a),
}

# Measured on the test's grid, as |ln|r| - oracle| / max(1, |oracle|): at
# most 1.1e-15 (ex7_piecewise; ex10_osc 7.5e-16, every other family
# <= 2.8e-16, tsvd exact).  The bound leaves room for a libm that rounds
# differently.
RESIDUAL_LOG_TOL = 2e-15


@pytest.mark.parametrize("fid", ALL_IDS)
def test_residual_log_matches_high_precision_oracle(fid):
    """``_r_log`` against 50-digit mpmath down to alpha = 1e-300.

    The oscillatory phase lambda^(3/2)/alpha is taken as the double the
    kernel forms: at alpha = 1e-300 it is ~1e300, and its rounding alone
    moves it by ~1e284 radians, so no double kernel can follow the sine of
    the exact phase there.
    """
    mpmath = pytest.importorskip("mpmath")
    assert sorted(RESIDUAL_ORACLES) == sorted(ALL_IDS)
    filt = sq.get_filter(fid)
    alphas = np.geomspace(1e-300, filt.alpha_max / 2, 41)[:, None]
    lam_hi = 10.0 if filt.lambda_sup is None else 0.95 * filt.lambda_sup
    lams = np.geomspace(1e-4, lam_hi, 9)[None, :]
    with np.errstate(all="ignore"):
        got = filt._r_log(alphas, lams)
        phase = lams ** 1.5 / alphas
    oracle = RESIDUAL_ORACLES[fid]
    mpf = mpmath.mp.mpf
    with mpmath.workdps(50):
        for (i, j), value in np.ndenumerate(got):
            r = oracle(mpmath.mp, mpf(alphas[i, 0]), mpf(lams[0, j]), mpf(phase[i, j]))
            if r == 0:
                assert value == -np.inf
                continue
            want = mpmath.log(abs(r))
            err = abs(mpf(value) - want) / max(1, abs(want))
            assert err <= RESIDUAL_LOG_TOL, (fid, alphas[i, 0], lams[0, j])


@pytest.mark.parametrize("fid,param", [
    ("ex8_osc", "k"), ("landweber", "mu"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_parameter_must_be_positive_and_finite(fid, param, value):
    with pytest.raises(sq.FilterError, match=param):
        sq.get_filter(fid, **{param: value})


@pytest.mark.parametrize("mu", [95.0, 100.0, 1e4, 1e300])
def test_landweber_default_lambda_grid_ascends_below_sup(mu):
    """A clamped top at or below 0.01 used to give a descending grid that
    sampled lambda_sup itself (mu = 100: [0.01, ..., 0.0095])."""
    filt = sq.get_filter("landweber", mu=mu)
    for lam_min in (1e-2, 1e-4):
        lams = sq.default_lambda_grid(filt, lam_min=lam_min)
        assert np.all(np.diff(lams) > 0)
        assert lams[-1] < filt.lambda_sup
        assert lams[-1] == pytest.approx(0.95 * filt.lambda_sup, rel=1e-12)


@pytest.mark.parametrize("mu", [0.5, 9.0, 50.0, 94.0])
def test_landweber_default_lambda_grid_below_95_unchanged(mu):
    lam_max = min(10.0, 0.95 * (1.0 / mu))
    n = max(int(round(4 * math.log10(lam_max / 1e-2))) + 1, 4)
    want = np.geomspace(1e-2, lam_max, n)
    got = sq.default_lambda_grid(sq.get_filter("landweber", mu=mu))
    np.testing.assert_array_equal(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fid", ["tikhonov", "ex9_osc"])
def test_subnormal_alpha_min_grid(fid):
    """0.5 / 1e-320 overflows a double; the grid then counts its decades
    from the logs of the ends, where it raised OverflowError before.  A
    finite ratio keeps the ratio form, so every other grid is unchanged."""
    filt = sq.get_filter(fid)
    per = 512 if filt.oscillatory else 64
    grid = sq.default_alpha_grid(filt, alpha_min=1e-320)
    decades = math.log10(0.5) - math.log10(1e-320)
    assert grid.size == int(math.ceil(per * decades)) + 1
    assert grid[0] == 1e-320 and grid[-1] == 0.5 and np.all(np.diff(grid) > 0)
    want = np.geomspace(1e-300, 0.5, int(math.ceil(per * math.log10(0.5 / 1e-300))) + 1)
    np.testing.assert_array_equal(sq.default_alpha_grid(filt, alpha_min=1e-300), want)


def test_ex10_range_is_open_at_alpha_max():
    """The coefficient -1/ln(alpha) of ex10_osc is infinite at alpha = 1."""
    filt = sq.get_filter("ex10_osc")
    assert filt.alpha_max == 1.0
    with pytest.raises(sq.ParameterRangeError, match=r"outside \(0, 1\.0\) "):
        sq.eval_g(filt, 1.0, 0.5)
    assert math.isfinite(sq.eval_g(filt, 0.99, 0.5))
    assert sq.default_alpha_grid(filt)[-1] == 0.5
    with pytest.raises(sq.ParameterRangeError, match=r"outside \(0, 1\.0\] "):
        sq.eval_g(sq.get_filter("ex9_osc"), 1.5, 0.5)


@pytest.mark.parametrize("fid,params", [
    ("ex8_osc", {"k": 1.0}), ("ex8_osc", {"k": 2.0}), ("ex9_osc", {}), ("ex10_osc", {}),
])
def test_dip_set_matches_high_precision_roots(fid, params):
    """``_dips`` against the 50-digit phase root (k pi alpha)^(2/3), the
    largest one <= lambda (k = 1 below the first root): the root to 4 ulp,
    and ln r there, where the sine vanishes, to 1e-12 relative.  The dip
    never sits above ``_r_log`` at the double root, whose phase misses
    k pi by a rounding."""
    mpmath = pytest.importorskip("mpmath")
    filt = sq.get_filter(fid, **params)
    oracle = RESIDUAL_ORACLES[fid]
    if fid == "ex8_osc":
        oracle = _osc_oracle(lambda mp, a: a ** mp.mpf(params["k"]))
    alphas = np.geomspace(1e-7, 0.5, 9)[:, None]
    lams = np.array([1e-3, 0.1, 1.0, 9.9])[None, :]
    lk, log_r = filt._dips(alphas, lams)
    assert lk.shape == log_r.shape == (9, 4)
    assert np.all(log_r <= filt._r_log(alphas, lk) + 1e-12)
    mpf = mpmath.mp.mpf
    with mpmath.workdps(50):
        for (i, j), got in np.ndenumerate(lk):
            a = mpf(alphas[i, 0])
            k = max(1, int(mpmath.floor(mpf(lams[0, j]) ** 1.5 / (mpmath.pi * a))))
            root = (k * mpmath.pi * a) ** (mpf(2) / 3)
            assert abs(mpf(got) - root) <= 4 * np.spacing(float(root)), (fid, i, j)
            # the phase at the root is k*pi, whose sine is exactly 0
            want = mpmath.log(oracle(mpmath.mp, a, root, mpf(0)))
            assert abs(mpf(log_r[i, j]) - want) <= 1e-12 * abs(want), (fid, i, j)


def test_ex7_dip_is_the_root_of_its_residual():
    """ex7's one dip against the 50-digit root of its inner residual
    1 - lambda c(alpha), found by ``findroot``: the root to 4 ulp, inside
    the inner region [0, 2 alpha), ln r = -inf there, and r changing sign
    across it.  Every lambda gets the same dip."""
    mpmath = pytest.importorskip("mpmath")
    filt = sq.get_filter("ex7_piecewise")
    alphas = np.geomspace(1e-7, filt.alpha_max, 9)[:, None]
    lams = np.array([1e-3, 0.1, 1.0, 9.9])[None, :]
    lk, log_r = filt._dips(alphas, lams)
    assert lk.shape == log_r.shape == (9, 4)
    assert np.all(log_r == -math.inf)
    assert np.all(lk == lk[:, :1]) and np.all((0 < lk) & (lk < 2 * alphas))
    with mpmath.workdps(50):
        for a, got in zip(alphas[:, 0], lk[:, 0]):
            a_mp = mpmath.mpf(a)
            root = mpmath.findroot(
                lambda lm: RESIDUAL_ORACLES["ex7_piecewise"](mpmath.mp, a_mp, lm, 0),
                (a_mp / 2, 3 * a_mp / 2))
            assert abs(mpmath.mpf(got) - root) <= 4 * np.spacing(float(root)), a
    _, sign = residual_log_sign(filt, alphas, lk[:, :1] * np.array([1 - 1e-9, 1 + 1e-9]))
    assert np.all(sign == [1, -1])
