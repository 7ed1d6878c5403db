"""A filter family's kernels are quiet, and so is every verdict built on them.

A kernel's inf or nan is a value of g or ln|r| (a residual that vanishes,
an e^(lambda/alpha) that overflows), never a numpy warning.  Every check
here runs under ``warnings.simplefilter("error")``, so one warning fails it.
"""

import itertools
import warnings

import numpy as np
import pytest

import specqual as sq

EDGE_ALPHAS = (5e-324, 1e-310, 1e-300, 1e-12, 1e-3, 0.1)  # then alpha_max / 2 and alpha_max
EDGE_LAMBDAS = (0.0, 5e-324, 1e-310, 1e-300, 1e-12, 1e-3, 0.5, 1.0, 10.0, 1e3, 1e300)


def _overflowing_custom():
    """Tikhonov with alpha replaced by e^(-1/alpha): e^(1/alpha) overflows
    below alpha ~ 1/709, and inf / inf is nan at lambda = 0."""
    return sq.make_custom_filter(
        "custom_overflow", lambda a, lm: np.exp(1.0 / a) / (1.0 + lm * np.exp(1.0 / a)), 1.0, 1.0)


EDGE_FAMILIES = {
    **{fid: (lambda fid=fid: sq.get_filter(fid)) for fid in
       ("tikhonov", "tsvd", "ex3_exp", "ex4_log", "ex7_piecewise", "ex9_osc", "ex10_osc",
        "showalter")},
    **{f"ex8_osc-k{k}": (lambda k=k: sq.get_filter("ex8_osc", k=k)) for k in (0.05, 1.0, 5.0)},
    **{f"landweber-mu{mu}": (lambda mu=mu: sq.get_filter("landweber", mu=mu))
       for mu in (1e-3, 0.5, 100.0)},
    "custom_overflow": _overflowing_custom,
}
KERNELS = ("_g", "_r_log", "_r_log_sign", "_dips")


def edge_mesh(filt):
    """The edge alphas up to alpha_max (open for ex10_osc) by the edge
    lambdas capped at lambda_sup, as an (alpha x lambda) broadcast pair."""
    alphas = [a for a in EDGE_ALPHAS if a <= filt.alpha_max] + [filt.alpha_max / 2.0]
    if filt.id != "ex10_osc":
        alphas.append(filt.alpha_max)
    lams = np.array(EDGE_LAMBDAS)
    if filt.lambda_sup is not None:
        lams = np.unique(np.minimum(lams, filt.lambda_sup))
    return np.array(alphas)[:, None], lams[None, :]


EDGE_CASES = [(case, kernel) for case, make in sorted(EDGE_FAMILIES.items())
              for kernel in KERNELS if getattr(make(), kernel) is not None]


@pytest.mark.parametrize("case, kernel", EDGE_CASES)
def test_kernel_is_quiet_on_the_edge_mesh(case, kernel):
    filt = EDGE_FAMILIES[case]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        getattr(filt, kernel)(*edge_mesh(filt))


def test_order_source_pair_is_quiet_below_the_normal_range(showalter, rho_alpha, s_lambda):
    """showalter's -lambda/alpha overflows at alpha = 1e-320; the check
    reads that -inf as a value and returns its verdict."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = sq.check_order_source_pair(showalter, rho_alpha, s_lambda, rho_alpha,
                                       alpha_grid=np.geomspace(1e-320, 0.5, 400))
    assert isinstance(v.holds, bool)


SWEEP_FLOORS = (1e-300, 1e-310, 1e-320)
SWEEP_TOPS = (5.0, 1e150)
SWEEP_ORDERS = ("alpha", "alpha^0.5", "exp(-1/alpha)", "-1/ln(alpha)")


@pytest.mark.parametrize("fid", sq.list_filters())
def test_verdicts_are_quiet_on_deep_grids(fid, s_lambda):
    """Six verdicts on every alpha grid down to a floor below the normal
    range and every lambda grid up to a top (capped at lambda_sup), for
    four orders: each returns, and none warns."""
    filt = sq.get_filter(fid)
    for floor, top, order in itertools.product(SWEEP_FLOORS, SWEEP_TOPS, SWEEP_ORDERS):
        rho = sq.order_fn(order)
        alphas = np.geomspace(floor, filt.alpha_max / 2.0, 64)
        lams = np.geomspace(1e-2, top if filt.lambda_sup is None else min(top, filt.lambda_sup), 6)
        verdicts = (
            lambda: sq.srho_table(filt, rho, lams, alphas),
            lambda: sq.check_weak_pair(filt, s_lambda, rho, lams, alphas),
            lambda: sq.check_strong_pair(filt, s_lambda, rho, lams, alphas),
            lambda: sq.check_order_source_pair(filt, rho, s_lambda, rho, lams, alphas),
            lambda: sq.check_mp_qualification(filt, rho, 1.0, lams, alphas),
            lambda: sq.classify(filt, rho, lams, alphas, companions=False),
        )
        for verdict in verdicts:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict()
