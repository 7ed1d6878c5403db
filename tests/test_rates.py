"""Certification of rate/source functions and the origin comparators."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specqual as sq
from specqual.rates import default_compare_grid, default_order_grid

EX4_GRID = np.geomspace(1e-7, 0.15, 448)


class TestOrderCertification:
    def test_monotone_power_certifies(self):
        assert sq.certify_order_fn("alpha^2").certified

    def test_reciprocal_log_certifies_on_its_range(self):
        """The log-decay order shrinks by less than 1000x over the whole
        representable range, so the far-tail probe is what admits it."""
        assert sq.certify_order_fn("-1/ln(alpha)", EX4_GRID).certified

    def test_non_vanishing_function_rejected(self):
        assert not sq.certify_order_fn("1+alpha").certified

    def test_decreasing_function_rejected(self):
        assert not sq.certify_order_fn("1/(1+alpha)-0.5").certified

    def test_small_power_certifies(self):
        assert sq.certify_order_fn("alpha^0.25").certified

    def test_iteration_rate_certifies(self):
        assert sq.certify_order_fn("(1-0.5*sqrt(alpha))^(1/alpha)").certified

    def test_undefined_far_tail_rejected(self):
        """sqrt(alpha - 1e-200) is positive on the grid but NaN at the
        far-tail probe alpha = 1e-300, so it does not vanish at 0."""
        assert not sq.certify_order_fn("sqrt(alpha-1e-200)").certified

    def test_wrong_variable_raises(self):
        """Parsing accepts either variable; certification admits only alpha."""
        for text in ("lambda", "alpha+lambda"):
            with pytest.raises(sq.DomainError):
                sq.certify_order_fn(text)


class TestSourceCertification:
    def test_square_root(self):
        assert sq.certify_source_fn("lambda^0.5").certified

    def test_rational(self):
        assert sq.certify_source_fn("lambda/(1+lambda)").certified

    def test_constant_rejected(self):
        assert not sq.certify_source_fn("1").certified

    def test_quarter_power(self):
        assert sq.certify_source_fn("lambda^0.25").certified

    def test_wrong_variable_raises(self):
        for text in ("alpha", "alpha+lambda"):
            with pytest.raises(sq.DomainError):
                sq.certify_source_fn(text)


class TestLogChannel:
    """Every order and source goes through expressions.log_eval, whatever
    the root of its expression."""

    @pytest.mark.parametrize("text,want", [
        ("2*exp(-1/alpha)", "2*exp(-1/a)"),
        ("alpha*exp(-1/alpha)", "a*exp(-1/a)"),
        ("sqrt(exp(-1/alpha))", "sqrt(exp(-1/a))"),
        ("exp(-1/alpha)^2", "exp(-1/a)**2"),
        ("1/exp(1/alpha)", "1/exp(1/a)"),
    ])
    def test_underflowing_orders_certify(self, text, want):
        mpmath = pytest.importorskip("mpmath")
        fn = sq.certify_order_fn(text)
        assert fn.certified
        got = fn.log_at(1e-5)
        with mpmath.workdps(50):
            exact = mpmath.log(eval(want, {"a": mpmath.mpf(1e-5), "exp": mpmath.exp,
                                           "sqrt": mpmath.sqrt}))
            assert abs(got - exact) / abs(exact) <= 1e-15

    def test_underflowing_source_certifies(self):
        fn = sq.certify_source_fn("exp(-1/lambda)")
        assert fn.certified
        assert fn.log_at(1e-5) == pytest.approx(-1e5, rel=1e-15)

    def test_scaled_exponential_equivalent_to_exponential(self, rho_exp):
        verdict = sq.equivalent_at_origin(sq.order_fn("2*exp(-1/alpha)"), rho_exp)
        assert verdict.holds
        # ln 2 is recovered from ln 2 - 1/alpha + 1/alpha, with 1/alpha up to
        # 1e12 on the comparison grid: ~1e-4 absolute is all a double keeps
        assert verdict.constants == pytest.approx((2.0, 0.5), rel=1e-3)

    def test_log_at_of_an_array_is_an_array(self, rho_alpha):
        for fn in (rho_alpha, sq.source_fn("lambda")):
            out = fn.log_at(np.array([0.1, 0.2]))
            assert isinstance(out, np.ndarray) and out.dtype == float
            assert type(fn.log_at(0.1)) is float


class TestSourceShape:
    """Sources share the order rules for positivity and decay; continuity is
    a tenfold-step test between neighbours near the peak."""

    @pytest.mark.parametrize("text", ["1+1000*lambda", "0.001+lambda", "1+lambda"])
    def test_non_vanishing_source_rejected(self, text):
        assert not sq.certify_source_fn(text).certified

    @pytest.mark.parametrize("text", [
        "exp(-1/lambda)", "exp(-1/sqrt(lambda))", "lambda*exp(-1/lambda)",
        "lambda", "lambda^0.5", "lambda^0.25", "lambda/(1+lambda)", "lambda^15",
    ])
    def test_continuous_source_certifies(self, text):
        assert sq.certify_source_fn(text).certified

    @pytest.mark.parametrize("text", [
        "1", "1/(lambda-1)^2", "lambda/(lambda-1)^2", "1+lambda^2",
        # a pole between grid points, its neighbours far below the peak
        "lambda/(lambda-1.0001)^2",
    ])
    def test_discontinuous_or_non_vanishing_source_rejected(self, text):
        assert not sq.certify_source_fn(text).certified

    def test_grid_resolution_limit(self):
        """The default grid steps by 10^(1/16): lambda^16 grows tenfold per
        step and reads as a jump."""
        assert not sq.certify_source_fn("lambda^16").certified
        assert sq.certify_source_fn("lambda^16", np.geomspace(1e-6, 10.0, 225)).certified


class TestEvalLog:
    def test_exp_root_uses_closed_form(self, rho_exp):
        assert rho_exp.log_at(0.001) == pytest.approx(-1000.0)

    def test_plain_power(self, rho_alpha):
        assert rho_alpha.log_at(0.001) == pytest.approx(math.log(0.001))

    def test_exp_sqrt_underflow_range(self, rho_exp_sqrt):
        assert rho_exp_sqrt.log_at(1e-6) == pytest.approx(-1000.0)

    def test_agrees_with_log_of_value_where_representable(self):
        """eval_log == ln(eval) to 1e-12 relative wherever the plain value
        is representable and positive."""
        grid = np.geomspace(1e-4, 0.25, 200)
        for text in ("alpha", "alpha^0.5", "alpha^2", "exp(-1/alpha)",
                     "-1/ln(alpha)", "(1-0.5*sqrt(alpha))^(1/alpha)"):
            fn = sq.certify_order_fn(text, EX4_GRID)
            vals = fn.at(grid)
            lv = fn.log_at(grid)
            ok = np.isfinite(vals) & (vals > 0)
            np.testing.assert_allclose(lv[ok], np.log(vals[ok]), rtol=1e-12,
                                       err_msg=text)


class TestComparators:
    def test_linear_precedes_square_root(self, rho_alpha, rho_sqrt_alpha):
        assert sq.precedes(rho_alpha, rho_sqrt_alpha).holds

    def test_square_root_does_not_precede_linear(self, rho_alpha, rho_sqrt_alpha):
        verdict = sq.precedes(rho_sqrt_alpha, rho_alpha)
        assert not verdict.holds
        assert verdict.witness_alpha is not None

    def test_slow_log_divergence_does_not_precede(self):
        """(-ln alpha)^(-1/2) / (-1/ln alpha) = (-ln alpha)^(1/2) grows without
        bound, but only from 1.2 to 5.3 over the grid: the tail estimator's
        trend test reads it as divergent, where a 100x-past-the-median rule
        held with constant 5.26."""
        slow, inv_log = sq.order_fn("(-ln(alpha))^(-0.5)"), sq.order_fn("-1/ln(alpha)")
        verdict = sq.precedes(slow, inv_log)
        assert not verdict.holds
        assert verdict.witness_alpha == float(np.min(default_compare_grid()))
        assert sq.precedes(inv_log, slow).holds

    def test_reflexive_with_unit_constant(self, rho_alpha):
        verdict = sq.precedes(rho_alpha, rho_alpha)
        assert verdict.holds
        assert verdict.constant == pytest.approx(1.0)

    def test_rational_equivalent_to_linear(self, rho_alpha):
        near_linear = sq.order_fn("alpha/(1+alpha)")
        assert sq.equivalent_at_origin(near_linear, rho_alpha).holds

    def test_linear_not_equivalent_to_square_root(self, rho_alpha, rho_sqrt_alpha):
        assert not sq.equivalent_at_origin(rho_alpha, rho_sqrt_alpha).holds

    def test_self_equivalence(self, rho_exp):
        assert sq.equivalent_at_origin(rho_exp, rho_exp).holds

    def test_uncertified_order_raises(self, rho_alpha):
        rejected = sq.certify_order_fn("sqrt(alpha-1e-200)")
        for pair in ((rejected, rho_alpha), (rho_alpha, rejected)):
            with pytest.raises(sq.DomainError, match="certified"):
                sq.precedes(*pair)

    def test_ratio_where_both_logs_underflow_is_unobserved(self):
        """exp(-exp(1e-5/alpha)) is certified, but its log underflows to
        -inf on 70 of the 192 comparison points; there the ratio of two
        such orders is unobserved, not undefined, and the other points
        decide.  Deep in the grid ln 2 is lost against exp(1e-5/alpha), so
        the constant of the doubled order is 2 only to about 1e-9."""
        rho = sq.order_fn("exp(-exp(1e-5/alpha))")
        assert np.isneginf(rho.log_at(default_compare_grid())).sum() == 70
        verdict = sq.precedes(rho, rho)
        assert verdict.holds and verdict.constant == 1.0
        doubled = sq.precedes(sq.order_fn("2*exp(-exp(1e-5/alpha))"), rho)
        assert doubled.holds and doubled.constant == pytest.approx(2.0, rel=1e-6)
        with pytest.raises(sq.DomainError, match="all but 0 comparison points"):
            sq.precedes(rho, rho, np.geomspace(1e-12, 1e-8, 10))

    def test_undefined_ratio_raises(self, rho_alpha):
        """alpha^3*sqrt(alpha-1e-9) is certified on the order grid, which
        ends at 1e-7, but is undefined below 1e-9 on the comparison grid."""
        rho = sq.order_fn("alpha^3*sqrt(alpha-1e-9)")
        with pytest.raises(sq.DomainError, match="left the functions' domain"):
            sq.precedes(rho, rho_alpha)


@pytest.fixture(scope="module")
def catalog():
    return {
        text: sq.certify_order_fn(text, EX4_GRID)
        for text in ("alpha", "alpha^0.5", "alpha^2",
                     "exp(-1/alpha)", "-1/ln(alpha)")
    }


class TestComparatorAlgebra:
    """Ordering structure over the five-function catalog set."""

    def test_reflexivity(self, catalog):
        for fn in catalog.values():
            assert sq.precedes(fn, fn).holds

    def test_transitivity(self, catalog):
        fns = list(catalog.values())
        for f, g, h in itertools.product(fns, repeat=3):
            if sq.precedes(f, g).holds and sq.precedes(g, h).holds:
                assert sq.precedes(f, h).holds, (f.label, g.label, h.label)

    def test_equivalence_relation(self, catalog):
        fns = list(catalog.values())
        for f in fns:
            assert sq.equivalent_at_origin(f, f).holds
        for f, g in itertools.product(fns, repeat=2):
            fwd = sq.equivalent_at_origin(f, g).holds
            bwd = sq.equivalent_at_origin(g, f).holds
            assert fwd == bwd
            # distinct members of this set are never equivalent
            if f is not g:
                assert not fwd, (f.label, g.label)

    def test_expected_order(self, catalog):
        expected = [
            ("exp(-1/alpha)", "alpha^2"), ("alpha^2", "alpha"),
            ("alpha", "alpha^0.5"), ("alpha^0.5", "-1/ln(alpha)"),
        ]
        for lo, hi in expected:
            assert sq.precedes(catalog[lo], catalog[hi]).holds
            assert not sq.precedes(catalog[hi], catalog[lo]).holds


def test_closed_forms_take_no_new_attribute():
    """Orders and sources are NamedTuples with no instance dict: a field or
    any other attribute is read-only."""
    for fn in (sq.order_fn("alpha"), sq.source_fn("lambda")):
        with pytest.raises(AttributeError):
            fn.label = "other"
        with pytest.raises(AttributeError):
            fn.cache = {}


class TestTabulated:
    def test_loglog_interpolation_recovers_power_law(self):
        lams = np.geomspace(0.01, 10, 13)
        tab = sq.TabulatedSource(lambdas=lams, log_values=0.5 * np.log(lams))
        probe = np.geomspace(0.005, 20.0, 57)
        np.testing.assert_allclose(tab.at(probe), np.sqrt(probe), rtol=1e-12)

    def test_order_table_underflow_safe(self):
        alphas = np.geomspace(1e-7, 0.5, 65)
        tab = sq.TabulatedOrder(alphas=alphas, log_values=-1.0 / alphas)
        assert tab.log_at(1e-7) == pytest.approx(-1e7)
        assert tab.at(1e-7) == 0.0  # underflows as a double, by design

    @pytest.mark.parametrize("cls, knots_field", [(sq.TabulatedOrder, "alphas"),
                                                  (sq.TabulatedSource, "lambdas")])
    def test_reads_the_knots_as_they_stand(self, cls, knots_field):
        """ln of the knots is taken on every read, so a table whose knot
        array is changed in place reads the new knots."""
        knots = np.geomspace(0.01, 10, 13)
        tab = cls(**{knots_field: knots, "log_values": np.log(knots)})
        assert tab.log_at(0.5) == pytest.approx(math.log(0.5), rel=1e-14)
        knots *= 2
        assert tab.log_at(0.5) == pytest.approx(math.log(0.25), rel=1e-14)
        assert tab.at(0.5) == pytest.approx(0.25, rel=1e-14)

    def test_tables_are_records(self):
        """A table is a NamedTuple: its four fields in order, read-only,
        copied with _replace, and equal to a table of the other kind on
        the same field objects."""
        knots = np.geomspace(0.01, 10, 13)
        order = sq.TabulatedOrder(alphas=knots, log_values=np.log(knots))
        source = sq.TabulatedSource(lambdas=knots, log_values=order.log_values)
        assert sq.TabulatedOrder._fields == ("alphas", "log_values", "certified", "label")
        assert sq.TabulatedSource._fields == ("lambdas", "log_values", "certified", "label")
        assert len(order) == 4 and tuple(order)[2:] == (True, "tabulated")
        assert order == source
        with pytest.raises(AttributeError):
            order.label = "other"
        copy = order._replace(label="h")
        assert copy.label == "h" and copy.alphas is knots and order.label == "tabulated"


@settings(max_examples=40, deadline=None)
@given(
    exponent=st.floats(min_value=0.1, max_value=3.0),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_power_laws_always_certify_and_self_precede(exponent, scale):
    text = f"{scale!r}*alpha^{exponent!r}"
    fn = sq.certify_order_fn(text)
    assert fn.certified
    verdict = sq.precedes(fn, fn)
    assert verdict.holds and verdict.constant == pytest.approx(1.0)
