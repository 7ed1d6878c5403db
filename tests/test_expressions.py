"""Parser and evaluator for the closed-form expression language."""

import math
import operator
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specqual.expressions import (
    Binary,
    Const,
    ExprSyntaxError,
    UnboundVariableError,
    Unary,
    UnknownIdentifierError,
    Var,
    eval_array,
    log_eval,
    parse_expr,
    to_string,
)


class TestParsing:
    def test_exp_of_quotient(self):
        tree = parse_expr("exp(-1/alpha)")
        assert isinstance(tree, Unary) and tree.op == "exp"
        quot = tree.child
        assert isinstance(quot, Binary) and quot.op == "/"
        assert quot.left == Unary("neg", Const(1.0))
        assert quot.right == Var("alpha")

    def test_rational_source_form(self):
        tree = parse_expr("lambda/(1+lambda)")
        assert isinstance(tree, Binary) and tree.op == "/"
        assert tree.left == Var("lambda")
        assert tree.right == Binary("+", Const(1.0), Var("lambda"))

    def test_double_caret_is_a_syntax_error_with_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("alpha^^2")
        assert err.value.position == 6

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse_expr("beta + 1")
        with pytest.raises(UnknownIdentifierError):
            parse_expr("cos(alpha)")

    def test_mixed_variables_parse(self):
        """The one-variable rule belongs to certification (tests/test_rates.py)."""
        tree = parse_expr("alpha + lambda")
        assert eval_array(tree, {"alpha": 1.0, "lambda": 2.0}) == 3.0

    def test_power_is_right_associative(self):
        assert eval_array(parse_expr("2^3^2"), {}) == 512.0

    def test_unary_minus_binds_tighter_than_power(self):
        assert eval_array(parse_expr("-2^2"), {}) == 4.0

    def test_numbers_with_exponents(self):
        assert eval_array(parse_expr("1e-3 + 2.5E+1"), {}) == pytest.approx(25.001)

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(alpha + 1")

    @pytest.mark.parametrize("text", ["alpha ", "alpha\t", " alpha \n", "exp(-1/alpha)  "])
    def test_trailing_whitespace_ends_the_expression(self, text):
        assert parse_expr(text) == parse_expr(text.strip())

    @pytest.mark.parametrize("text,position", [("alpha  $", 7), ("  @", 2), ("alpha + ", 8)])
    def test_error_after_spaces_reports_its_position(self, text, position):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text)
        assert err.value.position == position


class TestEvaluation:
    def test_reciprocal_log(self):
        tree = parse_expr("-1/ln(alpha)")
        assert eval_array(tree, {"alpha": math.exp(-2)}) == pytest.approx(0.5)

    def test_identity_power(self):
        assert eval_array(parse_expr("alpha^1"), {"alpha": 0.25}) == 0.25

    def test_sqrt(self):
        assert eval_array(parse_expr("sqrt(lambda)"), {"lambda": 4.0}) == 2.0

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_array(parse_expr("alpha"), {})

    def test_overflow_saturates(self):
        assert eval_array(parse_expr("exp(1/alpha)"), {"alpha": 1e-4}) == math.inf

    def test_array_evaluation_matches_scalar(self):
        """The whole grid at once against the 50-digit oracle point by point,
        to CATALOG_LOG_TOL in ln v: exp(-1/alpha) carries the rounding of
        its argument, a relative error of eps * |ln v|."""
        mpmath = pytest.importorskip("mpmath")
        tree = parse_expr("exp(-1/alpha)*alpha^2")
        grid = np.geomspace(0.01, 0.9, 17)
        vec = eval_array(tree, {"alpha": grid})
        with mpmath.workdps(50):
            for a, got in zip(grid.tolist(), vec.tolist()):
                want = _mp_eval(mpmath.mp, tree, "alpha", a)
                tol = CATALOG_LOG_TOL * max(1, abs(mpmath.log(want)))
                assert abs(got - want) <= tol * want, a


# random expression trees for the round-trip property
def _leaf(var):
    return st.one_of(
        st.floats(min_value=0.1, max_value=4.0).map(lambda v: Const(round(v, 3))),
        st.just(Var(var)),
    )


def _trees(var):
    return st.recursive(
        _leaf(var),
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children)
            .map(lambda t: Binary(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["neg", "exp", "ln", "sqrt", "abs", "sin"]), children)
            .map(lambda t: Unary(t[0], t[1])),
        ),
        max_leaves=12,
    )


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(tree=_trees("alpha"))
    @example(tree=Unary("neg", Binary("^", Var("alpha"), Const(0.5))))
    @example(tree=Binary("/", Const(1.0), Binary("-", Const(1.0), Const(1.0))))
    def test_print_parse_print_is_stable(self, tree):
        """Printing and re-parsing evaluates identically at sampled points."""
        text = to_string(tree)
        reparsed = parse_expr(text)
        pts = np.geomspace(1e-6, 2.0, 25)
        a = eval_array(tree, {"alpha": pts})
        b = eval_array(reparsed, {"alpha": pts})
        a = np.broadcast_to(np.asarray(a, dtype=float), pts.shape)
        b = np.broadcast_to(np.asarray(b, dtype=float), pts.shape)
        both = np.isfinite(a) & np.isfinite(b)
        np.testing.assert_allclose(a[both], b[both], rtol=1e-12, atol=1e-300)
        # where one is nan/inf the other must match in kind
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b))

    def test_catalog_round_trip(self):
        """Every expression the catalog relies on survives print/parse."""
        catalog = [
            "alpha", "alpha^0.5", "alpha^2", "alpha^0.25",
            "exp(-1/alpha)", "exp(-1/sqrt(alpha))",
            "-1/ln(alpha)", "(-ln(alpha))^(-0.5)",
            "(1-0.5*sqrt(alpha))^(1/alpha)",
            "lambda", "lambda^0.5", "lambda^0.25", "lambda/(1+lambda)",
            "lambda*abs(sin(lambda^1.5))/sqrt(lambda)",
        ]
        for text in catalog:
            tree = parse_expr(text)
            again = parse_expr(to_string(parse_expr(to_string(tree))))
            var = "alpha" if "alpha" in text else "lambda"
            pts = np.geomspace(1e-4, 0.2 if var == "alpha" else 10.0, 100)
            np.testing.assert_allclose(
                np.asarray(eval_array(tree, {var: pts}), dtype=float),
                np.asarray(eval_array(again, {var: pts}), dtype=float),
                rtol=1e-15,
            )


class TestLogEval:
    def test_underflowing_forms_stay_finite(self):
        alpha = np.array([1e-5, 1e-300])
        for text, want in (("2*exp(-1/alpha)", math.log(2) - 1 / alpha),
                           ("1/exp(1/alpha)", -1 / alpha),
                           ("ln(exp(-1/alpha))", np.log(1 / alpha))):
            lv, sign = log_eval(parse_expr(text), {"alpha": alpha})
            np.testing.assert_allclose(lv, want, rtol=1e-15, err_msg=text)
        lv, sign = log_eval(parse_expr("ln(exp(-1/alpha))"), {"alpha": alpha})
        assert np.all(sign == -1.0)

    def test_sign_follows_the_value(self):
        lam = np.array([0.5, 2.0])
        lv, sign = log_eval(parse_expr("(lambda-1)*exp(-1/lambda)"), {"lambda": lam})
        assert sign.tolist() == [-1.0, 1.0]
        np.testing.assert_allclose(lv, np.log(np.abs(lam - 1)) - 1 / lam, rtol=1e-15)

    def test_division_by_exact_zero_keeps_ieee_sign(self):
        """-1/ln(alpha) at alpha = 1 is -1/+0 = -inf, as in eval_array."""
        lv, sign = log_eval(parse_expr("-1/ln(alpha)"), {"alpha": np.array([1.0])})
        assert lv[0] == math.inf and sign[0] == -1.0
        assert eval_array(parse_expr("-1/ln(alpha)"), {"alpha": np.array([1.0])})[0] == -math.inf

    def test_zero_and_domain_errors(self):
        alpha = np.array([0.25, 1.0, 4.0])
        lv, sign = log_eval(parse_expr("sqrt(ln(alpha))"), {"alpha": alpha})
        assert math.isnan(lv[0]) and lv[1] == -math.inf and sign[1] == 0.0
        assert lv[2] == pytest.approx(0.5 * math.log(math.log(4.0)), rel=1e-15)
        lv, _ = log_eval(parse_expr("(alpha-1)^0.5"), {"alpha": alpha})
        assert math.isnan(lv[0])
        lv, sign = log_eval(parse_expr("(alpha-2)^2"), {"alpha": alpha})  # negative base
        np.testing.assert_allclose(lv, np.log((alpha - 2) ** 2), rtol=1e-15)
        assert np.all(sign == 1.0)


# -- a 50-digit mpmath oracle for log_eval ---------------------------------
#
# The oracle evaluates the same tree exactly and compares ln|v| and the
# sign.  How close a double evaluation can get depends on the tree's
# conditioning, so the oracle also evaluates it four more times with every
# node's value v moved by a random relative 2^-53 * max(1, |ln v|): the
# rounding of a double holding ln v.  ``spread`` is how far ln|v| moves.
# The error is measured in units of ``scale = 2^-52 * max(1, |ln v|) +
# spread``.  Points where a perturbation flips the sign or moves |v| by a
# factor e or more are ill-conditioned and skipped, as are points whose
# linearly evaluated parts (exp arguments, exponents, negative bases) a
# double cannot hold or evaluates more than 1e-8 off.
#
# Measured over 2,000 drawn trees (22,753 checked points, alpha from
# 1e-300 to 2): worst error 1.85 scale units.  On the catalog forms the
# plain relative error |ln v - oracle| / max(1, |oracle|) is at most
# 1.3e-16 (exp(-1/sqrt(alpha))).
LOG_EVAL_TOL = 4.0
CATALOG_LOG_TOL = 1e-15
DBL_MAX = sys.float_info.max


class _Unrepresentable(Exception):
    pass


def _check_linear(tree, var, x, exact):
    got = float(np.asarray(eval_array(tree, {var: np.float64(x)})))
    if not math.isfinite(got) or abs(got - exact) > 1e-8 * abs(exact) + 1e-300:
        raise _Unrepresentable


def _mp_eval(mp, tree, var, x, perturb=None):
    """v at x in mpmath; ``perturb(v)`` (when given) moves every node's value."""
    match tree:
        case Const(v):
            return mp.mpf(v)
        case Var():
            return mp.mpf(x)
        case Unary(op, child):
            u = _mp_eval(mp, child, var, x, perturb)
            if op == "exp":
                if abs(u) > DBL_MAX:
                    raise _Unrepresentable
                if perturb is None:
                    _check_linear(child, var, x, u)
            v = {"exp": mp.exp, "ln": mp.log, "sqrt": mp.sqrt, "neg": lambda t: -t}[op](u)
        case Binary(op, left, right):
            a = _mp_eval(mp, left, var, x, perturb)
            b = _mp_eval(mp, right, var, x, perturb)
            if op == "^":
                if abs(b) > DBL_MAX or (a == 0 and b <= 0):
                    raise _Unrepresentable
                if perturb is None:
                    _check_linear(right, var, x, b)
                    if a < 0:
                        _check_linear(left, var, x, a)
                if a > 0 and abs(b * mp.log(a)) > DBL_MAX:
                    raise _Unrepresentable
            if op == "/" and b == 0:
                raise _Unrepresentable
            v = {"+": operator.add, "-": operator.sub, "*": operator.mul,
                 "/": operator.truediv, "^": mp.power}[op](a, b)
    if not isinstance(v, mp.mpf) or mp.isnan(v):
        raise _Unrepresentable  # complex or undefined
    return v if perturb is None or v == 0 else perturb(v)


def _oracle_errors(mpmath, tree, var, xs, seed=0):
    """For each well-conditioned point: (x, error / scale, sign ok)."""
    lv, sign = log_eval(tree, {var: xs})
    lv, sign = np.broadcast_to(lv, xs.shape), np.broadcast_to(sign, xs.shape)
    mp = mpmath.mp
    rng = random.Random(seed)

    def perturb(v):
        return v + v * rng.uniform(-1.0, 1.0) * 2.0 ** -53 * max(1, abs(mp.log(abs(v))))

    out = []
    for i, x in enumerate(xs.tolist()):
        try:
            v = _mp_eval(mp, tree, var, x)
            moved = [_mp_eval(mp, tree, var, x, perturb) for _ in range(4)]
        except (_Unrepresentable, ZeroDivisionError):
            continue
        if v == 0:
            if all(m == 0 for m in moved):
                out.append((x, 0.0 if lv[i] == -math.inf else math.inf, sign[i] == 0))
            continue
        want = mp.log(abs(v))
        if abs(want) > DBL_MAX or any(m == 0 or mp.sign(m) != mp.sign(v) for m in moved):
            continue
        spread = max(abs(mp.log(abs(m)) - want) for m in moved)
        if spread >= 1:
            continue
        err = abs(mp.mpf(float(lv[i])) - want) if math.isfinite(lv[i]) else mp.inf
        scale = 2.0 ** -52 * max(1, abs(want)) + spread
        out.append((x, float(err / scale), sign[i] == mp.sign(v)))
    return out


def _log_eval_trees(var):
    return st.recursive(
        _leaf(var),
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*", "/", "^"]), children, children)
            .map(lambda t: Binary(t[0], t[1], t[2])),
            st.tuples(st.sampled_from(["exp", "ln", "sqrt"]), children)
            .map(lambda t: Unary(t[0], t[1])),
        ),
        max_leaves=8,
    )


@settings(max_examples=150, deadline=None)
@given(tree=_log_eval_trees("alpha"))
@example(tree=parse_expr("(alpha+alpha)/alpha-0.1"))
@example(tree=parse_expr("exp(alpha)-(1+alpha)"))
@example(tree=parse_expr("ln(2^alpha)"))
@example(tree=parse_expr("alpha/ln(alpha-alpha)"))  # x/-inf is -0.0: sign 0, not -1
@example(tree=parse_expr("3.5-3.703"))  # cancelling leaves: their logs' rounding grows 18x
@example(tree=parse_expr("ln(1+alpha-1)"))  # alpha < ulp(1) is kept by ln(1+alpha) alone
def test_log_eval_matches_high_precision_oracle(tree):
    """log_eval against 50-digit mpmath on drawn trees, alpha down to 1e-300."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for x, ratio, sign_ok in _oracle_errors(mpmath, tree, "alpha",
                                                np.geomspace(1e-300, 2.0, 13)):
            assert sign_ok, (to_string(tree), x)
            assert ratio <= LOG_EVAL_TOL, (to_string(tree), x, ratio)


LOG_CATALOG = (
    "alpha", "alpha^0.5", "exp(-1/alpha)", "-1/ln(alpha)", "(-ln(alpha))^(-0.5)",
    "exp(-1/sqrt(alpha))", "2*exp(-1/alpha)", "alpha*exp(-1/alpha)",
    "sqrt(exp(-1/alpha))", "exp(-1/alpha)^2", "1/exp(1/alpha)",
    "lambda", "lambda^0.5", "lambda^0.25", "lambda/(1+lambda)", "exp(-1/lambda)",
)


@pytest.mark.parametrize("text", LOG_CATALOG)
def test_log_eval_catalog_forms_match_oracle(text):
    """The catalog forms to CATALOG_LOG_TOL relative, down to 1e-300."""
    mpmath = pytest.importorskip("mpmath")
    tree = parse_expr(text)
    var = "alpha" if "alpha" in text else "lambda"
    xs = np.geomspace(1e-300, 0.5 if var == "alpha" else 10.0, 41)
    lv, sign = log_eval(tree, {var: xs})
    lv = np.broadcast_to(lv, xs.shape)
    assert np.all(np.isfinite(lv)) and np.all(sign == 1.0)
    with mpmath.workdps(50):
        for x, got in zip(xs.tolist(), lv.tolist()):
            want = mpmath.log(_mp_eval(mpmath.mp, tree, var, x))
            assert abs(got - want) / max(1, abs(want)) <= CATALOG_LOG_TOL, (text, x)


def test_iteration_rate_keeps_its_decay():
    """(1-0.5*sqrt(alpha))^(1/alpha) ~ exp(-0.5/sqrt(alpha)): the base rounds
    to 1.0 below alpha ~ 1e-32, and the signed logaddexp keeps its
    distance from 1.  The oracle needs 320 digits to see it at 1e-300.
    The relative error of ln, at most 3.0e-14 here, is that of
    exp(ln 0.5 + 0.5 ln alpha): 2^-53 times |ln(0.5*sqrt(alpha))| <= 346."""
    mpmath = pytest.importorskip("mpmath")
    tree = parse_expr("(1-0.5*sqrt(alpha))^(1/alpha)")
    xs = np.geomspace(1e-300, 0.5, 41)
    lv, _ = log_eval(tree, {"alpha": xs})
    with mpmath.workdps(320):
        for x, got in zip(xs.tolist(), lv.tolist()):
            want = mpmath.log(_mp_eval(mpmath.mp, tree, "alpha", x))
            assert abs(got - want) / max(1, abs(want)) <= 1e-13, x
