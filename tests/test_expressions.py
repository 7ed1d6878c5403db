"""Parser and evaluator for the closed-form expression language."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specqual.expressions import (
    Binary,
    Const,
    DomainError,
    ExprSyntaxError,
    UnboundVariableError,
    Unary,
    UnknownIdentifierError,
    Var,
    eval_array,
    eval_expr,
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

    def test_mixed_variables_rejected(self):
        with pytest.raises(Exception):
            parse_expr("alpha + lambda")

    def test_power_is_right_associative(self):
        assert eval_expr(parse_expr("2^3^2"), {}) == 512.0

    def test_unary_minus_binds_tighter_than_power(self):
        assert eval_expr(parse_expr("-2^2"), {}) == 4.0

    def test_numbers_with_exponents(self):
        assert eval_expr(parse_expr("1e-3 + 2.5E+1"), {}) == pytest.approx(25.001)

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(alpha + 1")


class TestEvaluation:
    def test_reciprocal_log(self):
        tree = parse_expr("-1/ln(alpha)")
        assert eval_expr(tree, {"alpha": math.exp(-2)}) == pytest.approx(0.5)

    def test_identity_power(self):
        assert eval_expr(parse_expr("alpha^1"), {"alpha": 0.25}) == 0.25

    def test_sqrt(self):
        assert eval_expr(parse_expr("sqrt(lambda)"), {"lambda": 4.0}) == 2.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            eval_expr(parse_expr("ln(alpha)"), {"alpha": -1.0})
        with pytest.raises(DomainError):
            eval_expr(parse_expr("ln(alpha)"), {"alpha": 0.0})
        with pytest.raises(DomainError):
            eval_expr(parse_expr("sqrt(alpha)"), {"alpha": -4.0})
        with pytest.raises(DomainError):
            eval_expr(parse_expr("alpha^0.5"), {"alpha": -4.0})

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError):
            eval_expr(parse_expr("alpha"), {})

    def test_overflow_saturates(self):
        assert eval_expr(parse_expr("exp(1/alpha)"), {"alpha": 1e-4}) == math.inf

    def test_array_evaluation_matches_scalar(self):
        tree = parse_expr("exp(-1/alpha)*alpha^2")
        grid = np.geomspace(0.01, 0.9, 17)
        vec = eval_array(tree, {"alpha": grid})
        ref = np.array([eval_expr(tree, {"alpha": float(a)}) for a in grid])
        np.testing.assert_allclose(vec, ref, rtol=1e-15)


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
