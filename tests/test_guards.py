"""Guards and fallbacks that the other tests never reach.

Each test drives one raise or branch of the package with the input that
reaches it, and fails if that raise or branch is removed.
"""

import dataclasses

import numpy as np
import pytest

import specqual as sq
from specqual.experiments import _study_ratio_bounded
from specqual.expressions import eval_array, log_eval, variables_of


@pytest.fixture(scope="module")
def model8():
    return sq.make_model("j^-2", 8)


def study(model, filt, s, rho, grid=np.geomspace(1e-5, 0.5, 40)):
    elem = sq.make_source_element(model, s, np.ones(model.dim))
    return sq.run_convergence(model, filt, elem, rho, grid)


class TestAxiomChecker:
    def test_nan_filter_fails_h1(self):
        """H1 names the first (alpha, lambda) where g is NaN."""
        def g(a, lm):
            return np.where(lm > 0.5, np.nan, 1.0 / (a + lm))

        report = sq.verify_srm_axioms(sq.make_custom_filter("nan_g", g, 1.0, 1.0))
        assert not report.h1_finite
        h1 = [f for f in report.failures if f["axiom"] == "H1"]
        assert len(h1) == 1 and h1[0]["lambda"] > 0.5

    def test_h3_reads_small_lambdas_when_none_reaches_its_floor(self, ex4):
        """With no lambda >= 0.01, H3 reads the positive lambdas below it,
        where ex4's residual has not halved by alpha = 1e-300."""
        report = sq.verify_srm_axioms(ex4, lambda_grid=[0.0, 0.001, 0.005])
        assert not report.h3_pointwise
        assert [f["lambda"] for f in report.failures if f["axiom"] == "H3"] == [0.001]


class TestConstructHypotheses:
    def test_filter_increasing_in_alpha_is_rejected(self):
        """g = 1/(lambda + 1/alpha) has a positive residual 1/(1 + alpha
        lambda), decreasing in lambda, but g grows with alpha."""
        filt = sq.make_custom_filter("inc", lambda a, lm: 1.0 / (lm + 1.0 / a), 1.0, 1.0)
        with pytest.raises(sq.HypothesisViolation, match="filter is not decreasing in alpha"):
            sq.construct_weak_qualification(filt)

    def test_nan_alpha_fails_the_theta_bisection(self, tikhonov):
        """A NaN first alpha, which would pass the hypothesis probe of a
        custom family (its NaN signs compare false) and leave theta NaN, is
        named up front."""
        custom = sq.make_custom_filter("custom", tikhonov._g, 1.0, 1.0)
        grid = np.concatenate([[np.nan], np.geomspace(1e-6, 0.5, 200)])
        with pytest.raises(sq.QualificationError,
                           match="alpha grid value nan is not finite and positive"):
            sq.construct_weak_qualification(custom, alpha_grid=grid)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("which", ["alpha", "lambda"])
    def test_grid_values_must_be_finite_and_positive(self, tikhonov, which, bad):
        """Either grid is checked before the hypothesis probe, catalog
        family or custom, and the first bad value is named."""
        grid = np.geomspace(1e-4, 0.5, 200)
        grid[[7, 9]] = bad, -2.0
        with pytest.raises(sq.QualificationError,
                           match=f"{which} grid value {bad} is not finite and positive"):
            sq.construct_weak_qualification(tikhonov, **{f"{which}_grid": grid})


class TestExperiments:
    def test_uncertified_order_is_rejected(self, model8, tikhonov, s_lambda):
        rho = sq.certify_order_fn("1+alpha")
        assert not rho.certified
        with pytest.raises(sq.ExperimentError, match="order function must be certified"):
            study(model8, tikhonov, s_lambda, rho)

    def test_constant_rate_has_no_slope(self, model8, tikhonov, s_lambda):
        flat = sq.TabulatedOrder(alphas=np.array([1e-6, 1.0]), log_values=np.zeros(2))
        with pytest.raises(sq.ExperimentError, match="rate function is constant"):
            sq.fit_order(study(model8, tikhonov, s_lambda, flat), window=(1e-5, 0.5))

    def test_converse_probe_needs_a_source(self, model8, tikhonov, s_lambda, rho_alpha):
        bare = dataclasses.replace(study(model8, tikhonov, s_lambda, rho_alpha), source=None)
        with pytest.raises(sq.ExperimentError, match="no source element"):
            sq.converse_probe(bare, tikhonov, rho_alpha, s_lambda, rho_alpha)

    def test_few_finite_ratios_read_as_bounded(self, model8, tikhonov, s_lambda, rho_alpha):
        """Under 8 finite ratios leave no tail to estimate: the study's
        ratio counts as bounded."""
        short = study(model8, tikhonov, s_lambda, rho_alpha, np.geomspace(1e-3, 0.5, 5))
        assert _study_ratio_bounded(short) is True

    def test_maximal_source_needs_finite_srho_over_the_spectrum(self, tikhonov, rho_alpha):
        """The s_rho table over the model's spectrum would reach lambda =
        2e308 = inf, where s_rho is not finite: the demo refuses before it
        tabulates, with no numpy warning."""
        model = sq.SpectralModel(np.array([1e308, 1.0]), "wide")
        with pytest.raises(sq.ExperimentError, match="not finite and positive"):
            sq.maximal_source_demo(model, tikhonov, rho_alpha, [])

    def test_maximal_source_needs_a_positive_table_bottom(self, tikhonov, rho_alpha):
        """Half the least eigenvalue 5e-324 rounds to 0, where no geometric
        table can start."""
        model = sq.SpectralModel(np.array([1.0, 5e-324]), "subnormal")
        with pytest.raises(sq.ExperimentError, match=r"spectrum \[0.0, 2.0\]"):
            sq.maximal_source_demo(model, tikhonov, rho_alpha, [])


class TestOperatorChecks:
    def test_spectral_model_needs_a_1d_array(self):
        with pytest.raises(sq.OperatorError, match="nonempty 1-d"):
            sq.SpectralModel(np.ones((2, 2)), "square")

    def test_svd_needs_a_2d_matrix(self):
        with pytest.raises(sq.OperatorError, match="matrix must be 2-d"):
            sq.svd_decompose(np.ones(3))

    def test_uncertified_source_is_rejected(self, model8):
        s = sq.certify_source_fn("1")
        assert not s.certified
        with pytest.raises(sq.OperatorError, match="source function must be certified"):
            sq.make_source_element(model8, s, np.ones(8))
        with pytest.raises(sq.OperatorError, match="source function must be certified"):
            sq.membership_probe(model8, np.ones(8), s)

    def test_wrong_coefficient_length_is_rejected(self, model8, tikhonov, s_lambda):
        with pytest.raises(sq.OperatorError, match="does not match dim 8"):
            sq.regularize(model8, tikhonov, 0.1, np.ones(7))
        with pytest.raises(sq.OperatorError, match="does not match dim 8"):
            sq.membership_probe(model8, np.ones(7), s_lambda)


class TestInputChecks:
    def test_non_admissible_order_text_raises(self):
        with pytest.raises(sq.DomainError, match="'1' is not an admissible order function"):
            sq.order_fn("1")

    def test_tail_limit_rejects_an_unknown_kind(self):
        t = sq.tail_of(np.geomspace(1e-6, 0.5, 16))
        with pytest.raises(ValueError, match="kind must be liminf or limsup"):
            sq.tail_limit(t, np.zeros(t.xs.size), "lim")

    @pytest.mark.parametrize("walk", [variables_of, sq.to_string,
                                      lambda e: log_eval(e, {}), lambda e: eval_array(e, {})])
    def test_expression_walks_reject_a_non_node(self, walk):
        with pytest.raises(TypeError, match="not a FuncExpr node"):
            walk(2.5)
