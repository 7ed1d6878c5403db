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


# every public verdict, called with one given grid and the other at its default
VERDICTS = {
    "srho_table": lambda f, rho, s, **g: sq.srho_table(f, rho, **g),
    "check_weak_pair": lambda f, rho, s, **g: sq.check_weak_pair(f, s, rho, **g),
    "check_strong_pair": lambda f, rho, s, **g: sq.check_strong_pair(f, s, rho, **g),
    "check_order_source_pair":
        lambda f, rho, s, **g: sq.check_order_source_pair(f, rho, s, rho, **g),
    "estimate_classical_order": lambda f, rho, s, **g: sq.estimate_classical_order(f, **g),
    "check_mp_qualification": lambda f, rho, s, **g: sq.check_mp_qualification(f, rho, **g),
    "construct_weak_qualification":
        lambda f, rho, s, **g: sq.construct_weak_qualification(f, **g),
    "classify": lambda f, rho, s, **g: sq.classify(f, rho, **g),
}


def bad_grids():
    """(slot, filter id, grid, error, message) for each bad grid in the
    lambda slot, on landweber (mu = 0.5: lambda <= 2), and in the alpha
    slot, on tikhonov (alpha <= 1), where a 7-point grid is also bad."""
    for which, good in (("lambda", np.geomspace(0.01, 1.0, 9)),
                        ("alpha", np.geomspace(1e-6, 0.5, 64))):
        fid, top = ("landweber", 3.0) if which == "lambda" else ("tikhonov", 5.0)
        for case, grid, error, message in [
            ("empty", good[:0], sq.QualificationError, r"of shape \(0,\)"),
            ("2-d", good[:8].reshape(2, 4), sq.QualificationError, r"of shape \(2, 4\)"),
            ("nan", np.append(good, np.nan), sq.QualificationError, "value nan is not finite"),
            ("zero", np.append(0.0, good), sq.QualificationError, "value 0.0 is not finite"),
            ("negative", np.append(good, -1.0), sq.QualificationError, "value -1.0 is not finite"),
            ("out-of-range", np.append(good, top), sq.ParameterRangeError,
             f"value {top} is out of range"),
        ]:
            yield pytest.param(which, fid, grid, error, message, id=f"{which}-{case}")
    # fewer alphas than a tail estimate reads
    yield pytest.param("alpha", "tikhonov", np.geomspace(1e-6, 0.5, 7), sq.QualificationError,
                       "of 7 points has fewer than 8", id="alpha-short")


class TestVerdictGrids:
    @pytest.mark.parametrize("verdict", sorted(VERDICTS))
    @pytest.mark.parametrize("which,fid,grid,error,message", bad_grids())
    def test_bad_grid_is_named(self, rho_alpha, s_lambda, verdict, which, fid, grid, error,
                               message):
        """Every verdict sends a given grid through one check: it must be
        1-d, non-empty, finite and positive, and inside the family's range.
        The error names the bad value, or the shape of an empty or 2-d
        grid; before, each of these read a verdict, a nan or a numpy error."""
        with pytest.raises(error, match=f"{which} grid {message}"):
            VERDICTS[verdict](sq.get_filter(fid), rho_alpha, s_lambda, **{f"{which}_grid": grid})

    @pytest.mark.parametrize("mu_grid,message", [
        ([], r"of shape \(0,\)"), ([[0.5, 1.0]], r"of shape \(1, 2\)"),
        ([np.nan, 1.0], "value nan is"), ([-1.0, 1.0], "value -1.0 is"),
        ([0.0, 1.0], "value 0.0 is"), ([1.0, np.inf], "value inf is")])
    def test_classical_mu_grid_must_be_finite_and_positive(self, tikhonov, mu_grid, message):
        """An empty mu grid once read zero and infinite together, a nan
        bounded the bracket with high = nan, and -1 read infinite."""
        with pytest.raises(sq.QualificationError, match=f"mu grid {message}"):
            sq.estimate_classical_order(tikhonov, mu_grid)


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

    @pytest.mark.parametrize("call", [
        lambda t, m: sq.eval_g(t, np.nan, 1.0),
        lambda t, m: sq.eval_residual(t, 0.1, np.nan),
        lambda t, m: sq.regularize(m, t, np.nan, np.ones(m.dim)),
        lambda t, m: study(m, t, sq.source_fn("lambda"), sq.order_fn("alpha"),
                           np.append(np.geomspace(1e-5, 0.5, 40), np.nan)),
    ], ids=["eval_g", "eval_residual", "regularize", "run_convergence"])
    def test_nan_alpha_or_lambda_is_out_of_range(self, tikhonov, model8, call):
        """NaN fails every comparison, so range checks written as "out if
        below or above" let it through: eval_g gave nan, eval_residual
        (nan, nan, 0), regularize nan coefficients, and a study read each
        NaN alpha as log_err -inf, a zero error."""
        with pytest.raises(sq.ParameterRangeError, match="nan|nonnegative"):
            call(tikhonov, model8)

    def test_tail_limit_rejects_an_unknown_kind(self):
        t = sq.tail_of(np.geomspace(1e-6, 0.5, 16))
        with pytest.raises(ValueError, match="kind must be liminf or limsup"):
            sq.tail_limit(t, np.zeros(t.xs.size), "lim")

    @pytest.mark.parametrize("walk", [variables_of, sq.to_string,
                                      lambda e: log_eval(e, {}), lambda e: eval_array(e, {})])
    def test_expression_walks_reject_a_non_node(self, walk):
        with pytest.raises(TypeError, match="not a FuncExpr node"):
            walk(2.5)
