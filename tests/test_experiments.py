"""Convergence studies, slope fits, converse probes, maximal source sets."""

import json
import math

import numpy as np
import pytest

import specqual as sq
from specqual.experiments import ConvergenceStudy, StudyRecord
from specqual.filters import _check_alpha
from specqual.limits import sat_exp
from specqual.operators import _filter_lambda_check

STUDY_GRID = np.geomspace(1e-5, 0.5, 220)


@pytest.fixture(scope="module")
def model200():
    return sq.make_model("j^-2", 200)


@pytest.fixture(scope="module")
def w06():
    return np.arange(1, 201, dtype=float) ** -0.6


def make_study(model, filt, s, rho, w, grid=None):
    if grid is None:
        grid = np.geomspace(1e-5, filt.alpha_max / 2.0, 220)
    elem = sq.make_source_element(model, s, w)
    return sq.run_convergence(model, filt, elem, rho, grid)


class TestRunConvergence:
    def test_records_sorted_descending(self, model200, tikhonov, s_lambda, rho_alpha, w06):
        study = make_study(model200, tikhonov, s_lambda, rho_alpha, w06)
        alphas = study.alphas()
        assert np.all(np.diff(alphas) < 0)

    def test_ratio_identity(self, model200, tikhonov, s_lambda, rho_alpha, w06):
        study = make_study(model200, tikhonov, s_lambda, rho_alpha, w06)
        for r in study.records:
            if r.err > 0 and math.isfinite(r.ratio) and r.rho > 0:
                assert r.ratio == pytest.approx(r.err / r.rho, rel=1e-12)

    def test_truncation_exhausts_spectrum(self, model200, tsvd, s_lambda, rho_alpha, w06):
        study = make_study(model200, tsvd, s_lambda, rho_alpha, w06)
        lam_min = float(model200.eigenvalues[-1])
        for r in study.records:
            if r.alpha < lam_min:
                assert r.err == 0.0

    def test_exponential_ratio_closed_form(self, showalter, s_lambda, rho_exp_sqrt):
        """One-mode model: err/rho = exp(-1/alpha + 1/sqrt(alpha)) exactly."""
        model = sq.SpectralModel(eigenvalues=np.array([1.0]), provenance="t")
        elem = sq.SourceElement(x_dagger=np.array([1.0]), generator_w=np.array([1.0]),
                                source_s=s_lambda, model=model)
        study = sq.run_convergence(model, showalter, elem, rho_exp_sqrt,
                                   np.geomspace(1e-3, 0.5, 40))
        for r in study.records:
            want = -1.0 / r.alpha + 1.0 / math.sqrt(r.alpha)
            assert r.log_ratio == pytest.approx(want, rel=1e-12)

    def test_records_are_named_tuples(self, model200, tikhonov, s_lambda, rho_alpha, w06):
        study = make_study(model200, tikhonov, s_lambda, rho_alpha, w06, STUDY_GRID)
        r = study.records[0]
        assert r == tuple(r) and r._fields == ("alpha", "err", "rho", "ratio",
                                               "log_err", "log_ratio")
        assert all(type(v) is float for rec in study.records for v in rec)

    def test_csv_export_shape(self, model200, tikhonov, s_lambda, rho_alpha, w06):
        text = make_study(model200, tikhonov, s_lambda, rho_alpha, w06,
                          STUDY_GRID).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "alpha,err,rho,ratio"
        assert len(lines) == len(STUDY_GRID) + 1
        assert "\r" not in text


def log_error_at(model, filt, alpha, source):
    """ln of the reconstruction error at one alpha, reduced on its own: the
    terms of the one row, compacted to the finite ones, then log-sum-exp."""
    _check_alpha(filt, alpha)
    _filter_lambda_check(model, filt)
    with np.errstate(all="ignore"):
        lr = np.asarray(filt._r_log(np.float64(alpha), model.eigenvalues), dtype=float)
        terms = 2.0 * lr + 2.0 * np.log(np.abs(source.x_dagger))
        finite = terms[terms > -np.inf]
        if finite.size == 0:
            return -math.inf
        peak = float(np.max(finite))
        return 0.5 * (peak + math.log(float(np.sum(np.exp(finite - peak)))))


def study_by_loop(model, filt, source, rho, grid):
    """The study as one scalar error and one scalar log rho per alpha."""
    records = []
    for a in np.sort(np.asarray(grid, dtype=float))[::-1]:
        log_err = log_error_at(model, filt, float(a), source)
        log_rho = float(rho.log_at(float(a)))
        log_ratio = log_err - log_rho
        records.append(StudyRecord(alpha=float(a), err=sat_exp(log_err), rho=sat_exp(log_rho),
                                   ratio=sat_exp(log_ratio), log_err=log_err,
                                   log_ratio=log_ratio))
    return records


class TestBatchedStudy:
    """One (alpha x eigenvalue) mesh per study gives, bit for bit, the
    records of the per-alpha loop.  The spectra all lie below landweber's
    lambda_sup = 2; tsvd rows between two eigenvalues drop the terms with
    r = 0, and the generator with zeros drops the x_j = 0 terms."""

    @pytest.mark.parametrize("fid", sq.list_filters())
    def test_records_match_scalar_loop(self, fid):
        filt = sq.get_filter(fid, **({"k": 1.0} if fid == "ex8_osc" else {}))
        # ex10_osc's range is open at alpha_max = 1, where -1/ln(alpha) is infinite
        top = 0.99 if fid == "ex10_osc" else filt.alpha_max
        grids = [np.geomspace(1e-5, filt.alpha_max / 2.0, 150),
                 np.geomspace(1e-7, top, 97)]
        n_records = 0
        for rule, dim in (("j^-2", 200), ("j^-4", 64), ("exp", 32)):
            model = sq.make_model(rule, dim)
            j = np.arange(1, dim + 1, dtype=float)
            combos = [("lambda", j ** -0.6, "alpha"),
                      ("lambda^0.5", np.where(j % 3 == 0, 0.0, j ** -0.6),
                       "exp(-1/sqrt(alpha))")]
            for s_text, w, rho_text in combos:
                elem = sq.make_source_element(model, sq.source_fn(s_text), w)
                rho = sq.order_fn(rho_text)
                for grid in grids:
                    study = sq.run_convergence(model, filt, elem, rho, grid)
                    want = study_by_loop(model, filt, elem, rho, grid)
                    assert repr(study.records) == repr(want), (fid, rule, s_text, grid.size)
                    n_records += len(want)
        assert n_records == 6 * (150 + 97)

    def test_tsvd_rows_drop_terms(self, model200, tsvd, w06):
        """Rows whose alpha lies inside the spectrum keep only the r = 1 terms."""
        elem = sq.make_source_element(model200, sq.source_fn("lambda"), w06)
        grid = np.geomspace(1e-5, 0.5, 150)
        errs = sq.log_regularization_error(model200, tsvd, grid, elem)
        inside = (grid > model200.eigenvalues[-1]) & (grid <= model200.eigenvalues[0])
        assert np.count_nonzero(inside) > 100
        assert np.all(np.isfinite(errs[inside]))
        assert np.all(errs[grid <= model200.eigenvalues[-1]] == -math.inf)

    def test_scalar_form_is_a_float(self, model200, tikhonov, s_lambda, w06):
        elem = sq.make_source_element(model200, s_lambda, w06)
        got = sq.log_regularization_error(model200, tikhonov, 0.01, elem)
        assert type(got) is float
        for a in np.geomspace(1e-7, 1.0, 60).tolist():
            assert sq.log_regularization_error(model200, tikhonov, a, elem) == \
                log_error_at(model200, tikhonov, a, elem)
        batch = sq.log_regularization_error(model200, tikhonov, np.array([0.01]), elem)
        assert batch.shape == (1,) and batch[0] == got

    @pytest.mark.parametrize("bad", [1.5, 0.0, -1e-3])
    def test_out_of_range_alpha_message_matches_loop(self, model200, tikhonov, s_lambda,
                                                     rho_alpha, w06, bad):
        elem = sq.make_source_element(model200, s_lambda, w06)
        grid = np.append(np.geomspace(1e-5, 0.5, 20), [bad, 2.0 * bad])
        with pytest.raises(sq.ParameterRangeError) as from_loop:
            study_by_loop(model200, tikhonov, elem, rho_alpha, grid)
        with pytest.raises(sq.ParameterRangeError) as batched:
            sq.run_convergence(model200, tikhonov, elem, rho_alpha, grid)
        assert str(batched.value) == str(from_loop.value)


class TestFitOrder:
    """Windows chosen inside the low-end clip rule; the generator tail
    j^-0.6 adds a +0.05 drift to the scaling exponent, so each source
    reads cleanest in a different part of the grid."""

    def test_linear_source_slope_one(self, model200, tikhonov, s_lambda, rho_alpha, w06):
        study = make_study(model200, tikhonov, s_lambda, rho_alpha, w06)
        fit = sq.fit_order(study, (2.5e-4, 1e-3))
        assert fit.slope == pytest.approx(1.0, abs=0.05)
        assert fit.r_squared >= 0.999

    def test_square_root_source_slope_half(self, model200, tikhonov, s_sqrt, rho_alpha, w06):
        study = make_study(model200, tikhonov, s_sqrt, rho_alpha, w06)
        fit = sq.fit_order(study, (2e-3, 0.1))
        assert fit.slope == pytest.approx(0.5, abs=0.05)
        assert fit.r_squared >= 0.999

    def test_quarter_power_source(self, model200, tikhonov, rho_alpha, w06):
        study = make_study(model200, tikhonov, sq.source_fn("lambda^0.25"),
                           rho_alpha, w06)
        fit = sq.fit_order(study, (0.1, 0.49))
        assert fit.slope == pytest.approx(0.25, abs=0.05)

    def test_constant_error_gives_zero_slope(self, rho_alpha):
        records = [
            StudyRecord(alpha=a, err=2.0, rho=a, ratio=2.0 / a,
                        log_err=math.log(2.0), log_ratio=math.log(2.0 / a))
            for a in np.geomspace(0.5, 1e-4, 40)
        ]
        study = ConvergenceStudy(records=records, filter_id="synthetic",
                                 model_provenance="none", source_label="s",
                                 rho_label="alpha")
        fit = sq.fit_order(study, (1e-4, 0.5))
        assert abs(fit.slope) < 1e-6

    def test_too_few_points_raises(self, model200, tikhonov, s_lambda, rho_alpha, w06):
        study = make_study(model200, tikhonov, s_lambda, rho_alpha, w06)
        with pytest.raises(sq.ExperimentError):
            sq.fit_order(study, (1e-4, 1.1e-4))

    def test_fit_values_are_floats(self, model200, tikhonov, s_lambda, rho_alpha, w06):
        fit = sq.fit_order(make_study(model200, tikhonov, s_lambda, rho_alpha, w06),
                           (2.5e-4, 1e-3))
        assert type(fit.slope) is float
        assert type(fit.intercept) is float
        assert type(fit.r_squared) is float

    def test_empty_study_raises(self):
        study = ConvergenceStudy(records=[], filter_id="synthetic", model_provenance="none",
                                 source_label="s", rho_label="alpha")
        with pytest.raises(sq.ExperimentError) as err:
            sq.fit_order(study, (0.1, 1))
        assert str(err.value) == "need at least 8 usable records in the window, got 0"

    def test_empty_study_without_window_raises(self):
        """The default window of an empty study is empty, not numpy's
        "zero-size array to reduction operation" ValueError."""
        study = ConvergenceStudy(records=[], filter_id="synthetic", model_provenance="none",
                                 source_label="s", rho_label="alpha")
        with pytest.raises(sq.ExperimentError) as err:
            sq.fit_order(study)
        assert str(err.value) == "need at least 8 usable records in the window, got 0"

    def test_zero_errors_in_window_raise(self, model200, tsvd, s_lambda, rho_alpha, w06):
        study = make_study(model200, tsvd, s_lambda, rho_alpha, w06)
        with pytest.raises(sq.ExperimentError):
            sq.fit_order(study, (1e-5, 1e-2))

    def test_empty_alpha_grid_raises(self, model200, tikhonov, s_lambda, rho_alpha, w06):
        """A study with no records would have no CSV header and no fit."""
        with pytest.raises(sq.ExperimentError, match="empty"):
            make_study(model200, tikhonov, s_lambda, rho_alpha, w06, grid=np.array([]))

    def test_direct_rate_transfers_pair_constant(self, model200, w06):
        """err/rho <= k * ||w|| where k is the pair constant observed on a
        lambda grid covering the model spectrum.  (The transfer needs the
        constant to be uniform over the spectrum; exponential filters paired
        with sub-exponential rates have finite per-lambda constants that
        explode along the spectrum, so the raw ratio bound only follows
        where the observed k is itself moderate.)"""
        combos = [
            ("tikhonov", "lambda", "alpha"),
            ("tikhonov", "lambda^0.5", "alpha^0.5"),
            ("ex3_exp", "lambda/(1+lambda)", "exp(-1/alpha)"),
        ]
        lam_grid = np.geomspace(float(model200.eigenvalues[-1]), 10.0, 25)
        w_norm = float(np.linalg.norm(w06))
        for fid, s_text, rho_text in combos:
            filt = sq.get_filter(fid)
            s, rho = sq.source_fn(s_text), sq.order_fn(rho_text)
            pair = sq.check_weak_pair(filt, s, rho, lambda_grid=lam_grid)
            assert pair.holds, fid
            assert pair.bound_k < 1e6, fid
            study = make_study(model200, filt, s, rho, w06)
            finite = [r.ratio for r in study.records if math.isfinite(r.log_ratio)]
            assert max(finite) <= 1.05 * pair.bound_k * w_norm, fid
            assert max(finite) < 1e6, fid


class TestConverseProbe:
    """Six scripted scenarios: prediction from the pair certificate and
    ratio boundedness must agree with the membership probe."""

    def scenarios(self, model200, w06):
        ex4_grid = np.geomspace(1e-7, 0.15, 448)
        j = np.arange(1, 201, dtype=float)
        tik = sq.get_filter("tikhonov")
        ex3 = sq.get_filter("ex3_exp")
        ex4 = sq.get_filter("ex4_log")
        ex8 = sq.get_filter("ex8_osc", k=1.0)
        s_l = sq.source_fn("lambda")
        s_r = sq.source_fn("lambda/(1+lambda)")
        s_q = sq.source_fn("lambda^0.5")
        a = sq.order_fn("alpha")
        r3 = sq.order_fn("exp(-1/alpha)")
        r4 = sq.order_fn("-1/ln(alpha)", ex4_grid)

        inside = [
            (tik, a, s_l, None, w06, True),
            (ex3, r3, s_r, None, w06, True),
            (ex4, r4, s_r, ex4_grid, w06, True),
        ]
        outside = [
            (tik, a, s_l, None, j.astype(float), False),          # divergent generator
            (ex4, r4, s_r, ex4_grid, j ** 0.5, False),            # growing generator
            (ex8, a, s_q, None, j.astype(float), False),          # certificate fails too
        ]
        return inside + outside

    def test_all_six_agree(self, model200, w06):
        agreements = []
        for filt, rho, s, agrid, w, expect_inside in self.scenarios(model200, w06):
            elem = sq.make_source_element(model200, s, w)
            grid = np.geomspace(1e-5, filt.alpha_max / 2.0, 220)
            study = sq.run_convergence(model200, filt, elem, rho, grid)
            probe = sq.converse_probe(study, filt, rho, s, rho,
                                      alpha_grid=agrid)
            assert probe.verification.inside == expect_inside
            agreements.append(probe.agree)
        assert all(agreements), agreements

    def test_failed_certificate_declines_prediction(self, model200, w06):
        ex8 = sq.get_filter("ex8_osc", k=1.0)
        s_q = sq.source_fn("lambda^0.5")
        a = sq.order_fn("alpha")
        elem = sq.make_source_element(model200, s_q, w06)
        study = sq.run_convergence(model200, ex8, elem, a,
                                   np.geomspace(1e-5, 0.5, 220))
        probe = sq.converse_probe(study, ex8, a, s_q, a)
        assert not probe.pair_certificate.holds
        assert probe.prediction is False
        doc = json.loads(json.dumps(probe.to_json_dict(), allow_nan=False))
        assert doc == {"pair_holds": False, "prediction": False,
                       "verification_inside": probe.verification.inside,
                       "agree": probe.agree, "ratio_bounded": probe.ratio_bounded}


class TestMaximalSourceDemo:
    def test_tikhonov_candidates(self, model200, rho_alpha):
        candidates = [sq.source_fn("lambda"), sq.source_fn("lambda/(1+lambda)"),
                      sq.source_fn("lambda^2")]
        report = sq.maximal_source_demo(model200, sq.get_filter("tikhonov"),
                                        rho_alpha, candidates)
        assert report.level == "optimal"
        for entry in report.entries:
            assert entry.strong_pair
            assert entry.included
            assert entry.domination_k is not None and math.isfinite(entry.domination_k)

    def test_oscillatory_half_power_has_unit_constant(self, model200, rho_alpha):
        report = sq.maximal_source_demo(model200, sq.get_filter("ex8_osc", k=1.0),
                                        rho_alpha, [sq.source_fn("lambda^0.5")])
        entry = report.entries[0]
        assert entry.strong_pair and entry.included
        assert entry.domination_k == pytest.approx(1.0, rel=0.05)

    def test_uncertified_candidate_excluded(self, model200, rho_alpha):
        maybe = sq.certify_source_fn("1")
        assert not maybe.certified
        report = sq.maximal_source_demo(model200, sq.get_filter("tikhonov"),
                                        rho_alpha, [maybe])
        assert not report.entries[0].included
        assert not report.entries[0].strong_pair

    def test_report_is_strict_json(self, model200, rho_alpha):
        """The report, an excluded uncertified candidate included, is RFC
        8259 JSON: the exclusion has a null constant and 0 of 0 elements."""
        report = sq.maximal_source_demo(model200, sq.get_filter("tikhonov"), rho_alpha,
                                        [sq.certify_source_fn("1"), sq.source_fn("lambda")])
        doc = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert (doc["filter"], doc["order"], doc["level"]) == ("tikhonov", "alpha", "optimal")
        assert doc["qualification"] == report.qualification.to_json_dict()
        excluded, included = doc["entries"]
        assert excluded == {"source": "1", "strong_pair": False, "domination_k": None,
                            "elements_inside": 0, "elements_total": 0, "included": False}
        assert included["strong_pair"] and included["included"]
        assert included["elements_inside"] == included["elements_total"] == 3
        assert math.isfinite(included["domination_k"])

    def test_requires_strong_level(self, model200, rho_sqrt_alpha):
        with pytest.raises(sq.ExperimentError):
            sq.maximal_source_demo(model200, sq.get_filter("tikhonov"),
                                   rho_sqrt_alpha, [sq.source_fn("lambda")])
