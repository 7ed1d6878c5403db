"""Convergence studies, slope fits, converse probes, maximal source sets."""

import json
import math

import numpy as np
import pytest

import specqual as sq
from specqual.experiments import (
    STUDY_RATIO_CAP,
    ConvergenceStudy,
    StudyRecord,
    _default_window,
    _study_ratio_bounded,
)
from specqual.filters import _check_alpha
from specqual.limits import sat_exp, tail_limit, tail_of
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


# -- the record-based readers, as they were before a study kept columns ----

def fit_by_records(study, window=None):
    """fit_order as a loop over the study's records."""
    if window is None:
        window = window_by_records(study)
    lo, hi = window
    pts = [r for r in study.records if lo <= r.alpha <= hi]
    if any(r.err == 0.0 for r in pts):
        raise sq.ExperimentError("window contains exact-zero errors; shrink it")
    pts = [r for r in pts if math.isfinite(r.log_err)]
    if len(pts) < 8:
        raise sq.ExperimentError(f"need at least 8 usable records in the window, got {len(pts)}")
    x = np.array([r.log_err - r.log_ratio for r in pts])
    y = np.array([r.log_err for r in pts])
    xm, ym = float(x.mean()), float(y.mean())
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    if sxx == 0.0:
        raise sq.ExperimentError("rate function is constant over the window")
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - float(np.sum(resid ** 2)) / sst))
    return sq.SlopeFit(slope=slope, intercept=intercept, r_squared=r2,
                       window=(lo, hi), n_points=len(pts))


def window_by_records(study):
    alphas = np.array([r.alpha for r in study.records])
    lo = float(alphas.min(initial=math.inf))
    if study.source is not None:
        lo = max(lo, 10.0 * float(study.source.model.eigenvalues[-1]))
    hi = float(alphas.max(initial=0.0)) / 10.0
    return (lo, hi)


def ratio_bounded_by_records(study):
    recs = [r for r in study.records if math.isfinite(r.log_ratio)]
    if len(recs) < 8:
        return True
    t = tail_of([r.alpha for r in recs])
    lv = np.array([r.log_ratio for r in recs])
    est = tail_limit(t, lv[t.index], "limsup", cap=STUDY_RATIO_CAP)
    return bool(est.bounded and est.value < STUDY_RATIO_CAP)


def fit_outcome(fit, study, window=None):
    """The bits of a fit, or the message of the error it raised."""
    try:
        f = fit(study, window)
    except sq.ExperimentError as exc:
        return ("error", str(exc))
    return (float.hex(f.slope), float.hex(f.intercept), float.hex(f.r_squared),
            f.n_points, tuple(map(float.hex, f.window)))


def assert_columns_read_like_records(study, windows=()):
    """Every reader of the columns against its record-based reference; the
    columns are read first, so no reader leans on records built earlier."""
    got = [_default_window(study), _study_ratio_bounded(study)]
    got += [fit_outcome(sq.fit_order, study, w) for w in (None, *windows)]
    want = [window_by_records(study), ratio_bounded_by_records(study)]
    want += [fit_outcome(fit_by_records, study, w) for w in (None, *windows)]
    assert list(map(float.hex, got[0])) == list(map(float.hex, want[0]))
    assert got[1:] == want[1:]
    return got


class TestColumnsReadLikeRecords:
    """The slope fit, its default window and the converse probe's ratio
    test read the study's columns and give, bit for bit and message for
    message, what the same readers gave as loops over records."""

    WINDOWS = ((2.5e-4, 1e-3), (1e-5, 1e-2), (1e-4, 1.1e-4), (0.1, 1.0))

    @pytest.mark.parametrize("fid", sq.list_filters())
    def test_batched_studies(self, fid):
        filt = sq.get_filter(fid, **({"k": 1.0} if fid == "ex8_osc" else {}))
        top = 0.99 if fid == "ex10_osc" else filt.alpha_max
        grids = [np.geomspace(1e-5, filt.alpha_max / 2.0, 150),
                 np.geomspace(1e-7, top, 97)]
        outcomes = set()
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
                    got = assert_columns_read_like_records(study, self.WINDOWS)
                    outcomes.update(o[0] for o in got[2:])
        assert "error" in outcomes and len(outcomes) > 1  # fits and errors both compared

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_columns_with_bad_errors(self, seed):
        """-inf, NaN and underflowing errors (ln err below ln 2^-1075, and
        just above it, where err is the smallest subnormal) inside the
        window."""
        rng = np.random.default_rng(seed)
        n = 60
        alpha = np.geomspace(0.5, 1e-6, n)
        log_err = 0.7 * np.log(alpha) + rng.normal(0.0, 0.05, n)
        log_rho = np.log(alpha) + rng.normal(0.0, 0.01, n)
        bad = rng.choice(n, size=rng.integers(1, 12), replace=False)
        log_err[bad] = rng.choice([-math.inf, math.nan, -745.2, -745.0, -744.5, -1e3],
                                  size=bad.size)
        study = ConvergenceStudy(alpha=alpha, log_err=log_err, log_rho=log_rho,
                                 filter_id="synthetic", model_provenance="none",
                                 source_label="s", rho_label="alpha")
        windows = [(float(alpha[-1]), float(alpha[0])), (1e-5, 1e-2), (1e-3, 0.5)]
        for k in bad.tolist():
            windows.append((float(alpha[min(k + 5, n - 1)]), float(alpha[max(k - 5, 0)])))
        assert_columns_read_like_records(study, windows)

    def test_zero_error_edge_matches_records(self):
        """err is 0.0 from ln 2^-1075 down and 2^-1074 just above it;
        the zero-error check reads the same side of that edge as a record."""
        alpha = np.geomspace(0.5, 1e-4, 20)
        edge = -1075 * math.log(2.0)
        values = (edge, math.nextafter(edge, 0.0), edge - 1e-9, edge + 1e-9, -746.0, -744.4)
        assert {math.exp(v) for v in values} == {0.0, 5e-324}
        for v in values:
            log_err = np.log(alpha)
            log_err[7] = v
            study = ConvergenceStudy(alpha=alpha, log_err=log_err, log_rho=np.log(alpha),
                                     filter_id="synthetic", model_provenance="none",
                                     source_label="s", rho_label="alpha")
            got = assert_columns_read_like_records(study)
            assert (got[2] == ("error", "window contains exact-zero errors; shrink it")) == \
                (math.exp(v) == 0.0)


class TestColumnsAreTheStudy:
    def test_study_to_fit_builds_no_records(self, model200, tikhonov, s_lambda, rho_alpha,
                                            w06):
        """A study runs, fits, probes and prints without a record; the first
        read of ``records`` gives the per-alpha loop's records."""
        elem = sq.make_source_element(model200, s_lambda, w06)
        study = sq.run_convergence(model200, tikhonov, elem, rho_alpha, STUDY_GRID)
        sq.fit_order(study)
        sq.converse_probe(study, tikhonov, rho_alpha, s_lambda, rho_alpha)
        study.to_json_dict()
        study.to_csv()
        assert "records" not in vars(study)
        want = study_by_loop(model200, tikhonov, elem, rho_alpha, STUDY_GRID)
        assert repr(study.records) == repr(want)
        assert "records" in vars(study) and study.records is study.records

    def test_columns_are_read_only_copies(self):
        alpha = np.geomspace(0.5, 1e-4, 20)
        log_err = np.log(alpha)
        study = ConvergenceStudy(alpha=alpha, log_err=log_err, log_rho=log_err,
                                 filter_id="synthetic", model_provenance="none",
                                 source_label="s", rho_label="alpha")
        for col in (study.alpha, study.log_err, study.log_rho, study.alphas()):
            with pytest.raises(ValueError):
                col[0] = 1.0
        log_err[0] = 1.0  # the caller's array is not the study's
        assert study.log_err[0] == math.log(0.5)

    def test_ragged_columns_rejected(self):
        with pytest.raises(sq.ExperimentError, match="one length"):
            ConvergenceStudy(alpha=[0.5, 0.1], log_err=[0.0], log_rho=[0.0, 0.0],
                             filter_id="synthetic", model_provenance="none",
                             source_label="s", rho_label="alpha")


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
        alphas = np.geomspace(0.5, 1e-4, 40)
        study = ConvergenceStudy(alpha=alphas, log_err=np.full(40, math.log(2.0)),
                                 log_rho=np.log(alphas), filter_id="synthetic",
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

    @pytest.mark.parametrize("log_rho", [math.inf, -math.inf, math.nan])
    def test_non_finite_rate_in_window_raises(self, log_rho):
        """ln rho that is not finite where ln err is gives an error, not a
        NaN slope with r^2 = 1."""
        alpha = np.geomspace(0.5, 1e-4, 40)
        lr = np.log(alpha)
        lr[30] = log_rho
        study = ConvergenceStudy(alpha=alpha, log_err=0.7 * np.log(alpha), log_rho=lr,
                                 filter_id="synthetic", model_provenance="none",
                                 source_label="s", rho_label="alpha")
        with pytest.raises(sq.ExperimentError, match=f"ln rho is {log_rho} at alpha=0.000713852"):
            sq.fit_order(study)

    def test_empty_study_raises(self):
        study = ConvergenceStudy(alpha=[], log_err=[], log_rho=[], filter_id="synthetic",
                                 model_provenance="none", source_label="s", rho_label="alpha")
        with pytest.raises(sq.ExperimentError) as err:
            sq.fit_order(study, (0.1, 1))
        assert str(err.value) == "need at least 8 usable records in the window, got 0"

    def test_empty_study_without_window_raises(self):
        """The default window of an empty study is empty, not numpy's
        "zero-size array to reduction operation" ValueError."""
        study = ConvergenceStudy(alpha=[], log_err=[], log_rho=[], filter_id="synthetic",
                                 model_provenance="none", source_label="s", rho_label="alpha")
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
