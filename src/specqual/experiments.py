"""Convergence studies on finite spectral models.

Runs the direct statement (error = O(rho(alpha)) on a source set), fits
observed orders from log-log slopes, probes the converse direction
(bounded error ratio + order-source pair => source-set membership), and
demonstrates maximality of the induced source set R(s_rho(T*T)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .filters import FilterFamily
from .limits import TAIL_MIN_POINTS, sat_exp_column, tail_limit, tail_of
from .operators import (
    MembershipVerdict,
    SourceElement,
    SpectralModel,
    log_regularization_error,
    make_source_element,
    membership_probe,
)
from .qualification import (
    PairVerdict,
    check_order_source_pair,
    check_strong_pair,
    classify,
    csv_text,
    jsonable,
    srho_table,
)
from .rates import TabulatedSource

STUDY_RATIO_CAP = 1e6  # observed err/rho beyond this counts as unbounded


class ExperimentError(ValueError):
    pass


class StudyRecord(NamedTuple):
    alpha: float
    err: float
    rho: float
    ratio: float
    log_err: float
    log_ratio: float


@dataclass(frozen=True, eq=False)
class ConvergenceStudy:
    """Per-alpha reconstruction errors against a target rate, as columns.

    ``alpha`` is the grid, descending; ``log_err`` and ``log_rho`` hold
    ln err and ln rho(alpha) at each of its points.  The three are
    read-only float copies, so ``records``, the same study as one
    ``StudyRecord`` per alpha, is built on its first read and cannot go
    stale.
    """

    alpha: np.ndarray
    log_err: np.ndarray
    log_rho: np.ndarray
    filter_id: str
    model_provenance: str
    source_label: str
    rho_label: str
    source: SourceElement | None = None

    def __post_init__(self):
        for name in ("alpha", "log_err", "log_rho"):
            col = np.array(getattr(self, name), dtype=float)
            col.flags.writeable = False
            object.__setattr__(self, name, col)
        if not (self.alpha.ndim == 1 and self.alpha.shape == self.log_err.shape
                == self.log_rho.shape):
            raise ExperimentError("alpha, log_err and log_rho must be 1-d columns of one length")

    @property
    def log_ratio(self) -> np.ndarray:
        """ln(err / rho) at each alpha; NaN where both are infinite alike."""
        with np.errstate(invalid="ignore"):  # inf - inf is a NaN ratio
            return self.log_err - self.log_rho

    def alphas(self) -> np.ndarray:
        return self.alpha

    def _record_columns(self) -> tuple[list[float], ...]:
        """The six fields of a StudyRecord, one list per field."""
        log_ratio = self.log_ratio
        return (self.alpha.tolist(), sat_exp_column(self.log_err),
                sat_exp_column(self.log_rho), sat_exp_column(log_ratio),
                self.log_err.tolist(), log_ratio.tolist())

    @cached_property
    def records(self) -> list[StudyRecord]:
        return list(map(StudyRecord, *self._record_columns()))

    def to_csv(self) -> str:
        return csv_text(self.to_json_dict()["records"])

    def to_json_dict(self) -> dict:
        return jsonable({
            "filter": self.filter_id,
            "model": self.model_provenance,
            "source": self.source_label,
            "order": self.rho_label,
            "records": [
                {"alpha": a, "err": e, "rho": r, "ratio": q}
                for a, e, r, q, _, _ in zip(*self._record_columns())
            ],
        })


class SlopeFit(NamedTuple):
    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_points: int

    def to_json_dict(self) -> dict:
        return jsonable({
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "window": self.window,
            "n_points": self.n_points,
        })


def run_convergence(
    model: SpectralModel,
    filt: FilterFamily,
    source: SourceElement,
    rho,
    alpha_grid: np.ndarray | None = None,
) -> ConvergenceStudy:
    """Reconstruction error per grid alpha, with ratios to rho(alpha).

    A study is one (alpha x eigenvalue) mesh: one batched
    ``log_regularization_error`` call and one ``rho.log_at`` call over the
    whole grid, kept as the study's ln err and ln rho columns.  Ratios are
    formed in the log domain so that exponentially small errors (and
    rates) stay meaningful after both underflow; the linear err, rho and
    ratio are taken only when records, JSON or CSV are asked for.
    """
    if not getattr(rho, "certified", False):
        raise ExperimentError("order function must be certified")
    if alpha_grid is None:
        alpha_grid = np.geomspace(1e-5, filt.alpha_max / 2.0, 76)
    # descending, and contiguous: NumPy's log takes another code path on a
    # reversed view, which moves some values by an ulp
    alphas = np.ascontiguousarray(np.sort(np.asarray(alpha_grid, dtype=float))[::-1])
    if alphas.size == 0:  # a study with no records has no table and no fit
        raise ExperimentError("alpha grid is empty")

    return ConvergenceStudy(
        alpha=alphas,
        log_err=log_regularization_error(model, filt, alphas, source),
        log_rho=rho.log_at(alphas),
        filter_id=filt.id,
        model_provenance=model.provenance,
        source_label=getattr(source.source_s, "label", "source"),
        rho_label=getattr(rho, "label", "rho"),
        source=source,
    )


def fit_order(study: ConvergenceStudy, window: tuple[float, float] | None = None) -> SlopeFit:
    """Least squares of ln(err) against ln(rho(alpha)) over an alpha window.

    A slope near 1 means the error tracks the target rate; against
    rho = alpha, the slope reads off the observed power of alpha.
    """
    if window is None:
        window = _default_window(study)
    lo, hi = window
    in_window = (study.alpha >= lo) & (study.alpha <= hi)
    log_err = study.log_err[in_window]
    # a record's err is libm's exp of ln err: 0.0 only from ln(2^-1075) ~ -745.13 down
    if any(math.exp(v) == 0.0 for v in log_err[log_err < -744.0].tolist()):
        raise ExperimentError("window contains exact-zero errors; shrink it")
    usable = np.isfinite(log_err)
    n_points = int(np.count_nonzero(usable))
    if n_points < 8:
        raise ExperimentError(f"need at least 8 usable records in the window, got {n_points}")

    # ln rho from the log channel directly (rho may underflow as a double),
    # as ln err - ln ratio, the form the records hold
    y = log_err[usable]
    x = y - study.log_ratio[in_window][usable]
    finite = np.isfinite(x)  # x is ln rho itself where ln rho is not finite
    if not finite.all():
        k = int(np.argmin(finite))
        raise ExperimentError(f"ln rho is {x[k]} at alpha={study.alpha[in_window][usable][k]:.6g}, "
                              "where ln err is finite")
    xm, ym = float(x.mean()), float(y.mean())
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    if sxx == 0.0:
        raise ExperimentError("rate function is constant over the window")
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if sst == 0.0 else max(0.0, min(1.0, 1.0 - float(np.sum(resid ** 2)) / sst))
    return SlopeFit(slope=slope, intercept=intercept, r_squared=r2,
                    window=(lo, hi), n_points=n_points)


def _default_window(study: ConvergenceStudy) -> tuple[float, float]:
    """Clip below 10x the smallest eigenvalue so the exactly-resolved
    finite tail does not pollute the fit, and below a tenth of the top
    alpha to stay clear of the large-alpha shoulder."""
    alphas = study.alpha
    # a study without records gets an empty window, which fit_order rejects
    lo = float(alphas.min(initial=math.inf))
    if study.source is not None:
        lo = max(lo, 10.0 * float(study.source.model.eigenvalues[-1]))
    hi = float(alphas.max(initial=0.0)) / 10.0
    return (lo, hi)


class ConverseProbe(NamedTuple):
    pair_certificate: PairVerdict
    prediction: bool
    verification: MembershipVerdict
    agree: bool
    ratio_bounded: bool

    def to_json_dict(self) -> dict:
        return jsonable({
            "pair_holds": self.pair_certificate.holds,
            "prediction": self.prediction,
            "verification_inside": self.verification.inside,
            "agree": self.agree,
            "ratio_bounded": self.ratio_bounded,
        })


def converse_probe(
    study: ConvergenceStudy,
    filt: FilterFamily,
    rho,
    s,
    h,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> ConverseProbe:
    """Test the converse direction on a finished study.

    Prediction: the (rho, s) order-source certificate holds and the
    study's err/rho ratio stays bounded, in which case the true solution
    must lie in R(s(T*T)).  Verification: the membership probe on the
    study's actual coefficients.  The probe reports whether the two
    agree.
    """
    if study.source is None:
        raise ExperimentError("study carries no source element to verify against")
    cert = check_order_source_pair(filt, rho, s, h, lambda_grid, alpha_grid)
    bounded = _study_ratio_bounded(study)
    prediction = bool(cert.holds and bounded)
    verification = membership_probe(study.source.model, study.source.x_dagger, s)
    return ConverseProbe(
        pair_certificate=cert,
        prediction=prediction,
        verification=verification,
        agree=prediction == verification.inside,
        ratio_bounded=bounded,
    )


def _study_ratio_bounded(study: ConvergenceStudy) -> bool:
    """Bounded err/rho over the study grid: capped and not trending up."""
    log_ratio = study.log_ratio
    finite = np.isfinite(log_ratio)
    if np.count_nonzero(finite) < TAIL_MIN_POINTS:
        return True
    t = tail_of(study.alpha[finite])
    lv = log_ratio[finite]
    est = tail_limit(t, lv[t.index], "limsup", cap=STUDY_RATIO_CAP)
    return bool(est.bounded and est.value < STUDY_RATIO_CAP)


class InclusionEntry(NamedTuple):
    source_label: str
    strong_pair: bool
    domination_k: float | None
    elements_inside: int
    elements_total: int
    included: bool


class MaximalSourceReport(NamedTuple):
    filter_id: str
    rho_label: str
    level: str
    entries: list[InclusionEntry] = ()
    qualification: object = None  # the QualificationReport backing `level`

    def to_json_dict(self) -> dict:
        return jsonable({
            "filter": self.filter_id,
            "order": self.rho_label,
            "level": self.level,
            "qualification": (self.qualification.to_json_dict()
                              if self.qualification is not None else None),
            "entries": [
                {
                    "source": e.source_label,
                    "strong_pair": e.strong_pair,
                    "domination_k": e.domination_k,
                    "elements_inside": e.elements_inside,
                    "elements_total": e.elements_total,
                    "included": e.included,
                }
                for e in self.entries
            ],
        })


def _default_generators(dim: int) -> list[np.ndarray]:
    j = np.arange(1, dim + 1, dtype=float)
    return [j ** -0.6, j ** -1.0, (1.0 + 0.3 * np.sin(3.0 * j)) * j ** -0.8]


def maximal_source_demo(
    model: SpectralModel,
    filt: FilterFamily,
    rho,
    candidates: list,
    lambda_grid: np.ndarray | None = None,
    alpha_grid: np.ndarray | None = None,
) -> MaximalSourceReport:
    """Show that R(s_rho) absorbs every strong-pair source set.

    Requires the order to be at least strong qualification.  For each
    candidate s forming a strong pair with rho, the pointwise bound
    s <= k * s_rho is fitted on the model spectrum and sampled elements
    of R(s(T*T)) are pushed through the membership probe for s_rho.
    Candidates failing the strong-pair test are excluded from inclusion
    claims.
    """
    report = classify(filt, rho, lambda_grid, alpha_grid, companions=False)
    if report.level not in ("strong", "optimal"):
        raise ExperimentError(
            f"maximal-source demo requires strong qualification; got '{report.level}'"
        )

    # tabulate s_rho on a grid covering the model spectrum
    eigs = model.eigenvalues
    lo, hi = float(eigs[-1]) * 0.5, float(eigs[0]) * 2.0
    if not (lo > 0 and math.isfinite(hi)):
        raise ExperimentError(f"s_rho is not finite and positive over the spectrum [{lo}, {hi}]")
    lam_tab = np.geomspace(lo, hi, 33)
    vals = np.array([est.value for est in srho_table(filt, rho, lam_tab, alpha_grid).values()])
    if not np.all(np.isfinite(vals) & (vals > 0)):
        raise ExperimentError("s_rho is not finite and positive over the spectrum")
    s_rho = TabulatedSource(lambdas=lam_tab, log_values=np.log(vals),
                            label="s_rho (tabulated)")

    entries = []
    generators = _default_generators(model.dim)
    srho_on_spec = np.asarray(s_rho.at(eigs), dtype=float)
    for cand in candidates:
        strong = bool(getattr(cand, "certified", False)) and check_strong_pair(
            filt, cand, rho, lambda_grid, alpha_grid).holds
        k_fit, inside, total = None, 0, 0  # an excluded candidate's entry
        if strong:
            k_fit = float(np.max(np.asarray(cand.at(eigs), dtype=float) / srho_on_spec))
            inside = sum(1 for w in generators if membership_probe(
                model, make_source_element(model, cand, w).x_dagger, s_rho).inside)
            total = len(generators)
        entries.append(InclusionEntry(
            source_label=getattr(cand, "label", "candidate"),
            strong_pair=strong,
            domination_k=k_fit,
            elements_inside=inside,
            elements_total=total,
            included=strong and inside == total and math.isfinite(k_fit),
        ))
    return MaximalSourceReport(
        filter_id=filt.id, rho_label=getattr(rho, "label", "rho"),
        level=report.level, entries=entries, qualification=report,
    )
