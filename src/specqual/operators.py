"""Finite spectral models of compact operators.

The convergence theory lives in infinite dimensions, but every statement
about rates reduces to coefficient inequalities against the spectrum of
the normal operator.  This module provides finite eigen-decompositions
(synthetic diagonal spectra or a LAPACK SVD of a dense matrix), source
elements x_j = s(eig_j) w_j, application of the regularized inverse in
the eigenbasis, and a tail-decay membership probe for the source sets
R(s(T*T)).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .filters import FilterFamily, _check_alpha, _check_lambda, residual_value
from .limits import sat_exp

MAX_DIM = 512
MEMBERSHIP_TAIL_SHARE = 0.10   # last-quartile share of sum v_j^2 marking decay
MEMBERSHIP_GROWTH = 10.0       # |v_j| may exceed the running floor by this factor
SOURCE_FLOOR = 1e-300
SVD_RTOL = 1e-12  # singular values at or below SVD_RTOL * sigma_max are dropped


class OperatorError(ValueError):
    pass


class DimensionError(OperatorError):
    pass


@dataclass(frozen=True)
class SpectralModel:
    """Eigenvalues of the normal operator, sorted descending."""

    eigenvalues: np.ndarray
    provenance: str

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", eig)
        if eig.ndim != 1 or eig.size == 0:
            raise OperatorError("eigenvalues must be a nonempty 1-d array")
        if not np.all(np.isfinite(eig)):
            raise OperatorError("eigenvalues must be finite")
        if np.any(eig <= 0):
            raise OperatorError("eigenvalues must be strictly positive")
        if np.any(np.diff(eig) > 0):
            raise OperatorError("eigenvalues must be sorted descending")

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "provenance": self.provenance,
            "dim": self.dim,
        }


class SourceElement(NamedTuple):
    """x_j = s(eig_j) w_j : an element of the source set R(s(T*T))."""

    x_dagger: np.ndarray
    generator_w: np.ndarray
    source_s: object
    model: SpectralModel


_DIAG_RULES = {
    "j^-2": lambda j: j ** -2.0,
    "j^-4": lambda j: j ** -4.0,
    "exp": lambda j: np.exp(-j.astype(float)),
}


def make_model(rule: str = "j^-2", dim: int = 200) -> SpectralModel:
    """Synthetic diagonal spectrum: polynomially or exponentially decaying."""
    if dim < 1 or dim > MAX_DIM:
        raise DimensionError(f"dim must be in [1, {MAX_DIM}], got {dim}")
    fn = _DIAG_RULES.get(rule)
    if fn is None:
        raise OperatorError(f"unknown spectrum rule '{rule}' (choose from {sorted(_DIAG_RULES)})")
    j = np.arange(1, dim + 1, dtype=float)
    return SpectralModel(eigenvalues=fn(j), provenance=f"synthetic-diagonal({rule})")


def model_from_json(text: str) -> SpectralModel:
    doc = json.loads(text)
    return SpectralModel(
        eigenvalues=np.asarray(doc["eigenvalues"], dtype=float),
        provenance=doc.get("provenance", "json"),
    )


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def load_matrix_csv(path: str) -> np.ndarray:
    """Dense row-major CSV in UTF-8, optional header row."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
    except UnicodeDecodeError as exc:
        raise OperatorError(f"matrix file is not UTF-8: {path}") from exc
    if not lines:
        raise OperatorError(f"empty matrix file: {path}")
    rows = []
    for i, (n, ln) in enumerate(lines):
        try:
            rows.append([float(tok) for tok in ln.split(",")])
        except ValueError as exc:
            # only a first line without a single number is a header
            if i or any(map(_is_number, ln.split(","))):
                raise OperatorError(f"{path}, line {n}: {exc}") from None
    if not rows:
        raise OperatorError(f"no numeric rows in matrix file: {path}")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise OperatorError("ragged CSV matrix")
    return np.asarray(rows, dtype=float)


def svd_decompose(matrix: np.ndarray):
    """Spectral model of T*T from a dense matrix via the LAPACK SVD.

    Returns (model, U, sigma, V) with A = U @ diag(sigma) @ V.T, sigma
    descending; eigenvalues are the squared singular values above
    SVD_RTOL * sigma_max.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2:
        raise OperatorError("matrix must be 2-d")
    if max(A.shape) > MAX_DIM:
        raise DimensionError(f"matrix dimensions capped at {MAX_DIM}, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise OperatorError("matrix entries must be finite")
    U, sigma, Vt = np.linalg.svd(A, full_matrices=False)
    keep = sigma > sigma[0] * SVD_RTOL
    if not np.any(keep):
        raise OperatorError("matrix is numerically zero; no spectral model")
    model = SpectralModel(
        eigenvalues=(sigma[keep] ** 2),
        provenance=f"dense-svd({A.shape[0]}x{A.shape[1]})",
    )
    return model, U, sigma, Vt.T


def make_source_element(model: SpectralModel, s, w: np.ndarray) -> SourceElement:
    """Coefficients of s(T*T) w in the eigenbasis."""
    if not getattr(s, "certified", False):
        raise OperatorError("source function must be certified")
    w = np.asarray(w, dtype=float)
    if w.shape != (model.dim,):
        raise OperatorError(f"generator length {w.shape} does not match dim {model.dim}")
    x = np.asarray(s.at(model.eigenvalues), dtype=float) * w
    return SourceElement(x_dagger=x, generator_w=w, source_s=s, model=model)


def regularize(model: SpectralModel, filt: FilterFamily, alpha: float,
               solution_coefs: np.ndarray) -> np.ndarray:
    """Apply the regularized inverse to data y = T x, in the eigenbasis.

    With y_j = sigma_j x_j, the reconstruction is
    g_alpha(eig_j) * eig_j * x_j = (1 - r_alpha(eig_j)) x_j.
    """
    _check_alpha(filt, alpha)
    _check_lambda(filt, model.eigenvalues[0])  # the spectrum's top
    x = np.asarray(solution_coefs, dtype=float)
    if x.shape != (model.dim,):
        raise OperatorError(f"coefficient length {x.shape} does not match dim {model.dim}")
    r = residual_value(filt, np.float64(alpha), model.eigenvalues)
    return x - r * x


def regularization_error(model: SpectralModel, filt: FilterFamily, alpha: float,
                         source: SourceElement) -> float:
    """l2 reconstruction error sqrt(sum_j r_j^2 x_j^2); may underflow to 0."""
    return sat_exp(log_regularization_error(model, filt, alpha, source))


def log_regularization_error(model: SpectralModel, filt: FilterFamily,
                             alpha: float | np.ndarray,
                             source: SourceElement) -> float | np.ndarray:
    """ln of the reconstruction error, stable when every residual underflows.

    ``alpha`` is a scalar (returns a float) or a 1-d grid (returns one
    value per alpha).  A grid is one (alpha x eigenvalue) mesh of
    ln(r^2 x^2) terms, reduced row by row with a log-sum-exp; the scalar
    form is its one-alpha case.  A term that is -inf or NaN (r = 0, as for
    tsvd where lambda >= alpha, or x_j = 0) is dropped, and a row that
    drops any sums only the terms it keeps.
    """
    a = _check_alpha(filt, alpha)
    _check_lambda(filt, model.eigenvalues[0])  # the spectrum's top
    with np.errstate(all="ignore"):
        lr = np.asarray(filt._r_log(a.reshape(-1, 1), model.eigenvalues), dtype=float)
        # 2(a + b) is 2a + 2b bit for bit: scaling by 2 commutes with rounding
        terms = 2.0 * (lr + np.log(np.abs(source.x_dagger)))
        keep = terms > -np.inf
        peaks = np.fmax.reduce(terms, axis=1, initial=-np.inf)  # NaN terms drop out
        sums = np.sum(np.exp(terms - peaks[:, None]), axis=1)
        # a masked sum would associate differently, so a row that drops a
        # term sums its compacted row; a row that drops all of them is -inf
        dead = peaks == -np.inf
        for row in np.flatnonzero(~keep.all(axis=1) & ~dead).tolist():
            sums[row] = np.sum(np.exp(terms[row][keep[row]] - peaks[row]))
        sums[dead] = 1.0
        # libm's log, as np.log differs from it in the last bit on some sums
        out = 0.5 * (peaks + np.array(list(map(math.log, sums.tolist()))))
    return float(out[0]) if a.ndim == 0 else out


class MembershipVerdict(NamedTuple):
    inside: bool
    bound: float | None = None
    witness_index: int | None = None  # 1-based eigenvalue index
    reason: str = ""

    def __bool__(self) -> bool:
        return self.inside


def membership_probe(model: SpectralModel, x: np.ndarray, s) -> MembershipVerdict:
    """Does x look like an element of R(s(T*T))?

    The candidate generator v_j = x_j / s(eig_j) must behave like a
    square-summable sequence on the finite spectrum: the last quartile of
    sum v_j^2 contributes under 10%, and |v_j| never climbs past 10x its
    running floor.  Finite models cannot decide summability, so this is
    an explicit-threshold heuristic.
    """
    if not getattr(s, "certified", False):
        raise OperatorError("source function must be certified")
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise OperatorError(f"coefficient length {x.shape} does not match dim {model.dim}")
    if not np.any(x):
        return MembershipVerdict(inside=True, bound=0.0)

    sv = np.asarray(s.at(model.eigenvalues), dtype=float)
    degenerate = (sv < SOURCE_FLOOR) & (x != 0)
    if np.any(degenerate):
        j = int(np.argmax(degenerate))
        return MembershipVerdict(inside=False, witness_index=j + 1,
                                 reason="source function vanishes on a used component")
    safe = sv >= SOURCE_FLOOR
    v = np.zeros_like(x)
    v[safe] = x[safe] / sv[safe]

    total = float(np.sum(v ** 2))
    quart = max(1, model.dim // 4)
    tail = float(np.sum(v[-quart:] ** 2))
    if total > 0 and tail > MEMBERSHIP_TAIL_SHARE * total:
        return MembershipVerdict(inside=False, witness_index=model.dim - quart + 1,
                                 reason="last-quartile share of the generator norm too large")

    av = np.abs(v)
    meaningful = av > 1e-12 * float(np.max(av))
    # running floor through index j; counting |v_j| itself changes no
    # verdict, since |v_j| never exceeds 10x itself
    floor = np.minimum.accumulate(np.where(meaningful, av, math.inf))
    grows = meaningful & (av > MEMBERSHIP_GROWTH * floor)
    if np.any(grows):
        return MembershipVerdict(inside=False, witness_index=int(np.argmax(grows)) + 1,
                                 reason="generator grows along the spectrum")
    return MembershipVerdict(inside=True, bound=total)
