"""Estimated s_rho against exact limits.

``tests/golden/exact_limits.json`` holds the exact value of

    s_rho(lambda) = lim_{alpha -> 0+} rho(alpha) / |r_alpha(lambda)|

for the five non-oscillatory families below, each order of ``ORDERS`` and
every lambda of the family's default grid: 434 entries, each a string,
a rational (``"p/q"`` or ``"p"``), ``"0"`` or ``"+inf"``.  The values are
``sympy.limit`` (Gruntz's algorithm, exact on the exp-log class that
holds every residual and order here) of the closed forms in ``RESIDUALS``,
with each lambda taken as the exact rational of its double.  Tier-1 only
reads the file; regenerate it, which needs sympy, with

    PYTHONPATH=src python tests/test_exact_limits.py

The rules, fixed before the golden was first computed, read each
estimate of the default-grid s_rho table that is marked stabilized:

  * of a finite exact value, it lies within ``REL_TOL`` relative of it;
  * of an exact +inf, it reads at least ``CAP``;
  * of an exact 0, it reads at most ``FLOOR``.

An unstabilized estimate makes no claim.  The entries that break a rule
must be exactly ``KNOWN_BREAKS``: a mended estimate and a new break both
fail the test.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import specqual as sq
from specqual.limits import CAP, FLOOR

EXACT_LIMITS = Path(__file__).resolve().parent / "golden" / "exact_limits.json"

# family id -> |r_alpha(lambda)| in the expression language (landweber at mu = 1/2)
RESIDUALS = {
    "tikhonov": "alpha/(alpha+lambda)",
    "ex3_exp": "(1+lambda)/(1+lambda*exp(1/alpha))",
    "ex4_log": "(1+lambda)/(1-lambda*ln(alpha))",
    "showalter": "exp(-lambda/alpha)",
    "landweber": "(1-lambda/2)^(1/alpha)",
}
ORDERS = ("alpha", "alpha^0.5", "alpha^2", "exp(-1/alpha)", "exp(-1/sqrt(alpha))",
          "-1/ln(alpha)", "(-ln(alpha))^(-0.5)")
REL_TOL = 1e-3

# (family, order, lambda to 4 digits) of each estimate that breaks a rule
KNOWN_BREAKS = {
    # defect 9: exact +inf, turning up only near alpha = e^(-1/lambda),
    # read as a finite stabilized 0.18 to 0.62
    *(("ex4_log", "(-ln(alpha))^(-0.5)", lam)
      for lam in ("0.01", "0.01778", "0.03162", "0.05623", "0.1")),
}


def exact_value(text: str) -> float:
    return float("inf") if text == "+inf" else float(Fraction(text))


def breaks_rule(est, exact: float) -> bool:
    if not est.stabilized:
        return False
    if exact == float("inf"):
        return not est.value >= CAP
    if exact == 0.0:
        return not est.value <= FLOOR
    return not abs(est.value - exact) <= REL_TOL * exact


@pytest.fixture(scope="module")
def exact():
    return json.loads(EXACT_LIMITS.read_text(encoding="utf-8"))


def test_golden_covers_every_default_lambda(exact):
    assert sorted(exact) == sorted(RESIDUALS)
    for fid, by_order in exact.items():
        lams = sq.default_lambda_grid(sq.get_filter(fid)).tolist()
        assert list(by_order) == list(ORDERS)
        for values in by_order.values():
            assert [float(lam) for lam in values] == lams
    assert sum(len(v) for by_order in exact.values() for v in by_order.values()) == 434


def test_breaks_are_the_known_defects(exact):
    breaks = set()
    for fid, by_order in exact.items():
        filt = sq.get_filter(fid)
        for order, values in by_order.items():
            rho = sq.order_fn(order, sq.default_alpha_grid(filt))
            table = sq.srho_table(filt, rho)
            breaks |= {(fid, order, f"{float(lam):.4g}") for lam, text in values.items()
                       if breaks_rule(table[float(lam)], exact_value(text))}
    assert breaks == KNOWN_BREAKS


def exact_limits_text() -> str:
    import sympy

    alpha = sympy.Symbol("alpha", positive=True)
    lam_sym = sympy.Symbol("lambda", positive=True)

    def parse(text):  # "lambda" is a Python keyword, so it is read as "lam"
        return sympy.sympify(text.replace("^", "**").replace("lambda", "lam"), rational=True,
                             locals={"alpha": alpha, "lam": lam_sym, "ln": sympy.log})

    doc = {}
    for fid, residual in RESIDUALS.items():
        r = parse(residual)
        doc[fid] = {}
        for order in ORDERS:
            rho, values = parse(order), {}
            for lam in sq.default_lambda_grid(sq.get_filter(fid)).tolist():
                v = sympy.limit(rho / r.subs(lam_sym, sympy.Rational(lam)), alpha, 0, "+")
                if v is sympy.oo:
                    values[repr(lam)] = "+inf"
                elif v.is_Rational and v >= 0:
                    values[repr(lam)] = str(v)
                else:
                    raise ValueError(f"{fid} x {order} at {lam!r}: limit {v} is not a "
                                     "non-negative rational or +inf")
            doc[fid][order] = values
    return json.dumps(doc, indent=2) + "\n"


if __name__ == "__main__":
    EXACT_LIMITS.write_text(exact_limits_text(), encoding="utf-8")
