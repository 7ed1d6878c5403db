"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance here is fixed by the package contract; nothing is
calibrated at runtime.
"""

import json
import math

import numpy as np
import pytest

import specqual as sq
from specqual.cli import main as cli_main
from specqual.expressions import eval_array, parse_expr, to_string
from specqual.limits import tail_limit, tail_of
from specqual.qualification import srho_table

EX4_GRID = np.geomspace(1e-7, 0.15, 448)
EX10_GRID = np.geomspace(1e-7, 0.5, 448)


def verdict(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def model200():
    return sq.make_model("j^-2", 200)


@pytest.fixture(scope="module")
def w06():
    return np.arange(1, 201, dtype=float) ** -0.6


def test_criterion_1_classification_matrix():
    """Ten catalog classifications match the published levels."""
    matrix = [
        ("tikhonov", {}, "alpha", None, "optimal"),
        ("tsvd", {}, "alpha", None, "weak"),
        ("ex3_exp", {}, "exp(-1/alpha)", None, "optimal"),
        ("ex4_log", {}, "-1/ln(alpha)", EX4_GRID, "optimal"),
        ("tikhonov", {}, "alpha^0.5", None, "weak"),
        ("ex4_log", {}, "(-ln(alpha))^(-0.5)", EX4_GRID, "weak"),
        ("ex7_piecewise", {}, "alpha", None, "weak"),
        ("ex8_osc", {"k": 1.0}, "alpha", None, "strong"),
        ("ex9_osc", {}, "exp(-1/sqrt(alpha))", None, "strong"),
        ("ex10_osc", {}, "-1/ln(alpha)", EX10_GRID, "strong"),
    ]
    results = []
    for fid, params, rho_text, grid, want in matrix:
        filt = sq.get_filter(fid, **params)
        rho = sq.order_fn(rho_text, grid)
        level = sq.classify(filt, rho, companions=False).level
        results.append((fid, rho_text, level, want, level == want))
    bad = [r for r in results if not r[4]]
    # the weak rows must also NOT reach strong; strong rows must miss optimal
    verdict(1, not bad, f"classification matrix {sum(r[4] for r in results)}/10"
            + (f" (mismatches: {bad})" if bad else ""))


def test_criterion_2_source_function_closed_forms():
    """estimate_srho lands within 2% of the closed forms, stabilized."""
    lams = [0.01, 0.1, 1.0, 10.0]
    cases = [
        ("tikhonov", {}, "alpha", None, lambda l: l),
        ("ex3_exp", {}, "exp(-1/alpha)", None, lambda l: l / (1 + l)),
        ("ex4_log", {}, "-1/ln(alpha)", EX4_GRID, lambda l: l / (1 + l)),
        ("ex8_osc", {"k": 1.0}, "alpha", None, math.sqrt),
        ("ex9_osc", {}, "exp(-1/sqrt(alpha))", None, math.sqrt),
        ("ex10_osc", {}, "-1/ln(alpha)", EX10_GRID, math.sqrt),
    ]
    worst = 0.0
    ok = True
    for fid, params, rho_text, grid, s_true in cases:
        filt = sq.get_filter(fid, **params)
        rho = sq.order_fn(rho_text, grid)
        for lam in lams:
            est = sq.estimate_srho(filt, rho, lam)
            rel = abs(est.value / s_true(lam) - 1.0)
            worst = max(worst, rel)
            ok = ok and est.stabilized and rel <= 0.02
    verdict(2, ok, f"s_rho within 2% of closed forms (worst {worst:.3%}), all stabilized")


def test_criterion_3_classical_order():
    """Brackets and flags across the catalog."""
    ok = True
    notes = []
    for fid, want in (("tikhonov", "bracket"), ("ex7_piecewise", "bracket"),
                      ("ex3_exp", "inf"), ("tsvd", "inf"), ("landweber", "inf"),
                      ("showalter", "inf"), ("ex9_osc", "inf"),
                      ("ex4_log", "zero"), ("ex10_osc", "zero")):
        co = sq.estimate_classical_order(sq.get_filter(fid))
        if want == "bracket":
            good = (co.low, co.high) == (1.0, 2.0) and not co.zero and not co.infinite
        elif want == "inf":
            good = co.infinite and not co.zero
        else:
            good = co.zero and not co.infinite
        ok = ok and good
        if not good:
            notes.append((fid, co.low, co.high, co.zero, co.infinite))
    for k in (0.5, 1.0, 2.0):
        co = sq.estimate_classical_order(sq.get_filter("ex8_osc", k=k))
        good = (co.low, co.high) == (k, 2 * k)
        ok = ok and good
        if not good:
            notes.append(("ex8", k, co.low, co.high))
    verdict(3, ok, "classical-order brackets and flags" + (f" {notes}" if notes else ""))


def test_criterion_4_increasing_weight_check():
    tik = sq.check_mp_qualification(sq.get_filter("tikhonov"), sq.order_fn("alpha"))
    sho = sq.check_mp_qualification(sq.get_filter("showalter"),
                                    sq.order_fn("exp(-1/sqrt(alpha))"))
    tsvd_ok = all(
        sq.check_mp_qualification(sq.get_filter("tsvd"), sq.order_fn(rho)).passes
        for rho in ("alpha", "alpha^2", "exp(-1/alpha)")
    )
    ok = (tik.passes and tik.gamma <= 1.01
          and not sho.passes and sho.growth > 100.0
          and tsvd_ok)
    verdict(4, ok, f"weight-inequality: tikhonov gamma={tik.gamma:.4f}, "
            f"showalter growth>{100 if sho.growth > 100 else sho.growth}, "
            f"truncation passes 3 orders")


def test_criterion_5_constructive_certificates():
    res_s = sq.construct_weak_qualification(sq.get_filter("showalter"))
    res_t = sq.construct_weak_qualification(sq.get_filter("tikhonov"))
    try:
        sq.construct_weak_qualification(sq.get_filter("ex8_osc", k=1.0))
        rejected = False
        witness = None
    except sq.HypothesisViolation as err:
        rejected = True
        witness = (err.alpha, err.lam)
    ok = (res_s.certificate.holds and res_t.certificate.holds
          and rejected and witness is not None and all(v > 0 for v in witness))
    verdict(5, ok, f"windowed-supremum certificates hold; oscillatory family "
            f"rejected with witness {witness}")


def test_criterion_6_convergence_slopes(model200, w06):
    """Slope 1.0 +/- 0.05 (s = lambda) and 0.5 +/- 0.05 (s = sqrt),
    r^2 >= 0.999; truncation error exactly zero past the spectrum."""
    tik = sq.get_filter("tikhonov")
    rho = sq.order_fn("alpha")
    grid = np.geomspace(1e-5, 0.5, 220)

    def fit_for(s_text, window):
        s = sq.source_fn(s_text)
        elem = sq.make_source_element(model200, s, w06)
        study = sq.run_convergence(model200, tik, elem, rho, grid)
        return sq.fit_order(study, window)

    f1 = fit_for("lambda", (2.5e-4, 1e-3))
    f2 = fit_for("lambda^0.5", (2e-3, 0.1))

    tsvd = sq.get_filter("tsvd")
    elem = sq.make_source_element(model200, sq.source_fn("lambda"), w06)
    study = sq.run_convergence(model200, tsvd, elem, rho, grid)
    lam_min = float(model200.eigenvalues[-1])
    tsvd_exact = all(r.err == 0.0 for r in study.records if r.alpha < lam_min)

    ok = (abs(f1.slope - 1.0) <= 0.05 and f1.r_squared >= 0.999
          and abs(f2.slope - 0.5) <= 0.05 and f2.r_squared >= 0.999
          and tsvd_exact)
    verdict(6, ok, f"slopes {f1.slope:.4f} (r2={f1.r_squared:.5f}) and "
            f"{f2.slope:.4f} (r2={f2.r_squared:.5f}); truncation exact "
            f"below the spectrum: {tsvd_exact}")


def test_criterion_7_converse_agreement(model200, w06):
    """Six scripted scenarios: prediction matches membership 6/6."""
    j = np.arange(1, 201, dtype=float)
    scenarios = [
        ("tikhonov", "alpha", "lambda", None, w06, True),
        ("ex3_exp", "exp(-1/alpha)", "lambda/(1+lambda)", None, w06, True),
        ("ex4_log", "-1/ln(alpha)", "lambda/(1+lambda)", EX4_GRID, w06, True),
        ("tikhonov", "alpha", "lambda", None, j.astype(float), False),
        ("ex4_log", "-1/ln(alpha)", "lambda/(1+lambda)", EX4_GRID, j ** 0.5, False),
        ("ex8_osc", "alpha", "lambda^0.5", None, j.astype(float), False),
    ]
    agree = 0
    for fid, rho_text, s_text, agrid, w, expect_inside in scenarios:
        filt = sq.get_filter(fid)
        rho = sq.order_fn(rho_text, agrid)
        s = sq.source_fn(s_text)
        elem = sq.make_source_element(model200, s, w)
        study = sq.run_convergence(model200, filt, elem, rho,
                                   np.geomspace(1e-5, filt.alpha_max / 2, 220))
        probe = sq.converse_probe(study, filt, rho, s, rho, alpha_grid=agrid)
        if probe.agree and probe.verification.inside == expect_inside:
            agree += 1
    verdict(7, agree == 6, f"converse probe agreement {agree}/6")


def test_criterion_8_oscillatory_signature():
    """ex8(k=1), rho=alpha, lambda=1: the pair ratio touches its envelope
    (limsup in [0.9, 1.1]) yet dips toward zero (liminf < 0.1)."""
    ex8 = sq.get_filter("ex8_osc", k=1.0)
    rho = sq.order_fn("alpha")
    table = srho_table(ex8, rho)
    lams = np.array(sorted(table))
    s_tab = sq.TabulatedSource(lambdas=lams,
                               log_values=np.log([table[l].value for l in lams]))
    alphas = sq.default_alpha_grid(ex8)
    lq = (float(s_tab.log_at(1.0))
          + np.asarray(ex8._r_log(alphas, np.float64(1.0)), dtype=float)
          - np.asarray(rho.log_at(alphas), dtype=float))
    t = tail_of(alphas)
    up = tail_limit(t, lq[t.index], "limsup")
    dn = tail_limit(t, lq[t.index], "liminf")
    ok = 0.9 <= up.value <= 1.1 and dn.value < 0.1
    verdict(8, ok, f"limsup {up.value:.4f} in [0.9, 1.1]; liminf {dn.value:.2e} < 0.1")


def test_criterion_9_infrastructure(tmp_path):
    """SVD reconstruction, dense/diagonal agreement, DSL round-trip,
    byte-identical reports."""
    rng = np.random.default_rng(2024)
    recon_ok = True
    for n in (8, 64):
        A = rng.normal(size=(n, n))
        _, U, s, V = sq.svd_decompose(A)
        resid = np.linalg.norm(A - U @ np.diag(s) @ V.T) / np.linalg.norm(A)
        recon_ok = recon_ok and resid < 1e-10

    # dense path vs diagonal path
    dim = 12
    diag_model = sq.make_model("j^-2", dim)
    sigma = np.sqrt(diag_model.eigenvalues)
    Q1, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    Q2, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    dense_model, _, _, _ = sq.svd_decompose(Q1 @ np.diag(sigma) @ Q2.T)
    s_fn = sq.source_fn("lambda^0.5")
    w = np.arange(1, dim + 1, dtype=float) ** -0.6
    agree_ok = True
    for fid in sq.list_filters():
        filt = sq.get_filter(fid)
        if filt.lambda_sup is not None and diag_model.eigenvalues[0] >= filt.lambda_sup:
            continue
        e1 = sq.make_source_element(diag_model, s_fn, w)
        e2 = sq.make_source_element(dense_model, s_fn, w)
        for alpha in (0.14, 0.02):
            a = sq.regularization_error(diag_model, filt, alpha, e1)
            b = sq.regularization_error(dense_model, filt, alpha, e2)
            agree_ok = agree_ok and abs(a - b) < 1e-9

    # DSL round-trip over the catalog forms
    catalog = ["alpha", "alpha^0.5", "alpha^2", "exp(-1/alpha)",
               "exp(-1/sqrt(alpha))", "-1/ln(alpha)", "(-ln(alpha))^(-0.5)",
               "(1-0.5*sqrt(alpha))^(1/alpha)", "lambda", "lambda^0.5",
               "lambda/(1+lambda)"]
    roundtrip_ok = True
    for text in catalog:
        tree = parse_expr(text)
        again = parse_expr(to_string(tree))
        var = "alpha" if "alpha" in text else "lambda"
        pts = np.geomspace(1e-4, 0.2 if var == "alpha" else 10.0, 100)
        a = np.asarray(eval_array(tree, {var: pts}), dtype=float)
        b = np.asarray(eval_array(again, {var: pts}), dtype=float)
        roundtrip_ok = roundtrip_ok and np.allclose(a, b, rtol=1e-15)

    # byte-identical CLI reports for the same configuration
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["classify", "--filter", "ex4", "--order", "-1/ln(alpha)"]
    cli_main(args + ["--out", str(out1)])
    cli_main(args + ["--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()

    ok = recon_ok and agree_ok and roundtrip_ok and identical
    verdict(9, ok, f"svd recon <1e-10: {recon_ok}; dense/diag <1e-9: {agree_ok}; "
            f"round-trip: {roundtrip_ok}; byte-identical reports: {identical}")
