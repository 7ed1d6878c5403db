"""Evaluation counts of the estimator core.

Calls to a filter's ``_r_log``, the (alpha, lambda) points they evaluate,
and calls to ``tail_limit`` and ``certify_source_fn`` are deterministic, so
they gate the batched estimators without any wall-clock measurement.
``_r_log`` is counted on a ``dataclasses.replace`` copy of the filter, and
``tail_limit`` and ``certify_source_fn`` by patching the names
``qualification`` calls.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import specqual as sq
from specqual import qualification
from specqual.limits import tail_of


@pytest.fixture
def counts(monkeypatch):
    calls = {"r_log": 0, "tail_limit": 0, "points": 0}
    tail_limit = qualification.tail_limit

    def counted_tail_limit(*args, **kwargs):
        calls["tail_limit"] += 1
        return tail_limit(*args, **kwargs)

    monkeypatch.setattr(qualification, "tail_limit", counted_tail_limit)
    return calls


def counted_filter(calls, fid, **params):
    filt = sq.get_filter(fid, **params)
    r_log = filt._r_log

    def counted_r_log(alpha, lam):
        calls["r_log"] += 1
        calls["points"] += np.broadcast(alpha, lam).size
        return r_log(alpha, lam)

    return dataclasses.replace(filt, _r_log=counted_r_log)


def test_full_ex9_classify(counts):
    """s_rho table, order-source pair, classical order and mp-check."""
    filt = counted_filter(counts, "ex9_osc")
    report = sq.classify(filt, sq.order_fn("exp(-1/sqrt(alpha))"))
    assert report.level == "strong"
    # 92 when the order-source check ran a zoom pass, four golden lanes
    # per alpha to double resolution and a kink test
    assert counts["r_log"] <= 52
    # 16 when the classical-order probe made one tail_limit call per mu
    assert counts["tail_limit"] <= 4
    # 224,982 points when every mesh covered its whole alpha grid, then
    # 156,846 with the zoom pass and four golden lanes
    assert counts["points"] <= 80_000


@pytest.fixture
def check_calls(counts, monkeypatch):
    """The ``_r_log`` calls of each order-source check, one entry per check."""
    check = qualification.check_order_source_pair
    made = []

    def counted_check(*args, **kwargs):
        before = counts["r_log"]
        verdict = check(*args, **kwargs)
        made.append(counts["r_log"] - before)
        return verdict

    monkeypatch.setattr(qualification, "check_order_source_pair", counted_check)
    return made


def test_order_source_pair_ex9(counts, check_calls):
    """The check on the ex9 catalog row: a coarse scan, one golden lane
    per alpha stopped at sqrt(eps) and the dips from the phase roots,
    which make no ``_r_log`` call; 89 calls before."""
    filt = counted_filter(counts, "ex9_osc")
    report = sq.classify(filt, sq.order_fn("exp(-1/sqrt(alpha))"), companions=False)
    assert not report.evidence["optimal"].holds
    assert len(check_calls) == 1 and check_calls[0] <= 48


EX4_GRID = np.geomspace(1e-7, 0.15, 448)
EX10_GRID = np.geomspace(1e-7, 0.5, 448)


@pytest.mark.parametrize("fid,order,grid", [
    ("tikhonov", "alpha", None),
    ("ex4_log", "-1/ln(alpha)", EX4_GRID),
])
def test_edge_lanes_settle_without_golden_search(counts, check_calls, fid, order, grid):
    """Every lane of these optimal rows has its coarse minimum on the
    window's low edge, and the probe beside it, read in the scan's own
    call, settles it; 35 calls when the golden search descended there."""
    report = sq.classify(counted_filter(counts, fid), sq.order_fn(order, grid), companions=False)
    assert report.level == "optimal"
    assert len(check_calls) == 1 and check_calls[0] <= 2


@pytest.mark.parametrize("fid,params,order,grid,calls", [
    ("ex3_exp", {}, "exp(-1/alpha)", None, 47),
    ("ex8_osc", {"k": 1.0}, "alpha", None, 41),
    ("ex9_osc", {}, "exp(-1/sqrt(alpha))", None, 47),
    ("ex10_osc", {}, "-1/ln(alpha)", EX10_GRID, 38),
])
def test_interior_lanes_cost_no_extra_call(counts, fid, params, order, grid, calls):
    """Rows with an interior lane refine every lane as before; the edge
    probes ride in the scan's call, so the classify costs no more calls."""
    sq.classify(counted_filter(counts, fid, **params), sq.order_fn(order, grid), companions=False)
    assert counts["r_log"] <= calls


def test_canonical_sources_certified_once(monkeypatch):
    """Two weak rows certify the weak fallback's three canonical sources
    once between them; each row certified all three (6 calls) before."""
    certify = qualification.certify_source_fn
    made = []

    def counted_certify(text, *args, **kwargs):
        made.append(text)
        return certify(text, *args, **kwargs)

    monkeypatch.setattr(qualification, "certify_source_fn", counted_certify)
    qualification._canonical_sources.cache_clear()
    for fid, order in [("tsvd", "alpha"), ("tikhonov", "alpha^0.5")]:
        report = sq.classify(sq.get_filter(fid), sq.order_fn(order), companions=False)
        assert report.level == "weak"
    assert made == list(qualification.CANONICAL_SOURCES)


def test_classical_probe_runs_once_per_filter(counts):
    """A second classify of one filter instance reuses its classical
    order: it makes exactly the probe's one ``_r_log`` call and one
    ``tail_limit`` call fewer, and shares the first report's bracket."""
    filt = counted_filter(counts, "ex8_osc", k=1.0)
    rho = sq.order_fn("alpha")

    def classify_counted():
        r_log, tail = counts["r_log"], counts["tail_limit"]
        report = sq.classify(filt, rho)
        return report, (counts["r_log"] - r_log, counts["tail_limit"] - tail)

    first, (r_log, tail) = classify_counted()
    second, made = classify_counted()
    assert made == (r_log - 1, tail - 1)
    assert second.classical_mu0 is first.classical_mu0


def test_replaced_filter_probes_again(counts):
    """A ``dataclasses.replace`` copy is a new family (families compare by
    identity), so it is probed again and not served its original's
    cached order."""
    filt = counted_filter(counts, "tikhonov")
    first = qualification._classical_order(filt)
    before = counts["tail_limit"]
    assert qualification._classical_order(filt) is first
    assert counts["tail_limit"] == before
    copy = dataclasses.replace(filt)
    assert copy != filt
    assert qualification._classical_order(copy) is not first
    assert counts["tail_limit"] == before + 1


def test_explicit_grids_are_never_cached(counts):
    """``estimate_classical_order`` itself always probes, with a mu grid
    or without one, before and after ``classify`` filled the cache."""
    filt = counted_filter(counts, "tikhonov")
    sq.classify(filt, sq.order_fn("alpha"))
    for mu_grid in (None, [0.5, 1.0, 2.0], None):
        before = dict(counts)
        co = sq.estimate_classical_order(filt, mu_grid)
        assert (counts["r_log"], counts["tail_limit"]) == (before["r_log"] + 1,
                                                           before["tail_limit"] + 1)
        assert (co.low, co.high) == (1.0, 2.0)


def test_import_certifies_nothing():
    """``import specqual`` certifies no function, so a cold CLI call that
    never reaches the weak fallback pays nothing for its sources."""
    code = ("import sys, numpy\n"
            "made = []\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call'"
            " and frame.f_code.co_name == '_certify' and made.append(1))\n"
            "import specqual\n"
            "sys.setprofile(None)\n"
            "print(len(made))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sq.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"


@pytest.mark.parametrize("fid,order,grid,gamma", [
    ("tikhonov", "alpha", None, 0.5000001030390547),
    ("ex3_exp", "exp(-1/alpha)", None, 0.49784656708935654),
    ("ex4_log", "-1/ln(alpha)", EX4_GRID, 0.49570486931451757),
])
def test_optimal_catalog_gamma(fid, order, grid, gamma):
    """The window infima of the optimal catalog rows, pinned as the zoom
    pass and the double-resolution refinement gave them."""
    report = sq.classify(sq.get_filter(fid), sq.order_fn(order, grid), companions=False)
    assert report.level == "optimal"
    assert report.evidence["optimal"].gamma == pytest.approx(gamma, rel=1e-12)


def tail_columns(alpha_grid):
    """The number of alphas of ``alpha_grid`` that ``tail_limit`` reads."""
    return tail_of(alpha_grid).alphas.size


@pytest.mark.parametrize("n_lambda", [3, 30])
def test_srho_table_is_one_batch(counts, n_lambda):
    filt = counted_filter(counts, "ex8_osc", k=1.0)
    sq.srho_table(filt, sq.order_fn("alpha"), np.geomspace(0.01, 10.0, n_lambda))
    points = n_lambda * tail_columns(sq.default_alpha_grid(filt))
    assert counts == {"r_log": 1, "tail_limit": 1, "points": points}


def test_weak_pair_is_one_batch(counts):
    filt = counted_filter(counts, "tikhonov")
    sq.check_weak_pair(filt, sq.source_fn("lambda"), sq.order_fn("alpha"))
    points = sq.default_lambda_grid(filt).size * tail_columns(sq.default_alpha_grid(filt))
    assert counts == {"r_log": 1, "tail_limit": 1, "points": points}


def test_classical_order_is_one_batch_per_mu(counts):
    """One residual mesh and one tail_limit call for the whole mu grid;
    a loop over mu made one tail_limit call per mu (13 by default)."""
    filt = counted_filter(counts, "tikhonov")
    sq.estimate_classical_order(filt)
    points = (sq.default_lambda_grid(filt, per_decade=2).size
              * tail_columns(qualification._deep_alpha_grid(filt)))
    assert counts == {"r_log": 1, "tail_limit": 1, "points": points}


@pytest.mark.parametrize("mu_grid", [None, np.array([3.0, 0.25, 1.5])], ids=["default", "three-mu"])
def test_classical_order_reads_one_row_per_mu(counts, monkeypatch, mu_grid):
    """The probe hands ``tail_limit`` one sampled-sup row per mu, 13 on the
    default grid; it handed over one row per (mu, lambda), 91 by default."""
    shapes = []
    tail_limit = qualification.tail_limit

    def shaped_tail_limit(tail, log_values, *args, **kwargs):
        shapes.append(np.shape(log_values))
        return tail_limit(tail, log_values, *args, **kwargs)

    monkeypatch.setattr(qualification, "tail_limit", shaped_tail_limit)
    filt = counted_filter(counts, "ex8_osc", k=1.0)
    co = sq.estimate_classical_order(filt, mu_grid)
    tail = tail_columns(qualification._deep_alpha_grid(filt))
    assert (counts["r_log"], counts["tail_limit"]) == (1, 1)
    assert shapes == [(len(co.mu_grid), tail)]
    assert len(co.mu_grid) == (13 if mu_grid is None else 3)


@pytest.mark.parametrize("fid", ["tikhonov", "tsvd", "showalter"])
def test_convergence_study_is_one_mesh(counts, fid):
    """One (alpha x eigenvalue) mesh per study; a per-alpha loop made 150 calls."""
    filt = counted_filter(counts, fid)
    model = sq.make_model("j^-2", 64)
    elem = sq.make_source_element(model, sq.source_fn("lambda"), np.ones(model.dim))
    grid = np.geomspace(1e-5, 0.5, 150)
    sq.run_convergence(model, filt, elem, sq.order_fn("alpha"), grid)
    assert counts == {"r_log": 1, "tail_limit": 0, "points": grid.size * model.dim}


def test_construct_certificate_is_one_mesh(counts):
    """Hypothesis probe, bisection, rho* and one certificate mesh; 181
    calls when the certificate swept one alpha per call."""
    filt = counted_filter(counts, "showalter")
    res = sq.construct_weak_qualification(filt)
    assert res.certificate.holds
    assert counts["r_log"] <= 38


def test_default_sign_reads_the_callers_ln_r(counts):
    """A family without its own ``_r_log_sign`` takes the sign from the ln|r|
    its caller holds: a ``replace`` copy and a family built with the
    counted kernel make the same calls, and one value of r is one call.
    A sign closure bound at construction made 4 calls in the axiom check
    on the built family (3 on the copy), 2 in ``residual_value`` and 4 in
    ``eval_residual``."""
    copied = counted_filter(counts, "showalter")
    built = dataclasses.replace(copied, _r_log_sign=None)
    made = []
    for filt in (copied, built):
        before = counts["r_log"]
        sq.verify_srm_axioms(filt)
        made.append(counts["r_log"] - before)
    assert made[0] == made[1]
    for evaluate in (sq.filters.residual_value, sq.eval_residual):
        before = counts["r_log"]
        evaluate(built, 0.1, 1.0)
        assert counts["r_log"] - before == 1


def test_one_kernel_call_per_residual_value():
    """ex7's signed kernel and a custom family's g run once per value of r.
    With a separate sign channel each ran twice per value, and g 5 times
    in the axiom check."""
    calls = {"kernel": 0, "g": 0}

    def counted(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    ex7 = sq.get_filter("ex7_piecewise")
    ex7 = dataclasses.replace(ex7, _r_log=counted(ex7._r_log, "kernel"),
                              _r_log_sign=counted(ex7._r_log_sign, "kernel"))
    custom = sq.make_custom_filter("custom", counted(sq.get_filter("showalter")._g, "g"),
                                   alpha_max=1.0, h2_constant=1.0)
    for evaluate in (sq.filters.residual_value, sq.eval_residual):
        calls.update(kernel=0, g=0)
        evaluate(ex7, 0.1, 0.15)
        evaluate(custom, 0.1, 1.0)
        assert calls == {"kernel": 1, "g": 1}, evaluate.__name__
    calls["g"] = 0
    sq.verify_srm_axioms(custom)
    assert calls["g"] == 4  # g itself for H1, one value mesh, two H3 probes
