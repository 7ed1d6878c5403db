"""Evaluation counts of the estimator core.

Calls to a filter's ``_r_log``, the (alpha, lambda) points they evaluate,
and calls to ``tail_limit`` are deterministic, so they gate the batched
estimators without any wall-clock measurement.  ``_r_log`` is counted on a
``dataclasses.replace`` copy of the filter and ``tail_limit`` by patching
the name ``qualification`` calls.
"""

import dataclasses

import numpy as np
import pytest

import specqual as sq
from specqual import qualification
from specqual.limits import tail_start


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
    assert counts["r_log"] <= 100
    # 16 when the classical-order probe made one tail_limit call per mu
    assert counts["tail_limit"] <= 4
    # 224,982 points when every mesh covered its whole alpha grid
    assert counts["points"] <= 157_000


def tail_columns(alpha_grid):
    """The number of alphas of ``alpha_grid`` that ``tail_limit`` reads."""
    xs = np.sort(-np.log(alpha_grid))
    return xs.size - tail_start(xs)


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
