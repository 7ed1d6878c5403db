"""Evaluation counts of the estimator core.

Calls to a filter's ``_r_log``, the (alpha, lambda) points they evaluate,
and calls to ``tail_limit`` and ``certify_source_fn`` are deterministic, so
they gate the batched estimators without any wall-clock measurement.
``_r_log`` is counted on a ``dataclasses.replace`` copy of the filter, and
``tail_limit`` and ``certify_source_fn`` by patching the names
``qualification`` calls.
"""

import dataclasses
import gc
import os
import subprocess
import sys
import weakref
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
    # per alpha to double resolution and a kink test; 49 with one golden
    # lane per alpha
    assert counts["r_log"] <= 4
    # 16 when the classical-order probe made one tail_limit call per mu
    assert counts["tail_limit"] <= 4
    # 224,982 points when every mesh covered its whole alpha grid, then
    # 156,846 with the zoom pass and four golden lanes, 78,798 with one
    assert counts["points"] <= 75_000


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
    """The check on the ex9 catalog row: one scan of every window and the
    dips from the phase roots, which make no ``_r_log`` call; 89 calls
    with a zoom pass, 46 with a golden lane per alpha."""
    filt = counted_filter(counts, "ex9_osc")
    report = sq.classify(filt, sq.order_fn("exp(-1/sqrt(alpha))"), companions=False)
    assert not report.evidence["optimal"].holds
    assert check_calls == [1]


EX4_GRID = np.geomspace(1e-7, 0.15, 448)
EX10_GRID = np.geomspace(1e-7, 0.5, 448)


@pytest.mark.parametrize("fid,order,grid", [
    ("tikhonov", "alpha", None),
    ("ex4_log", "-1/ln(alpha)", EX4_GRID),
])
def test_edge_lanes_settle_without_golden_search(counts, check_calls, fid, order, grid):
    """Every lane of these optimal rows has its least scan point on the
    window's low edge, and the scan is the check's one call: 35 calls
    when a golden search descended there, 2 when a probe beside the
    edge had to settle it."""
    report = sq.classify(counted_filter(counts, fid), sq.order_fn(order, grid), companions=False)
    assert report.level == "optimal"
    assert check_calls == [1]


@pytest.mark.parametrize("fid,params,order,grid,calls", [
    ("ex3_exp", {}, "exp(-1/alpha)", None, 47),
    ("ex8_osc", {"k": 1.0}, "alpha", None, 41),
    ("ex9_osc", {}, "exp(-1/sqrt(alpha))", None, 47),
    ("ex10_osc", {}, "-1/ln(alpha)", EX10_GRID, 38),
])
def test_interior_lanes_cost_no_extra_call(counts, check_calls, fid, params, order, grid,
                                           calls):
    """Rows whose least scan point lies inside some window: the check
    reads that minimum from its one scan call, as the edge rows do, and
    the classify makes two calls, the s_rho table's and the check's.
    ``calls`` is what the classify made with a golden search on every
    lane."""
    sq.classify(counted_filter(counts, fid, **params), sq.order_fn(order, grid), companions=False)
    assert check_calls == [1]
    assert counts["r_log"] == 2 < calls


def test_canonical_sources_certified_once(monkeypatch):
    """Two weak rows certify the weak fallback's one fixed source, lambda,
    once between them: tsvd x alpha reads it, and tikhonov x alpha^0.5
    reads its capped s_rho table.  Each row certified three canonical
    sources (6 calls) before they were made once per process, and the
    two rows certified those three once before the fallback read one
    source."""
    certify = qualification.certify_source_fn
    made = []

    def counted_certify(text, *args, **kwargs):
        made.append(text)
        return certify(text, *args, **kwargs)

    monkeypatch.setattr(qualification, "certify_source_fn", counted_certify)
    qualification._lambda_source.cache_clear()
    for fid, order in [("tsvd", "alpha"), ("tikhonov", "alpha^0.5")]:
        report = sq.classify(sq.get_filter(fid), sq.order_fn(order), companions=False)
        assert report.level == "weak"
    assert made == ["lambda"]


def test_classical_probe_runs_once_per_filter(counts):
    """A second classify of one filter instance reuses its classical
    order, its default grids' residual mesh and the mp-check's mesh:
    4 ``_r_log`` and 4 ``tail_limit`` calls, then 1 and 3, and both
    reports share one bracket.  It made 4 and 4, then 3 and 3, when only
    the classical order was kept, and 2 and 3 on the second classify
    before the mp mesh was kept."""
    filt = counted_filter(counts, "ex8_osc", k=1.0)
    rho = sq.order_fn("alpha")

    def classify_counted():
        r_log, tail = counts["r_log"], counts["tail_limit"]
        report = sq.classify(filt, rho)
        return report, (counts["r_log"] - r_log, counts["tail_limit"] - tail)

    first, made = classify_counted()
    assert made == (4, 4)
    second, made = classify_counted()
    assert made == (1, 3)
    assert second.classical_mu0 is first.classical_mu0


@pytest.fixture
def mp_calls(counts, monkeypatch):
    """The ``_r_log`` calls of each mp-check, one entry per check."""
    mp = qualification.check_mp_qualification
    made = []

    def counted_mp(*args, **kwargs):
        before = counts["r_log"]
        verdict = mp(*args, **kwargs)
        made.append(counts["r_log"] - before)
        return verdict

    monkeypatch.setattr(qualification, "check_mp_qualification", counted_mp)
    return made


def test_second_classify_makes_the_scan_and_mp_calls(counts, check_calls, mp_calls):
    """On the default grids a repeated classify evaluates only what depends
    on rho: the order-source check's scan (its window starts at h = rho).
    The mp-check reads its kept mesh and makes no call; it made one on
    every classify before that mesh was kept."""
    filt = counted_filter(counts, "ex8_osc", k=1.0)
    rho = sq.order_fn("alpha")
    sq.classify(filt, rho)
    before = counts["r_log"]
    sq.classify(filt, rho)
    assert counts["r_log"] - before == 1
    assert check_calls == [1, 1] and mp_calls == [1, 0]


@pytest.mark.parametrize("fid,order,grids,candidates", [
    ("tsvd", "alpha", False, 1),
    ("tikhonov", "alpha^3", False, 1),
    ("tikhonov", "alpha^3", True, 1),
])
def test_weak_fallback_reads_the_srho_mesh(counts, fid, order, grids, candidates):
    """A first classify without companions makes one ``_r_log`` call, the
    s_rho table's mesh, whether its grids are the defaults or given: each
    candidate built the mesh again before (2 calls on tsvd x alpha, 5 on
    tikhonov x alpha^3).  ``candidates`` is the number of weak-pair
    checks, one ``tail_limit`` call each after the table's: one source
    is checked, where the level-none tikhonov x alpha^3 tried four."""
    filt = counted_filter(counts, fid)
    given = (sq.default_lambda_grid(filt), sq.default_alpha_grid(filt)) if grids else ()
    sq.classify(filt, sq.order_fn(order), *given, companions=False)
    assert (counts["r_log"], counts["tail_limit"]) == (1, 1 + candidates)


def test_replaced_filter_probes_again(counts):
    """A ``dataclasses.replace`` copy is a new family (families compare by
    identity), so it is probed again and not served its original's
    cached order."""
    filt = counted_filter(counts, "tikhonov")
    first = sq.estimate_classical_order(filt)
    before = counts["tail_limit"]
    assert sq.estimate_classical_order(filt) is first
    assert counts["tail_limit"] == before
    copy = dataclasses.replace(filt)
    assert copy != filt
    assert sq.estimate_classical_order(copy) is not first
    assert counts["tail_limit"] == before + 1


def test_explicit_grids_are_never_cached(counts):
    """An all-default ``estimate_classical_order`` returns the order that
    ``classify`` reports, with no second probe; a given mu, lambda or alpha
    grid probes afresh, before and after the store was filled, and leaves
    the store's keys and entries as they were."""
    filt = counted_filter(counts, "tikhonov")
    report = sq.classify(filt, sq.order_fn("alpha"))
    kept = qualification._defaults(filt)
    entries = dict(kept)
    before = dict(counts)
    assert sq.estimate_classical_order(filt) is report.classical_mu0
    assert counts == before
    lams = sq.default_lambda_grid(filt, per_decade=2)
    alphas = qualification._deep_alpha_grid(filt)
    for given in ({"mu_grid": [0.5, 1.0, 2.0]}, {"lambda_grid": lams},
                  {"alpha_grid": alphas}, {"mu_grid": qualification.default_mu_grid()}):
        before = dict(counts)
        co = sq.estimate_classical_order(filt, **given)
        assert (counts["r_log"], counts["tail_limit"]) == (before["r_log"] + 1,
                                                           before["tail_limit"] + 1)
        assert (co.low, co.high) == (1.0, 2.0)
        assert co is not report.classical_mu0
        assert kept == entries and all(kept[k] is v for k, v in entries.items())
    fresh = counted_filter(counts, "tikhonov")
    sq.estimate_classical_order(fresh, lambda_grid=lams)
    assert qualification._defaults(fresh) == {}


def test_explicit_srho_and_weak_grids_are_never_cached(counts):
    """``srho_table`` and ``check_weak_pair`` on given grids build their own
    mesh, one ``_r_log`` call each, before and after ``classify`` filled
    the instance's cache on the default grids; given the default grids'
    values, they return what the cached mesh gives."""
    filt = counted_filter(counts, "tikhonov")
    rho, s = sq.order_fn("alpha"), sq.source_fn("lambda")
    lams, alphas = sq.default_lambda_grid(filt), sq.default_alpha_grid(filt)
    made = []
    for _ in range(2):
        for check in (lambda: sq.srho_table(filt, rho, lams, alphas),
                      lambda: sq.check_weak_pair(filt, s, rho, lams, alphas)):
            before = counts["r_log"]
            check()
            made.append(counts["r_log"] - before)
        sq.classify(filt, rho)
    assert made == [1, 1, 1, 1]
    before = counts["r_log"]
    assert sq.srho_table(filt, rho) == sq.srho_table(filt, rho, lams, alphas)
    assert counts["r_log"] == before + 1


def test_strong_pair_on_given_grids_makes_one_call(counts):
    """``check_strong_pair`` on given grids builds one residual mesh and
    reads the weak pair and its own bound from it: one ``_r_log`` call."""
    filt = counted_filter(counts, "tikhonov")
    lams, alphas = np.geomspace(0.01, 1.0, 9), np.geomspace(1e-6, 0.5, 64)
    assert sq.check_strong_pair(filt, sq.source_fn("lambda"), sq.order_fn("alpha"), lams, alphas)
    assert counts["r_log"] == 1


def arrays_in(x):
    """The arrays in ``x``, through nested tuples."""
    if isinstance(x, tuple):
        return [a for v in x for a in arrays_in(v)]
    return [x] if isinstance(x, np.ndarray) else []


def test_cached_arrays_are_read_only(counts):
    """Every array the instance's cache holds, and the scan fractions, is
    read-only: a caller that writes into one gets a ValueError, not a
    changed verdict for every later classify."""
    filt = counted_filter(counts, "ex8_osc", k=1.0)
    sq.classify(filt, sq.order_fn("alpha"))
    kept = qualification._defaults(filt)
    assert sorted(kept) == ["classical", "mesh", "mp", "window"]
    arrays = arrays_in((*kept.values(), qualification._SCAN_FRACTIONS))
    assert len(arrays) == 17  # the mp entry's ln|r| mesh is the 16th
    for x in arrays:
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0


@pytest.mark.parametrize("fid,params,bound", [
    ("ex8_osc", {"k": 1.0}, 525_000),
    ("tikhonov", {}, 285_000),
])
def test_kept_bytes_are_bounded(fid, params, bound):
    """The bytes an instance keeps after one classify, each base array
    counted once (a kept ``Tail`` holds views into its grid): 522,800 on
    ex8_osc and 282,664 on tikhonov when the bounds were set, 290,360
    and 50,224 before the mp-check's 65 x 447 ln|r| mesh was kept."""
    filt = sq.get_filter(fid, **params)
    sq.classify(filt, sq.order_fn("alpha"))
    bases = {}
    for x in arrays_in(tuple(qualification._defaults(filt).values())):
        while isinstance(x.base, np.ndarray):
            x = x.base
        bases[id(x)] = x
    assert sum(x.nbytes for x in bases.values()) <= bound


def test_one_mp_entry_per_instance(counts, mp_calls):
    """The store keeps the mp-check's grids and mesh for the default
    ``a`` = 1 alone, the one ``classify`` checks: 20 other values of ``a``
    keep nothing, each building its mesh in one ``_r_log`` call, and the
    next default classify keeps its mp entry, which a later default
    mp-check reads without a call.  Before, the store kept the last ``a``'s
    entry, and one entry per distinct ``a`` before that."""
    filt = counted_filter(counts, "tikhonov")
    rho = sq.order_fn("alpha")
    for a in np.geomspace(0.05, 0.95, 20):
        qualification.check_mp_qualification(filt, rho, a)
    kept = qualification._defaults(filt)
    assert kept == {}
    sq.classify(filt, rho)
    assert mp_calls == [1] * 21
    assert sorted(kept) == ["classical", "mesh", "mp", "window"]
    qualification.check_mp_qualification(filt, rho)
    assert mp_calls == [1] * 21 + [0]


def test_replaced_filter_builds_its_own_defaults(counts):
    """A ``dataclasses.replace`` copy gets its own cache entry, and its
    first classify builds the s_rho mesh again."""
    filt = counted_filter(counts, "tikhonov")
    rho = sq.order_fn("alpha")
    sq.classify(filt, rho, companions=False)
    before = counts["r_log"]
    sq.classify(filt, rho, companions=False)
    warm = counts["r_log"] - before
    copy = dataclasses.replace(filt)
    assert qualification._defaults(copy) is not qualification._defaults(filt)
    before = counts["r_log"]
    sq.classify(copy, rho, companions=False)
    assert counts["r_log"] - before == warm + 1


def test_store_entry_lives_exactly_as_long_as_its_instance():
    """The store holds no reference to an instance: once the caller drops
    a classified instance it is collected, and its entry goes with it."""
    filt = sq.get_filter("ex9_osc")
    sq.classify(filt, sq.order_fn("exp(-1/sqrt(alpha))"))
    kept = qualification._defaults(filt)
    assert "mesh" in kept
    ref = weakref.ref(filt)
    del filt
    gc.collect()
    assert ref() is None
    assert all(entry is not kept for entry in qualification._STORE.values())


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
    pass and the double-resolution refinement gave them: on each row the
    least q sits at a window edge, which the scan reads exactly."""
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


@pytest.mark.parametrize("fid,order,level,calls", [
    ("tsvd", "alpha", "weak", 3),
    ("tikhonov", "alpha^3", "none", 3),  # all four weak-pair candidates fail
    ("tikhonov", "alpha", "optimal", 4),
])
def test_warm_classify_evaluates_ln_rho_once_per_grid(monkeypatch, fid, order, level, calls):
    """A warm classify evaluates the order once on each grid it reads: the
    tail of the s_rho mesh, shared by the table and every weak-pair
    candidate; the order-source subgrid, shared by rho and its window
    h = rho; and the mp-check's alpha and lambda grids.  The table and
    each candidate evaluated it on the tail, and the check twice on the
    subgrid: 4, 7 and 5 calls on these rows before."""
    filt, rho = sq.get_filter(fid), sq.order_fn(order)
    sq.classify(filt, rho)
    log_at = type(rho).log_at
    made = []

    def counted_log_at(self, x):
        if self is rho:
            made.append(np.size(x))
        return log_at(self, x)

    monkeypatch.setattr(type(rho), "log_at", counted_log_at)
    assert sq.classify(filt, rho).level == level
    assert len(made) == calls
