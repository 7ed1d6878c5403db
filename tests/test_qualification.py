"""Source-function estimation, pair predicates, and the level classifier."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specqual as sq
from specqual.limits import CAP, FLOOR, TAIL_FRACTION, _row_limit, sat_exp, tail_limit, tail_of
from specqual import qualification
from specqual.filters import residual_value
from specqual.qualification import (_construct_certificate, _windowed_certificate,
                                    srho_table)

EX4_GRID = np.geomspace(1e-7, 0.15, 448)


def _x_tail(xs, lv):
    """The Tail of the grid alpha = e^(-x) and the columns of ``lv`` at
    its points."""
    t = tail_of(np.exp(-xs))
    return t, lv[..., t.index]


class TestTailLimit:
    """The block-trend estimator on synthetic sequences."""

    def test_flat_sequence(self):
        xs = np.linspace(1.0, 20.0, 400)
        est = tail_limit(*_x_tail(xs, np.log(np.full(400, 3.0))), "liminf")
        assert est.value == pytest.approx(3.0)
        assert est.stabilized

    def test_one_over_x_drift_is_extrapolated(self):
        xs = np.linspace(1.0, 16.0, 600)
        vals = 2.0 + 5.0 / xs
        est = tail_limit(*_x_tail(xs, np.log(vals)), "liminf")
        assert est.value == pytest.approx(2.0, rel=1e-3)
        assert est.stabilized and est.trend == "down"
        assert est.grid_meta["extrapolated"]

    def test_growing_sequence_not_stabilized(self):
        xs = np.linspace(1.0, 16.0, 600)
        vals = np.exp(0.5 * xs)
        est = tail_limit(*_x_tail(xs, np.log(vals)), "limsup")
        assert not est.bounded

    def test_literal_divergence_reports_infinity(self):
        xs = np.linspace(1.0, 16.0, 400)
        lv = np.full(400, np.inf)
        est = tail_limit(*_x_tail(xs, lv), "liminf")
        assert est.value == math.inf and est.stabilized

    def test_tail_bracket_invariant(self):
        xs = np.linspace(1.0, 16.0, 400)
        rng = np.random.default_rng(7)
        vals = 1.0 + 0.01 * rng.random(400)
        est = tail_limit(*_x_tail(xs, np.log(vals)), "limsup")
        assert est.tail_min <= est.value <= est.tail_max

    def test_infinity_only_past_cap(self):
        xs = np.linspace(1.0, 16.0, 400)
        vals = np.full(400, 1e10)  # large but below the divergence cap
        est = tail_limit(*_x_tail(xs, np.log(vals)), "liminf")
        assert math.isfinite(est.value)

    @pytest.mark.parametrize("cap", [CAP, 1e6])
    def test_saturation_past_the_cap_diverges(self, cap):
        """A geometric climb whose Aitken limit lies past the cap reads as
        divergent, since the cap counts as +inf; one whose limit lies
        below the cap saturates to that limit."""
        xs = np.linspace(1.0, 41.0, 401)
        t = tail_of(np.exp(-xs))
        tau = 5.0 / math.log(1.0 / 0.3)
        climb = 3e-3 * cap * np.exp((41.0 - t.xs) / tau)
        est = tail_limit(t, np.log(1.001 * cap - climb), "limsup", cap=cap)
        assert (est.value, est.trend, est.stabilized) == (math.inf, "up", False)
        assert not est.bounded
        est = tail_limit(t, np.log(0.999 * cap - climb), "limsup", cap=cap)
        assert est.value == pytest.approx(0.999 * cap) and est.trend == "saturating"
        assert est.bounded

    def test_overflowing_extrapolation_is_not_stabilized(self):
        """A drift down whose Richardson step overflows (m4 * x4 is inf,
        m3 * x3 is not; only a cap near the largest double lets it past
        the divergence exit) has no finite limit, so it cannot agree with
        the estimate one block earlier: it is not stabilized and not
        positive."""
        est = _row_limit("liminf", [8.2e307, 8e307, 7e307], [1.5, 2.0, 3.0], 0.0, 9.0, {},
                         1e308)
        assert (est.value, est.trend, est.stabilized) == (math.inf, "down", False)
        assert not est.positive


def _fields(est):
    """Every field of an estimate, as exact text (repr keeps each double's bits)."""
    return repr((est.kind, est.value, est.tail_min, est.tail_max, est.stabilized,
                 est.grid_meta))


# one sequence: ln q = level + c * shape(x), with +-inf written at some points
_SHAPES = {
    "drift": lambda x: 1.0 / x,
    "geometric": lambda x: np.exp(-x / 4.0),
    "linear": lambda x: x / 10.0,
    "oscillating": np.sin,
}
_ROW = st.tuples(
    st.floats(-5.0, 5.0),
    st.floats(-30.0, 30.0),
    st.sampled_from(sorted(_SHAPES)),
    st.lists(st.tuples(st.integers(0, 10_000), st.sampled_from([np.inf, -np.inf])),
             max_size=6),
)


def _sequences(steps, rows):
    """An ascending x grid from its steps, and one row of ln q per _ROW."""
    xs = 1.0 + np.concatenate([[0.0], np.cumsum(steps)])
    lv = np.empty((len(rows), xs.size))
    for i, (level, c, shape, infs) in enumerate(rows):
        lv[i] = level + c * _SHAPES[shape](xs)
        for pos, val in infs:
            lv[i, pos % xs.size] = val
    return xs, lv


def _masked_blocks(t, lv, kind, n_blocks):
    """Block extrema by their definition: closed blocks [lo, hi] over the
    tail ``t``, each picked out of ``lv`` (one value per tail point) with a
    boolean mask on ``t.xs``."""
    edges = np.linspace(t.edge, t.xs[-1], n_blocks + 1)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        seg = lv[(t.xs >= lo) & (t.xs <= hi)]
        if seg.size == 0:
            out.append(None)
        else:
            out.append(sat_exp(float(np.min(seg) if kind == "liminf" else np.max(seg))))
    return out


class TestBatchedTailLimit:
    """A 2-d call is the per-row 1-d calls, field for field."""

    @settings(max_examples=80, deadline=None)
    @given(
        steps=st.lists(st.floats(0.01, 1.0), min_size=7, max_size=90),
        rows=st.lists(_ROW, min_size=1, max_size=5),
        kind=st.sampled_from(["liminf", "limsup"]),
        n_blocks=st.sampled_from([4, 5]),
    )
    def test_rows_match_single_calls(self, steps, rows, kind, n_blocks):
        t, lv = _x_tail(*_sequences(steps, rows))
        batched = tail_limit(t, lv, kind, n_blocks=n_blocks)
        assert isinstance(batched, list) and len(batched) == len(rows)
        for i, est in enumerate(batched):
            single = tail_limit(t, lv[i], kind, n_blocks=n_blocks)
            assert _fields(est) == _fields(single)
            assert est.grid_meta["blocks"] == _masked_blocks(t, lv[i], kind, n_blocks)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.floats(0.01, 1.0), min_size=7, max_size=90),
        rows=st.lists(_ROW, min_size=1, max_size=5),
        kind=st.sampled_from(["liminf", "limsup"]),
        n_blocks=st.sampled_from([4, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shuffled_grid_gives_the_same_estimates(self, steps, rows, kind, n_blocks,
                                                    seed):
        """A permuted alpha grid, with its values permuted alike, gives the
        same tail and field-identical estimates; the tail is every x at or
        past its edge, TAIL_FRACTION of the way across the grid."""
        xs, lv = _sequences(steps, rows)
        alphas = np.exp(-xs)
        perm = np.random.default_rng(seed).permutation(xs.size)
        t, shuffled = tail_of(alphas), tail_of(alphas[perm])
        grid_xs = -np.log(alphas)
        edge = grid_xs[0] + TAIL_FRACTION * (grid_xs[-1] - grid_xs[0])
        assert t.edge == shuffled.edge == edge
        assert np.array_equal(t.xs, grid_xs[grid_xs >= edge])
        assert np.array_equal(perm[shuffled.index], t.index)
        assert np.array_equal(shuffled.alphas, t.alphas)
        est = tail_limit(t, lv[:, t.index], kind, n_blocks=n_blocks)
        est_shuffled = tail_limit(shuffled, lv[:, perm][:, shuffled.index], kind,
                                  n_blocks=n_blocks)
        assert [_fields(e) for e in est_shuffled] == [_fields(e) for e in est]

    @pytest.mark.parametrize("call", [
        lambda: tail_of(np.geomspace(1e-6, 0.5, 7)),
        lambda: tail_of(np.geomspace(1e-6, 0.5, 40).reshape(4, 10)),
        lambda: tail_limit(tail_of(np.exp(-np.linspace(1.0, 16.0, 40))),
                           np.zeros((3, 19)), "liminf"),
    ], ids=["seven-points", "2-d-grid", "width-mismatch"])
    def test_malformed_input_rejected(self, call):
        with pytest.raises(ValueError):
            call()


def _reference_srho(filt, rho, lams, alphas):
    """One 1-d tail_limit call per lambda."""
    t = tail_of(alphas)
    out = {}
    for lam in lams:
        with np.errstate(all="ignore"):
            lv = np.asarray(rho.log_at(alphas)) - filt._r_log(alphas, np.float64(lam))
        out[float(lam)] = tail_limit(t, lv[t.index], "liminf")
    return out


def _reference_pair_limsup(filt, s, rho, lams, alphas):
    """One 1-d tail_limit call per lambda."""
    t = tail_of(alphas)
    out = {}
    for lam in lams:
        with np.errstate(all="ignore"):
            lq = (float(np.ravel(s.log_at(np.float64(lam)))[0])
                  + np.asarray(filt._r_log(alphas, np.float64(lam)))
                  - np.asarray(rho.log_at(alphas)))
        out[float(lam)] = tail_limit(t, lq[t.index], "limsup")
    return out


# (filter fixture, order fixture, source fixture, alpha grid)
BATCH_CASES = [
    ("ex8", "rho_alpha", "s_sqrt", None),
    ("ex9", "rho_exp_sqrt", "s_sqrt", None),
    ("ex4", "rho_log", "s_ratio", EX4_GRID),
]


class TestBatchedEstimators:
    """The batched estimators equal a loop of 1-d estimates, bit for bit."""

    @pytest.mark.parametrize("filt,rho,s,grid", BATCH_CASES,
                             ids=[case[0] for case in BATCH_CASES])
    def test_srho_table_matches_loop(self, request, filt, rho, s, grid):
        filt, rho = request.getfixturevalue(filt), request.getfixturevalue(rho)
        alphas = sq.default_alpha_grid(filt) if grid is None else grid
        lams = sq.default_lambda_grid(filt)
        table = srho_table(filt, rho, lams, alphas)
        reference = _reference_srho(filt, rho, lams, alphas)
        assert list(table) == list(reference)
        for lam, est in table.items():
            assert _fields(est) == _fields(reference[lam])

    @pytest.mark.parametrize("filt,rho,s,grid", BATCH_CASES,
                             ids=[case[0] for case in BATCH_CASES])
    def test_weak_pair_matches_loop(self, request, filt, rho, s, grid):
        filt, rho, s = (request.getfixturevalue(name) for name in (filt, rho, s))
        alphas = sq.default_alpha_grid(filt) if grid is None else grid
        lams = sq.default_lambda_grid(filt)
        verdict = sq.check_weak_pair(filt, s, rho, lams, alphas)
        reference = _reference_pair_limsup(filt, s, rho, lams, alphas)
        estimates = verdict.detail["estimates"]
        assert list(estimates) == list(reference)
        for lam, est in estimates.items():
            assert _fields(est) == _fields(reference[lam])
        unbounded = [lam for lam, est in reference.items() if not est.bounded]
        assert verdict.witnesses == [(float(np.min(alphas)), lam) for lam in unbounded]
        if verdict.holds:
            assert verdict.bound_k == max(est.tail_max for est in reference.values())


# every catalog filter: ex8 at k = 1 and 2, landweber at mu = 0.5, the rest
# at their defaults
CLASSICAL_FILTERS = [
    (fid, params)
    for fid in sq.list_filters()
    for params in {"ex8_osc": [{"k": 1.0}, {"k": 2.0}],
                   "landweber": [{"mu": 0.5}]}.get(fid, [{}])
]
MU_GRIDS = [None, np.array([3.0, 0.25, 1.5]), np.array([0.5])]


def _reference_classical(filt, mu_grid, lams, alphas):
    """The classical order from one fresh full (lambda x alpha) mesh and
    one tail_limit call per mu, bracketed by its definition: low is the
    last mu that passes before the first one that fails, high that one."""
    t = tail_of(alphas)
    with np.errstate(all="ignore"):
        rlog = filt._r_log(alphas, lams[:, None])
    passed = []
    for mu in mu_grid:
        lq = mu * np.log(lams)[:, None] + rlog - mu * np.log(alphas)
        passed.append(all(est.bounded for est in
                          tail_limit(t, lq[:, t.index], "limsup", n_blocks=5)))
    fails = [float(mu) for mu, ok in zip(mu_grid, passed) if not ok]
    high = fails[0] if fails else None
    first_fail = passed.index(False) if fails else len(passed)
    low = float(mu_grid[first_fail - 1]) if first_fail else None
    return sq.ClassicalOrder(low=low, high=high, zero=not passed[0],
                             infinite=all(passed),
                             mu_grid=tuple(float(m) for m in mu_grid), passed=tuple(passed))


class TestClassicalOrderMesh:
    @pytest.mark.parametrize("fid", ["tikhonov", "ex4_log", "ex9_osc"])
    def test_matches_full_mesh_per_mu(self, fid):
        """The tail-only mesh, refilled per mu, passes the same mu as a
        fresh full (lambda x alpha) mesh per mu."""
        filt = sq.get_filter(fid)
        co = sq.estimate_classical_order(filt)
        lams = sq.default_lambda_grid(filt, per_decade=2)
        alphas = np.sort(qualification._deep_alpha_grid(filt))[::-1]
        t = tail_of(alphas)
        with np.errstate(all="ignore"):
            rlog = filt._r_log(alphas, lams[:, None])
        passed = []
        for mu in co.mu_grid:
            lq = mu * np.log(lams)[:, None] + rlog - mu * np.log(alphas)
            passed.append(all(est.bounded for est in
                              tail_limit(t, lq[:, t.index], "limsup", n_blocks=5)))
        assert co.passed == tuple(passed)

    @pytest.mark.parametrize("mu_grid", MU_GRIDS, ids=["default", "unsorted", "one-mu"])
    @pytest.mark.parametrize("fid,params", CLASSICAL_FILTERS,
                             ids=[f"{fid}{params}" for fid, params in CLASSICAL_FILTERS])
    def test_batch_matches_per_mu_loop(self, fid, params, mu_grid):
        """The one (mu x lambda) batch is the per-mu loop, field for field;
        an unsorted mu grid is bracketed as its ascending sort."""
        filt = sq.get_filter(fid, **params)
        co = sq.estimate_classical_order(filt, mu_grid)
        reference = _reference_classical(
            filt, qualification.default_mu_grid() if mu_grid is None else np.sort(mu_grid),
            sq.default_lambda_grid(filt, per_decade=2), qualification._deep_alpha_grid(filt))
        assert repr(co) == repr(reference)

    @pytest.mark.parametrize("fid,params", CLASSICAL_FILTERS,
                             ids=[f"{fid}{params}" for fid, params in CLASSICAL_FILTERS])
    def test_batch_matches_per_mu_loop_on_user_grids(self, fid, params):
        """A shallow, unsorted alpha grid (the estimator orders it itself).
        Its tail does not reach alpha << 1e-6, so for ex8 the lambda = 1e-6
        row still passes mu = 2 while the others fail: a mu passes only
        when every row of its block does."""
        filt = sq.get_filter(fid, **params)
        lams = np.array([1e-6, 0.03, 0.3, 0.9])
        alphas = np.random.default_rng(5).permutation(
            np.geomspace(1e-8, filt.alpha_max / 2, 400))
        co = sq.estimate_classical_order(filt, None, lams, alphas)
        reference = _reference_classical(filt, qualification.default_mu_grid(), lams, alphas)
        assert repr(co) == repr(reference)


def _reference_window_infima(filt, rho, s, h, lams, alphas):
    """Each per-alpha window infimum of the order-source check and the
    lambda it sits at, one alpha at a time: the 64-point geometric scan
    from max(h(alpha), 1e-300) to lambda_max, both ends included, then
    the family's dips that lie in the window, and the least ln q of the
    two reads (the scan's on a tie)."""
    lam_max = float(np.max(lams))
    sub = np.geomspace(np.min(alphas), np.max(alphas), min(96, alphas.size))
    log_lo, log_hi = np.maximum(h.log_at(sub), math.log(1e-300)), math.log(lam_max)
    infima, where = [], []
    for a, lo in zip(sub, log_lo):
        lam = np.exp(lo + np.linspace(0.0, 1.0, 64) * (log_hi - lo))
        with np.errstate(all="ignore"):
            q = s.log_at(lam) + filt._r_log(a, lam) - rho.log_at(a)
            if filt._dips is not None:
                ld, log_rd = filt._dips(a, lam)
                keep = (ld >= lam[0]) & (ld <= lam_max)
                lam = np.append(lam, ld[keep])
                q = np.append(q, s.log_at(ld[keep]) + log_rd[keep] - rho.log_at(a))
        infima.append(np.min(q))
        where.append(lam[np.argmin(q)])
    return sub, np.array(infima), np.array(where)


class TestWindowInfimum:
    @pytest.mark.parametrize("fid,params,order,source,lams,holds", [
        ("ex3_exp", {}, "exp(-1/alpha)", "lambda^0.5", None, True),
        ("ex3_exp", {}, "alpha", "lambda^0.5", None, False),
        ("ex8_osc", {"k": 1.0}, "exp(-1/alpha)", "lambda^0.05", np.geomspace(1e-2, 0.5, 6),
         True),
        ("ex9_osc", {}, "exp(-1/sqrt(alpha))", "lambda", None, False),
        ("ex10_osc", {}, "exp(-1/alpha)", "lambda^0.5", None, False),
    ], ids=["ex3-holds", "ex3-fails", "ex8-holds", "ex9-fails", "ex10-fails"])
    def test_least_of_the_scan_and_the_dips(self, monkeypatch, fid, params, order,
                                            source, lams, holds):
        """Every per-alpha infimum the check hands the tail estimator, its
        gamma and its witness are those of the scan and the dips rebuilt
        one alpha at a time, bit for bit.  The window h is rho."""
        filt = sq.get_filter(fid, **params)
        rho, s = sq.order_fn(order), sq.source_fn(source)
        lams = sq.default_lambda_grid(filt) if lams is None else lams
        infima = []
        tail = qualification.tail_limit

        def recorded_tail(t, values, kind, **kwargs):
            infima.append(np.array(values))
            return tail(t, values, kind, **kwargs)

        monkeypatch.setattr(qualification, "tail_limit", recorded_tail)
        verdict = sq.check_order_source_pair(filt, rho, s, rho, lams)
        sub, ref, where = _reference_window_infima(filt, rho, s, rho, lams,
                                                   sq.default_alpha_grid(filt))
        np.testing.assert_array_equal(infima[0], ref[tail_of(sub).index])
        worst = int(np.argmin(ref))
        if verdict.holds:
            assert verdict.gamma == sat_exp(float(ref[worst]))
        else:
            assert verdict.witnesses == [(float(sub[worst]), float(where[worst]))]
        assert verdict.holds == holds


class TestSourceEstimates:
    def test_tikhonov_recovers_linear_source(self, tikhonov, rho_alpha):
        est = sq.estimate_srho(tikhonov, rho_alpha, 2.0)
        assert est.value == pytest.approx(2.0, rel=0.01)
        assert est.stabilized

    def test_exponential_filter_recovers_rational_source(self, ex3, rho_exp):
        est = sq.estimate_srho(ex3, rho_exp, 1.0)
        assert est.value == pytest.approx(0.5, rel=0.01)

    def test_truncation_reports_infinite_source(self, tsvd, rho_alpha):
        est = sq.estimate_srho(tsvd, rho_alpha, 1.0)
        assert est.value == math.inf
        assert est.stabilized

    def test_log_filter_needs_extrapolation(self, ex4, rho_log):
        """Raw tail minima sit ~6x above the limit at the grid floor; the
        1/x correction recovers it to well under a percent."""
        est = sq.estimate_srho(ex4, rho_log, 0.01, EX4_GRID)
        assert est.value == pytest.approx(0.01 / 1.01, rel=0.005)
        assert est.stabilized

    def test_rejects_uncertified_order(self, tikhonov):
        bad = sq.certify_order_fn("1+alpha")
        with pytest.raises(sq.UncertifiedError):
            sq.estimate_srho(tikhonov, bad, 1.0)

    def test_rejects_nonpositive_lambda(self, tikhonov, rho_alpha):
        with pytest.raises(sq.QualificationError):
            sq.estimate_srho(tikhonov, rho_alpha, 0.0)


class TestWeakPairs:
    def test_tikhonov_linear_pair_bounded_by_one(self, tikhonov, s_lambda, rho_alpha):
        verdict = sq.check_weak_pair(tikhonov, s_lambda, rho_alpha)
        assert verdict.holds
        assert verdict.bound_k <= 1.0 + 1e-9

    def test_tikhonov_square_root_order_still_weak(self, tikhonov, s_lambda, rho_sqrt_alpha):
        assert sq.check_weak_pair(tikhonov, s_lambda, rho_sqrt_alpha).holds

    def test_log_filter_fails_weak_against_linear_order(self, ex4, s_lambda, rho_alpha):
        verdict = sq.check_weak_pair(ex4, s_lambda, rho_alpha,
                                     alpha_grid=EX4_GRID)
        assert not verdict.holds
        assert verdict.witnesses

    def test_witnesses_only_on_failure(self, tikhonov, s_lambda, rho_alpha):
        good = sq.check_weak_pair(tikhonov, s_lambda, rho_alpha)
        assert good.holds and not good.witnesses


class TestStrongPairs:
    def test_tikhonov_linear_pair_is_strong(self, tikhonov, s_lambda, rho_alpha):
        assert sq.check_strong_pair(tikhonov, s_lambda, rho_alpha).holds

    def test_square_root_order_never_strong(self, tikhonov, rho_sqrt_alpha,
                                            s_lambda, s_sqrt, s_ratio):
        """With the too-slow order the ratio vanishes for every source."""
        for s in (s_lambda, s_sqrt, s_ratio):
            assert not sq.check_strong_pair(tikhonov, s, rho_sqrt_alpha).holds

    def test_oscillatory_strong_pair(self, ex8, s_sqrt, rho_alpha):
        assert sq.check_strong_pair(ex8, s_sqrt, rho_alpha).holds

    def test_failed_weak_pair_is_named(self, tikhonov, s_sqrt):
        """alpha^2 is faster than tikhonov can reach, so the weak pair
        fails first and the strong verdict says so."""
        verdict = sq.check_strong_pair(tikhonov, s_sqrt, sq.order_fn("alpha^2"))
        assert not verdict.holds
        assert verdict.detail["failed"] == "weak"
        assert verdict.witnesses[0] == (1e-7, 0.01)

    def test_limsup_lands_at_one_for_tikhonov(self, tikhonov, s_lambda, rho_alpha):
        for lam in (0.01, 1.0, 10.0):
            verdict = sq.check_weak_pair(tikhonov, s_lambda, rho_alpha, np.array([lam]),
                                         sq.default_alpha_grid(tikhonov))
            est, = verdict.detail["estimates"].values()
            assert est.value == pytest.approx(1.0, rel=0.01)


class TestOrderSourcePairs:
    def test_tikhonov_gamma_one_half(self, tikhonov, rho_alpha, s_lambda):
        verdict = sq.check_order_source_pair(tikhonov, rho_alpha, s_lambda, rho_alpha)
        assert verdict.holds
        assert verdict.gamma >= 0.49

    def test_verdicts_do_not_depend_on_the_grid_order(self, ex4, rho_log, s_lambda):
        """ex4 x -1/ln(alpha), source lambda, h = rho: a permuted or reversed
        alpha grid gives the gamma of the grid in ascending order.  An alpha
        subgrid built from alphas[0] and alphas[-1] read 0.5342 and 0.5368
        on the two permutations.  The other tail-read verdicts are
        field-identical on a permuted grid."""
        grid = sq.default_alpha_grid(ex4)
        shuffled = [np.random.default_rng(seed).permutation(grid) for seed in (3, 5)]
        gammas = [sq.check_order_source_pair(ex4, rho_log, s_lambda, rho_log,
                                             alpha_grid=g).gamma
                  for g in [grid, *shuffled, grid[::-1]]]
        assert gammas == [gammas[0]] * 4
        assert gammas[0] == pytest.approx(0.5310210344216609, rel=1e-12)

        alpha = sq.order_fn("alpha")
        checks = [
            lambda g: srho_table(ex4, rho_log, alpha_grid=g),
            lambda g: sq.check_weak_pair(ex4, s_lambda, rho_log, alpha_grid=g),
            lambda g: sq.check_mp_qualification(ex4, rho_log, alpha_grid=g),
            lambda g: sq.check_mp_qualification(ex4, alpha, alpha_grid=g),
            lambda g: sq.precedes(alpha, rho_log, g),
            lambda g: sq.precedes(rho_log, alpha, g),
        ]
        for check in checks:
            expected = repr(check(grid))
            assert [repr(check(g)) for g in shuffled] == [expected] * 2

    def test_log_filter_gamma_one_half(self, ex4, rho_log, s_ratio):
        verdict = sq.check_order_source_pair(ex4, rho_log, s_ratio, rho_log,
                                             alpha_grid=EX4_GRID)
        assert verdict.holds
        assert verdict.gamma >= 0.49

    def test_oscillatory_dips_break_the_pair(self, ex8, rho_alpha, s_sqrt):
        verdict = sq.check_order_source_pair(ex8, rho_alpha, s_sqrt, rho_alpha)
        assert not verdict.holds
        assert verdict.witnesses

    def test_ex7_root_in_the_window_breaks_the_pair(self, ex7, rho_exp, s_lambda):
        """ex7's residual 1 - lambda c(alpha) vanishes at lambda = 1/c(alpha),
        about 1.09 alpha, inside every window from h = exp(-1/alpha), so each
        window infimum is 0.  No scan lambda lands on the root: read from
        the scan alone the pair held with gamma = 0.954.  The witness is
        the root at the smallest alpha."""
        verdict = sq.check_order_source_pair(ex7, rho_exp, s_lambda, rho_exp)
        assert not verdict.holds
        (alpha, lam), = verdict.witnesses
        assert alpha == pytest.approx(1e-7, rel=1e-12)
        assert lam == pytest.approx(1.0 / sq.eval_g(ex7, alpha, 0.0), rel=1e-15)
        assert abs(sq.eval_residual(ex7, alpha, lam).value) <= 1e-15

    def test_custom_root_in_the_window_breaks_the_pair(self, ex7, rho_exp, s_lambda):
        """ex7's own g as a custom family has no dip set, and no scan lambda
        lands on its root: read from the scan's values alone the pair held
        with gamma = 0.9536.  The sign of r flips between two scan lambdas
        around the root, which reads as a window infimum of 0; the witness
        is the scan lambda above the flip at the smallest alpha."""
        custom = sq.make_custom_filter("custom_ex7", ex7._g, ex7.alpha_max, ex7.h2_constant)
        verdict = sq.check_order_source_pair(custom, rho_exp, s_lambda, rho_exp)
        assert not verdict.holds
        (alpha, lam), = verdict.witnesses
        assert alpha == pytest.approx(1e-7, rel=1e-12)
        assert lam > 1.0 / sq.eval_g(ex7, alpha, 0.0)
        assert sq.eval_residual(custom, alpha, lam).sign == -1

    def test_custom_oscillatory_filter_has_no_verdict(self, ex8, tikhonov, rho_alpha,
                                                      s_sqrt, s_lambda):
        """A custom family has no dip set, and a lambda scan misses the
        dips of ex8's g, so the check raises instead of reporting a pair
        that holds; a non-oscillatory custom family still gets a verdict."""
        osc = sq.make_custom_filter("custom_osc", ex8._g, ex8.alpha_max,
                                    ex8.h2_constant, oscillatory=True)
        with pytest.raises(sq.QualificationError, match="dips unknown"):
            sq.check_order_source_pair(osc, rho_alpha, s_sqrt, rho_alpha)
        smooth = sq.make_custom_filter("custom_tikhonov", tikhonov._g,
                                       tikhonov.alpha_max, tikhonov.h2_constant)
        assert sq.check_order_source_pair(smooth, rho_alpha, s_lambda, rho_alpha).holds

    def test_dips_reach_the_top_of_the_window(self, monkeypatch, ex9, rho_exp_sqrt):
        """On the ex9 catalog check every per-alpha infimum is at most q at
        the largest phase root (k pi alpha)^(2/3) <= lambda_max, the lowest
        dip of the window.  Reading the root nearest lambda_max and dropping
        it when it lies above lambda_max missed that dip on 47 of 96 rows
        (ln r = -990 read at alpha = 1.63e-7, where the root gives -6.1e7)."""
        check, tail = qualification.check_order_source_pair, qualification.tail_limit
        calls, infima = [], []

        def recorded_check(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        def recorded_tail(t, values, kind, **kwargs):
            if np.ndim(values) == 1:  # the s_rho table is one 2-d call
                infima.append((t.alphas, np.array(values)))
            return tail(t, values, kind, **kwargs)

        monkeypatch.setattr(qualification, "check_order_source_pair", recorded_check)
        monkeypatch.setattr(qualification, "tail_limit", recorded_tail)
        sq.classify(ex9, rho_exp_sqrt, companions=False)
        assert len(calls) == len(infima) == 1
        _, rho, s, _, lambda_grid, _ = calls[0]
        (alphas, gam_log), = infima
        if lambda_grid is None:  # classify's default grid
            lambda_grid = sq.default_lambda_grid(ex9)
        lam_max = float(np.max(lambda_grid))
        k = np.floor(lam_max ** 1.5 / (math.pi * alphas))
        root = (k * math.pi * alphas) ** (2.0 / 3.0)
        k = np.where(root > lam_max, k - 1, k)
        root = (k * math.pi * alphas) ** (2.0 / 3.0)
        assert np.all(root <= lam_max)
        q_root = s.log_at(root) - root / alphas - rho.log_at(alphas)
        missed = gam_log > q_root + 1e-12 * np.abs(q_root)
        assert not np.any(missed), f"{missed.sum()} of {missed.size} rows miss the dip"


CLASSIFY_MATRIX = [
    ("tikhonov", {}, "alpha", None, "optimal"),
    ("tsvd", {}, "alpha", None, "weak"),
    ("tsvd", {}, "alpha^2", None, "weak"),
    ("ex3_exp", {}, "exp(-1/alpha)", None, "optimal"),
    ("ex4_log", {}, "-1/ln(alpha)", EX4_GRID, "optimal"),
    ("tikhonov", {}, "alpha^0.5", None, "weak"),
    ("ex4_log", {}, "(-ln(alpha))^(-0.5)", EX4_GRID, "weak"),
    ("ex7_piecewise", {}, "alpha", None, "weak"),
    ("ex8_osc", {"k": 1.0}, "alpha", None, "strong"),
    ("ex9_osc", {}, "exp(-1/sqrt(alpha))", None, "strong"),
    ("ex10_osc", {}, "-1/ln(alpha)", np.geomspace(1e-7, 0.5, 448), "strong"),
    ("tikhonov", {}, "alpha^2", None, "none"),
]


@pytest.fixture(scope="module")
def classify_reports():
    out = {}
    for fid, params, rho_text, grid, want in CLASSIFY_MATRIX:
        filt = sq.get_filter(fid, **params)
        rho = sq.order_fn(rho_text, grid)
        out[(fid, rho_text)] = (
            sq.classify(filt, rho, companions=False),
            want,
        )
    return out


class TestClassifier:
    def test_levels_match_theory(self, classify_reports):
        for (fid, rho_text), (report, want) in classify_reports.items():
            assert report.level == want, (fid, rho_text, report.level)

    def test_hierarchy_is_respected(self, classify_reports):
        """A report never claims a level without the lower levels' evidence."""
        for (fid, rho_text), (report, _) in classify_reports.items():
            if report.level == "optimal":
                assert report.evidence["strong"].holds
                assert report.evidence["optimal"].holds
            if report.level in ("strong", "optimal"):
                assert report.evidence["weak"].holds
            if report.level == "weak":
                assert report.evidence["weak"].holds
            if report.level == "none":
                assert not any(v.holds for v in report.evidence.values())

    def test_json_serialization_schema(self, classify_reports):
        report, _ = classify_reports[("tikhonov", "alpha")]
        doc = report.to_json_dict()
        assert doc["schema_version"] == 1
        assert doc["level"] == "optimal"
        assert {"lambda", "estimate", "stabilized"} <= set(doc["srho_table"][0])
        assert doc["evidence"]["optimal"]["holds"]

    def test_one_encoding_for_json_and_csv(self):
        """A non-finite float is the same text in JSON and CSV; a CSV cell
        is empty for null and lower-case for a boolean."""
        doc = {"t": (math.inf, [math.nan, np.float64(1.5)]), "n": None, "k": 3}
        assert qualification.jsonable(doc) == {"t": ["+inf", ["nan", 1.5]], "n": None, "k": 3}
        rows = [{"x": np.float64(0.5), "y": None, "ok": True},
                {"x": math.inf, "y": math.nan, "ok": False},
                {"x": -math.inf, "y": 3, "ok": False}]
        assert qualification.csv_text(rows) == "x,y,ok\n0.5,,true\n+inf,nan,false\n-inf,3,false\n"

    def test_a_record_is_not_a_json_value(self, classify_reports):
        """A record is a tuple, but jsonable raises TypeError on one, as
        json.dumps does, instead of printing the list of its fields."""
        report, _ = classify_reports[("tikhonov", "alpha")]
        est = next(iter(report.srho_table.values()))
        for record in (report, report.evidence["optimal"], est, sq.order_fn("alpha")):
            with pytest.raises(TypeError, match=type(record).__name__):
                qualification.jsonable({"doc": [record]})
        assert qualification.jsonable({"range": (1.0, math.inf)}) == {"range": [1.0, "+inf"]}

    def test_uncertified_order_raises(self, tikhonov):
        with pytest.raises(sq.UncertifiedError):
            sq.classify(tikhonov, sq.certify_order_fn("1+alpha"))

    @pytest.mark.parametrize("fid,params,order,lams,level,source", [
        # |r|/rho = sqrt(-ln alpha) / (1e13 (alpha + lambda)) tends to
        # infinity, so no source is weak.  The capped table fails; lambda held
        # (the search's second source) only because its ratio read ~6e-13,
        # under FLOOR.
        ("tikhonov", {}, "1e13*alpha*(-ln(alpha))^(-0.5)",
         np.geomspace(1e-3, 10.0, 30)[[9, 18, 25]], "none", None),
        # |r|/rho <= (e^(-lambda/alpha) + alpha^0.4 / sqrt(lambda)) /
        # (1.34e-13 alpha^0.25) tends to 0, so every source is weak.  With
        # lambda the ratio reads past CAP on the tail; the s_rho table's one
        # finite value scales it to O(1).
        ("ex8_osc", {"k": 0.4}, "1.34e-13*alpha^0.25+6.54e-09*exp(-1/alpha^0.5)",
         np.array([2.0433597178569416]), "weak", "capped s_rho"),
    ])
    def test_weak_fallback_reads_one_source(self, fid, params, order, lams, level, source):
        """A positive factor on s(lambda) cannot change whether
        s(lambda)|r|/rho stays bounded, so the fallback checks one source:
        the capped s_rho table when it has a finite positive value, lambda
        otherwise.  The first row read weak and the second read weak with
        lambda^0.5 when four sources were tried in turn."""
        filt = sq.get_filter(fid, **params)
        rho = sq.order_fn(order, sq.default_alpha_grid(filt))
        report = sq.classify(filt, rho, lams, companions=False)
        assert (report.level, report.source_label) == (level, source)


class TestObservationInvariants:
    def test_weak_pairs_transfer_to_slower_orders(self, tikhonov, ex3, s_lambda, s_ratio):
        """If (s, rho) is weak and rho precedes rho2, then (s, rho2) is weak."""
        combos = [
            (tikhonov, s_lambda, "alpha", "alpha^0.5"),
            (tikhonov, s_lambda, "alpha", "alpha^0.25"),
            (ex3, s_ratio, "exp(-1/alpha)", "alpha"),
            (ex3, s_ratio, "exp(-1/alpha)", "alpha^2"),
        ]
        for filt, s, lo_text, hi_text in combos:
            lo, hi = sq.order_fn(lo_text), sq.order_fn(hi_text)
            assert sq.precedes(lo, hi).holds
            assert sq.check_weak_pair(filt, s, lo).holds
            assert sq.check_weak_pair(filt, s, hi).holds

    def test_strong_sources_dominated_by_induced_source(self, tikhonov, ex8,
                                                        rho_alpha, s_lambda, s_sqrt):
        """Any strong-pair source stays within a constant of s_rho."""
        for filt, s, true_srho in ((tikhonov, s_lambda, lambda l: l),
                                   (ex8, s_sqrt, lambda l: math.sqrt(l))):
            table = srho_table(filt, rho_alpha)
            ratios = [s.at(lam) / est.value for lam, est in table.items()
                      if math.isfinite(est.value)]
            assert max(ratios) < CAP

    def test_induced_source_uniqueness(self, tikhonov, ex3, ex4,
                                       rho_alpha, rho_exp, rho_log):
        """The tabulated induced source matches the closed form it must
        be equivalent to, uniformly within tight constants."""
        cases = [
            (tikhonov, rho_alpha, None, lambda l: l),
            (ex3, rho_exp, None, lambda l: l / (1 + l)),
            (ex4, rho_log, EX4_GRID, lambda l: l / (1 + l)),
        ]
        for filt, rho, grid, s_true in cases:
            table = srho_table(filt, rho, alpha_grid=grid)
            ratios = np.array([est.value / s_true(lam) for lam, est in table.items()])
            assert np.max(ratios) / np.min(ratios) < 1.05
            assert np.all((0.9 < ratios) & (ratios < 1.1))


class TestOscillatorySignature:
    def test_limsup_near_one_liminf_near_zero(self, ex8, rho_alpha):
        """Strong-not-optimal families: the pair ratio keeps touching its
        upper envelope while dipping toward zero along the sin roots."""
        table = srho_table(ex8, rho_alpha)
        lams = np.array(sorted(table))
        s_tab = sq.TabulatedSource(lambdas=lams,
                                   log_values=np.log([table[l].value for l in lams]))
        alphas = sq.default_alpha_grid(ex8)
        lam = 1.0
        lq = (float(s_tab.log_at(lam))
              + np.asarray(ex8._r_log(alphas, np.float64(lam)))
              - np.asarray(rho_alpha.log_at(alphas)))
        t = tail_of(alphas)
        up = tail_limit(t, lq[t.index], "limsup")
        dn = tail_limit(t, lq[t.index], "liminf")
        assert 0.9 <= up.value <= 1.1
        assert dn.value < 0.1


class TestClassicalOrder:
    def test_tikhonov_brackets_one(self, tikhonov):
        co = sq.estimate_classical_order(tikhonov)
        assert (co.low, co.high) == (1.0, 2.0)
        assert not co.zero and not co.infinite

    def test_piecewise_brackets_one_but_is_not_strong(self, ex7):
        co = sq.estimate_classical_order(ex7)
        assert co.low == 1.0 and co.high == 2.0
        report = sq.classify(ex7, sq.order_fn("alpha"), companions=False)
        assert report.level == "weak"

    def test_exponential_filter_infinite(self, ex3):
        assert sq.estimate_classical_order(ex3).infinite

    def test_log_filter_zero(self, ex4):
        assert sq.estimate_classical_order(ex4).zero

    def test_residual_free_of_alpha(self):
        """g = 1/(2 lambda) keeps r = 1/2 as alpha -> 0, from a kernel whose
        output does not broadcast over alpha: no mu passes, and the
        mp-check reads the same on the grid in either order."""
        half = sq.make_custom_filter("half_inverse", lambda a, lm: 0.5 / lm, 1.0, 1.0)
        assert sq.estimate_classical_order(half).zero
        grid = np.geomspace(1e-7, 0.5, 400)
        rho = sq.order_fn("alpha")
        verdict = sq.check_mp_qualification(half, rho, alpha_grid=grid)
        assert not verdict.passes
        reversed_grid = sq.check_mp_qualification(half, rho, alpha_grid=grid[::-1])
        assert repr(reversed_grid) == repr(verdict)  # repr: h_at_alpha_min is nan

    @pytest.mark.parametrize("mu_grid", [[4.0, 2.0, 1.0, 0.5], [2.0, 0.5, 4.0, 1.0]])
    def test_bracket_ignores_mu_order(self, tikhonov, mu_grid):
        """A mu grid in any order gives the bracket of its ascending sort;
        read in the given order they gave low None and high 4.0 or 2.0,
        both flagged zero, for tikhonov, whose classical order is 1."""
        co = sq.estimate_classical_order(tikhonov, mu_grid)
        assert (co.low, co.high, co.zero, co.infinite) == (1.0, 2.0, False, False)
        assert co.mu_grid == (0.5, 1.0, 2.0, 4.0)
        assert co.passed == (True, True, False, False)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
    def test_oscillatory_bracket_tracks_k(self, k):
        co = sq.estimate_classical_order(sq.get_filter("ex8_osc", k=k))
        assert (co.low, co.high) == (k, 2 * k)


def _suffix_max_certificate(R, lrho, lams) -> dict:
    """``_windowed_certificate`` as it read the window through the suffix
    maxima of each row of ``R``: the reference the certificate must match."""
    with np.errstate(all="ignore"):
        suffix_max = np.flip(np.maximum.accumulate(np.flip(R, axis=1), axis=1), axis=1)
    ok = suffix_max <= lrho[:, None] + 1e-9
    h_vals = np.where(np.any(ok, axis=1), lams[np.argmax(ok, axis=1)], np.nan)
    found = np.isfinite(h_vals)
    holds = bool(np.all(found[: max(len(lrho) // 2, 1)]))
    vanishing = False
    if holds:
        lo = h_vals[np.nonzero(found)[0][0]]
        vanishing = bool(lo <= lams[min(max(1, len(lams) // 5), len(lams) - 1)])
    return {"holds": holds and vanishing, "h_at_alpha_min": float(h_vals[0]),
            "coverage": float(np.mean(found))}


class TestIncreasingWeightCheck:
    def test_tikhonov_passes_with_tight_gamma(self, tikhonov, rho_alpha):
        verdict = sq.check_mp_qualification(tikhonov, rho_alpha)
        assert verdict.passes
        assert verdict.gamma <= 1.01

    def test_showalter_fails_with_large_growth(self, showalter, rho_exp_sqrt):
        verdict = sq.check_mp_qualification(showalter, rho_exp_sqrt)
        assert not verdict.passes
        assert verdict.growth > 100.0
        assert verdict.witness_alpha is not None

    def test_showalter_companion_certificate_holds(self, showalter, rho_exp_sqrt):
        verdict = sq.check_mp_qualification(showalter, rho_exp_sqrt)
        assert verdict.weak_certificate["holds"]

    def test_landweber_companion_certificate(self, landweber):
        rho = sq.order_fn("(1-0.5*sqrt(alpha))^(1/alpha)")
        verdict = sq.check_mp_qualification(landweber, rho)
        assert verdict.weak_certificate["holds"]

    def test_one_point_lambda_grid_gets_a_certificate(self, showalter, rho_exp_sqrt):
        """On lambda = {0.05} the ratio exp(-0.05/alpha + 1/sqrt(alpha) -
        1/sqrt(0.05)) falls to 0, so the check passes.  The certificate's
        reference lambda is clamped to the grid, so a one-column mesh gives
        a certificate, not an IndexError."""
        lams = np.array([0.05])
        assert sq.check_mp_qualification(showalter, rho_exp_sqrt, lambda_grid=lams).passes
        alphas = np.geomspace(1e-7, 0.5, 448)
        with np.errstate(all="ignore"):
            R = showalter._r_log(alphas[:, None], lams)
        certificate = _windowed_certificate(R, rho_exp_sqrt.log_at(alphas), lams)
        assert certificate["holds"]
        assert certificate["h_at_alpha_min"] == 0.05

    def test_verdict_does_not_depend_on_grid_order(self, showalter, rho_exp_sqrt):
        """The companion certificate reads the small-alpha half of the grid
        and h at the smallest alpha in whatever order the grid comes.  Read
        by index, a descending grid gave holds = false and h = 1.0."""
        g = np.geomspace(1e-7, 1.0, 448)
        want = sq.check_mp_qualification(showalter, rho_exp_sqrt, alpha_grid=g)
        assert want.weak_certificate["holds"]
        assert want.weak_certificate["h_at_alpha_min"] == pytest.approx(3.1623e-4, rel=1e-4)
        shuffled = np.random.default_rng(3).permutation(g)
        for grid in (g[::-1], shuffled):
            got = sq.check_mp_qualification(showalter, rho_exp_sqrt, alpha_grid=grid)
            assert got.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("fid,order,grid", [
        ("ex4_log", "-1/ln(alpha)", EX4_GRID),
        ("ex4_log", "(-ln(alpha))^(-0.5)", EX4_GRID),
        ("ex9_osc", "exp(-1/sqrt(alpha))", None),
        ("ex10_osc", "-1/ln(alpha)", np.geomspace(1e-7, 0.5, 448)),
    ])
    def test_certificate_matches_suffix_max_reference_on_catalog(self, fid, order, grid):
        """The catalog rows whose mp-check fails, on the kept mp mesh."""
        filt, rho = sq.get_filter(fid), sq.order_fn(order, grid)
        assert not sq.check_mp_qualification(filt, rho).passes
        lams, alphas, _, R = qualification._defaults(filt)["mp"]
        with np.errstate(all="ignore"):
            lrho = rho.log_at(alphas)
        got = _windowed_certificate(R.T, lrho, lams)
        assert repr(got) == repr(_suffix_max_certificate(R.T, lrho, lams))

    def test_certificate_matches_suffix_max_reference_on_random_meshes(self):
        """Seeded meshes, mostly decreasing in lambda, with nan and +-inf in
        ln|r| and nan and +-inf in ln rho; the dicts must print alike."""
        rng = np.random.default_rng(26)
        seen = set()
        for _ in range(600):
            n_alpha, n_lam = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            lams = np.geomspace(10.0 ** -rng.uniform(1, 6), 10.0 ** rng.uniform(-1, 2), n_lam)
            alphas = np.geomspace(1e-7, 0.5, n_alpha)
            R = (rng.normal(0, 3) - rng.uniform(0, 2) * np.log(lams)
                 + rng.normal(0, 10.0 ** rng.uniform(-3, 1), (n_alpha, n_lam)))
            lrho = rng.normal(0, 3) + rng.uniform(0, 2) * np.log(alphas) + rng.normal(0, 1)
            for x, p in ((R, rng.uniform(0, 0.1)), (lrho, rng.uniform(0, 0.2))):
                hit = rng.random(x.shape) < p
                x[hit] = rng.choice([math.nan, math.inf, -math.inf], int(hit.sum()))
            got = _windowed_certificate(R, lrho, lams)
            assert repr(got) == repr(_suffix_max_certificate(R, lrho, lams))
            seen.add((got["holds"], 0 < got["coverage"] < 1))
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_landweber_one_point_default_grid(self):
        """mu = 9000 puts the top of the default lambda grid, 0.95/mu, within
        one grid step of its floor 1e-4: a one-point grid."""
        verdict = sq.check_mp_qualification(sq.get_filter("landweber", mu=9000.0),
                                            sq.order_fn("alpha"))
        assert verdict.passes or verdict.weak_certificate["h_at_alpha_min"] == 1e-4

    @pytest.mark.parametrize("rho_text", ["alpha", "alpha^2", "exp(-1/alpha)"])
    def test_truncation_passes_any_order(self, tsvd, rho_text):
        assert sq.check_mp_qualification(tsvd, sq.order_fn(rho_text)).passes

    @pytest.mark.parametrize("rho_text", ["alpha", "alpha^0.25", "alpha^0.5", "alpha^2",
                                          "exp(-1/sqrt(alpha))"])
    def test_exponential_filter_passes_falling_ratio(self, ex3, rho_text):
        """r = (1+lm) e^(-1/alpha) / lm for ex3_exp, so the ratio falls to 0.
        The median rule read the drop as a 1e304-fold growth at the grid
        median alpha = 3.28e-4 and failed all five."""
        assert sq.check_mp_qualification(ex3, sq.order_fn(rho_text)).passes

    @pytest.mark.parametrize("fid,rho_text", [
        ("tsvd", "alpha"), ("ex3_exp", "alpha"), ("ex7_piecewise", "alpha"),
        ("ex8_osc", "alpha"), ("tikhonov", "alpha^0.5"), ("showalter", "alpha")])
    def test_passing_gamma_bounds_the_ratio_at_every_alpha(self, fid, rho_text):
        """gamma bounds sup_lm |r_alpha(lm)| rho(lm) / rho(alpha) on the
        whole alpha grid, not only on its small-alpha half (where ex3_exp
        read gamma = 0.0 while the ratio reached 0.557)."""
        filt, rho = sq.get_filter(fid), sq.order_fn(rho_text)
        # the check's default grids on (0, 1]
        top = min(1.0, filt.alpha_max * (1 - 1e-12))
        alphas = np.geomspace(1e-7, top, int(64 * math.log10(top / 1e-7)))
        lams = np.geomspace(1e-4, 1.0, 65)
        verdict = sq.check_mp_qualification(filt, rho)
        assert verdict.passes
        assert verdict == sq.check_mp_qualification(filt, rho, 1.0, lams, alphas)
        with np.errstate(all="ignore"):
            r = np.abs(residual_value(filt, alphas[:, None], lams))
        ratio = np.max(r * rho.at(lams), axis=1) / rho.at(alphas)
        assert np.all(ratio <= verdict.gamma * (1 + 1e-12))

    @pytest.mark.parametrize("fid,rho_text,gamma", [
        ("showalter", "alpha", math.exp(-1.0)),
        ("tikhonov", "alpha^0.5", 0.5),
        ("tikhonov", "alpha^0.25", 0.25 ** 0.25 * 0.75 ** 0.75),
    ], ids=["showalter", "tikhonov-0.5", "tikhonov-0.25"])
    def test_passing_gamma_is_the_closed_form_supremum(self, fid, rho_text, gamma):
        """sup e^(-lm/alpha) lm/alpha = 1/e, and tikhonov's
        sup (alpha/(alpha+lm)) (lm/alpha)^nu = nu^nu (1-nu)^(1-nu), both at
        lm/alpha fixed, which the grids sample."""
        verdict = sq.check_mp_qualification(sq.get_filter(fid), sq.order_fn(rho_text))
        assert verdict.passes
        assert verdict.gamma == pytest.approx(gamma, rel=1e-6)

    def test_tikhonov_growth_is_the_grid_span(self, tikhonov):
        """For rho = alpha^2 the sup over lm <= 1 sits at lm = 1, so the
        ratio is 1/(alpha(1+alpha)): 1/2 at the top alpha ~ 1 and largest
        at alpha_min = 1e-7, so the growth is 2/(alpha_min(1+alpha_min))."""
        verdict = sq.check_mp_qualification(tikhonov, sq.order_fn("alpha^2"))
        alpha_min = 1e-7
        assert not verdict.passes
        assert verdict.witness_alpha == alpha_min
        assert verdict.growth == pytest.approx(2.0 / (alpha_min * (1.0 + alpha_min)),
                                               rel=1e-6)


# the catalog filters at their defaults, times the orders of the mp probe
MP_ORDERS = ["alpha", "alpha^0.5", "alpha^2", "alpha^0.25", "exp(-1/alpha)",
             "exp(-1/sqrt(alpha))", "-1/ln(alpha)"]


def test_mp_qualification_implies_weak_level():
    """Mathe-Pereverzev qualification is weak qualification's special case:
    whenever the mp-check passes, classify gives at least weak."""
    orders = {text: sq.order_fn(text) for text in MP_ORDERS}
    passing = 0
    for fid in sq.list_filters():
        filt = sq.get_filter(fid)
        for text, rho in orders.items():
            if not sq.check_mp_qualification(filt, rho).passes:
                continue
            passing += 1
            report = sq.classify(filt, rho, companions=False)
            assert report.level != "none", (fid, text)
    assert passing >= 33


# powers, exponentials and logs, for the relations between verdicts
RELATION_ORDERS = [*MP_ORDERS, "(-ln(alpha))^(-1/2)"]


def test_weak_or_better_is_upward_closed_under_precedes():
    """If rho1 precedes rho2 (rho1 <= C rho2 toward 0) and rho1 is weak or
    better, so is rho2: s|r|/rho2 <= C s|r|/rho1 stays bounded."""
    orders = {text: sq.order_fn(text) for text in RELATION_ORDERS}
    pairs = [(lo, hi) for lo in orders for hi in orders
             if lo != hi and sq.precedes(orders[lo], orders[hi]).holds]
    checked = 0
    for fid in sq.list_filters():
        filt = sq.get_filter(fid)
        weak = {text for text, rho in orders.items()
                if sq.classify(filt, rho, companions=False).level != "none"}
        checked += sum(lo in weak for lo, _ in pairs)
        assert [(lo, hi) for lo, hi in pairs if lo in weak and hi not in weak] == [], fid
    assert checked >= 100


# rho -> c rho and rho -> rho (1 + alpha)^(+-1) keep rho's equivalence class
EQUIVALENT_FORMS = ["2*({})", "({})/3", "({})*(1+alpha)", "({})/(1+alpha)"]


@pytest.mark.parametrize("fid,params,rho_text,grid,want", CLASSIFY_MATRIX,
                         ids=[f"{row[0]}-{row[2]}" for row in CLASSIFY_MATRIX])
def test_level_is_invariant_under_equivalent_orders(fid, params, rho_text, grid, want):
    filt = sq.get_filter(fid, **params)
    levels = [sq.classify(filt, sq.order_fn(form.format(rho_text), grid),
                          companions=False).level for form in EQUIVALENT_FORMS]
    assert levels == [want] * len(EQUIVALENT_FORMS)


def test_classical_order_is_the_mp_order_for_powers():
    """For rho = alpha^mu the mp qualification is the classical one: mu
    passes the classical probe exactly when the mp-check passes with
    alpha^mu, on every catalog filter.  ex8_osc at k = 0.4 separates the
    two (the probe bounds each fixed lambda, not the sup over lambda), so
    it is not among the defaults probed here."""
    mismatches = []
    for fid in sq.list_filters():
        filt = sq.get_filter(fid)
        co = sq.estimate_classical_order(filt)
        for mu in (0.25, 0.5, 1.0, 2.0, 4.0):
            classical = co.passed[co.mu_grid.index(mu)]
            mp = sq.check_mp_qualification(filt, sq.order_fn(f"alpha^{mu}")).passes
            if classical != mp:
                mismatches.append((fid, mu, classical, mp))
    assert mismatches == []


def _construct_grid(filt, grid):
    """The builder's default alpha grid, or the same density up to alpha_max."""
    if grid == "default":
        return None
    return sq.default_alpha_grid(filt, alpha_max=filt.alpha_max, per_decade=64)


CONSTRUCT_GRIDS = ["default", "alpha_max"]


def _loop_certificate(filt, h, alphas, log_bound, sweep):
    """The windowed-supremum certificate with one residual call per alpha:
    (holds, witnesses, worst log gap)."""
    witnesses, worst = [], -math.inf
    for a, bound in zip(alphas, log_bound):
        window = sweep[sweep >= float(np.exp(h.log_at(a)))]
        if window.size == 0:
            continue
        with np.errstate(all="ignore"):
            r = filt._r_log(np.float64(a), window)
        gap = float(np.max(r)) - bound
        worst = max(worst, gap)
        if gap > 1e-6:
            witnesses.append((float(a), float(window[np.argmax(r)])))
    return not witnesses, witnesses, worst


def _certificate_fields(cert):
    return cert.holds, cert.witnesses, cert.detail["worst_log_gap"]


class TestConstructiveWeakQualification:
    @pytest.mark.parametrize("fid", ["showalter", "tikhonov", "landweber"])
    def test_certificate_holds_on_grids(self, fid):
        res = sq.construct_weak_qualification(sq.get_filter(fid))
        assert res.certificate.holds
        # rho* is a nondecreasing envelope and h vanishes with alpha
        assert np.all(np.diff(res.rho_star.log_values) >= 0)
        h_small = float(np.exp(res.h.log_at(1e-7)))
        h_large = float(np.exp(res.h.log_at(0.05)))
        assert h_small < h_large

    @pytest.mark.parametrize("grid", CONSTRUCT_GRIDS)
    @pytest.mark.parametrize("fid", ["showalter", "tikhonov", "ex3_exp", "ex4_log"])
    def test_reported_h_holds_the_top_lambda(self, fid, grid):
        """h is the log-log inverse of f on its knots and holds the top
        lambda from the top of f up to alpha_max, so no reported h exceeds
        it; the knots stay distinct, so interpolation divides by no zero."""
        filt = sq.get_filter(fid)
        res = sq.construct_weak_qualification(filt, alpha_grid=_construct_grid(filt, grid))
        alphas = res.rho_star.alphas
        top = float(np.exp(np.log(res.lambdas[-1])))
        assert np.all(np.exp(res.h.log_at(alphas)) <= top)
        assert float(np.exp(res.h.log_at(filt.alpha_max))) == top
        inside = alphas[alphas >= res.f[0]]
        assert np.array_equal(res.h.log_at(inside),
                              np.interp(np.log(inside), np.log(res.f), np.log(res.lambdas)))

    def test_windowed_supremum_oracle(self, showalter):
        """Independent sweep: sup_{lm >= h(a)} |r| really is r(a, h(a)),
        on the default grid and on one up to alpha_max."""
        for grid in CONSTRUCT_GRIDS:
            res = sq.construct_weak_qualification(
                showalter, alpha_grid=_construct_grid(showalter, grid))
            alphas = res.rho_star.alphas[:: len(res.rho_star.alphas) // 16]
            sweep = np.geomspace(1e-4, 100.0, 4096)
            for a in alphas:
                h_val = float(np.exp(res.h.log_at(float(a))))
                window = sweep[sweep >= h_val]
                if window.size == 0:  # h = exp(ln 100) lies one ulp past the sweep
                    continue
                sup = np.max(sq.filters.residual_log_sign(showalter, np.float64(a), window)[0])
                bound = float(np.interp(np.log(a), np.log(res.rho_star.alphas),
                                        res.rho_star.log_values))
                assert sup <= bound + 1e-6

    @pytest.mark.parametrize("grid", CONSTRUCT_GRIDS)
    @pytest.mark.parametrize("fid", ["showalter", "tikhonov"])
    def test_mesh_certificate_matches_per_alpha_loop(self, fid, grid):
        """The one-mesh certificate equals a per-alpha sweep, field for
        field, on the reported h and rho*; with every third bound lowered,
        only those rows give witnesses."""
        filt = sq.get_filter(fid)
        res = sq.construct_weak_qualification(filt, alpha_grid=_construct_grid(filt, grid))
        alphas = res.rho_star.alphas
        check = alphas[:: max(1, len(alphas) // 128)]
        bound = np.interp(np.log(check), np.log(alphas), res.rho_star.log_values)
        sweep = np.geomspace(res.lambdas[0], res.lambdas[-1], 1024)
        assert res.certificate.holds
        assert _certificate_fields(res.certificate) == \
            _loop_certificate(filt, res.h, check, bound, sweep)

        lowered = bound - np.where(np.arange(check.size) % 3 == 0, 1.0, 0.0)
        cert = _construct_certificate(filt, res.h, check, lowered, sweep)
        assert _certificate_fields(cert) == _loop_certificate(filt, res.h, check, lowered, sweep)
        assert not cert.holds
        assert {a for a, _ in cert.witnesses} <= set(check[::3].tolist())

    def test_oscillatory_hypotheses_rejected(self, ex8):
        with pytest.raises(sq.HypothesisViolation) as err:
            sq.construct_weak_qualification(ex8)
        assert err.value.alpha > 0 and err.value.lam > 0

    def test_negative_residual_rejected(self):
        """g = 2/lambda gives r = 1 - lambda*g = -1 everywhere."""
        filt = sq.make_custom_filter("twice", lambda a, lm: 2.0 / lm + 0.0 * a,
                                     alpha_max=1.0, h2_constant=2.0)
        with pytest.raises(sq.HypothesisViolation, match="residual is not positive"):
            sq.construct_weak_qualification(filt)


class TestLimitEstimateContracts:
    def test_bracket_and_cap_rules(self, tikhonov, tsvd, rho_alpha):
        finite = sq.estimate_srho(tikhonov, rho_alpha, 1.0)
        assert finite.tail_min <= finite.value <= finite.tail_max
        infinite = sq.estimate_srho(tsvd, rho_alpha, 1.0)
        assert infinite.value == math.inf
        assert infinite.tail_min >= CAP or infinite.tail_min == math.inf

    def test_schedule_independence(self, tikhonov, rho_alpha):
        """Identical inputs give identical estimates regardless of call order."""
        a = [sq.estimate_srho(tikhonov, rho_alpha, lam).value for lam in (0.1, 1.0, 10.0)]
        b = [sq.estimate_srho(tikhonov, rho_alpha, lam).value
             for lam in (10.0, 1.0, 0.1)][::-1]
        assert a == b
