"""Finite spectral models: SVD, source elements, reconstruction error."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specqual as sq
from specqual.filters import residual_value


class TestJacobiSVD:
    """The dense SVD behind svd_decompose."""

    def test_diagonal_input(self):
        _, _, s, _ = sq.svd_decompose(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-14)

    def test_permutation_input(self):
        _, _, s, _ = sq.svd_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("shape", [(8, 8), (12, 5), (5, 12), (64, 64)])
    def test_reconstruction(self, shape):
        rng = np.random.default_rng(1234)
        A = rng.normal(size=shape)
        _, U, s, V = sq.svd_decompose(A)
        resid = np.linalg.norm(A - U @ np.diag(s) @ V.T) / np.linalg.norm(A)
        assert resid < 1e-10

    def test_matches_reference_singular_values(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(16, 16))
        _, _, s, _ = sq.svd_decompose(A)
        np.testing.assert_allclose(s, np.linalg.svd(A, compute_uv=False),
                                   rtol=1e-12, atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(sq.DimensionError):
            sq.svd_decompose(np.zeros((600, 3)))

    def test_tolerance_bounds(self):
        with pytest.raises(sq.OperatorError):
            sq.svd_decompose(np.eye(3), tol=1e-2)

    def test_rank_deficient(self):
        A = np.outer([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        _, U, s, V = sq.svd_decompose(A)
        resid = np.linalg.norm(A - U @ np.diag(s) @ V.T) / np.linalg.norm(A)
        assert resid < 1e-10
        assert np.sum(s > 1e-10 * s[0]) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entries_rejected(self, bad):
        A = np.eye(3)
        A[1, 2] = bad
        with pytest.raises(sq.OperatorError, match="finite"):
            sq.svd_decompose(A)


class TestSpectralModels:
    def test_synthetic_rules(self):
        m = sq.make_model("j^-2", 5)
        np.testing.assert_allclose(m.eigenvalues, [1, 1 / 4, 1 / 9, 1 / 16, 1 / 25])
        assert sq.make_model("exp", 3).eigenvalues[0] == pytest.approx(math.exp(-1))

    def test_must_be_descending_and_positive(self):
        with pytest.raises(sq.OperatorError):
            sq.SpectralModel(eigenvalues=np.array([1.0, 2.0]), provenance="bad")
        with pytest.raises(sq.OperatorError):
            sq.SpectralModel(eigenvalues=np.array([1.0, 0.0]), provenance="bad")

    def test_json_round_trip(self):
        m = sq.make_model("j^-4", 4)
        import json
        again = sq.model_from_json(json.dumps(m.to_json_dict()))
        np.testing.assert_allclose(again.eigenvalues, m.eigenvalues)

    def test_svd_decompose_recovers_spectrum(self):
        rng = np.random.default_rng(5)
        sigma = np.arange(1, 9, dtype=float)[::-1] / 8.0
        U, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        V, _ = np.linalg.qr(rng.normal(size=(8, 8)))
        A = U @ np.diag(sigma) @ V.T
        model, _, s, _ = sq.svd_decompose(A)
        np.testing.assert_allclose(s, sigma, atol=1e-10)
        np.testing.assert_allclose(model.eigenvalues, sigma ** 2, atol=1e-10)


class TestSourceElements:
    def test_linear_source(self, s_lambda):
        model = sq.make_model("j^-2", 3)
        elem = sq.make_source_element(model, s_lambda, np.ones(3))
        np.testing.assert_allclose(elem.x_dagger, [1.0, 0.25, 1 / 9], rtol=1e-15)

    def test_square_root_source(self, s_sqrt):
        model = sq.make_model("j^-2", 3)
        elem = sq.make_source_element(model, s_sqrt, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(elem.x_dagger, [1.0, 0.0, 0.0])

    def test_rational_source(self, s_ratio):
        model = sq.SpectralModel(eigenvalues=np.array([1.0, 1.0]), provenance="pair")
        elem = sq.make_source_element(model, s_ratio, np.array([2.0, 2.0]))
        np.testing.assert_allclose(elem.x_dagger, [1.0, 1.0])

    def test_generator_recoverable(self, s_lambda):
        model = sq.make_model("j^-2", 20)
        w = np.arange(1, 21, dtype=float) ** -0.7
        elem = sq.make_source_element(model, s_lambda, w)
        back = elem.x_dagger / s_lambda.at(model.eigenvalues)
        np.testing.assert_allclose(back, w, rtol=1e-12)

    def test_length_mismatch(self, s_lambda):
        model = sq.make_model("j^-2", 3)
        with pytest.raises(sq.OperatorError):
            sq.make_source_element(model, s_lambda, np.ones(4))


class TestRegularize:
    def test_truncation_zeroes_small_modes(self, tsvd):
        model = sq.SpectralModel(eigenvalues=np.array([1.0, 0.25]), provenance="t")
        out = sq.regularize(model, tsvd, 0.5, np.array([1.0, 1.0]))
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_consistency_at_small_alpha(self, tikhonov):
        model = sq.SpectralModel(eigenvalues=np.array([1.0]), provenance="t")
        out = sq.regularize(model, tikhonov, 1e-7, np.array([1.0]))
        assert out[0] == pytest.approx(1.0, rel=1e-6)

    def test_halving_point(self, tikhonov):
        model = sq.SpectralModel(eigenvalues=np.array([1.0]), provenance="t")
        out = sq.regularize(model, tikhonov, 1.0, np.array([2.0]))
        np.testing.assert_allclose(out, [1.0])

    def test_landweber_spectrum_guard(self, landweber):
        model = sq.SpectralModel(eigenvalues=np.array([3.0]), provenance="t")
        with pytest.raises(sq.ParameterRangeError):
            sq.regularize(model, landweber, 0.5, np.array([1.0]))


class TestRegularizationError:
    def test_truncation_exact_zero(self, tsvd, s_lambda):
        model = sq.make_model("j^-2", 10)
        elem = sq.make_source_element(model, s_lambda, np.ones(10))
        assert sq.regularization_error(model, tsvd, 0.005, elem) == 0.0

    def test_tikhonov_half(self, tikhonov, s_lambda):
        model = sq.SpectralModel(eigenvalues=np.array([1.0]), provenance="t")
        elem = sq.SourceElement(x_dagger=np.array([1.0]), generator_w=np.array([1.0]),
                                source_s=s_lambda, model=model)
        assert sq.regularization_error(model, tikhonov, 1.0, elem) == pytest.approx(0.5)

    def test_exponential_decay(self, showalter, s_lambda):
        model = sq.SpectralModel(eigenvalues=np.array([1.0]), provenance="t")
        elem = sq.SourceElement(x_dagger=np.array([1.0]), generator_w=np.array([1.0]),
                                source_s=s_lambda, model=model)
        got = sq.regularization_error(model, showalter, 0.1, elem)
        assert got == pytest.approx(math.exp(-10.0), rel=1e-12)

    def test_log_channel_survives_underflow(self, showalter, s_lambda):
        model = sq.SpectralModel(eigenvalues=np.array([1.0]), provenance="t")
        elem = sq.SourceElement(x_dagger=np.array([1.0]), generator_w=np.array([1.0]),
                                source_s=s_lambda, model=model)
        assert sq.regularization_error(model, showalter, 0.001, elem) == 0.0
        assert sq.log_regularization_error(model, showalter, 0.001, elem) == pytest.approx(-1000.0)

    @pytest.mark.parametrize("fid", ["tikhonov", "tsvd", "showalter", "ex3_exp", "ex8_osc"])
    def test_error_identity_against_independent_sum(self, fid, s_sqrt):
        """err^2 equals sum r^2 x^2 assembled from eval_residual directly."""
        filt = sq.get_filter(fid)
        model = sq.make_model("j^-2", 25)
        w = np.arange(1, 26, dtype=float) ** -0.8
        elem = sq.make_source_element(model, s_sqrt, w)
        for alpha in (0.3, 0.05, 0.007):
            direct = math.sqrt(sum(
                sq.eval_residual(filt, alpha, float(l)).value ** 2 * x * x
                for l, x in zip(model.eigenvalues, elem.x_dagger)
            ))
            got = sq.regularization_error(model, filt, alpha, elem)
            assert got == pytest.approx(direct, rel=1e-12)

    def test_dense_path_agrees_with_diagonal_path(self, s_sqrt):
        """A dense matrix with a known spectrum must reproduce the
        synthetic-diagonal error for every catalog filter."""
        rng = np.random.default_rng(99)
        dim = 16
        diag_model = sq.make_model("j^-2", dim)
        sigma = np.sqrt(diag_model.eigenvalues)
        U, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        V, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        dense_model, _, s, _ = sq.svd_decompose(U @ np.diag(sigma) @ V.T)
        np.testing.assert_allclose(s, sigma, atol=1e-10)
        w = np.arange(1, dim + 1, dtype=float) ** -0.6
        for fid in sq.list_filters():
            filt = sq.get_filter(fid)
            if filt.lambda_sup is not None and diag_model.eigenvalues[0] >= filt.lambda_sup:
                continue
            e1 = sq.make_source_element(diag_model, s_sqrt, w)
            e2 = sq.make_source_element(dense_model, s_sqrt, w)
            for alpha in (0.2, 0.02):
                a = sq.regularization_error(diag_model, filt, alpha, e1)
                b = sq.regularization_error(dense_model, filt, alpha, e2)
                assert abs(a - b) < 1e-9, fid


class TestMembershipProbe:
    def test_constructed_elements_are_inside(self, s_lambda, s_sqrt, s_ratio):
        model = sq.make_model("j^-2", 200)
        w = np.arange(1, 201, dtype=float) ** -0.6
        for s in (s_lambda, s_sqrt, s_ratio):
            elem = sq.make_source_element(model, s, w)
            assert sq.membership_probe(model, elem.x_dagger, s).inside

    def test_divergent_generator_is_outside(self, s_lambda):
        model = sq.make_model("j^-2", 200)
        j = np.arange(1, 201, dtype=float)
        x = s_lambda.at(model.eigenvalues) * j
        verdict = sq.membership_probe(model, x, s_lambda)
        assert not verdict.inside
        assert verdict.witness_index is not None

    def test_zero_vector_trivially_inside(self, s_lambda):
        model = sq.make_model("j^-2", 50)
        verdict = sq.membership_probe(model, np.zeros(50), s_lambda)
        assert verdict.inside and verdict.bound == 0.0

    def test_vanishing_source_with_used_component(self, s_lambda):
        """A component the source cannot generate marks the element outside."""
        model = sq.SpectralModel(eigenvalues=np.array([1.0, 1e-320]),
                                 provenance="t", tnorm_sq=1.0)
        verdict = sq.membership_probe(model, np.array([1.0, 1.0]), s_lambda)
        assert not verdict.inside
        assert verdict.witness_index == 2


class TestCsvIngest:
    def test_load_with_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        np.testing.assert_allclose(sq.load_matrix_csv(str(path)),
                                   [[1.0, 2.0], [3.0, 4.0]])

    def test_load_without_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        np.testing.assert_allclose(sq.load_matrix_csv(str(path)),
                                   [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(sq.OperatorError):
            sq.load_matrix_csv(str(path))


@settings(max_examples=25, deadline=None)
@given(decay=st.floats(min_value=0.55, max_value=2.0),
       scale=st.floats(min_value=0.1, max_value=10.0))
def test_square_summable_generators_stay_inside(decay, scale):
    """Membership accepts anything built from a decaying generator."""
    model = sq.make_model("j^-2", 120)
    s = sq.source_fn("lambda^0.5")
    w = scale * np.arange(1, 121, dtype=float) ** -decay
    elem = sq.make_source_element(model, s, w)
    assert sq.membership_probe(model, elem.x_dagger, s).inside


def _membership_loop(model, x, s):
    """The membership probe with its running floor as a plain Python loop."""
    from specqual.operators import MEMBERSHIP_GROWTH, MEMBERSHIP_TAIL_SHARE, SOURCE_FLOOR

    if not np.any(x):
        return sq.MembershipVerdict(inside=True, bound=0.0)
    sv = np.asarray(s.at(model.eigenvalues), dtype=float)
    degenerate = (sv < SOURCE_FLOOR) & (x != 0)
    if np.any(degenerate):
        return sq.MembershipVerdict(inside=False, witness_index=int(np.argmax(degenerate)) + 1,
                                    reason="source function vanishes on a used component")
    safe = sv >= SOURCE_FLOOR
    v = np.zeros_like(x)
    v[safe] = x[safe] / sv[safe]
    total = float(np.sum(v ** 2))
    quart = max(1, model.dim // 4)
    if total > 0 and float(np.sum(v[-quart:] ** 2)) > MEMBERSHIP_TAIL_SHARE * total:
        return sq.MembershipVerdict(inside=False, witness_index=model.dim - quart + 1,
                                    reason="last-quartile share of the generator norm too large")
    av = np.abs(v)
    meaningful = av > 1e-12 * float(np.max(av))
    floor = math.inf
    for j in range(model.dim):
        if not meaningful[j]:
            continue
        if av[j] > MEMBERSHIP_GROWTH * floor:
            return sq.MembershipVerdict(inside=False, witness_index=j + 1,
                                        reason="generator grows along the spectrum")
        floor = min(floor, av[j])
    return sq.MembershipVerdict(inside=True, bound=total)


@settings(max_examples=200, deadline=None)
@given(exponents=st.lists(st.one_of(st.none(), st.floats(min_value=-20.0, max_value=3.0)),
                          min_size=1, max_size=40),
       decay=st.floats(min_value=0.0, max_value=4.0))
def test_membership_running_floor_matches_loop(exponents, decay):
    """Generators decaying by ``decay`` per index with drawn jumps and zeros
    (None); the verdict, witness, reason and bound equal the loop's."""
    dim = len(exponents)
    model = sq.make_model("j^-2", dim)
    s = sq.source_fn("lambda^0.5")
    j = np.arange(1, dim + 1, dtype=float)
    v = np.array([0.0 if e is None else 10.0 ** e for e in exponents]) * j ** -decay
    x = v * s.at(model.eigenvalues)
    assert sq.membership_probe(model, x, s) == _membership_loop(model, x, s)
