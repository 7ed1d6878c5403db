"""Command-line interface: exit codes, formats, determinism, config files."""

import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specqual
from specqual.cli import MAX_PER_DECADE, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(code, out, err):
    """Exit 2, nothing on stdout, a structured JSON error on stderr."""
    assert code == 2
    assert out == ""
    assert set(json.loads(err)) == {"error", "message"}


class TestClassify:
    def test_optimal_order_exits_zero(self, capsys):
        code, out, _ = run(capsys, "classify", "--filter", "tikhonov",
                           "--order", "alpha")
        assert code == 0
        doc = json.loads(out)
        assert doc["level"] == "optimal"

    def test_require_unreached_level_exits_one(self, capsys):
        code, out, _ = run(capsys, "classify", "--filter", "ex9",
                           "--order", "exp(-1/sqrt(alpha))", "--require", "optimal")
        assert code == 1
        assert json.loads(out)["level"] == "strong"

    def test_syntax_error_exits_two(self, capsys):
        code, _, err = run(capsys, "classify", "--filter", "tikhonov",
                           "--order", "alpha^^")
        assert code == 2
        assert "message" in json.loads(err)

    def test_unknown_filter_exits_two(self, capsys):
        code, _, err = run(capsys, "classify", "--filter", "nope", "--order", "alpha")
        assert code == 2
        assert "available" in json.loads(err)["message"]

    def test_missing_required_flag_exits_two(self, capsys):
        code, _, err = run(capsys, "classify", "--filter", "tikhonov")
        assert code == 2

    def test_constant_division_by_zero_exits_two(self, capsys):
        """1/(1-1) evaluates to inf, so the order is rejected, not a traceback."""
        assert_input_error(*run(capsys, "classify", "--filter", "tikhonov",
                                "--order", "1/(1-1)"))

    def test_scaled_exponential_order_is_optimal(self, capsys):
        """2*exp(-1/alpha) underflows like exp(-1/alpha) and reaches the same level."""
        levels = []
        for order in ("exp(-1/alpha)", "2*exp(-1/alpha)"):
            code, out, _ = run(capsys, "classify", "--filter", "ex3_exp", "--order", order)
            assert code == 0
            levels.append(json.loads(out)["level"])
        assert levels == ["optimal", "optimal"]

    def test_ex10_at_alpha_one_exits_two(self, capsys):
        """-1/ln(alpha) is infinite at alpha = 1: a range error, not a nan report."""
        code, out, err = run(capsys, "classify", "--filter", "ex10_osc", "--order", "alpha",
                             "--alpha-max", "1")
        assert_input_error(code, out, err)
        assert json.loads(err) == {
            "error": "ParameterRangeError",
            "message": "alpha=1.0 outside (0, 1.0) for filter 'ex10_osc'"}


class TestSrho:
    def test_tikhonov_table_matches_identity(self, capsys):
        code, out, _ = run(capsys, "srho", "--filter", "tikhonov",
                           "--order", "alpha", "--lambda", "0.1,1,10")
        assert code == 0
        doc = json.loads(out)
        for row in doc["table"]:
            assert row["estimate"] == pytest.approx(row["lambda"], rel=0.01)
            assert row["stabilized"]

    def test_truncation_reports_inf_in_csv(self, capsys):
        code, out, _ = run(capsys, "srho", "--filter", "tsvd", "--order", "alpha",
                           "--lambda", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[1] == "1.0,+inf,true"

    def test_log_filter_rational_source(self, capsys):
        code, out, _ = run(capsys, "srho", "--filter", "ex4",
                           "--order", "-1/ln(alpha)", "--lambda", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["table"][0]["estimate"] == pytest.approx(0.5, rel=0.01)

    def test_unstable_estimate_exits_three(self, capsys):
        # sqrt(alpha) order diverges against the Tikhonov residual
        code, out, _ = run(capsys, "srho", "--filter", "tikhonov",
                           "--order", "alpha^0.5", "--lambda", "1")
        assert code == 3


class TestClassical:
    def test_tikhonov_bracket(self, capsys):
        code, out, _ = run(capsys, "classical", "--filter", "tikhonov")
        assert code == 0
        doc = json.loads(out)
        assert doc["low"] == 1.0 and doc["high"] == 2.0
        assert not doc["zero"] and not doc["infinite"]

    def test_exponential_infinite_flag(self, capsys):
        _, out, _ = run(capsys, "classical", "--filter", "ex3")
        assert json.loads(out)["infinite"]

    def test_log_zero_flag(self, capsys):
        _, out, _ = run(capsys, "classical", "--filter", "ex4")
        assert json.loads(out)["zero"]

    def test_parametrized_filter(self, capsys):
        _, out, _ = run(capsys, "classical", "--filter", "ex8", "--param", "k=2")
        doc = json.loads(out)
        assert doc["low"] == 2.0 and doc["high"] == 4.0

    @pytest.mark.parametrize("argv,row", [
        (("ex8", "--param", "k=2"), "2.0,4.0,false,false"),
        (("ex4",), ",0.015625,true,false"),
        (("tsvd",), "64.0,,false,true"),
    ], ids=["bracket", "zero", "infinite"])
    def test_csv_row(self, capsys, argv, row):
        """A missing bracket end is an empty cell; the flags are lower-case."""
        code, out, _ = run(capsys, "classical", "--filter", *argv, "--format", "csv")
        assert code == 0
        assert out == f"low,high,zero,infinite\n{row}\n"


class TestMpCheck:
    def test_showalter_fails_exit_one(self, capsys):
        code, out, _ = run(capsys, "mp-check", "--filter", "showalter",
                           "--order", "exp(-1/sqrt(alpha))")
        assert code == 1
        doc = json.loads(out)
        assert not doc["passes"]
        assert doc["weak_certificate"]["holds"]

    def test_showalter_growth_past_double_range_prints_inf(self, capsys):
        """The ratio grows like exp(1/sqrt(alpha) - c alpha^(-1/3)): past
        e^709 over the grid, so the growth is +inf, not the e^700 cap
        1.0142e304 the median rule printed."""
        _, out, _ = run(capsys, "mp-check", "--filter", "showalter",
                        "--order", "exp(-1/sqrt(alpha))")
        assert '"growth": "+inf"' in out

    def test_tikhonov_passes_with_gamma(self, capsys):
        code, out, _ = run(capsys, "mp-check", "--filter", "tikhonov",
                           "--order", "alpha")
        assert code == 0
        assert json.loads(out)["gamma"] <= 1.01

    def test_landweber_companion(self, capsys):
        code, out, _ = run(capsys, "mp-check", "--filter", "landweber",
                           "--order", "(1-0.5*sqrt(alpha))^(1/alpha)")
        doc = json.loads(out)
        assert doc["weak_certificate"]["holds"]

    @pytest.mark.parametrize("a", ["inf", "5e-5", "1e-6", "9e-5", "-1", "0"])
    def test_interval_bound_out_of_range_exits_two(self, capsys, a):
        """A non-positive or non-finite a, or one below the lambda grid's
        1e-4 floor (which would sample lambda outside (0, a]), is an input
        error."""
        assert_input_error(*run(capsys, "mp-check", "--filter", "showalter",
                                "--order", "exp(-1/sqrt(alpha))", "--a", a))


class TestConstruct:
    def test_showalter_certificate(self, capsys):
        code, out, _ = run(capsys, "construct", "--filter", "showalter")
        assert code == 0
        assert json.loads(out)["certificate"]["holds"]

    def test_oscillatory_rejected_exit_one(self, capsys):
        """Like every other exit 1, the JSON report goes to stdout, in
        either format."""
        for fmt in ("json", "csv"):
            code, out, err = run(capsys, "construct", "--filter", "ex8", "--format", fmt)
            assert code == 1
            assert err == ""
            doc = json.loads(out)
            assert set(doc) == {"error", "message"}
            assert doc["error"] == "hypothesis-violation"

    def test_showalter_csv(self, capsys):
        code, out, _ = run(capsys, "construct", "--filter", "showalter", "--format", "csv")
        assert code == 0
        assert out.splitlines()[:2] == ["alpha,h,rho_star",
                                        "1e-07,0.0008416140593714441,0.0"]

    @pytest.mark.parametrize("mu", ["0.25", "2", "1e5"])
    def test_landweber_grid_stays_below_lambda_sup(self, capsys, mu):
        """The default lambda grid tops out at 0.95/mu, so every window
        edge h lies inside landweber's range (0, 1/mu) and the residual
        is positive on it."""
        code, out, err = run(capsys, "construct", "--filter", "landweber",
                             "--param", f"mu={mu}")
        assert code == 0 and err == ""
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["certificate"]["holds"]
        assert max(row["h"] for row in doc["table"]) < 1.0 / float(mu)

    @pytest.mark.parametrize("argv", [("ex4", "0.3"), ("tikhonov", "1")],
                             ids=["ex4", "tikhonov"])
    def test_grid_up_to_alpha_max_holds_top_lambda(self, capsys, argv):
        """Past the top of f, h holds the top lambda exp(ln 100): the value
        the certificate checks, and RFC 8259 JSON with nothing on stderr."""
        code, out, err = run(capsys, "construct", "--filter", argv[0],
                             "--alpha-max", argv[1])
        assert code == 0
        assert err == ""
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["table"][-1]["h"] == 100.00000000000004
        assert max(row["h"] for row in doc["table"]) == 100.00000000000004


class TestConverge:
    def test_linear_source_slope(self, capsys):
        code, out, _ = run(capsys, "converge", "--filter", "tikhonov",
                           "--source", "lambda", "--fit-window", "2.5e-4:1e-3")
        assert code == 0
        doc = json.loads(out)
        assert doc["fit"]["slope"] == pytest.approx(1.0, abs=0.05)

    def test_square_root_source_slope(self, capsys):
        code, out, _ = run(capsys, "converge", "--filter", "tikhonov",
                           "--source", "lambda^0.5", "--fit-window", "2e-3:0.1")
        assert code == 0
        assert json.loads(out)["fit"]["slope"] == pytest.approx(0.5, abs=0.05)

    def test_csv_table_and_fit(self, capsys):
        """With --format csv the table goes to stdout and the fit to stderr."""
        code, out, err = run(capsys, "converge", "--filter", "tikhonov", "--source", "lambda",
                             "--dim", "16", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "alpha,err,rho,ratio"
        assert set(json.loads(err)) == {"fit"}

    def test_infinite_ratio_is_plus_inf(self, capsys):
        """exp(-1/alpha) underflows below alpha ~ 1.4e-3, where err/rho is
        +inf: the string "+inf" in JSON and the same cell in CSV."""
        argv = ("converge", "--filter", "tikhonov", "--source", "lambda",
                "--order", "exp(-1/alpha)", "--dim", "16")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        ratios = [rec["ratio"] for rec in doc["study"]["records"]]
        assert "+inf" in ratios
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        cells = [line.split(",")[3] for line in out.splitlines()[1:]]
        assert cells == [r if isinstance(r, str) else repr(r) for r in ratios]

    def test_non_vanishing_source_exits_two(self, capsys):
        """s(0) = 1 != 0: the source is rejected before any study runs."""
        code, out, err = run(capsys, "converge", "--filter", "tikhonov", "--order", "alpha",
                             "--source", "1+1000*lambda")
        assert_input_error(code, out, err)
        assert json.loads(err)["message"] == \
            "--source '1+1000*lambda' is not an admissible source function"

    def test_missing_model_path_exits_two(self, capsys):
        code, _, err = run(capsys, "converge", "--filter", "tikhonov",
                           "--source", "lambda", "--model", "no/such/file.csv")
        assert code == 2

    def test_csv_matrix_model(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.0\n0.0,0.5\n")
        code, out, _ = run(capsys, "converge", "--filter", "tikhonov",
                           "--source", "lambda", "--model", str(path), "--dim", "2")
        assert code == 0
        assert json.loads(out)["study"]["model"].startswith("dense-svd")
        # the byte-identical contract holds for a full-size LAPACK decomposition
        rng = np.random.default_rng(64)
        q1, _ = np.linalg.qr(rng.normal(size=(64, 64)))
        q2, _ = np.linalg.qr(rng.normal(size=(64, 64)))
        sigma = np.arange(1, 65, dtype=float) ** -1.0
        np.savetxt(path, q1 @ np.diag(sigma) @ q2.T, delimiter=",", fmt="%.17g")
        argv = ("converge", "--filter", "tikhonov", "--source", "lambda",
                "--model", str(path))
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert json.loads(out1)["study"]["model"] == "dense-svd(64x64)"
        assert out1.encode() == out2.encode()

    @pytest.mark.parametrize("dim", ["0", "1", "3", "200"])
    def test_csv_model_rejects_another_dim(self, capsys, tmp_path, dim):
        """A CSV model has its own dimension: a --dim, as a flag or a config
        key, that differs from it exits 2 and names both."""
        path = tmp_path / "m.csv"
        path.write_text("1.0,0.0\n0.0,0.5\n")
        argv = ("converge", "--filter", "tikhonov", "--source", "lambda", "--model", str(path))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dim": int(dim)}))
        for extra in (("--dim", dim), ("--config", str(cfg))):
            code, out, err = run(capsys, *argv, *extra)
            assert_input_error(code, out, err)
            message = json.loads(err)["message"]
            assert message == f"--dim {dim} differs from the model's dimension 2"

    def test_non_finite_matrix_exits_two(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,nan\n0.0,0.5\n")
        code, out, err = run(capsys, "converge", "--filter", "tikhonov",
                             "--source", "lambda", "--model", str(path))
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert set(doc) == {"error", "message"} and "finite" in doc["message"]


@pytest.mark.parametrize("argv", [
    ("classify", "--filter", "tikhonov", "--order", "alpha", "--alpha-min", "-1"),
    ("classify", "--filter", "tikhonov", "--order", "alpha",
     "--alpha-min", "0.3", "--alpha-max", "0.01"),
    ("classify", "--filter", "tikhonov", "--order", "alpha", "--alpha-max", "5"),
    ("srho", "--filter", "landweber", "--order", "alpha", "--lambda", "3"),
    ("srho", "--filter", "tikhonov", "--order", "alpha", "--lambda", "inf"),
], ids=["negative-alpha-min", "alpha-min-above-max", "alpha-max-beyond-family",
        "lambda-beyond-family", "lambda-inf"])
def test_out_of_range_grid_exits_two(capsys, argv):
    """A grid bound outside the family's range is an input error, not a traceback."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert set(doc) == {"error", "message"}
    assert "order function" not in doc["message"]  # a range error, not a rejected order


@pytest.mark.parametrize("argv,message", [
    (("srho", "--filter", "ex3", "--order", "exp(-1/alpha)", "--alpha-min", "1e-310"),
     "--order 'exp(-1/alpha)' underflows: ln rho is -inf for alpha <= 5.4244e-309;"
     " raise --alpha-min above it"),
    (("mp-check", "--filter", "tikhonov", "--order", "exp(-exp(1/alpha))"),
     "--order 'exp(-exp(1/alpha))' underflows: ln rho is -inf for alpha <= 0.00137423"),
    (("srho", "--filter", "ex3", "--order", "alpha-alpha", "--alpha-min", "1e-310"),
     "--order 'alpha-alpha' is not an admissible order function"
     " (must be positive, nondecreasing, vanishing at 0)"),
], ids=["underflow-below-alpha-min", "underflow-on-a-fixed-grid", "zero-order"])
def test_rejected_order_names_its_reason(capsys, argv, message):
    """ln rho = -1/alpha is -inf on the 112 smallest alphas of a grid from
    1e-310, and the order is admissible above them: the message names the
    largest such alpha.  mp-check has no --alpha-min to raise, so it only
    names the alpha.  An order that is 0, so -inf at every alpha, is
    rejected by the admissibility rules as before."""
    code, out, err = run(capsys, *argv)
    assert_input_error(code, out, err)
    assert json.loads(err)["message"] == message


@pytest.mark.parametrize("argv", [
    ("classify", "--filter", "tikhonov", "--order", "alpha+lambda"),
    ("classify", "--filter", "tikhonov", "--order", "lambda"),
    ("converge", "--filter", "tikhonov", "--source", "alpha+lambda"),
], ids=["order-mixed", "order-lambda", "source-mixed"])
def test_wrong_variable_exits_two(capsys, argv):
    """The expression parses; certification rejects the variable."""
    code, out, err = run(capsys, *argv)
    assert_input_error(code, out, err)
    assert "only" in json.loads(err)["message"]


@pytest.mark.parametrize("argv,flag,text", [
    (("classify", "--filter", "tikhonov"), "--order", "alpha"),
    (("converge", "--filter", "tikhonov", "--dim", "16"), "--source", "lambda"),
], ids=["order", "source"])
@pytest.mark.parametrize("pad", [" ", "\t", "  \n"])
def test_padded_expression_prints_as_unpadded(capsys, argv, flag, text, pad):
    """Trailing whitespace ends an expression: no traceback, same stdout."""
    want = run(capsys, *argv, flag, text)
    assert want[0] == 0
    assert run(capsys, *argv, flag, text + pad) == want


@pytest.mark.parametrize("argv", [
    ("classify", "--filter", "ex8_osc", "--param", "k=nan", "--order", "alpha"),
    ("classify", "--filter", "ex8_osc", "--param", "k=inf", "--order", "alpha"),
    ("srho", "--filter", "landweber", "--param", "mu=inf", "--order", "alpha"),
], ids=["k-nan", "k-inf", "mu-inf"])
def test_non_finite_filter_parameter_exits_two(capsys, argv):
    """Not a nan verdict, a +inf verdict or a traceback."""
    code, out, err = run(capsys, *argv)
    assert_input_error(code, out, err)
    assert "positive and finite" in json.loads(err)["message"]


@pytest.mark.parametrize("argv", [
    ("srho", "--order", "alpha", "--lambda", "1e-300"),
    ("srho", "--order", "alpha^0.5", "--lambda", "1e-200"),
    ("classify", "--order", "alpha", "--lambda", "1e-6,1"),
    ("srho", "--order", "alpha", "--lambda", "0.05", "--alpha-min", "1e-3"),
], ids=["srho-1e-300", "srho-sqrt-1e-200", "classify-1e-6", "raised-alpha-min"])
def test_lambda_below_floor_exits_two(capsys, argv):
    """A lambda below 100 x the alpha grid's small end has no tail to
    estimate from; it is an input error, not a false exit 3."""
    code, out, err = run(capsys, argv[0], "--filter", "tikhonov", *argv[1:])
    assert_input_error(code, out, err)
    assert "floor" in json.loads(err)["message"]


def test_lambda_at_floor_accepted(capsys):
    code, out, _ = run(capsys, "srho", "--filter", "tikhonov", "--order", "alpha",
                       "--lambda", "1e-5")
    assert code == 0
    row, = json.loads(out)["table"]
    assert row["estimate"] == pytest.approx(1e-5, rel=1e-12) and row["stabilized"]


def test_srho_repeated_lambda_prints_each_row(capsys):
    code, out, _ = run(capsys, "srho", "--filter", "tikhonov", "--order", "alpha",
                       "--lambda", "1,0.5,1", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0.5", "1.0", "1.0"]
    assert lines[2] == lines[3]


def test_landweber_tight_bound_samples_below_sup(capsys):
    """mu = 100 used to sample a descending grid from lambda_sup = 0.01 down."""
    code, out, _ = run(capsys, "classify", "--filter", "landweber", "--param", "mu=100",
                       "--order", "alpha")
    assert code == 0
    lams = [row["lambda"] for row in json.loads(out)["srho_table"]]
    assert lams == sorted(lams) and len(set(lams)) == len(lams)
    assert max(lams) < 0.01


def test_landweber_bound_below_lambda_floor_exits_two(capsys):
    """mu = 1e300 puts the whole default grid under the lambda floor."""
    code, out, err = run(capsys, "srho", "--filter", "landweber", "--param", "mu=1e300",
                         "--order", "alpha")
    assert_input_error(code, out, err)
    assert "floor" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["mp-check", "classify"])
def test_landweber_one_point_mp_grid(capsys, command):
    """mu = 9000 leaves the mp-check one lambda, 1e-4; its certificate used
    to read a second lambda and end in an IndexError."""
    code, out, err = run(capsys, command, "--filter", "landweber", "--param", "mu=9000",
                         "--order", "alpha")
    assert code in (0, 1) and err == ""
    doc = json.loads(out)
    mp = doc if command == "mp-check" else doc["mp"]
    assert mp["passes"] or mp["weak_certificate"]["h_at_alpha_min"] == 1e-4


def test_geo_lambda_past_double_ratio(capsys):
    """1e300 / 1e-300 overflows; the span is counted from the logs of the
    ends, and the grid's bottom then falls under the lambda floor."""
    code, out, err = run(capsys, "srho", "--filter", "tikhonov", "--order", "alpha",
                         "--lambda", "geo:1e-300:1e300:1")
    assert_input_error(code, out, err)
    assert "floor" in json.loads(err)["message"]


@pytest.mark.parametrize("argv", [
    ("classify", "--filter", "tikhonov", "--order", "alpha"),
    ("srho", "--filter", "ex3", "--order", "alpha"),
    ("construct", "--filter", "tikhonov"),
], ids=lambda argv: argv[0])
def test_subnormal_alpha_min(capsys, argv):
    """alpha_max / 1e-320 overflows; the grid counts its decades from the
    logs of the ends instead of ending in an OverflowError traceback."""
    code, out, _ = run(capsys, *argv, "--alpha-min", "1e-320")
    assert code in (0, 1, 3)
    json.loads(out, parse_constant=_reject_constant)


@pytest.mark.parametrize("generator", ["j^nan", "j^inf", "j^400"])
def test_non_finite_generator_exits_two(capsys, generator):
    """j^nan made every w_j but w_1 nan; j^inf and 200^400 made w_j inf,
    and every record then printed "err": "nan" with exit 0."""
    code, out, err = run(capsys, "converge", "--filter", "tikhonov", "--source", "lambda",
                         "--generator", generator)
    assert_input_error(code, out, err)
    assert "--generator" in json.loads(err)["message"]


CONVERGE = ("converge", "--filter", "tikhonov", "--source", "lambda", "--dim", "16")


@pytest.mark.parametrize("argv,files", [
    ((), {}),
    (("nope",), {}),
    (("classical", "--config", "cfg.json"), {"cfg.json": "[1,2]"}),
    (("classical", "--filter", "ex8", "--param", "k=abc"), {}),
    (("classical", "--filter", "tikhonov", "--param", "k=1"), {}),
    (("srho", "--filter", "tikhonov", "--order", "alpha", "--lambda", "geo:1:2"), {}),
    (("srho", "--filter", "tikhonov", "--order", "alpha", "--lambda", "geo:a:b:c"), {}),
    ((*CONVERGE, "--generator", "j^x"), {}),
    ((*CONVERGE, "--fit-window", "1"), {}),
    ((*CONVERGE, "--fit-window", "a:b"), {}),
    ((*CONVERGE, "--fit-window", "2:1"), {}),
    ((*CONVERGE, "--model", "diag:foo"), {}),
    ((*CONVERGE, "--model", "ragged.csv"), {"ragged.csv": "1,2\n3\n"}),
    ((*CONVERGE, "--generator", "x^-1"), {}),
], ids=["no-command", "bad-command", "config-not-object", "param-not-number",
        "param-unknown", "geo-three-parts", "geo-not-numbers", "generator-not-number",
        "fit-window-one-part", "fit-window-not-numbers", "fit-window-reversed",
        "model-unknown-rule", "model-ragged-csv", "generator-not-j"])
def test_input_error_branches(capsys, tmp_path, monkeypatch, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert_input_error(*run(capsys, *argv))


def test_config_param_object_is_param_flags(capsys, tmp_path):
    """A config "param" object gives one --param K=V per entry."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"filter": "ex8", "param": {"k": 2}}))
    code, from_config, _ = run(capsys, "classical", "--config", str(cfg))
    assert code == 0
    assert (code, from_config) == run(capsys, "classical", "--filter", "ex8", "--param", "k=2")[:2]


def test_python_dash_m_specqual(tmp_path):
    """``python -m specqual`` is ``python -m specqual.cli``, byte for byte."""
    env = dict(os.environ, PYTHONPATH=str(Path(specqual.__file__).resolve().parents[1]))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", *argv], env=env, cwd=tmp_path,
                              capture_output=True, check=True).stdout

    assert cli("specqual", "--version") == f"specqual {specqual.__version__}\n".encode()
    call = ("classify", "--filter", "tikhonov", "--order", "alpha")
    assert cli("specqual", *call) == cli("specqual.cli", *call)


class TestConfigAndDeterminism:
    def test_config_supplies_required_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "filter": "tikhonov", "order": "alpha", "lambda": [0.1, 1.0],
        }))
        code, out, _ = run(capsys, "srho", "--config", str(cfg))
        assert code == 0
        assert len(json.loads(out)["table"]) == 2

    def test_cli_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter": "tikhonov", "order": "alpha",
                                   "lambda": [0.1, 1.0]}))
        code, out, _ = run(capsys, "srho", "--config", str(cfg), "--lambda", "5")
        table = json.loads(out)["table"]
        assert len(table) == 1 and table[0]["lambda"] == 5.0

    def test_unreadable_config_exits_two(self, capsys):
        code, _, _ = run(capsys, "srho", "--config", "nope.json")
        assert code == 2

    def test_byte_identical_reports(self, tmp_path):
        args = ["classify", "--filter", "ex3", "--order", "exp(-1/alpha)"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_line_endings(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["srho", "--filter", "tikhonov", "--order", "alpha",
              "--lambda", "1", "--format", "csv", "--out", str(out)])
        raw = out.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


SRHO_CONFIG = {"filter": "tikhonov", "order": "alpha", "lambda": [1]}


@pytest.mark.parametrize("command,config", [
    ("classify", {"filter": "tikhonov", "order": "alpha", "require": "bogus"}),
    ("srho", {**SRHO_CONFIG, "alpha_min": [1]}),
    ("srho", {**SRHO_CONFIG, "lambda": ["a"]}),
    ("srho", {**SRHO_CONFIG, "format": "xml"}),
    ("srho", {**SRHO_CONFIG, "lamda": [1]}),
    ("srho", {**SRHO_CONFIG, "config": "other.json"}),
], ids=["bad-choice", "underscore-key", "bad-list-value", "bad-format", "typo-key",
        "nested-config"])
def test_config_values_checked_like_flags(capsys, tmp_path, command, config):
    """A config value passes the same checks as the flag it names."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert_input_error(*run(capsys, command, "--config", str(cfg)))


@pytest.mark.parametrize("argv", [
    *[(cmd, "--filter", "tikhonov", *extra, "--seed", "1") for cmd, extra in [
        ("classify", ("--order", "alpha")), ("srho", ("--order", "alpha")),
        ("classical", ()), ("mp-check", ("--order", "alpha")), ("construct", ()),
        ("converge", ("--source", "lambda"))]],
    ("classical", "--filter", "tikhonov", "--lambda", "1"),
    ("classical", "--filter", "tikhonov", "--alpha-min", "1e-5"),
    ("classical", "--filter", "tikhonov", "--alpha-max", "0.1"),
    ("classical", "--filter", "tikhonov", "--per-decade", "16"),
    *[(cmd, "--filter", "tikhonov", *extra, flag, value) for cmd, extra in [
        ("mp-check", ("--order", "alpha")), ("converge", ("--source", "lambda"))]
      for flag, value in [("--alpha-min", "1e-5"), ("--alpha-max", "0.1"),
                          ("--per-decade", "16")]],
    ("mp-check", "--filter", "tikhonov", "--order", "alpha", "--lambda", "1"),
    ("construct", "--filter", "tikhonov", "--lambda", "1"),
    ("converge", "--filter", "tikhonov", "--source", "lambda", "--lambda", "1"),
    ("classify", "--filter", "tikhonov", "--order", "alpha", "--format", "csv"),
    ("mp-check", "--filter", "tikhonov", "--order", "alpha", "--format", "csv"),
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_flags_a_subcommand_does_not_read_exit_two(capsys, argv):
    assert_input_error(*run(capsys, *argv))


@pytest.mark.parametrize("argv", [
    ("--per-decade", str(MAX_PER_DECADE + 1)),
    ("--per-decade", "10000000000"),
    ("--lambda", f"geo:0.01:10:{MAX_PER_DECADE + 1}"),
    ("--lambda", "geo:1e-300:1e300:10000000000"),
], ids=["per-decade-above-cap", "per-decade-huge", "geo-above-cap", "geo-huge"])
def test_grid_density_cap_exits_two(capsys, argv):
    """Checked before any grid is built, so a huge density allocates nothing."""
    assert_input_error(*run(capsys, "srho", "--filter", "tikhonov", "--order", "alpha",
                            *argv))


def test_grid_density_at_cap_accepted(capsys):
    code, _, _ = run(capsys, "srho", "--filter", "tikhonov", "--order", "alpha",
                     "--lambda", f"geo:1:1.001:{MAX_PER_DECADE}", "--alpha-min", "1e-3",
                     "--per-decade", str(MAX_PER_DECADE))
    assert code == 0


@pytest.mark.parametrize("out", ["missing-dir/report.json", "."],
                         ids=["missing-directory", "directory"])
def test_unwritable_out_exits_two(capsys, tmp_path, monkeypatch, out):
    monkeypatch.chdir(tmp_path)
    assert_input_error(*run(capsys, "classical", "--filter", "tikhonov", "--out", out))


def test_readme_flag_table_matches_parser():
    """The README's per-subcommand flag table lists what the parser registers."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, flags=re.MULTILINE)
    documented = {cmd: set(re.findall(r"`(--[a-z-]+)`", flags)) for cmd, flags in rows}
    registered = {cmd: set(p.value_flags) for cmd, p in build_parser().commands.items()}
    assert documented == registered


# ---------------------------------------------------------------------------
# the CLI contract, on drawn calls
# ---------------------------------------------------------------------------

COMMANDS = build_parser().commands

# one cheap valid call per subcommand; a drawn flag overrides its entry
BASE_FLAGS = {
    "classify": {"--filter": "tikhonov", "--order": "alpha"},
    "srho": {"--filter": "tikhonov", "--order": "alpha", "--lambda": "0.1,1"},
    "classical": {"--filter": "tikhonov"},
    "mp-check": {"--filter": "tikhonov", "--order": "alpha"},
    "construct": {"--filter": "showalter"},
    "converge": {"--filter": "tikhonov", "--source": "lambda", "--dim": "16"},
}
GRID_FLAGS = {"--alpha-min": "1e-6", "--alpha-max": "0.4", "--per-decade": "32"}
# BASE_FLAGS, with an srho order whose table moves with the alpha grid (the
# tikhonov table of alpha prints the same digits on any grid top or density)
GRID_BASE_FLAGS = {**BASE_FLAGS, "srho": {**BASE_FLAGS["srho"], "--order": "alpha^0.5"}}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, parser in sorted(COMMANDS.items())
    for flag in GRID_FLAGS if flag in parser.value_flags])
def test_registered_grid_flag_changes_stdout(capsys, command, flag):
    """No flag does nothing: each alpha-grid flag a subcommand registers
    moves what it prints."""
    base = [tok for pair in GRID_BASE_FLAGS[command].items() for tok in pair]
    _, want, _ = run(capsys, command, *base)
    code, out, _ = run(capsys, command, *base, flag, GRID_FLAGS[flag])
    assert code in (0, 1, 3)
    assert out != want


# a --param value switches the call to the family that reads the parameter
PARAM_FILTERS = {"k": "ex8_osc", "mu": "landweber"}
ADVERSARIAL_VALUES = [
    "nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "", "1,1",
    "alpha^(", "2*3", "exp(1)", "1/(1-1)", "ln(0)",
    "1e-320", "geo:0.01:10:4", "geo:1e-5:1e5:2", "geo:1:1.001:4096", "geo:1e-300:1e300:1",
    "k=1", "k=2", "k=nan", "k=0", "k=1e-300", "k=1e300",
    "mu=0.5", "mu=100", "mu=9000", "mu=1e-300", "mu=-inf",
]


@st.composite
def cli_calls(draw):
    """A subcommand and 1-3 distinct value flags, each with a drawn value."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    flags = [f for f in COMMANDS[command].value_flags if f not in ("--out", "--config")]
    drawn = draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique=True))
    return command, tuple((f, draw(st.sampled_from(ADVERSARIAL_VALUES))) for f in drawn)


def call_argv(command, drawn):
    flags = dict(BASE_FLAGS[command])
    for flag, value in drawn:
        if flag == "--param" and value.partition("=")[0] in PARAM_FILTERS:
            flags["--filter"] = PARAM_FILTERS[value.partition("=")[0]]
    flags.update(drawn)
    return [command, *(tok for pair in flags.items() for tok in pair)]


def run_captured(argv):
    """``main(argv)`` with its own stdout and stderr buffers (a hypothesis
    test cannot share the function-scoped capsys between examples)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def _verdict_values(doc):
    """Every value stored under a level, passes or estimate key."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in ("level", "passes", "estimate"):
                yield value
            yield from _verdict_values(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _verdict_values(value)


@settings(max_examples=60, deadline=None)
@given(call=cli_calls())
@example(call=("mp-check", (("--param", "mu=9000"),)))
@example(call=("classify", (("--param", "mu=9000"),)))
@example(call=("srho", (("--lambda", "geo:1e-300:1e300:1"),)))
@example(call=("construct", (("--param", "k=1"),)))
@example(call=("converge", (("--order", "exp(-1/alpha)"),)))
def test_cli_contract(call):
    """Every call exits 0-3 with no traceback. Exit 2 is an empty stdout and
    a JSON error on stderr; any other exit prints RFC 8259 JSON with no nan
    verdict.  A second run prints the same bytes."""
    argv = call_argv(*call)
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == ""
        assert set(json.loads(err)) == {"error", "message"}
    else:
        doc = json.loads(out, parse_constant=_reject_constant)
        assert "nan" not in [str(v) for v in _verdict_values(doc)]
    assert run_captured(argv) == (code, out, err)


# converge's error exits, byte for byte: stderr for each (relative model
# paths, so that a message naming the file reads the same in any directory)
CONVERGE_ERRORS = {
    "zero-matrix": (("--model", "zero.csv"), "OperatorError",
                    "matrix is numerically zero; no spectral model"),
    "ragged-csv": (("--model", "ragged.csv"), "input-error", "ragged CSV matrix"),
    "empty-csv": (("--model", "empty.csv"), "input-error", "empty matrix file: empty.csv"),
    "non-numeric-csv": (("--model", "letter.csv"), "input-error",
                        "letter.csv, line 2: could not convert string to float: 'x'"),
    "non-utf8-csv": (("--model", "utf16.csv"), "input-error",
                     "matrix file is not UTF-8: utf16.csv"),
    "header-only-csv": (("--model", "header.csv"), "input-error",
                        "no numeric rows in matrix file: header.csv"),
    "unknown-rule": (("--model", "diag:nosuch"), "input-error",
                     "unknown spectrum rule 'nosuch' (choose from ['exp', 'j^-2', 'j^-4'])"),
    "dim-too-large": (("--dim", "100000"), "input-error", "dim must be in [1, 512], got 100000"),
    "landweber-mu-2": (("--filter", "landweber", "--param", "mu=2"), "ParameterRangeError",
                       "model spectrum reaches 1, beyond the valid range of filter "
                       "'landweber' (< 0.5)"),
}


@pytest.mark.parametrize("case", sorted(CONVERGE_ERRORS))
def test_converge_error_bytes(capsys, tmp_path, monkeypatch, case):
    """Each converge error exits 2 with an empty stdout and these exact
    stderr bytes; the zero matrix keeps its OperatorError code, and
    landweber's mu = 2 is the ParameterRangeError of the model's spectrum."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "zero.csv").write_text("0,0\n0,0\n")
    (tmp_path / "ragged.csv").write_text("1,2\n3\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "letter.csv").write_text("1,2\n3,x\n")
    (tmp_path / "utf16.csv").write_bytes(b"\xff\xfe1\x00,\x002\x00\n\x00")
    (tmp_path / "header.csv").write_text("a,b\n")
    extra, error, message = CONVERGE_ERRORS[case]
    code, out, err = run(capsys, "converge", "--filter", "tikhonov", "--source", "lambda", *extra)
    assert (code, out) == (2, "")
    assert err == json.dumps({"error": error, "message": message}, indent=2) + "\n"
