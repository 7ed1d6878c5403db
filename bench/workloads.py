"""The benchmark's three workloads.

Each workload makes its inputs one round at a time (a round holds every
input kind once, in an order set by the seed, so every run has the same
mix), runs one operation per input, and checks the operation's output
against a reference.  `check` returns a list of problems (empty when the
output is right) and a digest of the output, which the caller compares
between calls that must give identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import specqual as sq

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60  # a cold call takes well under a second


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _reject_constant(token):
    raise ValueError(f"non-RFC-8259 token {token}")


def strict_json(data: bytes):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(data.decode("utf-8"), parse_constant=_reject_constant)


@dataclass(frozen=True)
class Input:
    key: tuple          # identifies calls whose outputs must be byte-identical
    group: str          # per-group breakdown in the traced report
    payload: object = field(compare=False)
    known_defect: str | None = None  # a wrong answer here is scored apart from `failed`


# ---------------------------------------------------------------------------
# catalog: full classify of the acceptance criterion 1 matrix
# ---------------------------------------------------------------------------

EX4_GRID = (1e-7, 0.15, 448)  # geomspace arguments, as in the acceptance tests
EX10_GRID = (1e-7, 0.5, 448)

# (row name, filter id, params, order, certification grid, level)
# -- acceptance criterion 1
CATALOG_ROWS = (
    ("tikhonov-alpha", "tikhonov", {}, "alpha", None, "optimal"),
    ("tsvd-alpha", "tsvd", {}, "alpha", None, "weak"),
    ("ex3_exp-exp_inv_alpha", "ex3_exp", {}, "exp(-1/alpha)", None, "optimal"),
    ("ex4_log-inv_log", "ex4_log", {}, "-1/ln(alpha)", EX4_GRID, "optimal"),
    ("tikhonov-sqrt_alpha", "tikhonov", {}, "alpha^0.5", None, "weak"),
    ("ex4_log-inv_sqrt_log", "ex4_log", {}, "(-ln(alpha))^(-0.5)", EX4_GRID, "weak"),
    ("ex7_piecewise-alpha", "ex7_piecewise", {}, "alpha", None, "weak"),
    ("ex8_osc-alpha", "ex8_osc", {"k": 1.0}, "alpha", None, "strong"),
    ("ex9_osc-exp_inv_sqrt_alpha", "ex9_osc", {}, "exp(-1/sqrt(alpha))", None, "strong"),
    ("ex10_osc-inv_log", "ex10_osc", {}, "-1/ln(alpha)", EX10_GRID, "strong"),
)

# classical-order brackets and flags -- acceptance criterion 3
CLASSICAL = {
    "tikhonov": ("bracket", 1.0, 2.0),
    "ex7_piecewise": ("bracket", 1.0, 2.0),
    "ex8_osc": ("bracket", 1.0, 2.0),  # k = 1
    "ex3_exp": ("infinite",),
    "tsvd": ("infinite",),
    "ex9_osc": ("infinite",),
    "ex4_log": ("zero",),
    "ex10_osc": ("zero",),
}


def classical_problems(fid, co) -> list[str]:
    want = CLASSICAL[fid]
    if want[0] == "bracket":
        good = (co.low, co.high) == want[1:] and not co.zero and not co.infinite
    elif want[0] == "infinite":
        good = co.infinite and not co.zero
    else:
        good = co.zero and not co.infinite
    if good:
        return []
    return [f"{fid}: classical order {co.low}, {co.high}, zero={co.zero}, "
            f"infinite={co.infinite}; want {want}"]


class Catalog:
    name = "catalog"

    def prepare(self):
        self.rows = []
        for row, fid, params, order, grid, level in CATALOG_ROWS:
            alphas = None if grid is None else np.geomspace(*grid)
            self.rows.append((row, fid, sq.get_filter(fid, **params),
                              sq.order_fn(order, alphas), level))

    def warmup_input(self):
        return CATALOG_ROWS[0]

    def warmup(self, row):
        _, fid, params, order, _, _ = row
        sq.classify(sq.get_filter(fid, **params), sq.order_fn(order))

    def round(self, seed: int, index: int) -> list[Input]:
        rows = list(self.rows)
        random.Random(f"catalog/{seed}/{index}").shuffle(rows)
        return [Input((row[0],), row[0], row) for row in rows]

    def run(self, inp: Input):
        _, _, filt, rho, _ = inp.payload
        return sq.classify(filt, rho)

    def check(self, inp: Input, report):
        _, fid, _, _, level = inp.payload
        problems = []
        if report.level != level:
            problems.append(f"{inp.group}: level {report.level}, want {level}")
        problems += classical_problems(fid, report.classical_mu0)
        text = json.dumps(report.to_json_dict(), allow_nan=False)
        return problems, _digest(text.encode())


# ---------------------------------------------------------------------------
# dense_models: convergence studies on dense matrices with known spectra
# ---------------------------------------------------------------------------

DENSE_DIMS = (32, 48, 64)
DENSE_RULES = ("j^-2", "j^-4")
DENSE_METHODS = (("tikhonov", "lambda"), ("showalter", "lambda^0.5"))
STUDY_POINTS = 150
EIG_RTOL = 1e-12
LOG_ERR_ATOL = 1e-9  # dense vs diagonal agreement, as in acceptance criterion 9
SLOPE_ATOL = 1e-6
MATRIX_SEED = 20100729


class DenseModels:
    name = "dense_models"

    def prepare(self):
        self.rho = sq.order_fn("alpha")
        self.combos = []
        for n in DENSE_DIMS:
            for rule in DENSE_RULES:
                for fid, source in DENSE_METHODS:
                    self.combos.append(self._combo(n, rule, fid, source))

    def _combo(self, n, rule, fid, source_text):
        diag = sq.make_model(rule, n)
        filt = sq.get_filter(fid)
        source = sq.source_fn(source_text)
        w = np.arange(1, n + 1, dtype=float) ** -0.6
        grid = np.geomspace(max(1e-5, float(diag.eigenvalues[-1]) / 10.0),
                            filt.alpha_max / 2.0, STUDY_POINTS)
        elem = sq.make_source_element(diag, source, w)
        ref = sq.run_convergence(diag, filt, elem, self.rho, grid)
        return {
            "name": f"n{n}-{rule}-{fid}", "n": n, "diag": diag, "filt": filt,
            "source": source, "w": w, "grid": grid,
            "ref_log_err": np.array([r.log_err for r in ref.records]),
            "ref_slope": sq.fit_order(ref).slope,
        }

    @staticmethod
    def matrix(rng, eigenvalues):
        n = eigenvalues.size
        q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
        q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
        return q1 @ np.diag(np.sqrt(eigenvalues)) @ q2.T

    def warmup_input(self):
        n = DENSE_DIMS[0]
        eig = np.arange(1, n + 1, dtype=float) ** -2.0
        return self.matrix(np.random.default_rng(0), eig)

    def warmup(self, a):
        """The operation on a fresh filter, order and source, as a first caller runs it."""
        model, _, _, _ = sq.svd_decompose(a)
        source = sq.source_fn("lambda")
        elem = sq.make_source_element(model, source, np.ones(model.dim))
        study = sq.run_convergence(model, sq.get_filter("tikhonov"), elem, sq.order_fn("alpha"))
        sq.fit_order(study)
        sq.membership_probe(model, elem.x_dagger, source)

    def round(self, seed: int, index: int) -> list[Input]:
        # Jacobi's sweep count, and so the SVD time, varies by matrix (about
        # 290 to 520 ms at n = 64), so round `index` gets the same matrices in
        # every run and the seed sets only their order: every run does the
        # same work.
        rng = np.random.default_rng([MATRIX_SEED, index])
        inputs = [Input((index, c), f"n{combo['n']}",
                        (combo, self.matrix(rng, combo["diag"].eigenvalues)))
                  for c, combo in enumerate(self.combos)]
        order = np.random.default_rng([seed, index]).permutation(len(inputs))
        return [inputs[i] for i in order]

    def run(self, inp: Input):
        combo, a = inp.payload
        model, _, _, _ = sq.svd_decompose(a)
        elem = sq.make_source_element(model, combo["source"], combo["w"])
        study = sq.run_convergence(model, combo["filt"], elem, self.rho, combo["grid"])
        fit = sq.fit_order(study)
        probe = sq.membership_probe(model, elem.x_dagger, combo["source"])
        return model, study, fit, probe

    def check(self, inp: Input, out):
        combo, _ = inp.payload
        model, study, fit, probe = out
        name = combo["name"]
        problems = []
        want = combo["diag"].eigenvalues
        eig = model.eigenvalues
        if eig.shape != want.shape:
            problems.append(f"{name}: {eig.size} eigenvalues, want {want.size}")
        else:
            rel = float(np.max(np.abs(eig / want - 1.0)))
            if not rel <= EIG_RTOL:
                problems.append(f"{name}: eigenvalue relative error {rel:.3g}")
        log_err = np.array([r.log_err for r in study.records])
        ref = combo["ref_log_err"]
        if log_err.shape != ref.shape or not np.all(
                (log_err == ref) | (np.abs(log_err - ref) <= LOG_ERR_ATOL)):
            problems.append(f"{name}: log_err differs from the diagonal model by more "
                            f"than {LOG_ERR_ATOL}")
        if not abs(fit.slope - combo["ref_slope"]) <= SLOPE_ATOL:
            problems.append(f"{name}: slope {fit.slope}, diagonal model gives "
                            f"{combo['ref_slope']}")
        if not probe.inside:
            problems.append(f"{name}: membership probe says outside ({probe.reason})")
        digest = _digest(eig.tobytes(), log_err.tobytes(),
                         repr((fit.slope, fit.r_squared, probe.inside)).encode())
        return problems, digest


# ---------------------------------------------------------------------------
# cli_cold: one `python -m specqual.cli` child per call
# ---------------------------------------------------------------------------

def _doc_check(fn):
    """A verdict check on the parsed JSON document of a call."""
    return lambda doc: [] if fn(doc) else ["verdict differs from the reference"]


def _check_srho_csv(rows):
    want_lams = [0.01, 0.1, 1.0, 10.0]
    if rows[0] != ["lambda", "estimate", "stabilized"] or len(rows) != 5:
        return ["srho csv: unexpected shape"]
    problems = []
    for lam, (l_txt, est, stab) in zip(want_lams, rows[1:]):
        # s_rho = lambda / (1 + lambda) within 2% -- acceptance criterion 2
        if float(l_txt) != lam or stab != "true" or \
                not abs(float(est) / (lam / (1 + lam)) - 1) <= 0.02:
            problems.append(f"srho csv: row {l_txt},{est},{stab}")
    return problems


def _check_construct_csv(rows):
    if rows[0] != ["alpha", "h", "rho_star"] or len(rows) < 2:
        return ["construct csv: unexpected shape"]
    for row in rows[1:]:
        values = [float(v) for v in row]
        if len(values) != 3 or not all(math.isfinite(v) for v in values):
            return [f"construct csv: bad row {row}"]
    return []


@dataclass(frozen=True)
class Call:
    name: str
    argv: tuple
    exit_code: int
    output: str = "json"      # json | csv | error
    out_file: str | None = None
    verdict: object = None    # check on the parsed output
    known_defect: str | None = None


CLI_CALLS = (
    # the seven README invocations
    Call("classify-tikhonov", ("classify", "--filter", "tikhonov", "--order", "alpha"), 0,
         verdict=_doc_check(lambda d: d["level"] == "optimal"
                            and (d["classical_mu0"]["low"], d["classical_mu0"]["high"])
                            == (1.0, 2.0))),
    Call("classify-ex9-require", ("classify", "--filter", "ex9", "--order",
                                  "exp(-1/sqrt(alpha))", "--require", "optimal"), 1,
         verdict=_doc_check(lambda d: d["level"] == "strong"
                            and d["classical_mu0"]["infinite"] is True)),
    Call("srho-ex4-csv", ("srho", "--filter", "ex4", "--order", "-1/ln(alpha)", "--lambda",
                          "0.01,0.1,1,10", "--format", "csv"), 0,
         output="csv", verdict=_check_srho_csv),
    Call("classical-ex8", ("classical", "--filter", "ex8", "--param", "k=2"), 0,
         verdict=_doc_check(lambda d: (d["low"], d["high"], d["zero"], d["infinite"])
                            == (2.0, 4.0, False, False))),
    Call("mp-check-showalter", ("mp-check", "--filter", "showalter", "--order",
                                "exp(-1/sqrt(alpha))"), 1,
         verdict=_doc_check(lambda d: d["passes"] is False)),
    Call("construct-showalter", ("construct", "--filter", "showalter", "--format", "csv",
                                 "--out", "construct.csv"), 0,
         output="csv", out_file="construct.csv", verdict=_check_construct_csv),
    Call("converge-tikhonov", ("converge", "--filter", "tikhonov", "--model", "diag:j^-2",
                               "--dim", "200", "--source", "lambda", "--fit-window",
                               "2.5e-4:1e-3"), 0,
         # slope 1.0 +/- 0.05, r^2 >= 0.999 -- acceptance criterion 6
         verdict=_doc_check(lambda d: abs(d["fit"]["slope"] - 1.0) <= 0.05
                            and d["fit"]["r_squared"] >= 0.999)),
    # invalid inputs: contracted answer is exit 2 with a JSON error on stderr
    Call("bad-filter", ("classify", "--filter", "nosuch", "--order", "alpha"), 2,
         output="error"),
    Call("bad-order", ("classify", "--filter", "tikhonov", "--order", "alpha^("), 2,
         output="error"),
    Call("negative-alpha-min", ("classify", "--filter", "tikhonov", "--order", "alpha",
                                "--alpha-min", "-1"), 2,
         output="error", known_defect="ROADMAP known defect 1"),
    Call("landweber-lambda-3", ("srho", "--filter", "landweber", "--order", "alpha",
                                "--lambda", "3"), 2,
         output="error", known_defect="ROADMAP known defect 4"),
    Call("lambda-inf", ("srho", "--filter", "tikhonov", "--order", "alpha",
                        "--lambda", "inf"), 2,
         output="error", known_defect="ROADMAP known defect 5"),
)


@dataclass
class CallResult:
    exit_code: int
    stdout: bytes
    stderr: bytes
    out_file: bytes
    trace: dict | None = None


class CliCold:
    name = "cli_cold"

    def __init__(self, work: Path, env: dict):
        self.work = work
        self.env = env
        self.trace_file = None  # set: each call runs under child.py and is traced

    def prepare(self):
        pass

    def warmup_input(self):
        return None

    def warmup(self, _):
        pass

    def round(self, seed: int, index: int) -> list[Input]:
        calls = list(CLI_CALLS)
        random.Random(f"cli_cold/{seed}/{index}").shuffle(calls)
        return [Input((c.name,), c.name, c, c.known_defect) for c in calls]

    def run(self, inp: Input) -> CallResult:
        call = inp.payload
        if self.trace_file is None:
            cmd = [sys.executable, "-m", "specqual.cli", *call.argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cli-trace",
                   str(self.trace_file), *call.argv]
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        result = CallResult(proc.returncode, proc.stdout, proc.stderr, b"")
        if call.out_file and (self.work / call.out_file).exists():
            result.out_file = (self.work / call.out_file).read_bytes()
            (self.work / call.out_file).unlink()
        if self.trace_file is not None:
            result.trace = json.loads(self.trace_file.read_text())
            self.trace_file.unlink()
        return result

    def check(self, inp: Input, res: CallResult):
        call = inp.payload
        problems = []
        if res.exit_code != call.exit_code:
            problems.append(f"{call.name}: exit {res.exit_code}, want {call.exit_code}")
        try:
            if call.output == "error":
                if res.stdout:
                    problems.append(f"{call.name}: output on stdout for an input error")
                doc = strict_json(res.stderr)
                if not (isinstance(doc, dict) and "error" in doc and "message" in doc):
                    problems.append(f"{call.name}: stderr is not a structured JSON error")
            elif call.output == "csv":
                text = res.out_file if call.out_file else res.stdout
                rows = list(csv.reader(io.StringIO(text.decode("utf-8"))))
                problems += call.verdict(rows)
            else:
                problems += call.verdict(strict_json(res.stdout))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{call.name}: unreadable output ({type(exc).__name__}: {exc})")
        return problems, _digest(res.stdout, res.out_file)


def make(name: str, work: Path, env: dict):
    if name == "catalog":
        return Catalog()
    if name == "dense_models":
        return DenseModels()
    if name == "cli_cold":
        return CliCold(work, env)
    raise ValueError(f"unknown workload {name}")


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env
