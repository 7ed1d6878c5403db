"""Printed results, byte for byte.

``tests/golden/catalog.json`` holds the 10 catalog classify documents
(acceptance criterion 1): each is the full ``classify`` report, with the
classical probe and the mp-check, in the CLI's ``indent=2`` JSON form, and
the file holds them as one JSON array.  ``tests/golden/converge_*`` hold
the output of four ``converge`` calls: the README call in JSON and in CSV
(whose fit goes to stderr), a dense CSV matrix through the SVD
(``dense24.csv``, A = Q1 diag(j^-1) Q2^T with n = 24), and a tsvd study
whose rows drop the r = 0 terms.  ``tests/golden/order_source.json`` holds
60 direct ``check_order_source_pair`` verdicts beyond the catalog: every
filter x {alpha, alpha^0.5, exp(-1/alpha)} x {lambda, lambda^0.5}, with the
window h = rho, each as its holds, gamma, witnesses and the repr of its
tail estimate.  ``tests/golden/tail_limit.json`` holds the fields of every
estimate ``tail_limit`` returns in a warm classify of each catalog row
(30 calls) and on a seeded set of degenerate inputs (grids of 8 to 12
alphas, so that some blocks are empty, rows with +-inf and nan, both
kinds, 4 and 5 blocks, two caps, 1-d and 2-d), each float as its
``float.hex``.  ``TAIL_CORPUS_SHA256`` is the sha256 of every estimate of
a seeded corpus of a few thousand ``tail_limit`` rows on hand-built
tails, which reaches all 11 outcome classes; the golden file reaches 9.
``tests/golden/cli_*.txt`` hold the exit code (first
line) and stdout of five CLI calls that print no passing mp-check: the
README ``srho`` and ``classical`` calls, two failing ``mp-check`` calls
and ``construct`` in CSV.  A change that moves any printed value shows up
here as a diff of a golden file.  After a deliberate change,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review its diff; that run prints the corpus digest to copy in.
"""

import collections
import dataclasses
import hashlib
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

import specqual as sq
from specqual.cli import main
from specqual.qualification import jsonable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN = GOLDEN_DIR / "catalog.json"
ORDER_SOURCE = GOLDEN_DIR / "order_source.json"
TAIL_LIMIT = GOLDEN_DIR / "tail_limit.json"

EX4_GRID = (1e-7, 0.15, 448)   # geomspace arguments of the order's certification grid
EX10_GRID = (1e-7, 0.5, 448)

# (filter id, params, order, certification grid) -- acceptance criterion 1
CATALOG = [
    ("tikhonov", {}, "alpha", None),
    ("tsvd", {}, "alpha", None),
    ("ex3_exp", {}, "exp(-1/alpha)", None),
    ("ex4_log", {}, "-1/ln(alpha)", EX4_GRID),
    ("tikhonov", {}, "alpha^0.5", None),
    ("ex4_log", {}, "(-ln(alpha))^(-0.5)", EX4_GRID),
    ("ex7_piecewise", {}, "alpha", None),
    ("ex8_osc", {"k": 1.0}, "alpha", None),
    ("ex9_osc", {}, "exp(-1/sqrt(alpha))", None),
    ("ex10_osc", {}, "-1/ln(alpha)", EX10_GRID),
]


def catalog_reports(calls: int = 1) -> list[list]:
    """``calls`` lists of the catalog reports: each row is classified
    ``calls`` times on one filter instance, and list i holds the i-th
    report of every row."""
    runs = [[] for _ in range(calls)]
    for fid, params, order, grid in CATALOG:
        filt = sq.get_filter(fid, **params)
        rho = sq.order_fn(order, None if grid is None else np.geomspace(*grid))
        for run in runs:
            run.append(sq.classify(filt, rho))
    return runs


def catalog_text(reports=None) -> str:
    reports = catalog_reports()[0] if reports is None else reports
    docs = [report.to_json_dict() for report in reports]
    return json.dumps(jsonable(docs), indent=2, allow_nan=False) + "\n"


OS_ORDERS = ("alpha", "alpha^0.5", "exp(-1/alpha)")
OS_SOURCES = ("lambda", "lambda^0.5")


def order_source_text() -> str:
    docs = []
    for fid in sq.list_filters():
        filt = sq.get_filter(fid)
        for order in OS_ORDERS:
            rho = sq.order_fn(order)
            for source in OS_SOURCES:
                v = sq.check_order_source_pair(filt, rho, sq.source_fn(source), rho)
                docs.append({"filter": fid, "order": order, "source": source,
                             "holds": v.holds, "gamma": v.gamma, "witnesses": v.witnesses,
                             "inf_estimate": repr(v.detail["inf_estimate"])})
    return json.dumps(jsonable(docs), indent=2, allow_nan=False) + "\n"


def bits(v) -> str | None:
    """A float as its ``float.hex``; None stays None."""
    return None if v is None else float(v).hex()


def estimate_doc(est) -> dict:
    """The fields of one tail estimate, each float as its ``float.hex``."""
    return {"value": bits(est.value), "tail_min": bits(est.tail_min),
            "tail_max": bits(est.tail_max), "stabilized": est.stabilized, "trend": est.trend,
            "extrapolated": est.grid_meta["extrapolated"],
            "blocks": [bits(b) for b in est.grid_meta["blocks"]]}


def warm_catalog_estimates() -> list[list]:
    """The estimates of every ``tail_limit`` call that a second (warm)
    classify of each catalog row makes, one list per call."""
    calls = []
    tail_limit = sq.qualification.tail_limit

    def recorded(*args, **kwargs):
        out = tail_limit(*args, **kwargs)
        calls.append(out if isinstance(out, list) else [out])
        return out

    for fid, params, order, grid in CATALOG:
        filt = sq.get_filter(fid, **params)
        rho = sq.order_fn(order, None if grid is None else np.geomspace(*grid))
        sq.classify(filt, rho)
        sq.qualification.tail_limit = recorded
        try:
            sq.classify(filt, rho)
        finally:
            sq.qualification.tail_limit = tail_limit
    return calls


def degenerate_tail_calls():
    """Seeded ``tail_limit`` calls on few-point grids, one per combination
    of kind, block count, cap and dimension, six draws each: rows of noise,
    1/x drifts, geometric approaches and linear trends in x, some
    saturating past exp's overflow edge and some holding +-inf and nan."""
    rng = np.random.default_rng(20261019)
    for kind, n_blocks, cap, two_d in itertools.product(
            ("liminf", "limsup"), (4, 5), (1e12, 50.0), (False, True)):
        for _ in range(6):
            grid = np.geomspace(10.0 ** -rng.uniform(2, 30), 10.0 ** -rng.uniform(0, 1),
                                int(rng.integers(8, 13)))
            t = sq.limits.tail_of(rng.permutation(grid))
            x = t.xs
            rows = []
            for _ in range(int(rng.integers(2, 7)) if two_d else 1):
                level, c = rng.uniform(-3, 3), rng.uniform(-2, 2) * 10.0 ** rng.integers(-1, 3)
                with np.errstate(all="ignore"):
                    row = [rng.normal(level, 10.0 ** rng.uniform(-3, 1), x.size),
                           np.log(np.abs(math.exp(level) + c / x)),
                           np.log(math.exp(level) + abs(c) * np.exp(-rng.uniform(0.1, 3) * x)),
                           level + c * x,
                           np.full(x.size, rng.choice([level, 705.0, 712.0, math.log(cap)]))][
                        int(rng.integers(0, 5))]
                hit = rng.random(x.size) < 0.2
                row[hit] = rng.choice([math.inf, -math.inf, math.nan], int(hit.sum()))
                rows.append(row)
            yield t, np.array(rows) if two_d else rows[0], kind, {"cap": cap,
                                                                  "n_blocks": n_blocks}


def tail_limit_text() -> str:
    docs = [{"call": f"catalog {i}", "estimates": [estimate_doc(e) for e in ests]}
            for i, ests in enumerate(warm_catalog_estimates())]
    for i, (t, lv, kind, kwargs) in enumerate(degenerate_tail_calls()):
        out = sq.limits.tail_limit(t, lv, kind, **kwargs)
        docs.append({"call": f"degenerate {i}: {kind} {kwargs} {lv.shape}",
                     "estimates": [estimate_doc(e) for e in (out if lv.ndim == 2 else [out])]})
    return "[\n" + ",\n".join(json.dumps(d) for d in docs) + "\n]\n"


README_CONVERGE = ("converge", "--filter", "tikhonov", "--model", "diag:j^-2", "--dim", "200",
                   "--source", "lambda", "--fit-window", "2.5e-4:1e-3")

# golden file stem -> converge argv; a CSV call also pins its stderr (the fit)
CONVERGE_CALLS = {
    "converge_readme.json": README_CONVERGE,
    "converge_readme.csv": README_CONVERGE + ("--format", "csv"),
    "converge_dense.json": ("converge", "--filter", "showalter",
                            "--model", str(GOLDEN_DIR / "dense24.csv"),
                            "--source", "lambda^0.5"),
    "converge_tsvd.json": ("converge", "--filter", "tsvd", "--model", "diag:j^-2",
                           "--dim", "200", "--source", "lambda"),
}


# golden file name -> CLI argv; the file is "exit N" and then stdout
CLI_CALLS = {
    "cli_srho_ex4.txt": ("srho", "--filter", "ex4", "--order", "-1/ln(alpha)",
                         "--lambda", "0.01,0.1,1,10", "--format", "csv"),
    "cli_classical_ex8.txt": ("classical", "--filter", "ex8", "--param", "k=2"),
    "cli_mp_showalter.txt": ("mp-check", "--filter", "showalter",
                             "--order", "exp(-1/sqrt(alpha))"),
    "cli_mp_landweber.txt": ("mp-check", "--filter", "landweber",
                             "--order", "(1-0.5*sqrt(alpha))^(1/alpha)"),
    "cli_construct_showalter.txt": ("construct", "--filter", "showalter", "--format", "csv"),
}


def cli_text(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    return f"exit {code}\n{out.getvalue()}"


def converge_output(argv) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(list(argv)) == 0
    return out.getvalue(), err.getvalue()


def test_catalog_documents_match_golden():
    assert catalog_text() == GOLDEN.read_text(encoding="utf-8")


def test_repeated_classify_matches_golden():
    """A second classify of each row on the same filter instance reads
    the classical order from the per-filter cache; both documents are
    the golden ones, so a cache hit prints what a probe prints."""
    first, second = catalog_reports(2)
    golden = GOLDEN.read_text(encoding="utf-8")
    assert catalog_text(first) == golden
    assert catalog_text(second) == golden
    assert all(a.classical_mu0 is b.classical_mu0 for a, b in zip(first, second))


MP_FAILING = {("ex4_log", "-1/ln(alpha)"), ("ex4_log", "(-ln(alpha))^(-0.5)"),
              ("ex9_osc", "exp(-1/sqrt(alpha))"), ("ex10_osc", "-1/ln(alpha)")}


@pytest.mark.parametrize("fid,params,order,grid", CATALOG,
                         ids=[f"{row[0]}-{row[2]}" for row in CATALOG])
def test_kept_mp_mesh_prints_the_bytes_of_a_fresh_one(fid, params, order, grid):
    """The mp-check on the default grids builds its ln|r| mesh on the
    first call and reads the kept one after; explicit copies of the same
    grids are never kept, so each such call builds the mesh again (one
    ``_r_log`` call).  All four print the same bytes, the failing rows'
    ``weak_certificate`` included."""
    calls = []
    filt = sq.get_filter(fid, **params)
    r_log = filt._r_log
    filt = dataclasses.replace(filt, _r_log=lambda a, lm: calls.append(1) or r_log(a, lm))
    rho = sq.order_fn(order, None if grid is None else np.geomspace(*grid))
    docs, made = [], []
    for i in range(4):
        given = () if i < 2 else [x.copy() for x in sq.qualification._defaults(filt)["mp"][:2]]
        before = len(calls)
        docs.append(json.dumps(sq.check_mp_qualification(filt, rho, 1.0, *given).to_json_dict()))
        made.append(len(calls) - before)
    assert made == [1, 0, 1, 1]
    assert docs == docs[:1] * 4
    assert ("weak_certificate" in docs[0]) == ((fid, order) in MP_FAILING)


def test_tail_estimates_match_golden():
    """Every field of every estimate, bit for bit: the warm catalog's
    calls and the degenerate draws."""
    assert tail_limit_text() == TAIL_LIMIT.read_text(encoding="utf-8")


def tail_corpus_calls():
    """Seeded 2-d ``tail_limit`` calls on hand-built tails, for both kinds
    and caps 1e12 and 1e6: 60 tails of 8 to 32 points, some with spacings
    below 1e-9, each carrying 10 to 19 rows of noise, 1/x drifts, signed
    geometric approaches, linear trends in x, constants at exp's overflow
    edge and at the cap, and geometric approaches to a limit just below
    or past the cap; three rows in ten hold some +-inf and nan."""
    rng = np.random.default_rng(20261020)
    for _ in range(60):
        n = int(rng.integers(8, 33))
        steps = rng.uniform(0.05, 2.0, n - 1)
        steps[rng.random(n - 1) < 0.1] *= 1e-11
        edge = rng.uniform(-1.0, 20.0)
        x = edge + np.concatenate(([0.0], np.cumsum(steps)))
        tail = sq.limits.Tail(np.exp(-x), np.arange(n), x, edge)
        for cap in (sq.limits.CAP, 1e6):
            rows = []
            for _ in range(int(rng.integers(10, 20))):
                lvl = rng.uniform(-3.0, math.log(cap) + 2.0)
                c = rng.uniform(-2, 2) * 10.0 ** rng.integers(-1, 3)
                k = rng.uniform(0.1, 3.0)
                u = rng.uniform(0.05, 1.0)
                decay = np.exp(-4.0 * k * (x - edge) / (x[-1] - edge))  # ratio e^-k per block
                with np.errstate(all="ignore"):
                    row = [lvl + 10.0 ** rng.uniform(-4, 0) * rng.standard_normal(n),
                           lvl + np.log(np.abs(1.0 + c / x)),
                           lvl + np.log1p(u * np.sign(c) * decay),
                           lvl + c * (x - edge),
                           np.full(n, rng.choice([lvl, 705.0, 712.0, math.log(cap),
                                                  math.log(cap) - 1e-3])),
                           math.log(cap) + 0.02 * (u - 0.5) + np.log1p(-u * decay),
                           ][int(rng.integers(0, 6))]
                if rng.random() < 0.3:
                    hit = rng.random(n) < 0.15
                    row[hit] = rng.choice([math.inf, -math.inf, math.nan], int(hit.sum()))
                rows.append(row)
            for kind in ("liminf", "limsup"):
                yield tail, np.array(rows), kind, cap


# the first value of ``tail_corpus_digest``
TAIL_CORPUS_SHA256 = "10255d154edb1ff03c0e31065615cdf5d4b45621e23d73025ef9a4360eacf3a6"

# (trend, extrapolated, stabilized, value is inf): the outcome class of each
# exit of tail_limit under a cap below 1e307
OUTCOME_CLASSES = {
    ("up", False, True, True), ("up", False, False, True),    # past the cap / mixed inf
    ("down", True, True, False), ("down", True, False, False),
    ("saturating", True, True, False), ("saturating", True, False, False),
    ("up", True, False, True),                                 # Aitken limit past the cap
    ("up", True, True, False), ("up", False, False, False),    # coherent 1/x / divergent
    ("flat", False, True, False), ("flat", False, False, False),
}


def estimate_record(est) -> str:
    """Every field of one estimate, floats as ``float.hex`` and
    ``grid_meta`` in its key order."""
    meta = [(k, [bits(b) for b in v] if k == "blocks" else v) for k, v in est.grid_meta.items()]
    return repr((est.kind, bits(est.value), bits(est.tail_min), bits(est.tail_max),
                 est.stabilized, meta))


def tail_corpus_digest() -> tuple[str, collections.Counter]:
    """The sha256 of every estimate of ``tail_corpus_calls`` as
    ``estimate_record``, and the number of estimates in each outcome class."""
    digest, classes = hashlib.sha256(), collections.Counter()
    for tail, lv, kind, cap in tail_corpus_calls():
        for est in sq.limits.tail_limit(tail, lv, kind, cap=cap):
            digest.update(estimate_record(est).encode())
            classes[est.trend, est.grid_meta["extrapolated"], est.stabilized,
                    math.isinf(est.value)] += 1
    return digest.hexdigest(), classes


def test_tail_corpus_matches_digest():
    """A few thousand rows through every outcome class of ``tail_limit``,
    bit for bit, the unstabilized saturating ones and the Aitken limits
    past the cap among them, which the golden file's calls never reach."""
    digest, classes = tail_corpus_digest()
    assert set(classes) == OUTCOME_CLASSES
    assert sum(classes.values()) > 3000
    assert digest == TAIL_CORPUS_SHA256


def test_order_source_verdicts_match_golden():
    assert order_source_text() == ORDER_SOURCE.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CONVERGE_CALLS))
def test_converge_output_matches_golden(name):
    out, err = converge_output(CONVERGE_CALLS[name])
    assert out == (GOLDEN_DIR / name).read_text(encoding="utf-8")
    want_err = GOLDEN_DIR / f"{name}.stderr"
    assert err == (want_err.read_text(encoding="utf-8") if want_err.exists() else "")


@pytest.mark.parametrize("name", sorted(CLI_CALLS))
def test_cli_output_matches_golden(name):
    assert cli_text(CLI_CALLS[name]) == (GOLDEN_DIR / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    GOLDEN.write_text(catalog_text(), encoding="utf-8")
    ORDER_SOURCE.write_text(order_source_text(), encoding="utf-8")
    TAIL_LIMIT.write_text(tail_limit_text(), encoding="utf-8")
    for name, argv in CONVERGE_CALLS.items():
        out, err = converge_output(argv)
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")
        if err:
            (GOLDEN_DIR / f"{name}.stderr").write_text(err, encoding="utf-8")
    for name, argv in CLI_CALLS.items():
        (GOLDEN_DIR / name).write_text(cli_text(argv), encoding="utf-8")
    print("TAIL_CORPUS_SHA256 =", tail_corpus_digest()[0])
