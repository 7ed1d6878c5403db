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
tail estimate.  ``tests/golden/cli_*.txt`` hold the exit code (first
line) and stdout of five CLI calls that print no passing mp-check: the
README ``srho`` and ``classical`` calls, two failing ``mp-check`` calls
and ``construct`` in CSV.  A change that moves any printed value shows up
here as a diff of a golden file.  After a deliberate change,
regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.
"""

import io
import json
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


def catalog_text() -> str:
    docs = []
    for fid, params, order, grid in CATALOG:
        rho = sq.order_fn(order, None if grid is None else np.geomspace(*grid))
        docs.append(sq.classify(sq.get_filter(fid, **params), rho).to_json_dict())
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
    for name, argv in CONVERGE_CALLS.items():
        out, err = converge_output(argv)
        (GOLDEN_DIR / name).write_text(out, encoding="utf-8")
        if err:
            (GOLDEN_DIR / f"{name}.stderr").write_text(err, encoding="utf-8")
    for name, argv in CLI_CALLS.items():
        (GOLDEN_DIR / name).write_text(cli_text(argv), encoding="utf-8")
