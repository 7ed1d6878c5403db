"""The 10 catalog classify documents (acceptance criterion 1), byte for byte.

Each document is the full ``classify`` report, with the classical probe and
the mp-check, in the CLI's ``indent=2`` JSON form; the file holds them as
one JSON array.  A change that moves any printed value shows up here as a
diff of ``tests/golden/catalog.json``.  After a deliberate change,
regenerate the file with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.
"""

import json
from pathlib import Path

import numpy as np

import specqual as sq
from specqual.qualification import jsonable

GOLDEN = Path(__file__).resolve().parent / "golden" / "catalog.json"

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


def test_catalog_documents_match_golden():
    assert catalog_text() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(catalog_text(), encoding="utf-8")
