#!/usr/bin/env python3
"""The three qualification levels, across the whole catalog.

weak    -- some source function keeps s|r|/rho bounded per lambda;
strong  -- additionally the ratio never vanishes in the limsup, which
           happens exactly when 0 < s_rho < infinity everywhere;
optimal -- the induced s_rho also satisfies the uniform lower bound
           s_rho|r|/rho >= gamma on windows lambda >= h(alpha).

The oscillatory families sit strictly between strong and optimal: their
ratio keeps returning to its envelope but dips to zero along the phase
roots, so no uniform gamma exists.
"""

import json

import numpy as np

import specqual as sq

MATRIX = [
    ("tikhonov", {}, "alpha"),
    ("tsvd", {}, "alpha"),
    ("ex3_exp", {}, "exp(-1/alpha)"),
    ("ex4_log", {}, "-1/ln(alpha)"),
    ("tikhonov", {}, "alpha^0.5"),
    ("ex4_log", {}, "(-ln(alpha))^(-0.5)"),
    ("ex7_piecewise", {}, "alpha"),
    ("ex8_osc", {"k": 1.0}, "alpha"),
    ("ex9_osc", {}, "exp(-1/sqrt(alpha))"),
    ("ex10_osc", {}, "-1/ln(alpha)"),
]

for fid, params, rho_text in MATRIX:
    filt = sq.get_filter(fid, **params)
    rho = sq.order_fn(rho_text, np.geomspace(1e-7, filt.alpha_max / 2, 448))
    report = sq.classify(filt, rho, companions=False)
    src = f" via {report.source_label}" if report.source_label else ""
    print(f"{fid:15s} rho={rho_text:22s} -> {report.level:8s}{src}")

print()
print("Full JSON report for one classification (schema v1):")
filt = sq.get_filter("ex9_osc")
rho = sq.order_fn("exp(-1/sqrt(alpha))")
report = sq.classify(filt, rho)
doc = report.to_json_dict()
doc["srho_table"] = doc["srho_table"][:2] + ["..."]
print(json.dumps(doc, indent=2)[:1600])
