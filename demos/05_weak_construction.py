#!/usr/bin/env python3
"""Constructing a weak qualification from the residual alone.

When the residual is positive and decreasing in lambda (and the filter
decreasing in alpha), a rate certifying weak qualification can be built
directly: theta(lm) marks where r_alpha(lm) first crosses lm, its
rescaled inverse becomes the window h (held at the top lambda above the
top of the rescaled theta), and rho* is the envelope of the windowed
residual supremum.  The certificate re-verifies

    sup_{lm >= h(alpha)} |r_alpha(lm)|  <=  rho*(alpha)

for the same h that res.h reports, by an independent sweep at about 128
grid alphas, evaluated as one (alpha x lambda) residual mesh.
"""

import numpy as np

import specqual as sq

for fid in ("showalter", "tikhonov"):
    res = sq.construct_weak_qualification(sq.get_filter(fid))
    print(f"--- {fid}")
    print(f"  certificate holds: {res.certificate.holds} "
          f"(worst log-gap {res.certificate.detail['worst_log_gap']:.2e})")
    for a in (1e-6, 1e-4, 1e-2):
        h = float(np.exp(res.h.log_at(a)))
        lr = float(np.interp(np.log(a), np.log(res.rho_star.alphas),
                             res.rho_star.log_values))
        print(f"  alpha={a:8.1e}  h(alpha)={h:10.4g}  ln rho*(alpha)={lr:12.5g}")
    print()

# The construction's hypotheses genuinely matter: an oscillatory residual
# is not monotone in lambda, and the builder refuses it with a witness.
try:
    sq.construct_weak_qualification(sq.get_filter("ex8_osc", k=1.0))
except sq.HypothesisViolation as err:
    print(f"ex8_osc rejected: {err}")
