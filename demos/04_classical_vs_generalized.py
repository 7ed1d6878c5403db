#!/usr/bin/env python3
"""Classical order, the increasing-weight inequality, and what the
generalized levels add.

The classical order mu_0 is the supremum of mu with
lambda^mu |r| = O(alpha^mu).  Methods with mu_0 = 0 or infinity carry no
classical rate information, yet still have perfectly good generalized
qualifications -- that gap is the whole point of the level machinery.
"""

import numpy as np

import specqual as sq

print("classical order brackets (dyadic mu grid, deep alpha probe):")
for fid in ("tikhonov", "ex7_piecewise", "ex3_exp", "ex4_log",
            "tsvd", "landweber", "showalter", "ex9_osc", "ex10_osc"):
    co = sq.estimate_classical_order(sq.get_filter(fid))
    if co.infinite:
        desc = "mu_0 = +inf (no classical order)"
    elif co.zero:
        desc = "mu_0 = 0 (no classical order)"
    else:
        desc = f"mu_0 in [{co.low}, {co.high})"
    print(f"  {fid:15s} {desc}")

print()
print("the oscillatory ex8 family tracks its parameter k:")
for k in (0.5, 1.0, 2.0):
    co = sq.estimate_classical_order(sq.get_filter("ex8_osc", k=k))
    print(f"  k={k}: bracket [{co.low}, {co.high})")

print()
print("increasing-weight inequality sup |r(lm)| rho(lm) <= gamma rho(alpha):")
tik = sq.check_mp_qualification(sq.get_filter("tikhonov"), sq.order_fn("alpha"))
print(f"  tikhonov, rho=alpha: passes={tik.passes}, gamma={tik.gamma:.4f}")

sho = sq.check_mp_qualification(sq.get_filter("showalter"),
                                sq.order_fn("exp(-1/sqrt(alpha))"))
print(f"  showalter, rho=exp(-1/sqrt(alpha)): passes={sho.passes}, "
      f"ratio max/min over the grid {sho.growth:.3g}, largest at "
      f"alpha={sho.witness_alpha:g}")
print(f"    ...but the windowed certificate still holds: {sho.weak_certificate}")
print("    (the method keeps this rate as weak qualification even though")
print("     the increasing-weight inequality rejects it)")
