"""Invertibility across the p range: certified for p in (1, 2], lost above 2.

The p-norm distance matrix of n >= 2 distinct points is strictly almost
negative definite for every p in (1, 2], which pins its determinant sign at
(-1)^(n-1). This script hammers that claim with random configurations, then
shows the first cracks above p = 2.
"""

import numpy as np

from pnormdist import build_distance_matrix, check_and, find_pn

rng = np.random.default_rng(20260809)

# -- randomized certification sweep ---------------------------------------
trials = 300
ok = 0
for k in range(trials):
    n = int(rng.integers(2, 10))
    d = int(rng.integers(1, 6))
    p = float(rng.uniform(1.05, 2.0))
    x = rng.standard_normal((n, d))
    rep = check_and(build_distance_matrix(x, p).entries)
    ok += rep.verdict == "strictly-AND" and rep.det_sign == (-1) ** (n - 1)
print(f"det sign (-1)^(n-1) verified in {ok}/{trials} random instances, p in (1.05, 2)")

# -- the sign is structural: n-1 negative eigenvalues, one positive --------
x = rng.standard_normal((6, 3))
A = build_distance_matrix(x, 1.5).entries
eigs = np.linalg.eigvalsh(A)
print("\nspectrum at n=6, p=1.5:", np.round(eigs, 6))
print("negative eigenvalues:", int((eigs < 0).sum()), "| positive:", int((eigs > 0).sum()))

# -- above p = 2 the guarantee is gone, and genuinely so -------------------
# the smallest exponent with a known singular configuration shrinks toward 2
# as the configuration grows (see demo 05); here is where it sits for small n
for n in (2, 3, 4, 5):
    print(f"first singular exponent for the 2^{n}+2^{n}-point cube pair:",
          round(find_pn(n).value, 6))

# a random configuration above 2 usually still inverts, so the failure is
# easy to miss in testing; the point of the certificates is that nothing in
# (1, 2] can ever fail
rep = check_and(build_distance_matrix(x, 2.5).entries)
print("\nrandom 6-point set at p=2.5:", rep.verdict, "(no guarantee behind it)")
